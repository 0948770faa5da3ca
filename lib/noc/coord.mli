(** Router coordinates on a 2-D mesh. *)

type t = { x : int; y : int }

val make : x:int -> y:int -> t
(** @raise Invalid_argument on negative components. *)

val manhattan : t -> t -> int
(** Hop distance under minimal (XY) routing. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic: [x] first, then [y]. *)

val pp : t Fmt.t
