(** Running power accounting over the schedule horizon.

    The instantaneous system power is the sum of the powers of all
    concurrently running tests; a power-constrained schedule must keep
    it below the limit at every instant.  Intervals are half-open. *)

type t

val create : limit:float option -> t
(** [limit = None] disables the constraint. *)

val limit : t -> float option

val fits : t -> start:int -> finish:int -> power:float -> bool
(** Would adding a test of this power over the window keep the peak
    within the limit?  Always true without a limit, or for an empty
    window. *)

val add : t -> start:int -> finish:int -> power:float -> unit
(** Record a test.  @raise Invalid_argument if the window is malformed
    or [fits] is violated (callers must check first). *)

val peak : t -> float
(** Highest instantaneous power recorded so far (0 when empty). *)

val power_at : t -> int -> float
(** Instantaneous power at a time point. *)
