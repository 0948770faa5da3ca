(** Resolving a request's system specification to a {!Nocplan_core.System.t}.

    Both the CLI and the planning service accept the same description
    of a system under test: a builtin experiment name ([d695_leon],
    [p22810_mixed], ...), a bare ITC'02 corpus benchmark name plus
    processors to embed, or an inline benchmark description in the
    {!Nocplan_itc02.Parser} format.  This module is the single
    implementation of that resolution, so a request served over the
    socket builds exactly the system the [nocplan] CLI would. *)

type spec = {
  system : string;
      (** builtin system name, corpus benchmark name, or [""] when
          [soc_text] carries an inline description *)
  soc_text : string option;
      (** inline benchmark description; takes precedence over
          [system] *)
  width : int option;  (** mesh width; default: smallest near-square *)
  height : int option;
  leons : int;  (** Leon processors to embed (non-builtin systems) *)
  plasmas : int;
}

val spec :
  ?soc_text:string ->
  ?width:int ->
  ?height:int ->
  ?leons:int ->
  ?plasmas:int ->
  string ->
  spec
(** [spec name] with [leons] and [plasmas] defaulting to 0. *)

val builtin_system : string -> Nocplan_core.System.t option
(** The named builtin experiment system ({!Nocplan_core.Experiments.all}),
    freshly built. *)

val assemble :
  soc:Nocplan_itc02.Soc.t ->
  width:int option ->
  height:int option ->
  leons:int ->
  plasmas:int ->
  Nocplan_core.System.t
(** Embed [leons] + [plasmas] processors into [soc] on a mesh sized
    [width] x [height] (default: the smallest near-square mesh with at
    least one tile per module), with one input port at the north-west
    corner and one output port at the south-east corner — the CLI's
    assembly convention.  @raise Invalid_argument on bad dimensions or
    negative processor counts. *)

val max_table_cells : int
(** The largest access table a spec may call for: 1,000,000 cells,
    about 75 MB at the ~9 live words a cell holds
    ({!Nocplan_core.Test_access}).  An assembled system's table has
    [(modules + leons + plasmas) * (2 + leons + plasmas)^2] cells; d695
    with 60 Leons needs 269,080, and no builtin system more than 4,000. *)

type error =
  | Unresolved of string
      (** no builtin system or corpus benchmark by that name, a
          malformed inline description, or a mesh the processors do
          not fit *)
  | Too_large of string
      (** the system's access table would exceed {!max_table_cells};
          the message names the processor fields *)

val error_message : error -> string

val resolve : spec -> (Nocplan_core.System.t, error) result
(** Resolve a spec: inline description if present, else builtin
    system, else corpus benchmark.  All constructor errors are
    reported as [Error].  A spec whose table would exceed
    {!max_table_cells} is refused before any processor, mesh or table
    is created; a count above the cap on its own is refused before any
    arithmetic on it, and a negative count is [Unresolved]. *)

val build : spec -> (Nocplan_core.System.t, string) result
(** {!resolve} with the error as its message. *)
