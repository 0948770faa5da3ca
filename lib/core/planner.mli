(** Experiment driver: sweeps and derived metrics.

    Regenerates the quantities the paper reports: test time as a
    function of the number of processors reused (Figure 1) and the
    relative reductions quoted in the text. *)

type point = {
  reuse : int;
  makespan : int;
  peak_power : float;
  validated : bool;  (** the schedule passed {!Schedule.validate} *)
}

type sweep = {
  system_name : string;
  policy : Scheduler.policy;
  power_limit_pct : float option;
  points : point list;  (** reuse = 0 .. processor count, in order *)
}

val run_point :
  ?access:Test_access.table ->
  System.t ->
  policy:Scheduler.policy ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  point * Schedule.t
(** One sweep point: schedule with {!Scheduler.run}, re-check the
    schedule with {!Schedule.validate} and record its peak power.
    [access] as in {!Scheduler.run}.  Raises as {!Scheduler.run}. *)

val reuse_sweep :
  ?policy:Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit_pct:float ->
  ?max_reuse:int ->
  ?access:Test_access.table ->
  System.t ->
  sweep
(** Schedule the system for every reuse count from 0 (baseline:
    external interfaces only) to [max_reuse] (default: all
    processors).  [power_limit_pct] is the paper's percentage-of-total
    convention; omitted means unconstrained.  Every schedule is
    re-checked by the validator and the result recorded in
    [validated].

    [access] shares a precomputed {!Test_access.table} across several
    sweeps of the same system (e.g. an unconstrained and a
    power-limited series); a table built for a different system or
    application is ignored and a fresh one built instead, so the
    result never depends on it. *)

val power_sweep :
  ?policy:Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?access:Test_access.table ->
  reuse:int ->
  pcts:float list ->
  System.t ->
  (float * point) list
(** Makespan at a fixed reuse count under each power limit.  [access]
    as in {!reuse_sweep}. *)

val reduction_pct : baseline:int -> int -> float
(** Percentage reduction of [makespan] relative to [baseline]. *)

val best_point : sweep -> point
(** The sweep point with the smallest makespan (earliest on ties). *)

val baseline_point : sweep -> point
(** The [reuse = 0] point. @raise Invalid_argument if missing. *)

val schedule :
  ?policy:Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit_pct:float ->
  reuse:int ->
  System.t ->
  Schedule.t
(** One full schedule (convenience wrapper over {!Scheduler.run}). *)

val pp_sweep : sweep Fmt.t
