(** Preemptive test scheduling: splitting pattern sets into sessions.

    The non-preemptive planner keeps a (source, sink) pair and its NoC
    paths busy for a core's whole test.  Splitting the pattern set into
    sessions lets long tests yield resources — useful under tight power
    limits and when a fast external interface frees mid-test (the very
    situation behind the paper's greedy anomaly).  The price is real:
    every session re-pays the source/sink software setup, both path
    fills and the final drain, so over-splitting loses.

    Sessions of the same core are strictly ordered in time (scan state
    is held in the core between sessions) and may use different
    resource pairs. *)

type session = {
  module_id : int;
  source : Resource.endpoint;
  sink : Resource.endpoint;
  start : int;
  finish : int;
  patterns : int;  (** patterns applied in this session, [>= 1] *)
  power : float;
  links : Nocplan_noc.Link.t list;
}

type plan = private {
  sessions : session list;  (** sorted by [start] then [module_id] *)
  makespan : int;
}

val plan_of_sessions : session list -> plan
(** @raise Invalid_argument on malformed intervals or [patterns < 1]. *)

type config = {
  application : Nocplan_proc.Processor.application;
  reuse : int;
  power_limit : float option;
  max_sessions : int;  (** split each core into at most this many *)
}

val config :
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?max_sessions:int ->
  reuse:int ->
  unit ->
  config
(** Defaults: BIST, no power limit, [max_sessions = 3].
    @raise Invalid_argument if [max_sessions < 1]. *)

val schedule : ?access:Test_access.table -> System.t -> config -> plan
(** Greedy list scheduling over session chunks, on the greedy engine
    ({!Scheduler.run_sessions}): each core's pattern set is divided
    into up to [max_sessions] near-equal chunks; chunk [k+1] becomes
    available when chunk [k] completes; each chunk picks the first
    available feasible pair, exactly like the non-preemptive greedy
    engine.  [access] is shared as in {!Scheduler.run}.
    @raise Scheduler.Unschedulable when no progress is possible.
    @raise Invalid_argument as {!Scheduler.run_sessions}. *)

val validate :
  ?access:Test_access.table ->
  System.t ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  plan ->
  (unit, Schedule.violation list) result
(** {!Schedule.validate_sessions} of the sessions, each carrying its
    pattern count: every module's sessions apply its whole pattern set
    and never overlap, a processor is ready once its last session
    ends, and each session's duration, power and links match
    {!Test_access.cost} for its pattern count.  [access] prices the
    sessions from their cells, as in {!Schedule.validate_sessions};
    without it every session is priced directly. *)

val pp_plan : plan Fmt.t
