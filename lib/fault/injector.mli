(** Seeded fault injection campaigns.

    Kills routers and channels at drawn instants of a running test
    session and drives {!Recover.after} at each event, accumulating
    the fault set, the surviving schedule and the abandoned modules —
    the engine behind the availability sweeps and the [faults] CLI.

    Everything is deterministic in the seed: {!draw} makes one seeded
    permutation of all candidate targets plus one time per target, and
    a rate takes a prefix of that sequence.  Fault sets at increasing
    rates are therefore {e nested}, so the {e injected fault count} of
    a {!sweep} is monotone by construction.  Availability usually falls
    with the rate too, but that is not guaranteed: an extra early fault
    triggers a replan that can move a module ahead of a later shared
    fault which would have abandoned it at the lower rate, so
    availability can locally rise (corpus sweeps hit this on roughly
    0.5% of synthetic systems). *)

type target =
  | Router of Nocplan_noc.Coord.t
  | Channel of Nocplan_noc.Link.t

val pp_target : target Fmt.t

type event = { at : int; target : target }

val pp_event : event Fmt.t

val candidates : Nocplan_noc.Topology.t -> target list
(** Everything that can fail, in deterministic order: every router
    (row-major), then every directed inter-router channel. *)

val draw :
  seed:int -> rate:float -> horizon:int -> Nocplan_noc.Topology.t -> event list
(** [ceil (rate * candidates)] fault events with times uniform in
    [[1, horizon]], sorted by time.  Same seed, higher rate: a
    superset of the events.
    @raise Invalid_argument if [rate] is outside [[0, 1]] or
    [horizon < 1]. *)

val fault_set_of : target list -> Detour.fault_set

type step = {
  at : int;
  injected : target list;  (** targets that died at this instant *)
  faults : Detour.fault_set;  (** cumulative fault set after them *)
  outcome : Recover.outcome;
}

type run = {
  baseline : Nocplan_core.Schedule.t;
      (** the fault-free schedule the campaign starts from — with no
          events, [schedule] is this very value (physical equality,
          hence bit-identical to the plain scheduler output) *)
  steps : step list;
  schedule : Nocplan_core.Schedule.t;  (** final kept + replanned schedule *)
  faults : Detour.fault_set;
  abandoned : int list;
  makespan : int;
  availability : float;
  replans : int;  (** distinct event instants handled *)
}

val run :
  ?policy:Nocplan_core.Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  reuse:int ->
  events:event list ->
  Nocplan_core.System.t ->
  run
(** Schedule the session fault-free, then replay [events] in time
    order: events sharing an instant are injected together, each
    distinct instant drives one {!Recover.after} against the schedule
    surviving so far.  Emits a ["fault.inject"] trace instant per
    event group.  Raises as {!Recover.after}. *)

type point = {
  rate : float;
  injected : int;
  availability : float;
  makespan : int;
  abandoned_count : int;
  replans : int;
}

val sweep :
  ?policy:Nocplan_core.Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?access:Nocplan_core.Test_access.table ->
  reuse:int ->
  seed:int ->
  rates:float list ->
  Nocplan_core.System.t ->
  (point * run) list
(** One campaign per rate, all drawn with [seed] over the fault-free
    makespan as horizon — the availability / makespan-degradation
    curve.

    [access] is the XY {!Nocplan_core.Test_access.table} of this system
    and [application]: the fault-free schedule is planned on it and the
    first replan degrades it, so the sweep builds no table of its own.
    The points and runs are those of a sweep without it.  Without
    [access] the sweep builds that table itself.
    @raise Invalid_argument if [access] fails
    {!Nocplan_core.Test_access.table_for} for this system and
    [application], or was built with a custom route. *)

val pp_point : point Fmt.t
