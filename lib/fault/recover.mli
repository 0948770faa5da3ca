(** Fault-aware session recovery.

    The detour-routing counterpart of {!Nocplan_core.Replan}: when
    routers or links die mid-session, [after] keeps the finished
    tests, voids the in-flight ones, prices the remainder over
    {!Detour} routes on the degraded system — and, unlike the plain
    replanner, {e abandons} modules the fault set leaves without any
    test path instead of raising [Unschedulable].  The fraction still
    testable is the availability figure the sweeps plot. *)

type outcome = {
  kept : Nocplan_core.Schedule.entry list;
      (** finished strictly before the event *)
  voided : Nocplan_core.Schedule.entry list;  (** in flight; discarded *)
  abandoned : int list;
      (** module ids with no test path on the degraded NoC — sorted,
          {e cumulative} (includes the ids passed in) *)
  replanned : Nocplan_core.Schedule.entry list;
  makespan : int;  (** max finish over kept + replanned *)
  availability : float;
      (** (modules - abandoned) / modules, in [0, 1] *)
}

val after :
  ?policy:Nocplan_core.Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?abandoned:int list ->
  reuse:int ->
  at:int ->
  faults:Detour.fault_set ->
  Nocplan_core.System.t ->
  Nocplan_core.Schedule.t ->
  outcome
(** [after ~reuse ~at ~faults system schedule] reacts to [faults]
    materializing at instant [at] of [schedule].  Entries finished by
    [at] are kept (their processors count as pretested); in-flight and
    future entries are voided; remaining modules are re-planned from
    [at] on the degraded system with a detour-routed access table.  A
    remaining module none of whose endpoint pairs is feasible over
    healthy routes — directly, or transitively because every usable
    source/sink processor is itself untestable — is abandoned rather
    than scheduled.  [abandoned] carries the ids already given up in
    earlier events of the same campaign; they stay abandoned and are
    excluded from coverage, unless [schedule] finished them by [at]
    (a kept test is never also abandoned).

    Emits a ["fault.replan"] trace span (the detour table build inside
    adds its own ["fault.detour"] span).

    @raise Invalid_argument on a negative [at] or out-of-range
    [reuse].
    @raise Nocplan_core.Scheduler.Unschedulable only through the power
    limit: path existence is prefiltered, but a cap no feasible pair
    fits under still surfaces. *)

val availability_of : Nocplan_core.System.t -> abandoned:int list -> float

val validate :
  ?application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  at:int ->
  faults:Detour.fault_set ->
  Nocplan_core.System.t ->
  outcome ->
  (unit, Nocplan_core.Schedule.violation list) result
(** {!Nocplan_core.Schedule.validate_replan} on the degraded system,
    priced along the {!Detour} routes of [faults] (the validator
    re-derives its own detour table): [replanned] against the frontier
    it was planned under — nothing before [at], exactly the modules
    neither [kept] nor [abandoned], [kept]'s processors already tested
    — and [kept] itself finished by [at], each module once and none
    abandoned.  An abandoned module that is still tested is therefore
    a {!Nocplan_core.Schedule.Module_outside_plan}, and a test touching
    a blocked channel fails the route and links checks.  Shares no
    state with {!after}. *)

val pp_outcome : outcome Fmt.t
