(** Adaptive re-planning after a mid-session event.

    A channel diagnosed faulty while the test session is running voids
    every test in flight across it; the already-completed tests stand.
    This module salvages a running schedule: keep what finished before
    the event, void what was in flight, and re-plan the remainder on
    the degraded NoC — reusing processors whose own tests had already
    completed without re-testing them. *)

type result = {
  kept : Schedule.entry list;  (** tests completed before the event *)
  voided : Schedule.entry list;
      (** tests in flight at the event: their runs are void and their
          modules appear again in [replanned] *)
  replanned : Schedule.entry list;  (** the new plan, starting at [at] *)
  makespan : int;  (** overall completion: kept + replanned *)
}

val after_fault :
  ?policy:Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  reuse:int ->
  at:int ->
  failed:Nocplan_noc.Link.t list ->
  System.t ->
  Schedule.t ->
  result
(** [after_fault ~reuse ~at ~failed system schedule] re-plans
    [schedule] assuming the [failed] channels died at time [at].

    The kept/voided split is by {e time only}: an entry is kept iff it
    finished at or before [at] ([finish <= at]), voided otherwise —
    whether or not its paths touch a failed channel.  Two pinned
    consequences:
    - a [failed] link {e no stream occupies} still voids every test in
      flight at [at] and re-plans its modules on the degraded NoC (the
      diagnosis interrupts the session; it does not selectively kill
      streams), and with [failed = []] the voided tests are re-planned
      on the intact NoC;
    - an [at] at or past the schedule's makespan keeps everything:
      [voided] and [replanned] are empty and [makespan] equals the
      original (nothing was in flight, so nothing is re-planned —
      faults after the session only matter to the next one).

    Re-planning prices the remainder under the same deterministic XY
    routing on the degraded system; for fault-{e aware} detour routing
    and graceful abandonment of unreachable modules, see
    [Nocplan_fault.Recover].

    @raise Scheduler.Unschedulable if the degraded NoC cannot reach
    some remaining core.
    @raise Invalid_argument if [at < 0]. *)

val validate :
  System.t ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  at:int ->
  failed:Nocplan_noc.Link.t list ->
  result ->
  (unit, Schedule.violation list) Stdlib.result
(** {!Schedule.validate_replan} on the degraded system: [replanned]
    against the frontier it was planned under — nothing before [at],
    exactly the modules [kept] did not test, [kept]'s processors
    already tested — and [kept] itself finished by [at], each module
    once. *)

val pp_result : result Fmt.t
