(** Branch-and-bound test scheduling for small instances.

    The paper's scheduler is greedy and it self-reports an anomaly;
    this module provides the reference point: an exhaustive search
    over schedules (branching on which core starts next, on which
    (source, sink) pair, and on whether to deliberately wait for the
    next resource release) with lower-bound pruning.  Exponential —
    intended for systems of up to roughly ten modules, where it
    certifies the optimum the heuristics are compared against.

    Feasibility is evaluated directly against the committed entries
    (link-overlap and power checks recomputed per candidate), so the
    search shares no mutable state across branches. *)

type result = {
  schedule : Schedule.t;  (** the best schedule found *)
  exact : bool;
      (** [true] when the search space was exhausted within the node
          budget, i.e. [schedule] is optimal over the searched class *)
  nodes : int;  (** search nodes expanded *)
}

val schedule :
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?max_nodes:int ->
  reuse:int ->
  System.t ->
  result
(** Search for a minimal-makespan schedule.  [max_nodes] (default
    [300_000]) bounds the search; when exceeded the best incumbent is
    returned with [exact = false].  The greedy solution seeds the
    incumbent, so the result is never worse than {!Scheduler.run} with
    {!Scheduler.Greedy}.

    @raise Scheduler.Unschedulable when no complete schedule exists
    (e.g. the power limit is below a single test's power). *)
