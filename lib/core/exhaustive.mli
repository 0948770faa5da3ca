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

type order_result = {
  schedule : Schedule.t;  (** the best schedule found *)
  exact : bool;
      (** [true] when every permutation was evaluated or provably
          pruned within the evaluation budget *)
  evaluations : int;  (** leaves evaluated (full engine runs) *)
  pruned : int;  (** subtrees cut by the shared-prefix lower bound *)
}

val order_search :
  ?policy:Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?max_evals:int ->
  reuse:int ->
  System.t ->
  order_result
(** Exhaustive search over {e orders} rather than schedules: find the
    module visiting order minimizing the engine's makespan under the
    given policy — the certified optimum of the space {!Annealing}
    samples.  Permutations are enumerated in lexicographic order from
    the priority heuristic, each evaluated by one full engine run
    through a shared {!Eval_cache}, and pruned with
    {!Scheduler.prefix_bound} over the cache's retained traces
    (consecutive leaves share long prefixes, so a retained trace bounds
    the subtree the next leaves sit in).  [max_evals] (default [20_000])
    bounds the engine evaluations; when exceeded the best incumbent is
    returned with [exact = false].  The first leaf is the priority
    order itself, so the result is never worse than {!Scheduler.run}.

    @raise Scheduler.Unschedulable when no order admits a complete
    schedule.
    @raise Invalid_argument if [max_evals < 1]. *)
