(** Simulated annealing over test orderings — and, optionally, over
    the placement itself — with parallel tempering.

    The greedy engine commits cores in a fixed visiting order; the
    paper derives that order from distances to the resources.  This
    optimizer searches the order space instead: neighbours swap two
    positions, each candidate order is evaluated by running the
    (deterministic) engine, and worse moves are accepted with the usual
    Metropolis probability under a geometric cooling schedule.
    Candidate evaluation goes through {!Eval_cache}: a swap at position
    [p] re-schedules only the suffix from the divergence event, and a
    revert is a cache hit instead of a re-run.

    With [placement_moves > 0] the walk becomes {e joint}: each
    iteration is, with that probability, a {b placement swap} — the
    tiles of two random non-pinned modules are exchanged
    ({!System.swap_tiles}; processors and IO ports stay where they
    are) — and otherwise the usual order swap.  A placement swap
    invalidates only the two modules' rows of the access table, which
    {!Test_access.table_rebuild} recomputes incrementally, and the
    candidate (the current order on the swapped placement) is
    evaluated by a full {!Scheduler.run_traced} on the rebuilt table —
    the rebuild, not the run, dominates a move's cost.  On torus topologies, where wraparound halves worst-case
    hop counts, the placement dimension is where the remaining test
    time lives — an order-only anneal of a torus system mostly
    rearranges equal path lengths.

    With [chains > 1] the search becomes parallel tempering: K
    independent chains, deterministically seeded from the base seed
    and started on a ×2-per-chain temperature ladder, run on OCaml
    domains and exchange their best (order, placement) pair every
    [exchange_period] iterations (a chain strictly worse than the
    global best restarts its walk there — adopting order, system and
    table — keeping its own temperature).  Chain 0 of a multi-chain
    run anneals the order only, so the coldest rung reproduces the
    order-only trajectory exactly and the joint result is never worse
    than order-only annealing under the same seed.  The outcome is a
    function of the parameters only — never of the machine's domain
    count.

    Sits between the O(ms) greedy heuristic and the exponential
    {!Exhaustive} search: a few hundred engine evaluations buy most of
    the available improvement on mid-size systems. *)

type result = {
  schedule : Schedule.t;  (** best schedule found across all chains *)
  system : System.t;
      (** the system the best schedule belongs to: the input system
          under placement-less annealing, a placement-mutated copy of
          it when a placement move won *)
  best_trace : Scheduler.trace;
      (** the winning evaluation itself — hand it back as [warm_start]
          to a later search of the same system and configuration to
          resume from this result *)
  initial_makespan : int;
      (** the makespan the walk started from: the heuristic-order
          (greedy) makespan, or the [warm_start] trace's *)
  warm_started : bool;  (** a [warm_start] trace was accepted *)
  evaluations : int;  (** engine runs performed, summed over chains *)
  accepted : int;  (** moves accepted (including uphill ones) *)
  placement_evals : int;  (** placement-swap candidates evaluated *)
  placement_accepted : int;  (** placement swaps accepted *)
  chains : int;  (** tempering chains run *)
  exchanges : int;  (** best-exchange adoptions between chains *)
}

val improvement_pct : result -> float
(** Reduction of the best makespan relative to the initial one; 0 when
    the initial makespan is 0 (a degenerate empty system). *)

val schedule :
  ?policy:Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?iterations:int ->
  ?initial_temperature:float ->
  ?cooling:float ->
  ?seed:int64 ->
  ?chains:int ->
  ?exchange_period:int ->
  ?placement_moves:float ->
  ?access:Test_access.table ->
  ?warm_start:Scheduler.trace ->
  ?eval_cache:Eval_cache.t ->
  reuse:int ->
  System.t ->
  result
(** Run the search.  Defaults: [Greedy] inner policy, BIST, no power
    limit, [iterations = 400] (per chain), [initial_temperature] = 2%
    of the initial makespan, [cooling = 0.99] per iteration,
    [seed = 0x5AL], [chains = 1], [exchange_period = 50],
    [placement_moves = 0.0] (order-only — byte-identical to the
    historical annealer, consuming the same generator stream).  Fully
    deterministic for fixed arguments; [chains = 1] reproduces the
    historical sequential annealer move for move.  The result is never
    worse than the plain heuristic order.  [access] shares a
    precomputed table as in {!Planner.reuse_sweep}; a mismatched table
    is ignored.

    [placement_moves] is the probability that an iteration swaps two
    module tiles instead of two order positions; with [chains > 1],
    chain 0 keeps annealing the order only (see above).

    [warm_start] resumes from an earlier search: a [best_trace]
    produced for the {e same} system (physically) and configuration is
    adopted as the shared initial evaluation — every chain starts at
    the warmed order, its evaluation cache pre-seeded with the trace's
    prefixes, and the initial engine run is skipped — so the result is
    never worse than the warm trace's makespan.  A trace for another
    system or configuration is silently ignored (like a mismatched
    [access]); [warm_started] in the result says which happened.
    Note that a warm start changes the search trajectory (the walk
    explores around the warmed order), trading bit-for-bit
    reproducibility of the cold run for convergence.

    [eval_cache] lends a caller-owned {!Eval_cache} (for the same
    physical system and configuration modulo order) to chain 0 for
    the duration of the search: its retained prefix traces serve this
    search's evaluations, and the traces this search produces are left
    in it for the next caller.  The search result is unaffected —
    cached evaluation is byte-identical to from-scratch evaluation —
    except in speed.  A mismatched cache is silently ignored.  The
    caller must not touch the cache until [schedule] returns, and
    should note that accepted placement moves {!Eval_cache.rebase} it
    onto the mutated system (check {!Eval_cache.system} before reusing
    it for the original one).

    @raise Scheduler.Unschedulable if even the initial order cannot be
    scheduled.
    @raise Invalid_argument for non-positive [iterations], [chains] or
    [exchange_period], [cooling] outside (0, 1], negative
    temperature, or [placement_moves] outside [0, 1]. *)
