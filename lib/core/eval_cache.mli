(** Exact-hit evaluation memo over {!Scheduler} traces.

    {!Annealing} evaluates many orders against one (system,
    configuration) key, and often the same order twice: a rejected
    move's revert is the previous order verbatim, and a repeated
    request meets the orders an earlier one evaluated.  The cache
    keeps the four most recent traces for its key.  An order identical to
    a retained trace's is a pure lookup; any other order is one full
    {!Scheduler.run_traced} through the cache's {!Scheduler.workspace},
    so every evaluation is a from-scratch run or the very trace one
    produced.

    The cache also keeps the best (lowest-makespan) trace {!offer}ed
    for its key, apart from the recency-bounded traces: a search
    driver that finds the cache again can start from it. *)

type t

val create :
  ?access:Test_access.table -> System.t -> Scheduler.config -> t
(** A cache for evaluations of one system under one configuration
    (the [order] field of the configuration is ignored — it is the
    quantity being searched).  [access] shares a precomputed table as
    in {!Planner.reuse_sweep}: a table built for a different system or
    application is ignored and a fresh one built instead. *)

val evaluate : t -> int array -> Scheduler.trace
(** Evaluate one order (not mutated; traces copy it).  Exact hits
    return the cached trace; any other order is a full engine run.

    @raise Scheduler.Unschedulable as {!Scheduler.run} (nothing is
    cached for the failed order).
    @raise Invalid_argument if [order] is not a permutation of the
    configured module set. *)

val schedule : t -> int array -> Schedule.t
(** [Scheduler.trace_schedule (evaluate t order)]. *)

val seed : t -> Scheduler.trace -> unit
(** Insert a trace produced elsewhere (e.g. the shared initial
    evaluation of the tempering chains, or a best-exchange import).
    @raise Invalid_argument if the trace belongs to another system or
    configuration. *)

val rebase : t -> Scheduler.trace -> unit
(** Adopt [trace] {e together with its system and access table} as the
    cache's new key.  When the trace belongs to the cache's current
    system this is exactly {!seed}; when it belongs to a different one
    (an accepted placement move, or a tempering exchange importing a
    chain's mutated placement) the retained traces — all evaluated
    under the old placement — are dropped with the {!best} trace and
    the cache restarts from [trace] alone.  Statistics survive; the
    evaluation arena re-validates itself on the next run.
    @raise Invalid_argument if the trace's configuration (ignoring
    order) differs from the cache's. *)

val access : t -> Test_access.table
(** The access table every evaluation shares. *)

val system : t -> System.t
(** The system the retained traces belong to.  Starts as the [system]
    given to {!create}; {!rebase} moves it to the adopted trace's
    (possibly placement-mutated) instance. *)

val best : t -> Scheduler.trace option
(** The lowest-makespan trace {!offer}ed under the current key, if
    any. *)

val offer : t -> Scheduler.trace -> unit
(** Keep [trace] as {!best} if it belongs to the cache's key and its
    makespan is strictly lower than the current best's (or there is
    none yet).  A trace of another system or configuration is
    ignored. *)

val matches : t -> system:System.t -> Scheduler.config -> bool
(** Whether the cache's key is exactly this (physical) system instance
    under this configuration modulo order — i.e. whether its traces
    may legally serve evaluations for [cfg] on [system]. *)

type snapshot = {
  evaluations : int;  (** {!evaluate} calls *)
  full_runs : int;  (** evaluated by a full engine run *)
  resumed : int;
      (** always 0: evaluations are exact hits or full runs.  Kept
          because the serve-mix benchmark's [eval_cache.resumed_ratio]
          still reads it. *)
  exact_hits : int;  (** returned a cached trace unchanged *)
}

val stats : t -> snapshot

val merge : into:t -> t -> unit
(** [merge ~into t] folds [t]'s retained traces into [into] (oldest
    first, so [into]'s most recent entries end up being [t]'s) and
    {!offer}s [t]'s {!best} trace to it.  Traces of another system or
    configuration — e.g. after a placement-move {!rebase} — are
    skipped.  Merging a cache into itself does nothing.  A cache
    evaluates on one thread at a time, so two concurrent searches of
    one configuration each hold their own cache; merging is how the
    second one's work joins the first's. *)
