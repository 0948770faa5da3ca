(** Prefix-keyed evaluation cache over {!Scheduler} traces.

    The search drivers ({!Annealing}, the order-space branch-and-bound
    in {!Exhaustive}) evaluate many orders that agree on long
    prefixes: a swap move changes nothing before its first swapped
    position, permutations are enumerated in lexicographic order, and
    a rejected move's revert is the previous order verbatim.  The
    cache keeps the most recent traces for one (system, configuration)
    key; each evaluation finds the cached trace with the longest
    common order prefix and {!Scheduler.resume}s it, which is
    byte-identical to a from-scratch run at a fraction of the work.
    An identical order is a pure lookup.

    The cache also keeps the best (lowest-makespan) trace {!offer}ed
    for its key, apart from the recency-bounded traces: a search
    driver that finds the cache again can start from it. *)

type t

val create :
  ?capacity:int -> ?access:Test_access.table -> System.t ->
  Scheduler.config -> t
(** A cache for evaluations of one system under one configuration
    (the [order] field of the configuration is ignored — it is the
    quantity being searched).  [capacity] (default 4) bounds the
    retained traces, evicted least-recently-used.  [access] shares a
    precomputed table as in {!Planner.reuse_sweep}: a table built for
    a different system or application is ignored and a fresh one built
    instead.

    @raise Invalid_argument if [capacity < 1]. *)

val evaluate : t -> int array -> Scheduler.trace
(** Evaluate one order (not mutated; traces copy it).  Exact hits
    return the cached trace; otherwise the best-prefix trace is
    resumed, or a full run performed on an empty cache.

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

val traces : t -> Scheduler.trace list
(** Retained traces, most recently used first — the branch-and-bound
    reads these to prune with {!Scheduler.prefix_bound}. *)

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
  full_runs : int;  (** evaluated from scratch (cold cache) *)
  resumed : int;  (** evaluated by prefix resume *)
  exact_hits : int;  (** returned a cached trace unchanged *)
}

val stats : t -> snapshot

(** Cross-request sharing of caches.

    A cache itself is single-threaded by contract (its workspace arena
    is exclusive), so concurrent users cannot evaluate through one
    simultaneously.  The registry makes sharing safe by handing out
    {e exclusive ownership}: {!Shared.checkout} removes the cache for a
    key from the registry (building a fresh one on a miss), the caller
    evaluates through it alone, and {!Shared.checkin} returns it for
    the next request on the same key.  Two simultaneous requests on one
    key simply each get a cache — the later check-in merges its traces
    into the resident one — so the registry never blocks for the
    duration of a solve, only for list surgery. *)
module Shared : sig
  type cache := t
  type registry

  val registry : ?capacity:int -> unit -> registry
  (** An empty registry holding at most [capacity] (default 8) caches,
      evicted least recently used.
      @raise Invalid_argument if [capacity < 1]. *)

  val checkout :
    registry -> key:string -> ?cache_capacity:int ->
    ?access:Test_access.table -> System.t -> Scheduler.config ->
    cache * bool
  (** [checkout r ~key system cfg] takes exclusive ownership of the
      cache registered under [key], or creates a fresh one (forwarding
      [cache_capacity] and [access] to {!create}) when the key is
      absent — or present but keyed to a different physical system
      instance or configuration, in which case the stale cache is
      dropped with its {!best} trace.  Returns [(cache, hit)]; [hit]
      is true iff a resident matching cache was reused. *)

  val checkin : registry -> key:string -> cache -> unit
  (** Return a checked-out (or freshly built) cache to the registry.
      If another cache was checked in under [key] in the meantime, the
      resident one is kept and the returned cache's traces are merged
      into it, its {!best} trace {!offer}ed to the resident's
      (mismatching traces — e.g. after a placement-move {!rebase} — are
      silently skipped).  Callers should not check in a cache whose
      {!system} no longer is the instance other requests resolve
      to. *)

  val hits : registry -> int
  (** Checkouts served by a resident matching cache. *)

  val misses : registry -> int
  (** Checkouts that had to build a fresh cache. *)

  val length : registry -> int
  (** Currently resident caches. *)
end
