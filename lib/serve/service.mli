(** The concurrent planning service.

    A long-running engine that turns protocol request lines into
    response lines: requests are admitted through a bounded
    {!Job_queue} (backpressure: a full queue answers [overload]
    immediately) and executed by a pool of OCaml domains sized from
    [Domain.recommended_domain_count].  Each worker resolves the
    request's system, fetches or builds the shared access table
    through the {!Table_cache}, runs the planner and renders the
    response.

    {b Deadlines.}  A request carrying [deadline_ms] is checked
    cooperatively: when it is dequeued, after the system is built,
    after the access table is fetched, and between the per-reuse
    scheduler runs of a sweep.  An expired request answers a [timeout]
    error; the worker and the server survive.  A single scheduler run
    is the cancellation granularity — it is never interrupted
    mid-flight.

    {b Coalescing.}  Identical planning requests in flight at the same
    time ({!Protocol.coalesce_key}) are solved once: the first becomes
    the job, later arrivals park on it ({!Inflight}) and are answered
    with the shared verdict under their own envelope, marked
    [coalesced].  Requests carrying a deadline are exempt.

    {b Evaluation caches.}  One {!Nocplan_core.Eval_cache} per
    configuration (policy, power limit, reuse) lives in the system's
    {!Table_cache} entry, next to the access table it evaluates
    against.  A solve checks the configuration's cache out (exclusive
    ownership for its duration), so plan/validate repeats become exact
    trace hits that skip the engine run, and an anneal hits the orders
    earlier searches of the configuration already evaluated.
    Byte-identity of cached evaluation makes this invisible in the
    responses.

    {b Warm starts.}  Each completed anneal offers its best trace to
    the configuration's evaluation cache, which keeps the
    lowest-makespan one ({!Nocplan_core.Eval_cache.best}); the next
    anneal of the same configuration starts from it instead of the
    cold heuristic order, and can only improve on it.  The response
    says which with its [warm_start] field, and [warm_hits] counts only
    searches that adopted a trace.  The trace lives and dies with its
    cache: a cache evicted from its entry, a cache dropped after a
    placement move, an evicted system, or another request holding the
    cache all mean a cold start.  A request with ["warm": false] skips
    the lookup and searches cold (its result is still offered).

    {b Observability.}  Every response is counted ({!Stats});
    [metrics] requests are answered inline (never queued, so they
    cannot be starved by planning traffic) with the current snapshot.
    Request logging goes to the [nocplan.serve] {!Logs} source. *)

type t

val log_src : Logs.Src.t
(** The [nocplan.serve] log source, shared with the transports. *)

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  unit ->
  t
(** Start the worker pool.  [workers] defaults to
    [max 1 (Domain.recommended_domain_count () - 1)] (one domain is
    left to the callers feeding the queue) and is clamped to
    [Domain.recommended_domain_count ()]; [queue_capacity] defaults to
    64 (0 is allowed and rejects everything — the backpressure test
    hook); [cache_capacity] (default 8) bounds the systems kept in the
    {!Table_cache}, each with up to
    {!Table_cache.evals_per_entry} evaluation caches.  Each worker
    runs its jobs one at a time, in queue order.
    @raise Invalid_argument on a negative [queue_capacity],
    [cache_capacity < 1] or [workers < 1]. *)

val handle_line : ?read_only:bool -> t -> string -> (string list -> unit) -> unit
(** Process one request line.  [respond] is called exactly once with
    the response line as chunks (concatenate; no newline):
    synchronously for [metrics], parse errors and overload rejections;
    from a worker domain otherwise.  [respond] must therefore be
    thread-safe.  With [read_only] (a listener flag, not a service
    one) planning ops are refused with a [read_only] error; [metrics]
    and [prometheus] are still served. *)

val request : ?read_only:bool -> t -> string -> string
(** Blocking convenience wrapper around {!handle_line}: submit and
    wait for the response. *)

val stats : t -> Stats.snapshot
val worker_count : t -> int

val drain : t -> unit
(** Block until every admitted request has been responded to. *)

val shutdown : t -> unit
(** Drain, stop and join the workers.  The service must not be used
    afterwards.  Idempotent. *)
