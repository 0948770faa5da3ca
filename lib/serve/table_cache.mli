(** Shared LRU cache of precomputed {!Nocplan_core.Test_access.table}s
    and the evaluation caches planned against them.

    Building an access table — a cost cell for every module against
    every endpoint pair, plus each module's wrapper design — costs
    about as much as the scheduler run a plan request makes, and the
    table is immutable once built.  The service therefore caches
    tables across requests, keyed by {!Nocplan_core.System.fingerprint}
    plus the test application.

    The table API demands {e physical} equality between the table's
    system and the one being planned ({!Nocplan_core.Test_access.table_for}),
    while two requests for the same benchmark build two structurally
    equal systems.  The cache squares this by storing the system
    {e alongside} its table: a hit hands back the cached system, and
    the caller plans against that instance.  Schedules are a function
    of the system's structure only, so the swap is unobservable (a
    test pins cached and uncached responses byte-identical).

    {b Evaluation caches.}  Each entry also owns the
    {!Nocplan_core.Eval_cache}s of its configurations (policy, power
    limit and reuse), at most {!evals_per_entry} of them, evicted least
    recently used.  They depend on the entry's system instance and
    table, so they live and die with the entry: evicting a system drops
    its evaluation caches, and a rebuilt system starts with none.

    Entry lookups are serialized by a cache-wide mutex; evaluation-cache
    check-outs by a per-entry one, so they never wait behind another
    system's table build.  The cache is shared by every worker
    domain. *)

type t

type entry
(** One cached system with its access table and evaluation caches. *)

val create : capacity:int -> t
(** Keep at most [capacity] tables, evicting the least recently used.
    @raise Invalid_argument if [capacity < 1]. *)

val find_or_build :
  t ->
  Nocplan_core.System.t ->
  application:Nocplan_proc.Processor.application ->
  entry * bool
(** [(entry, hit)]: on a hit, the cached entry, whose {!system} is
    structurally equal to the argument; on a miss, a fresh (and now
    cached) entry holding the argument itself and a newly built table.
    The build happens while holding the cache lock, so concurrent
    requests for the same system build the table exactly once. *)

val system : entry -> Nocplan_core.System.t
(** The system instance to plan against. *)

val table : entry -> Nocplan_core.Test_access.table
(** The access table built for {!system}. *)

val evals_per_entry : int
(** Evaluation caches one entry keeps (8). *)

val checkout :
  t -> entry -> Nocplan_core.Scheduler.config -> Nocplan_core.Eval_cache.t * bool
(** [checkout t entry cfg] takes exclusive ownership of the entry's
    evaluation cache for [cfg] (the [order] field is ignored), or
    creates a fresh one over the entry's system and table when none is
    resident.  Returns [(cache, hit)]; [hit] is true iff a resident
    cache was reused.  Two simultaneous check-outs of one configuration
    each get a cache; see {!checkin}. *)

val checkin :
  entry -> Nocplan_core.Scheduler.config -> Nocplan_core.Eval_cache.t -> unit
(** Return a cache checked out for [cfg] to its entry, as the most
    recently used.  If another cache for [cfg] was checked in
    meanwhile, that resident is kept and the returned one merged into
    it ({!Nocplan_core.Eval_cache.merge}).  A cache that a placement
    move rebased onto another system is dropped. *)

val hits : t -> int
val misses : t -> int
val length : t -> int

val eval_hits : t -> int
(** Check-outs served by a resident evaluation cache. *)

val eval_misses : t -> int
(** Check-outs that created a fresh evaluation cache. *)
