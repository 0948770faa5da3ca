(** Shared LRU cache of precomputed {!Nocplan_core.Test_access.table}s.

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

    All operations are serialized by an internal mutex; the cache is
    shared by every worker domain. *)

type t

val create : capacity:int -> t
(** Keep at most [capacity] tables, evicting the least recently used.
    @raise Invalid_argument if [capacity < 1]. *)

val find_or_build :
  t ->
  Nocplan_core.System.t ->
  application:Nocplan_proc.Processor.application ->
  Nocplan_core.System.t * Nocplan_core.Test_access.table * bool
(** [(system, table, hit)]: on a hit, the cached system (structurally
    equal to the argument) and its table; on a miss, the argument
    itself with a freshly built (and now cached) table.  The build
    happens while holding the cache lock, so concurrent requests for
    the same system build the table exactly once. *)

val key :
  Nocplan_core.System.t ->
  application:Nocplan_proc.Processor.application ->
  string
(** The cache key for a system/application pair — the system
    fingerprint plus an application tag.  Exposed so sibling caches
    (the service's shared evaluation-cache registry) key their entries
    consistently with this one: two requests that share a table entry
    share the prefix of their registry key too. *)

val hits : t -> int
val misses : t -> int
val length : t -> int
