(** The visit order of the {!Scheduler}'s lookahead policy, without a
    sort per attempt.

    Among the pooled (source, sink) slot pairs of a module, lookahead
    prefers the lowest estimated finish [max now ready + duration],
    ties to the lower source-major index [source * n + sink].  It
    offers idle pairs in that order until one is accepted, and gives
    up at the first busy pair, waiting for it rather than settling for
    a worse one.

    A pair's duration is fixed for a module, so one order sorted by
    (duration, source, sink) serves every attempt.  An idle pair's key
    is [now + duration], so the walk meets idle pairs in key order,
    and a busy pair it has not reached yet has a key above
    [now + duration] of the current entry.  Tracking the best busy
    pair seen so far is therefore enough: an idle pair is offered iff
    it beats that pair, and the walk ends once [now + duration]
    exceeds its key. *)

type t

val create : n:int -> (src:int -> snk:int -> int) -> t
(** [create ~n duration] orders the pairs of slots [0 .. n-1] by
    (duration, source, sink), keeping those whose [duration ~src ~snk]
    is nonnegative (a negative value marks an infeasible pair).
    @raise Invalid_argument if a duration times [n * n] overflows an
    [int]. *)

val walk : t -> now:int -> avail:int array -> (int -> int -> bool) -> int
(** [walk t ~now ~avail offer] calls [offer src snk] on the idle pairs,
    in lookahead order, until one call returns [true] or the next pair
    in that order is busy.  [avail.(i)] is the time slot [i] is idle
    from; a negative value keeps the slot out of the pool, and pairs
    touching it are skipped.  Returns the number of order entries
    visited. *)
