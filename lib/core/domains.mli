(** Shared domain-count policy and fan-out helper for the Domain
    parallel drivers.

    OCaml 5 domains are heavyweight (one systhread + minor heap each),
    so the parallel drivers — the corpus sweep runner and the bench's
    fan-outs — clamp their requested parallelism the same way instead
    of each inventing its own.  The solvers themselves run in the
    calling domain: parallelism lives one layer up, in the serve
    worker pool and the corpus runner. *)

val clamp : int -> int
(** [clamp requested] is [requested] bounded to
    [1 .. Domain.recommended_domain_count ()].  Counts above the
    recommendation cannot run in parallel anyway and only add spawn
    and contention overhead; results never depend on the domain count,
    so clamping is invisible to callers. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items] is [List.map f items] evaluated on up to
    [clamp domains] domains (default [1], i.e. sequential).  Items are
    fanned out round-robin over the worker domains and reassembled in
    input order, so the result is independent of the domain count.  An
    exception raised by [f] on any item propagates from the join.  [f]
    must therefore be safe to run concurrently with itself on distinct
    items. *)
