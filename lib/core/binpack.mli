(** Rectangle bin-packing scheduler (Wrapper/TAM-style formulation).

    The alternative formulation from the Wrapper/TAM co-optimization
    literature: each core test is a rectangle whose {e height} is its
    test time and whose {e width} is the access bandwidth it occupies —
    here, one (source, sink) endpoint pair plus the XY channel
    footprint between them, the NoC's analogue of a TAM wire group.
    The bin is the system's whole access fabric over time.

    The packer is a level (shelf) heuristic with best-fit decreasing:
    modules are sorted by their cheapest achievable test time
    (tallest rectangle first) and greedily packed into horizontal
    shelves.  Within a shelf every test starts at the same instant on
    pairwise-disjoint endpoints and channels, and the running power
    sum is pruned against the limit before a rectangle is admitted;
    the shelf's height is the tallest rectangle packed into it, and
    the next shelf opens when the previous one ends.  A processor
    endpoint becomes usable from the first shelf that opens at or
    after its own test finished (the paper's reuse precedence), and a
    {!Scheduler.config.link_ready} gate keeps a channel out of every
    shelf that opens before its self-test passed.

    Shelves never overlap in time, so the schedules this backend emits
    are valid by construction — and are still re-checked by the
    independent {!Schedule.validate}, which shares no state with it.
    Compared with the event-driven {!Scheduler}, shelf packing trades
    resource-holes (a shelf waits for its tallest rectangle) for a
    search space that level-packing theory understands; it is the
    second planning backend behind {!Backend}.

    The [order] and [policy] fields of the configuration do not apply
    to this formulation and are ignored. *)

val schedule :
  ?access:Test_access.table -> System.t -> Scheduler.config -> Schedule.t
(** Pack every configured module.  Honors [application], [reuse],
    [power_limit], [start_time], [modules], [pretested] and
    [link_ready]; ignores [order] and [policy].

    @raise Scheduler.Unschedulable when some module has no feasible
    (source, sink) pair at all, or can never be packed under the power
    limit.
    @raise Invalid_argument if [reuse] is out of range or [access] was
    built for a different system or application (same contract as
    {!Scheduler.run}). *)

val shelf_count : System.t -> Scheduler.config -> int
(** Number of shelves (levels) the packing of this instance uses —
    the quantity level-packing bounds speak about; exposed for the
    bench harness and tests. *)
