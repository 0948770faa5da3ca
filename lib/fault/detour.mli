(** Fault-aware detour routing.

    Deterministic XY routing cannot steer around a dead router or
    channel: a single fault on a path makes every test using that path
    infeasible.  This module precomputes, for a given fault set, a
    table-based routing function that prefers the plain XY path and
    falls back to a shortest healthy detour when the XY path crosses a
    fault — the routing tables a NoC with per-router fault registers
    would hold.

    Everything runs over router indices.  Per topology, the directed
    channel graph is built once and kept for the last few topologies:
    each router's neighbour indices in {!Nocplan_noc.Topology.neighbors}
    order (the order that breaks path ties) and each channel's reverse.
    Per fault set, {!table} marks dead routers, dead inject and eject
    ports and dead directed channels (a dead router's included) in
    byte arrays, in O(routers + faults).  A {!route} then reads only
    ints and bytes: the XY check walks the XY path's channels, and the
    first route to a destination whose XY path is broken runs one
    backward BFS from it over the live channels (O(channels)), whose
    distances serve every later route to that destination; a
    destination only reached over healthy XY paths never pays one.
    Only the returned path is allocated, plus a distance array and a
    queue per BFS.

    Tables are safe to share across domains.  A distance slot goes from
    empty to a fully built array in one atomic write, so two domains
    racing on it can only compute the same array twice; the topology
    cache is an immutable list behind one atomic.  Routes do not depend
    on which destinations were cached before. *)

type fault_set = private {
  routers : Nocplan_noc.Coord.t list;  (** dead routers, sorted *)
  links : Nocplan_noc.Link.t list;  (** dead channels, sorted *)
}
(** A set of failed network elements.  A dead router implies every
    channel incident to it (including its local inject/eject ports) is
    unusable; a dead channel leaves its end routers routable. *)

val fault_set :
  ?routers:Nocplan_noc.Coord.t list ->
  ?links:Nocplan_noc.Link.t list ->
  unit ->
  fault_set
(** Normalizing constructor: sorts and deduplicates. *)

val no_faults : fault_set
val is_empty : fault_set -> bool

val union : fault_set -> fault_set -> fault_set
(** The cumulative fault set as an injection campaign progresses. *)

val fault_count : fault_set -> int
val pp_fault_set : fault_set Fmt.t

val blocked_links : Nocplan_noc.Topology.t -> fault_set -> Nocplan_noc.Link.t list
(** Every channel the fault set takes out of service — the listed
    links plus all links incident to a dead router — sorted and
    deduplicated: the argument for {!Nocplan_core.System.with_failed_links}
    when deriving the degraded system. *)

type t
(** A routing table for one (topology, fault set). *)

val table : Nocplan_noc.Topology.t -> fault_set -> t
(** Build the table: O(routers + faults), no BFS yet (see above).
    Faults outside the topology are ignored.  Emits a ["fault.detour"]
    trace span.  The empty
    fault set yields a table whose {!route} is extensionally equal to
    {!Nocplan_noc.Xy_routing.route} — and in fact {!route} returns the
    XY path verbatim whenever that path is fully healthy, so access
    tables and schedules built through a no-fault detour table are
    bit-identical to the classic ones. *)

val topology : t -> Nocplan_noc.Topology.t
val faults : t -> fault_set

val route :
  t -> src:Nocplan_noc.Coord.t -> dst:Nocplan_noc.Coord.t -> Nocplan_noc.Coord.t list option
(** The router path from [src] to [dst]: the XY path when it is fully
    healthy, otherwise a shortest path over healthy routers and
    channels (ties broken deterministically in
    {!Nocplan_noc.Topology.neighbors} order).  [None] when either
    endpoint's router is dead, its local inject/eject port is dead, or
    no healthy path exists.
    @raise Invalid_argument on an out-of-bounds coordinate. *)

val links :
  t -> src:Nocplan_noc.Coord.t -> dst:Nocplan_noc.Coord.t -> Nocplan_noc.Link.t list option
(** The channel sequence of {!route}: inject, inter-router channels,
    eject. *)

val reachable : t -> src:Nocplan_noc.Coord.t -> dst:Nocplan_noc.Coord.t -> bool

val route_fn :
  t ->
  src:Nocplan_noc.Coord.t ->
  dst:Nocplan_noc.Coord.t ->
  Nocplan_noc.Coord.t list option
(** {!route} shaped as a {!Nocplan_core.Test_access.route_fn}, for
    [Test_access.table ~route:(Detour.route_fn t)]. *)

val router_ok : t -> Nocplan_noc.Coord.t -> bool
(** The router at this coordinate is not in the fault set. *)
