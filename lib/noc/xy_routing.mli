(** Deterministic dimension-ordered (XY) routing.

    Packets travel first along the X dimension to the destination
    column, then along Y to the destination row — the routing
    algorithm the paper's tool supports.  On a torus the router takes
    the shorter way around each axis (ties broken towards increasing
    coordinate), which is the standard dimension-ordered torus rule. *)

val route : Topology.t -> src:Coord.t -> dst:Coord.t -> Coord.t list
(** The sequence of routers traversed, inclusive of [src] and [dst].
    [route t ~src ~dst:src] is [[src]].
    @raise Invalid_argument if an endpoint is out of bounds. *)

val step : kind:Topology.kind -> size:int -> int -> int -> int
(** [step ~kind ~size v target] is the next coordinate after [v] on an
    axis of [size] routers when moving towards [target <> v]: one step
    closer, the shorter way around on a torus (ties towards increasing
    coordinate).  {!route} takes these steps, X first. *)

val hops : Topology.t -> src:Coord.t -> dst:Coord.t -> int
(** Number of inter-router channels on the route, i.e.
    {!Topology.distance}. *)

val links_of_route : Coord.t list -> Link.t list
(** The occupied channel list of a stream along an arbitrary router
    path (adjacent coordinates, inclusive of both tiles): [Inject]
    at the head, each inter-router channel in path order, [Eject] at
    the last router.  [links] is this applied to {!route}; detour
    routers ({!Nocplan_fault.Detour}) use it for their non-XY paths.
    @raise Invalid_argument on an empty route. *)

val links : Topology.t -> src:Coord.t -> dst:Coord.t -> Link.t list
(** The full occupied channel list of a stream from the tile at [src]
    to the tile at [dst]: [Inject src], each inter-router channel in
    path order, [Eject dst].  When [src = dst] this is
    [[Inject src; Eject src]] (the stream still crosses the local
    router). *)

val routers_on_route : Topology.t -> src:Coord.t -> dst:Coord.t -> int
(** Number of routers a packet traverses: [hops + 1]. *)
