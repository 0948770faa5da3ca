let step ~kind ~size v target =
  match (kind : Topology.kind) with
  | Topology.Mesh -> if v < target then v + 1 else v - 1
  | Topology.Torus ->
      let forward = ((target - v) mod size + size) mod size in
      let backward = size - forward in
      let wrap x = ((x mod size) + size) mod size in
      if forward <= backward then wrap (v + 1) else wrap (v - 1)

let route topology ~src ~dst =
  if
    (not (Topology.in_bounds topology src))
    || not (Topology.in_bounds topology dst)
  then invalid_arg "Xy_routing.route: endpoint out of bounds";
  let kind = topology.Topology.kind in
  let rec go (c : Coord.t) acc =
    if Coord.equal c dst then List.rev (c :: acc)
    else if c.x <> dst.Coord.x then
      go
        { c with x = step ~kind ~size:topology.Topology.width c.x dst.Coord.x }
        (c :: acc)
    else
      go
        { c with y = step ~kind ~size:topology.Topology.height c.y dst.Coord.y }
        (c :: acc)
  in
  go src []

let hops topology ~src ~dst = Topology.distance topology src dst

let links_of_route routers =
  match routers with
  | [] -> invalid_arg "Xy_routing.links_of_route: empty route"
  | src :: _ ->
      let rec channels = function
        | a :: (b :: _ as rest) -> Link.channel a b :: channels rest
        | [ _ ] | [] -> []
      in
      let rec last = function
        | [ c ] -> c
        | _ :: rest -> last rest
        | [] -> assert false
      in
      (Link.Inject src :: channels routers) @ [ Link.Eject (last routers) ]

let links topology ~src ~dst = links_of_route (route topology ~src ~dst)

let routers_on_route topology ~src ~dst = hops topology ~src ~dst + 1
