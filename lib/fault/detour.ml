module Coord = Nocplan_noc.Coord
module Link = Nocplan_noc.Link
module Topology = Nocplan_noc.Topology
module Xy = Nocplan_noc.Xy_routing
module Trace = Nocplan_obs.Trace

type fault_set = { routers : Coord.t list; links : Link.t list }

let fault_set ?(routers = []) ?(links = []) () =
  {
    routers = List.sort_uniq Coord.compare routers;
    links = List.sort_uniq Link.compare links;
  }

let no_faults = fault_set ()
let is_empty fs = fs.routers = [] && fs.links = []

let union a b =
  fault_set ~routers:(a.routers @ b.routers) ~links:(a.links @ b.links) ()

let fault_count fs = List.length fs.routers + List.length fs.links

let pp_fault_set ppf fs =
  Fmt.pf ppf "@[<h>faults(%d routers: %a; %d links: %a)@]"
    (List.length fs.routers)
    (Fmt.list ~sep:Fmt.comma Coord.pp)
    fs.routers (List.length fs.links)
    (Fmt.list ~sep:Fmt.comma Link.pp)
    fs.links

(* Every channel the fault set takes out of service: the channels
   listed directly, plus — a dead router neither routes nor serves its
   tile — every channel incident to a faulty router, including its
   local inject/eject ports. *)
let blocked_links topology fs =
  let incident c =
    Link.Inject c :: Link.Eject c
    :: List.concat_map
         (fun nb -> [ Link.channel c nb; Link.channel nb c ])
         (Topology.neighbors topology c)
  in
  List.sort_uniq Link.compare (fs.links @ List.concat_map incident fs.routers)

(* The directed channel graph of one topology over router indices.
   Router [u]'s outgoing channels have ids [first.(u)] to
   [first.(u + 1) - 1], in {!Topology.neighbors} order (the order that
   breaks path ties): channel [e] leads to router [next.(e)], and
   [back.(e)] is the id of its reverse channel. *)
type graph = {
  shape : Topology.t;
  coords : Coord.t array;
  first : int array;
  next : int array;
  back : int array;
}

(* The id of the channel [u -> v], or [-1] when they are not
   neighbours. *)
let find_channel ~first ~next u v =
  let rec find e =
    if e = first.(u + 1) then -1 else if next.(e) = v then e else find (e + 1)
  in
  find first.(u)

let channel_id g u v = find_channel ~first:g.first ~next:g.next u v

let build_graph topology =
  let n = Topology.router_count topology in
  let coords = Array.init n (Topology.of_index topology) in
  let neighbours =
    Array.map
      (fun c ->
        Array.of_list
          (List.map (Topology.index topology) (Topology.neighbors topology c)))
      coords
  in
  let first = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    first.(u + 1) <- first.(u) + Array.length neighbours.(u)
  done;
  let next = Array.concat (Array.to_list neighbours) in
  let back = Array.make (Array.length next) 0 in
  for u = 0 to n - 1 do
    for e = first.(u) to first.(u + 1) - 1 do
      back.(e) <- find_channel ~first ~next next.(e) u
    done
  done;
  { shape = topology; coords; first; next; back }

(* Graphs of the last few topologies, most recent first: every replan
   builds a table for a new fault set on the same topology.  The list
   is immutable behind one [Atomic], so domains share it safely; a lost
   update only means a graph is built again. *)
let graphs : graph list Atomic.t = Atomic.make []
let max_graphs = 4

let graph topology =
  let cached = Atomic.get graphs in
  let rec find = function
    | [] ->
        let g = build_graph topology in
        let keep = List.filteri (fun i _ -> i < max_graphs - 1) cached in
        ignore (Atomic.compare_and_set graphs cached (g :: keep));
        g
    | g :: rest -> if Topology.equal g.shape topology then g else find rest
  in
  find cached

(* Per-router fault bits of a table. *)
let dead_router = 1
let dead_inject = 2
let dead_eject = 4

type t = {
  topology : Topology.t;
  faults : fault_set;
  graph : graph;
  router_faults : Bytes.t;  (* per router: [dead_*] bits *)
  (* per channel id: ['\001'] when the channel or either end router is
     dead *)
  channel_dead : Bytes.t;
  (* dist.(d): once a route first needs it, [dd] with [dd.(u)] the
     hops from router u to destination d over healthy directed
     channels ([max_int] when d is unreachable from u); [[||]] until
     then.  A slot only ever goes from empty to a fully built array,
     so domains racing on it at worst compute the same array twice. *)
  dist : int array Atomic.t array;
}

let topology t = t.topology
let faults t = t.faults
let has t u bit = Char.code (Bytes.get t.router_faults u) land bit <> 0
let alive t e = Bytes.get t.channel_dead e = '\000'

let router_ok t c =
  (not (Topology.in_bounds t.topology c))
  || not (has t (Topology.index t.topology c) dead_router)

let table topology fs =
  Trace.span "fault.detour"
    ~attrs:
      [
        ("routers", Trace.Int (List.length fs.routers));
        ("links", Trace.Int (List.length fs.links));
      ]
  @@ fun () ->
  let g = graph topology in
  let n = Array.length g.coords in
  let router_faults = Bytes.make n '\000' in
  let channel_dead = Bytes.make (Array.length g.next) '\000' in
  (* Faults outside the topology touch nothing it can route over. *)
  let index c =
    if Topology.in_bounds topology c then Topology.index topology c else -1
  in
  let mark u bit =
    if u >= 0 then
      Bytes.set router_faults u
        (Char.chr (Char.code (Bytes.get router_faults u) lor bit))
  in
  let kill e = if e >= 0 then Bytes.set channel_dead e '\001' in
  List.iter
    (fun c ->
      let u = index c in
      if u >= 0 then begin
        mark u dead_router;
        for e = g.first.(u) to g.first.(u + 1) - 1 do
          kill e;
          kill g.back.(e)
        done
      end)
    fs.routers;
  List.iter
    (function
      | Link.Inject c -> mark (index c) dead_inject
      | Link.Eject c -> mark (index c) dead_eject
      | Link.Channel (a, b) ->
          let u = index a and v = index b in
          if u >= 0 && v >= 0 then kill (channel_id g u v))
    fs.links;
  {
    topology;
    faults = fs;
    graph = g;
    router_faults;
    channel_dead;
    dist = Array.init n (fun _ -> Atomic.make [||]);
  }

(* One backward BFS to destination [d] over the healthy directed graph:
   u is one hop closer than v whenever the channel u -> v is alive.
   Distances are unique, so neighbour enumeration order only breaks
   path-reconstruction ties (deterministically, in [Topology.neighbors]
   order). *)
let bfs t d =
  let g = t.graph in
  let n = Array.length g.coords in
  let dd = Array.make n max_int in
  if not (has t d dead_router) then begin
    let queue = Array.make n d in
    dd.(d) <- 0;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      let dv = dd.(v) + 1 in
      for e = g.first.(v) to g.first.(v + 1) - 1 do
        let u = g.next.(e) in
        if dd.(u) = max_int && alive t g.back.(e) then begin
          dd.(u) <- dv;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done
  end;
  dd

let distances t d =
  let slot = t.dist.(d) in
  match Atomic.get slot with
  | [||] ->
      let dd = bfs t d in
      Atomic.set slot dd;
      dd
  | dd -> dd

(* Whether every channel of the plain XY path is alive — if so the
   detour router returns that path, so the empty fault set reproduces
   {!Nocplan_noc.Xy_routing} exactly (and with it, bit-identical access
   tables and schedules).  [xy_path] builds it from the same steps. *)
let xy_healthy t (src : Coord.t) (dst : Coord.t) =
  let { Topology.width; height; kind } = t.topology in
  let g = t.graph in
  let rec go x y =
    let u = (y * width) + x in
    if x <> dst.x then
      let x' = Xy.step ~kind ~size:width x dst.x in
      alive t (channel_id g u ((y * width) + x')) && go x' y
    else if y <> dst.y then
      let y' = Xy.step ~kind ~size:height y dst.y in
      alive t (channel_id g u ((y' * width) + x)) && go x y'
    else true
  in
  go src.x src.y

let xy_path t (src : Coord.t) (dst : Coord.t) =
  let { Topology.width; height; kind } = t.topology in
  let coords = t.graph.coords in
  let rec go x y =
    coords.((y * width) + x)
    ::
    (if x <> dst.x then go (Xy.step ~kind ~size:width x dst.x) y
     else if y <> dst.y then go x (Xy.step ~kind ~size:height y dst.y)
     else [])
  in
  go src.x src.y

(* The shortest healthy path from [s] down the distance field [dd] to
   [d]: at each router, the first neighbour one hop closer over a live
   channel. *)
let detour_path t dd s d =
  let g = t.graph in
  let rec pick closer e =
    if alive t e && dd.(g.next.(e)) = closer then g.next.(e)
    else pick closer (e + 1)
  in
  let rec go u =
    if u = d then [ g.coords.(u) ]
    else g.coords.(u) :: go (pick (dd.(u) - 1) g.first.(u))
  in
  go s

let route t ~src ~dst =
  if
    (not (Topology.in_bounds t.topology src))
    || not (Topology.in_bounds t.topology dst)
  then invalid_arg "Detour.route: endpoint out of bounds";
  let s = Topology.index t.topology src and d = Topology.index t.topology dst in
  if has t s (dead_router lor dead_inject) || has t d (dead_router lor dead_eject)
  then None
  else if xy_healthy t src dst then Some (xy_path t src dst)
  else
    let dd = distances t d in
    if dd.(s) = max_int then None else Some (detour_path t dd s d)

let links t ~src ~dst = Option.map Xy.links_of_route (route t ~src ~dst)
let route_fn t ~src ~dst = route t ~src ~dst

let reachable t ~src ~dst =
  match route t ~src ~dst with Some _ -> true | None -> false
