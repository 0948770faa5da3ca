module Coord = Nocplan_noc.Coord
module Link = Nocplan_noc.Link
module Topology = Nocplan_noc.Topology
module Xy = Nocplan_noc.Xy_routing
module Trace = Nocplan_obs.Trace
module Coord_set = Set.Make (Coord)

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

type t = {
  topology : Topology.t;
  faults : fault_set;
  faulty_routers : Coord_set.t;
  faulty_links : Link.Set.t;
  (* dist.(d): once a route first needs it, [dd] with [dd.(u)] the
     hops from router u to destination d over healthy directed
     channels ([max_int] when d is unreachable from u); [[||]] until
     then.  A slot only ever goes from empty to a fully built array,
     so domains racing on it at worst compute the same array twice. *)
  dist : int array Atomic.t array;
}

let topology t = t.topology
let faults t = t.faults
let router_ok t c = not (Coord_set.mem c t.faulty_routers)

let channel_ok t a b =
  router_ok t a && router_ok t b
  && not (Link.Set.mem (Link.channel a b) t.faulty_links)

let table topology fs =
  Trace.span "fault.detour"
    ~attrs:
      [
        ("routers", Trace.Int (List.length fs.routers));
        ("links", Trace.Int (List.length fs.links));
      ]
  @@ fun () ->
  {
    topology;
    faults = fs;
    faulty_routers = Coord_set.of_list fs.routers;
    faulty_links = Link.Set.of_list fs.links;
    dist =
      Array.init (Topology.router_count topology) (fun _ -> Atomic.make [||]);
  }

(* One backward BFS to destination [d] over the healthy directed graph:
   u is one hop closer than v whenever the channel u -> v is alive.
   Distances are unique, so neighbour enumeration order only breaks
   path-reconstruction ties (deterministically, in [Topology.neighbors]
   order). *)
let bfs t d =
  let topology = t.topology in
  let n = Topology.router_count topology in
  let dd = Array.make n max_int in
  let dc = Topology.of_index topology d in
  if router_ok t dc then begin
    dd.(d) <- 0;
    let q = Queue.create () in
    Queue.push dc q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      let dv = dd.(Topology.index topology v) in
      List.iter
        (fun u ->
          let ui = Topology.index topology u in
          if dd.(ui) = max_int && channel_ok t u v then begin
            dd.(ui) <- dv + 1;
            Queue.push u q
          end)
        (Topology.neighbors topology v)
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

(* Whether the plain XY path is fully healthy — if so the detour
   router returns it verbatim, so the empty fault set reproduces
   {!Nocplan_noc.Xy_routing} exactly (and with it, bit-identical
   access tables and schedules). *)
let xy_healthy t ~src ~dst =
  List.for_all
    (fun l ->
      (not (Link.Set.mem l t.faulty_links))
      && List.for_all (router_ok t) (Link.routers l))
    (Xy.links t.topology ~src ~dst)

let route t ~src ~dst =
  if
    (not (Topology.in_bounds t.topology src))
    || not (Topology.in_bounds t.topology dst)
  then invalid_arg "Detour.route: endpoint out of bounds";
  if
    (not (router_ok t src))
    || (not (router_ok t dst))
    || Link.Set.mem (Link.Inject src) t.faulty_links
    || Link.Set.mem (Link.Eject dst) t.faulty_links
  then None
  else if xy_healthy t ~src ~dst then Some (Xy.route t.topology ~src ~dst)
  else begin
    let dd = distances t (Topology.index t.topology dst) in
    if dd.(Topology.index t.topology src) = max_int then None
    else begin
      let rec go c acc =
        if Coord.equal c dst then List.rev (c :: acc)
        else
          let dc = dd.(Topology.index t.topology c) in
          let next =
            List.find
              (fun v ->
                channel_ok t c v && dd.(Topology.index t.topology v) = dc - 1)
              (Topology.neighbors t.topology c)
          in
          go next (c :: acc)
      in
      Some (go src [])
    end
  end

let links t ~src ~dst = Option.map Xy.links_of_route (route t ~src ~dst)
let route_fn t ~src ~dst = route t ~src ~dst

let reachable t ~src ~dst =
  match route t ~src ~dst with Some _ -> true | None -> false
