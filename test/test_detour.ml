(* Fault-aware detour routing: XY agreement on the empty fault set,
   the never-touch-a-fault guarantee, and path well-formedness. *)

open Util
module Noc = Nocplan_noc
module Fault = Nocplan_fault
module Detour = Fault.Detour
module Topology = Noc.Topology
module Coord = Noc.Coord
module Link = Noc.Link
module Xy = Noc.Xy_routing

let c x y = Coord.make ~x ~y

let all_coords topology =
  List.init
    (topology.Topology.width * topology.Topology.height)
    (Topology.of_index topology)

(* A random fault set: a few routers and a few directed channels drawn
   from the topology (the same candidate space the injector uses). *)
let fault_set_gen topology =
  let open QCheck2.Gen in
  let coord = coord_in topology in
  let channel =
    let* a = coord in
    match Topology.neighbors topology a with
    | [] -> return None
    | neighbors ->
        let* b = oneofl neighbors in
        return (Some (Link.channel a b))
  in
  let* routers = list_size (int_range 0 3) coord in
  let* channels = list_size (int_range 0 4) channel in
  return (Detour.fault_set ~routers ~links:(List.filter_map Fun.id channels) ())

let topology_and_faults_gen =
  let open QCheck2.Gen in
  let* topology = topology_gen in
  let* faults = fault_set_gen topology in
  return (topology, faults)

let prop_xy_agreement =
  qcheck ~count:50 "empty fault set: route equals XY for every pair"
    topology_gen
    (fun topology ->
      let t = Detour.table topology Detour.no_faults in
      let coords = all_coords topology in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              Detour.route t ~src ~dst = Some (Xy.route topology ~src ~dst))
            coords)
        coords)

let prop_no_faulty_traversal =
  qcheck ~count:100 "routes never occupy a blocked channel"
    topology_and_faults_gen
    (fun (topology, faults) ->
      let t = Detour.table topology faults in
      let blocked = Link.Set.of_list (Detour.blocked_links topology faults) in
      let coords = all_coords topology in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              match Detour.links t ~src ~dst with
              | None -> true
              | Some links ->
                  List.for_all (fun l -> not (Link.Set.mem l blocked)) links)
            coords)
        coords)

let prop_routes_well_formed =
  qcheck ~count:100 "routes run src to dst over adjacent healthy routers"
    topology_and_faults_gen
    (fun (topology, faults) ->
      let t = Detour.table topology faults in
      let coords = all_coords topology in
      let rec adjacent = function
        | a :: (b :: _ as rest) ->
            List.mem b (Topology.neighbors topology a) && adjacent rest
        | [ _ ] | [] -> true
      in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              match Detour.route t ~src ~dst with
              | None -> Detour.reachable t ~src ~dst = false
              | Some path ->
                  path <> []
                  && List.hd path = src
                  && List.nth path (List.length path - 1) = dst
                  && adjacent path
                  && List.for_all (Detour.router_ok t) path)
            coords)
        coords)

(* The list-based router the index-based one replaced, kept as the
   oracle: the fault set as a router set and a link set, a backward BFS
   over [Topology.neighbors] lists, and the XY path's links checked one
   by one. *)
module Reference = struct
  module Coord_set = Set.Make (Coord)

  type t = {
    topology : Topology.t;
    routers : Coord_set.t;
    links : Link.Set.t;
    dist : (int, int array) Hashtbl.t;
  }

  let make topology (fs : Detour.fault_set) =
    {
      topology;
      routers = Coord_set.of_list fs.Detour.routers;
      links = Link.Set.of_list fs.Detour.links;
      dist = Hashtbl.create 16;
    }

  let router_ok t c = not (Coord_set.mem c t.routers)

  let channel_ok t a b =
    router_ok t a && router_ok t b
    && not (Link.Set.mem (Link.channel a b) t.links)

  let bfs t d =
    let topology = t.topology in
    let dd = Array.make (Topology.router_count topology) max_int in
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
    match Hashtbl.find_opt t.dist d with
    | Some dd -> dd
    | None ->
        let dd = bfs t d in
        Hashtbl.add t.dist d dd;
        dd

  let xy_healthy t ~src ~dst =
    List.for_all
      (fun l ->
        (not (Link.Set.mem l t.links))
        && List.for_all (router_ok t) (Link.routers l))
      (Xy.links t.topology ~src ~dst)

  let route t ~src ~dst =
    let index = Topology.index t.topology in
    if
      (not (router_ok t src))
      || (not (router_ok t dst))
      || Link.Set.mem (Link.Inject src) t.links
      || Link.Set.mem (Link.Eject dst) t.links
    then None
    else if xy_healthy t ~src ~dst then Some (Xy.route t.topology ~src ~dst)
    else begin
      let dd = distances t (index dst) in
      if dd.(index src) = max_int then None
      else begin
        let rec go c acc =
          if Coord.equal c dst then List.rev (c :: acc)
          else
            let dc = dd.(index c) in
            let next =
              List.find
                (fun v -> channel_ok t c v && dd.(index v) = dc - 1)
                (Topology.neighbors t.topology c)
            in
            go next (c :: acc)
        in
        Some (go src [])
      end
    end
end

(* Meshes and tori from 1x1 to 8x8 with every kind of fault: dead
   routers, dead directed channels, dead inject and eject ports. *)
let any_faults_gen =
  let open QCheck2.Gen in
  let* shape = oneofl [ Topology.make; Topology.torus ] in
  let* width = int_range 1 8 in
  let* height = int_range 1 8 in
  let topology = shape ~width ~height in
  let coord = coord_in topology in
  let channel =
    let* a = coord in
    match Topology.neighbors topology a with
    | [] -> return None
    | neighbors ->
        let* b = oneofl neighbors in
        return (Some (Link.channel a b))
  in
  let* routers = list_size (int_range 0 4) coord in
  let* channels = list_size (int_range 0 6) channel in
  let* injects = list_size (int_range 0 2) coord in
  let* ejects = list_size (int_range 0 2) coord in
  let links =
    List.filter_map Fun.id channels
    @ List.map (fun c -> Link.Inject c) injects
    @ List.map (fun c -> Link.Eject c) ejects
  in
  return (topology, Detour.fault_set ~routers ~links ())

let prop_equals_reference =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:300
       ~name:"every pair routes as the list-based reference router"
       ~print:(fun (topology, faults) ->
         Fmt.str "%a %a" Topology.pp topology Detour.pp_fault_set faults)
       any_faults_gen
  @@ fun (topology, faults) ->
      let t = Detour.table topology faults in
      let reference = Reference.make topology faults in
      let coords = all_coords topology in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              Detour.route t ~src ~dst = Reference.route reference ~src ~dst)
            coords)
        coords

(* 3x3 mesh, kill the middle router of the XY path from (0,0) to
   (2,0): the route must leave the bottom row and come back. *)
let test_detour_around_dead_router () =
  let topology = Topology.make ~width:3 ~height:3 in
  let faults = Detour.fault_set ~routers:[ c 1 0 ] () in
  let t = Detour.table topology faults in
  match Detour.route t ~src:(c 0 0) ~dst:(c 2 0) with
  | None -> Alcotest.fail "detour exists but route is None"
  | Some path ->
      Alcotest.(check bool) "avoids the dead router" false
        (List.exists (Coord.equal (c 1 0)) path);
      (* Shortest healthy detour: 4 hops instead of XY's 2. *)
      Alcotest.(check int) "shortest healthy length" 5 (List.length path)

let test_healthy_xy_path_verbatim () =
  (* A fault off the XY path leaves the XY route untouched — the
     bit-identity guarantee for unaffected streams. *)
  let topology = Topology.make ~width:3 ~height:3 in
  let faults = Detour.fault_set ~routers:[ c 0 2 ] () in
  let t = Detour.table topology faults in
  Alcotest.(check bool) "XY path returned verbatim" true
    (Detour.route t ~src:(c 0 0) ~dst:(c 2 0)
    = Some (Xy.route topology ~src:(c 0 0) ~dst:(c 2 0)))

let test_dead_endpoints_and_ports () =
  let topology = Topology.make ~width:3 ~height:3 in
  let dead_dst = Detour.table topology (Detour.fault_set ~routers:[ c 2 2 ] ()) in
  Alcotest.(check bool) "dead destination router" true
    (Detour.route dead_dst ~src:(c 0 0) ~dst:(c 2 2) = None);
  let dead_inject =
    Detour.table topology (Detour.fault_set ~links:[ Link.Inject (c 0 0) ] ())
  in
  Alcotest.(check bool) "dead inject port blocks sourcing" true
    (Detour.route dead_inject ~src:(c 0 0) ~dst:(c 2 2) = None);
  Alcotest.(check bool) "but not sinking at the same tile" true
    (Detour.route dead_inject ~src:(c 2 2) ~dst:(c 0 0) <> None);
  let dead_eject =
    Detour.table topology (Detour.fault_set ~links:[ Link.Eject (c 2 2) ] ())
  in
  Alcotest.(check bool) "dead eject port blocks sinking" true
    (Detour.route dead_eject ~src:(c 0 0) ~dst:(c 2 2) = None)

let test_unreachable_is_none () =
  (* 2x1 mesh with both directed channels dead: the tiles can still
     talk to themselves, not to each other. *)
  let topology = Topology.make ~width:2 ~height:1 in
  let faults =
    Detour.fault_set
      ~links:[ Link.channel (c 0 0) (c 1 0); Link.channel (c 1 0) (c 0 0) ]
      ()
  in
  let t = Detour.table topology faults in
  Alcotest.(check bool) "cut pair unreachable" true
    (Detour.route t ~src:(c 0 0) ~dst:(c 1 0) = None);
  Alcotest.(check bool) "self route survives" true
    (Detour.route t ~src:(c 1 0) ~dst:(c 1 0) = Some [ c 1 0 ])

let test_blocked_links_of_dead_router () =
  (* A dead router takes out its local ports and every incident
     channel, both directions. *)
  let topology = Topology.make ~width:3 ~height:3 in
  let blocked =
    Detour.blocked_links topology (Detour.fault_set ~routers:[ c 1 1 ] ())
  in
  let expect =
    [ Link.Inject (c 1 1); Link.Eject (c 1 1) ]
    @ List.concat_map
        (fun n -> [ Link.channel (c 1 1) n; Link.channel n (c 1 1) ])
        (Topology.neighbors topology (c 1 1))
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Fmt.str "blocked: %a" Link.pp l)
        true
        (List.exists (Link.equal l) blocked))
    expect

let test_fault_set_normalizes () =
  let a = Detour.fault_set ~routers:[ c 1 1; c 0 0; c 1 1 ] () in
  Alcotest.(check int) "routers deduplicated" 2 (List.length a.Detour.routers);
  let b = Detour.fault_set ~routers:[ c 2 2 ] () in
  Alcotest.(check int) "union counts distinct elements" 3
    (Detour.fault_count (Detour.union a b));
  Alcotest.(check bool) "no_faults is empty" true (Detour.is_empty Detour.no_faults)

let test_table_allocation_budget () =
  (* Minor words of a fresh table plus seven routes on a 4x4 mesh with
     five faults, a deterministic count (no timing): a replan builds
     one table per fault set, so both must stay int reads over arrays
     precomputed per topology.  With router and link sets, neighbour
     lists per BFS node and a link list per XY check this came to
     11,878 words. *)
  let topology = Topology.make ~width:4 ~height:4 in
  let faults =
    Detour.fault_set
      ~routers:[ c 1 1; c 2 2 ]
      ~links:
        [
          Link.channel (c 0 0) (c 1 0);
          Link.channel (c 3 1) (c 3 2);
          Link.Inject (c 0 3);
        ]
      ()
  in
  let pairs =
    [
      (c 0 0, c 3 0);
      (c 0 0, c 3 3);
      (c 0 1, c 3 1);
      (c 3 0, c 0 2);
      (c 1 0, c 1 3);
      (c 3 3, c 0 0);
      (c 2 0, c 2 3);
    ]
  in
  let routes () =
    let t = Detour.table topology faults in
    List.map (fun (src, dst) -> Detour.route t ~src ~dst) pairs
  in
  Alcotest.(check int) "every pair routes" 7
    (List.length (List.filter Option.is_some (routes ())));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (routes ()));
  let words = Gc.minor_words () -. before in
  if words > 2000. then
    Alcotest.failf "table and routes allocated %.0f minor words, budget 2000"
      words

let suite =
  [
    prop_xy_agreement;
    prop_no_faulty_traversal;
    prop_routes_well_formed;
    prop_equals_reference;
    Alcotest.test_case "detour around a dead router" `Quick
      test_detour_around_dead_router;
    Alcotest.test_case "healthy XY path verbatim" `Quick
      test_healthy_xy_path_verbatim;
    Alcotest.test_case "dead endpoints and ports" `Quick
      test_dead_endpoints_and_ports;
    Alcotest.test_case "unreachable pairs" `Quick test_unreachable_is_none;
    Alcotest.test_case "blocked links of a dead router" `Quick
      test_blocked_links_of_dead_router;
    Alcotest.test_case "fault-set normalization" `Quick
      test_fault_set_normalizes;
    Alcotest.test_case "table allocation budget" `Quick
      test_table_allocation_budget;
  ]
