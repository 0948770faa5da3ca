(* Degraded access tables as deltas: a chain of
   [Test_access.table_degrade] steps over nested fault sets must agree
   cell for cell with full detour builds, the fault campaigns that plan
   on such chains must pass the independent validator, and a delta
   must allocate well under a full build. *)

open Util
module Core = Nocplan_core
module Test_access = Core.Test_access
module Resource = Core.Resource
module System = Core.System
module Schedule = Core.Schedule
module Noc = Nocplan_noc
module Coord = Noc.Coord
module Link = Noc.Link
module Topology = Noc.Topology
module Proc = Nocplan_proc
module Fault = Nocplan_fault
module Detour = Fault.Detour
module Injector = Fault.Injector
module Recover = Fault.Recover
module Corpus = Nocplan_corpus.Corpus

let applications = [ Proc.Processor.Bist; Proc.Processor.Decompression ]

let same_cost (a : Test_access.cost) (b : Test_access.cost) =
  a.Test_access.duration = b.Test_access.duration
  && Int64.equal
       (Int64.bits_of_float a.Test_access.power)
       (Int64.bits_of_float b.Test_access.power)
  && List.equal Link.equal a.Test_access.links b.Test_access.links
  && a.Test_access.routers = b.Test_access.routers
  && a.Test_access.per_pattern = b.Test_access.per_pattern

(* The first cell where [got] and [want] differ — feasibility, the
   route and memory bits, and the cost record — or [None].  Channel ids
   are not compared: numberings may differ.  Within [got], though, ids
   and links must correspond one to one, the reservation calendar's
   assumption. *)
let first_difference sys ~got ~want =
  let endpoints =
    Resource.all_endpoints sys ~reuse:(List.length sys.System.processors)
  in
  let id_link = Hashtbl.create 64 and link_id = Hashtbl.create 64 in
  let consistent links chans =
    Array.length chans = List.length links
    && List.for_all2
         (fun l ch ->
           (match Hashtbl.find_opt id_link ch with
           | Some l' -> Link.equal l l'
           | None ->
               Hashtbl.add id_link ch l;
               true)
           &&
           match Hashtbl.find_opt link_id l with
           | Some ch' -> ch = ch'
           | None ->
               Hashtbl.add link_id l ch;
               true)
         links (Array.to_list chans)
  in
  let cost t ~module_id ~source ~sink =
    match Test_access.table_cost t ~module_id ~source ~sink with
    | c -> Some c
    | exception Invalid_argument _ -> None
  in
  let cell t ~module_id ~source ~sink =
    ( Test_access.table_feasible t ~module_id ~source ~sink,
      Test_access.table_route_feasible t ~module_id ~source ~sink,
      Test_access.table_memory_feasible t ~module_id ~source )
  in
  List.find_map
    (fun module_id ->
      List.find_map
        (fun source ->
          List.find_map
            (fun sink ->
              let g = cost got ~module_id ~source ~sink
              and w = cost want ~module_id ~source ~sink in
              let chans =
                Test_access.channels_ix got
                  ~row:(Test_access.module_row got module_id)
                  ~src:(Test_access.endpoint_id got source)
                  ~snk:(Test_access.endpoint_id got sink)
              in
              if
                cell got ~module_id ~source ~sink
                = cell want ~module_id ~source ~sink
                && Option.equal same_cost g w
                &&
                match g with
                | Some c -> consistent c.Test_access.links chans
                | None -> chans = [||]
              then None
              else
                Some
                  (Fmt.str "module %d %a -> %a" module_id Resource.pp source
                     Resource.pp sink))
            endpoints)
        endpoints)
    (System.module_ids sys)

(* Degrade the XY table of [sys] through the cumulative fault sets of
   [steps] (each a batch of newly failed targets), checking every link
   of the chain against a full detour build — and so is the XY table
   degraded straight to each step's faults, the same base every time,
   as a sweep's rates share it. *)
let chain_matches sys steps =
  let topology = sys.System.topology in
  let check application =
    let xy = Test_access.table ~application sys in
    let step (chained, faults) batch =
      let faults = Detour.union faults (Injector.fault_set_of batch) in
      let degraded =
        System.with_failed_links sys (Detour.blocked_links topology faults)
      in
      let route = Detour.route_fn (Detour.table topology faults) in
      let want = Test_access.table ~application ~route degraded in
      let chained = Test_access.table_degrade chained ~route ~system:degraded in
      List.iter
        (fun (what, got) ->
          match first_difference degraded ~got ~want with
          | None -> ()
          | Some where ->
              QCheck2.Test.fail_reportf "%s table, %s, %a: %s differs" what
                (match application with
                | Proc.Processor.Bist -> "bist"
                | Proc.Processor.Decompression -> "decompress")
                Detour.pp_fault_set faults where)
        [
          ("chained", chained);
          ("from-XY", Test_access.table_degrade xy ~route ~system:degraded);
        ];
      (chained, faults)
    in
    ignore (List.fold_left step (xy, Detour.no_faults) steps)
  in
  List.iter check applications;
  true

(* 1–6 steps of 1–3 targets each, drawn from every router and channel
   of the mesh: random nested fault sets. *)
let steps_gen topology =
  QCheck2.Gen.(
    let targets = Array.of_list (Injector.candidates topology) in
    list_size (int_range 1 6)
      (list_size (int_range 1 3)
         (map (fun i -> targets.(i)) (int_bound (Array.length targets - 1)))))

let prop_corpus_chain =
  qcheck ~count:30 "degrade chains equal full detour builds (corpus)"
    QCheck2.Gen.(
      pair (int_range 0 10_000) (int_range 0 199) >>= fun (seed, index) ->
      let item = Corpus.item ~seed:(Int64.of_int seed) ~index in
      let sys = item.Corpus.system in
      pair (return sys) (steps_gen sys.System.topology))
    (fun (sys, steps) -> chain_matches sys steps)

let prop_generated_chain =
  qcheck ~count:60 "degrade chains equal full detour builds (meshes, tori)"
    QCheck2.Gen.(
      Generators.system_gen_any >>= fun sys ->
      pair (return sys) (steps_gen sys.System.topology))
    (fun (sys, steps) -> chain_matches sys steps)

let test_degrade_rejects_foreign_system () =
  let sys = small_system () in
  let base = Test_access.table sys in
  let topology = sys.System.topology in
  let route = Detour.route_fn (Detour.table topology Detour.no_faults) in
  let refused what system =
    match Test_access.table_degrade base ~route ~system with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "degraded onto %s" what
  in
  refused "a rebuilt system" (small_system ());
  let dead =
    System.with_failed_links sys [ Link.Inject (Coord.make ~x:0 ~y:0) ]
  in
  let healed_base = Test_access.table dead in
  match Test_access.table_degrade healed_base ~route ~system:sys with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "degraded onto a system with fewer failed links"

(* The [access.degrade] span counts the legs re-routed and the cells
   refilled: some for a new dead router, none when no failed link is
   new. *)
let test_degrade_span_counts () =
  let sys = Core.Experiments.d695_leon () in
  let topology = sys.System.topology in
  let faults = Detour.fault_set ~routers:[ Coord.make ~x:1 ~y:1 ] () in
  let degraded =
    System.with_failed_links sys (Detour.blocked_links topology faults)
  in
  let route = Detour.route_fn (Detour.table topology faults) in
  let counts base =
    let _, events =
      Nocplan_obs.Trace.with_collector (fun () ->
          Test_access.table_degrade base ~route ~system:degraded)
    in
    List.find_map
      (fun e ->
        match
          ( Nocplan_obs.Trace.attr_int e "legs",
            Nocplan_obs.Trace.attr_int e "cells" )
        with
        | Some legs, Some cells -> Some (legs, cells)
        | _ -> None)
      events
  in
  let xy = Test_access.table sys in
  (match counts xy with
  | Some (legs, cells) ->
      Alcotest.(check bool) "legs and cells refilled" true
        (legs > 0 && cells > 0)
  | None -> Alcotest.fail "no access.degrade end event");
  let first = Test_access.table_degrade xy ~route ~system:degraded in
  Alcotest.(check (option (pair int int)))
    "nothing new, nothing refilled" (Some (0, 0)) (counts first)

(* Every step of every campaign of a sweep plans on a chained delta
   table; the validator re-derives its own full detour build. *)
let test_sweep_steps_validate () =
  List.iter
    (fun index ->
      let item = Corpus.item ~seed:7L ~index in
      let sys = item.Corpus.system in
      let power_limit = item.Corpus.power_limit in
      let reuse = item.Corpus.reuse in
      List.iter
        (fun ((p : Injector.point), (r : Injector.run)) ->
          List.iter
            (fun (s : Injector.step) ->
              match
                Recover.validate ~power_limit ~reuse ~at:s.Injector.at
                  ~faults:s.Injector.faults sys s.Injector.outcome
              with
              | Ok () -> ()
              | Error vs ->
                  Alcotest.failf "item %d, rate %g, step @%d: %a" index
                    p.Injector.rate s.Injector.at
                    Fmt.(list ~sep:comma Schedule.pp_violation)
                    vs)
            r.Injector.steps)
        (Injector.sweep ~power_limit ~reuse ~seed:(index + 1)
           ~rates:[ 0.1; 0.25 ] sys))
    (List.init 25 Fun.id)

(* Minor words, a deterministic count (no timing): one dead router at
   (1,1) on p93791_leon.  A delta from the XY table allocated 32% of a
   full detour build's words when it was introduced. *)
let test_degrade_allocation_budget () =
  let sys = Core.Experiments.p93791_leon () in
  let topology = sys.System.topology in
  let faults = Detour.fault_set ~routers:[ Coord.make ~x:1 ~y:1 ] () in
  let degraded =
    System.with_failed_links sys (Detour.blocked_links topology faults)
  in
  let xy = Test_access.table sys in
  let words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  (* A fresh router each time, so both pay for their own BFS. *)
  let route () = Detour.route_fn (Detour.table topology faults) in
  let full =
    words (fun () -> Test_access.table ~route:(route ()) degraded)
  in
  let delta =
    words (fun () ->
        Test_access.table_degrade xy ~route:(route ()) ~system:degraded)
  in
  if delta > 0.40 *. full then
    Alcotest.failf
      "delta allocated %.0f minor words, %.0f%% of a full build's %.0f" delta (100. *. delta /. full) full

(* Detour distances are computed on first use; the routes must not
   depend on which destinations were asked first, nor on a second
   domain filling the same slots at once. *)
let test_detour_on_demand_order_free () =
  let topology = Topology.make ~width:5 ~height:4 in
  let faults =
    Detour.fault_set
      ~routers:[ Coord.make ~x:2 ~y:1; Coord.make ~x:1 ~y:3 ]
      ~links:[ Link.channel (Coord.make ~x:3 ~y:2) (Coord.make ~x:4 ~y:2) ]
      ()
  in
  let pairs =
    List.concat_map
      (fun src -> List.map (fun dst -> (src, dst)) (Topology.coords topology))
      (Topology.coords topology)
  in
  let routes t pairs =
    List.map (fun (src, dst) -> Detour.route t ~src ~dst) pairs
  in
  let forward = routes (Detour.table topology faults) pairs in
  let backward =
    List.rev (routes (Detour.table topology faults) (List.rev pairs))
  in
  Alcotest.(check bool) "order-free" true (forward = backward);
  let shared = Detour.table topology faults in
  let other = Domain.spawn (fun () -> routes shared pairs) in
  let here = routes shared pairs in
  Alcotest.(check bool) "two domains agree" true
    (here = forward && Domain.join other = forward)

let suite =
  [
    prop_corpus_chain;
    prop_generated_chain;
    Alcotest.test_case "degrade rejects a foreign system" `Quick
      test_degrade_rejects_foreign_system;
    Alcotest.test_case "degrade span counts legs and cells" `Quick
      test_degrade_span_counts;
    Alcotest.test_case "sweep steps pass the validator" `Quick
      test_sweep_steps_validate;
    Alcotest.test_case "degrade allocation budget" `Quick
      test_degrade_allocation_budget;
    Alcotest.test_case "detour distances on demand are order-free" `Quick
      test_detour_on_demand_order_free;
  ]
