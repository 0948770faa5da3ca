open Util
module Core = Nocplan_core
module Test_access = Core.Test_access
module Resource = Core.Resource
module System = Core.System
module Coord = Nocplan_noc.Coord
module Link = Nocplan_noc.Link
module Proc = Nocplan_proc

let system () = small_system ()
let ein sys = Resource.External_in (List.hd sys.System.io_inputs)
let eout sys = Resource.External_out (List.hd sys.System.io_outputs)
let proc sys = Resource.Processor (List.hd sys.System.processors).System.module_id

let cost ?(application = Proc.Processor.Bist) sys ~module_id ~source ~sink =
  Test_access.cost sys ~application ~module_id ~source ~sink

let test_external_pair_cost () =
  let sys = system () in
  let c = cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys) in
  Alcotest.(check bool) "positive duration" true (c.Test_access.duration > 0);
  Alcotest.(check bool) "positive power" true (c.Test_access.power > 0.0);
  Alcotest.(check bool) "has links" true (List.length c.Test_access.links >= 2)

let test_processor_source_slower () =
  (* Same core, same sink: a BIST-sourcing processor adds its
     generation overhead to every pattern.  Zero routing latency and
     unit flow latency make the transport term equal to the core's
     shift time on every path, so the difference is exactly the
     measured 10-cycle Leon generation overhead. *)
  let sys =
    Core.System.build
      ~latency:(Nocplan_noc.Latency.make ~routing_latency:0 ~flow_latency:1)
      ~soc:(small_soc ())
      ~topology:(Nocplan_noc.Topology.make ~width:3 ~height:3)
      ~processors:[ Proc.Processor.leon ~id:1 ]
      ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Coord.make ~x:2 ~y:2 ]
      ()
  in
  (* Module 2 sits on a tile distinct from both ports and the
     processor, so neither pair shares stimulus/response channels. *)
  let ext = cost sys ~module_id:2 ~source:(ein sys) ~sink:(eout sys) in
  let via_proc = cost sys ~module_id:2 ~source:(proc sys) ~sink:(eout sys) in
  Alcotest.(check bool) "per-pattern slower via processor" true
    (via_proc.Test_access.per_pattern > ext.Test_access.per_pattern);
  Alcotest.(check int) "exactly the generation overhead"
    (ext.Test_access.per_pattern + 10)
    via_proc.Test_access.per_pattern

let test_power_includes_all_parties () =
  let sys = system () in
  let m = Nocplan_itc02.Soc.find sys.System.soc 1 in
  let c = cost sys ~module_id:1 ~source:(proc sys) ~sink:(eout sys) in
  let leon = (List.hd sys.System.processors).System.processor in
  let floor_power =
    m.Nocplan_itc02.Module_def.test_power
    +. leon.Proc.Processor.bist.Proc.Characterization.power
  in
  Alcotest.(check bool) "core + processor + noc" true
    (c.Test_access.power > floor_power)

let test_invalid_pairs_rejected () =
  let sys = system () in
  (match cost sys ~module_id:1 ~source:(eout sys) ~sink:(ein sys) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "swapped roles accepted");
  (match cost sys ~module_id:99 ~source:(ein sys) ~sink:(eout sys) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown module accepted");
  match cost sys ~module_id:1 ~source:(proc sys) ~sink:(proc sys) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same processor both roles accepted"

let test_links_deduplicated () =
  let sys = system () in
  let c = cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys) in
  let sorted = List.sort_uniq Link.compare c.Test_access.links in
  Alcotest.(check int) "no duplicate links" (List.length sorted)
    (List.length c.Test_access.links)

let test_duration_scales_with_patterns () =
  (* Same geometry, more patterns: proportionally longer. *)
  let soc_of patterns =
    Nocplan_itc02.Soc.make ~name:"t"
      ~modules:
        [
          Nocplan_itc02.Module_def.make ~id:1 ~name:"a" ~inputs:8 ~outputs:8
            ~scan_chains:[ 32 ] ~patterns ();
        ]
  in
  let build patterns =
    Core.System.build ~soc:(soc_of patterns)
      ~topology:(Nocplan_noc.Topology.make ~width:2 ~height:2)
      ~processors:[]
      ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Coord.make ~x:1 ~y:1 ]
      ()
  in
  let duration patterns =
    let sys = build patterns in
    (cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys)).Test_access.duration
  in
  let d10 = duration 10 and d20 = duration 20 in
  let per_pattern = d20 - d10 in
  Alcotest.(check bool) "per-pattern cost constant" true
    (per_pattern * 10 > (d10 / 2) && d20 > d10)

let test_flit_width_matters () =
  (* A wider flit shortens the wrapper chains and hence the test. *)
  let soc =
    Nocplan_itc02.Soc.make ~name:"t"
      ~modules:
        [
          Nocplan_itc02.Module_def.make ~id:1 ~name:"a" ~inputs:16 ~outputs:16
            ~scan_chains:[ 64; 64; 64; 64 ] ~patterns:50 ();
        ]
  in
  let build flit_width =
    Core.System.build ~flit_width ~soc
      ~topology:(Nocplan_noc.Topology.make ~width:2 ~height:2)
      ~processors:[]
      ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Coord.make ~x:1 ~y:1 ]
      ()
  in
  let duration w =
    let sys = build w in
    (cost sys ~module_id:1 ~source:(ein sys) ~sink:(eout sys)).Test_access.duration
  in
  (* At width 8 the 16 input cells land on the four chainless wrapper
     chains, so si stays 64 as at width 32; at width 2 the chains must
     share wrapper chains and the test stretches. *)
  Alcotest.(check bool) "wider is faster" true (duration 2 > duration 32)

let prop_cost_well_formed =
  qcheck ~count:40 "cost is well-formed for every core and pair" system_gen
    (fun sys ->
      let endpoints =
        Resource.all_endpoints sys
          ~reuse:(List.length sys.System.processors)
      in
      let sources = List.filter Resource.can_source endpoints in
      let sinks = List.filter Resource.can_sink endpoints in
      List.for_all
        (fun module_id ->
          List.for_all
            (fun source ->
              List.for_all
                (fun sink ->
                  (not (Resource.valid_pair ~source ~sink))
                  ||
                  let c =
                    Test_access.cost sys ~application:Proc.Processor.Bist
                      ~module_id ~source ~sink
                  in
                  c.Test_access.duration > 0
                  && c.Test_access.power > 0.0
                  && c.Test_access.per_pattern > 0
                  && c.Test_access.routers > 0)
                sinks)
            sources)
        (System.module_ids sys))

(* --- table cells against the single-pair reference ------------------ *)

let applications = [ Proc.Processor.Bist; Proc.Processor.Decompression ]

(* Every cell of [t] for [sys], in row-major order: the endpoints, the
   cost (or [None] on an invalid pair) and the channel ids, plus the
   feasibility bit. *)
let cells sys t =
  let endpoints =
    Resource.all_endpoints sys ~reuse:(List.length sys.System.processors)
  in
  List.concat_map
    (fun module_id ->
      let row = Test_access.module_row t module_id in
      List.concat_map
        (fun source ->
          List.map
            (fun sink ->
              let src = Test_access.endpoint_id t source in
              let snk = Test_access.endpoint_id t sink in
              ( (module_id, source, sink),
                (match Test_access.cost_ix t ~row ~src ~snk with
                | c -> Some c
                | exception Invalid_argument _ -> None),
                Test_access.channels_ix t ~row ~src ~snk,
                Test_access.feasible_ix t ~row ~src ~snk ))
            endpoints)
        endpoints)
    (System.module_ids sys)

let same_cost (a : Test_access.cost) (b : Test_access.cost) =
  a.Test_access.duration = b.Test_access.duration
  && Int64.equal
       (Int64.bits_of_float a.Test_access.power)
       (Int64.bits_of_float b.Test_access.power)
  && List.equal Link.equal a.Test_access.links b.Test_access.links
  && a.Test_access.routers = b.Test_access.routers
  && a.Test_access.per_pattern = b.Test_access.per_pattern

(* Every valid cell equals {!Test_access.cost} field for field (links
   in order, power bit-exact), invalid cells carry no cost and no
   channels, and the channel ids number links one to one in first-use
   order: walking the cells row-major and each cell's links in order,
   every unseen link takes the next id. *)
let table_matches_cost sys =
  List.for_all
    (fun application ->
      let t = Test_access.table ~application sys in
      let ids = Hashtbl.create 64 in
      List.for_all
        (fun ((module_id, source, sink), got, chans, _) ->
          match got with
          | None -> (not (Resource.valid_pair ~source ~sink)) && chans = [||]
          | Some c ->
              let want =
                Test_access.cost sys ~application ~module_id ~source ~sink
              in
              if not (same_cost c want) then
                QCheck2.Test.fail_reportf "module %d %a -> %a: table %a, cost %a"
                  module_id Resource.pp source Resource.pp sink
                  Test_access.pp_cost c Test_access.pp_cost want;
              Array.length chans = List.length c.Test_access.links
              && List.for_all2
                   (fun l ch ->
                     match Hashtbl.find_opt ids ch with
                     | Some l' -> Link.equal l l'
                     | None ->
                         let fresh = ch = Hashtbl.length ids in
                         Hashtbl.add ids ch l;
                         fresh)
                   c.Test_access.links (Array.to_list chans))
        (cells sys t))
    applications

let prop_table_matches_cost =
  qcheck ~count:60 "table cells equal the single-pair cost"
    Generators.system_gen_any table_matches_cost

let corpus_item_gen =
  QCheck2.Gen.(
    map2
      (fun seed index -> Nocplan_corpus.Corpus.item ~seed:(Int64.of_int seed) ~index)
      (int_range 0 10_000) (int_range 0 50))

let prop_corpus_table_matches_cost =
  qcheck ~count:25 "corpus table cells equal the single-pair cost"
    corpus_item_gen (fun item ->
      table_matches_cost item.Nocplan_corpus.Corpus.system)

let prop_fault_free_detour_table_is_xy =
  (* With no faults the detour router returns the XY path, so a routed
     table must equal the XY table cell for cell — costs, channel ids
     and their numbering included. *)
  qcheck ~count:40 "fault-free detour table equals the XY table"
    Generators.system_gen_any (fun sys ->
      let detour =
        Nocplan_fault.Detour.table sys.System.topology
          Nocplan_fault.Detour.no_faults
      in
      List.for_all
        (fun application ->
          let xy = cells sys (Test_access.table ~application sys) in
          let routed =
            cells sys
              (Test_access.table ~application
                 ~route:(Nocplan_fault.Detour.route_fn detour)
                 sys)
          in
          List.for_all2
            (fun (_, a, ca, fa) (_, b, cb, fb) ->
              Option.equal same_cost a b && ca = cb && fa = fb)
            xy routed)
        applications)

(* --- chunk prices --------------------------------------------------- *)

(* The soundness of pricing preemptive session chunks from the table,
   as the engine and the validator do: for every feasible cell and each
   pattern count [p] of [counts P], [duration_ix - (P - p) *
   per_pattern_ix] is the duration of [Test_access.cost ~patterns:p],
   and that cost's power and links are the full-pattern cell's. *)
let chunk_prices_match sys ~counts =
  List.iter
    (fun application ->
      let t = Test_access.table ~application sys in
      List.iter
        (fun ((module_id, source, sink), full, _, feasible) ->
          match full with
          | Some (full : Test_access.cost) when feasible ->
              let row = Test_access.module_row t module_id in
              let src = Test_access.endpoint_id t source
              and snk = Test_access.endpoint_id t sink in
              let patterns =
                (Nocplan_itc02.Soc.find sys.System.soc module_id)
                  .Nocplan_itc02.Module_def.patterns
              in
              List.iter
                (fun p ->
                  let chunk =
                    Test_access.cost ~patterns:p sys ~application ~module_id
                      ~source ~sink
                  in
                  let fail what =
                    Alcotest.failf "module %d %a -> %a, %d of %d patterns: %s"
                      module_id Resource.pp source Resource.pp sink p patterns
                      what
                  in
                  if
                    chunk.Test_access.duration
                    <> Test_access.duration_ix t ~row ~src ~snk
                       - (patterns - p)
                         * Test_access.per_pattern_ix t ~row ~src ~snk
                  then fail "duration";
                  if
                    not
                      (Int64.equal
                         (Int64.bits_of_float chunk.Test_access.power)
                         (Int64.bits_of_float full.Test_access.power))
                  then fail "power";
                  if
                    not
                      (List.equal Link.equal chunk.Test_access.links
                         full.Test_access.links)
                  then fail "links")
                (counts patterns)
          | Some _ | None -> ())
        (cells sys t))
    applications

let test_chunk_price_identity () =
  let rng = Random.State.make [| 30 |] in
  let counts patterns = [ 1 + Random.State.int rng patterns ] in
  List.iter
    (fun (_, sys) -> chunk_prices_match sys ~counts)
    (Core.Experiments.all ());
  List.iter
    (fun item -> chunk_prices_match item.Nocplan_corpus.Corpus.system ~counts)
    (Nocplan_corpus.Corpus.generate ~seed:7L ~count:25)

(* Every pattern count, on corpus items and d695_leon: the prices
   [Schedule.validate_sessions] reads from a table. *)
let every_count patterns = List.init patterns (fun i -> i + 1)

let prop_session_prices_corpus =
  qcheck ~count:10 "table session prices equal cost ~patterns at every count"
    corpus_item_gen (fun item ->
      chunk_prices_match item.Nocplan_corpus.Corpus.system ~counts:every_count;
      true)

let test_session_prices_d695_leon () =
  chunk_prices_match (Core.Experiments.d695_leon ()) ~counts:every_count

(* --- allocation budget --------------------------------------------- *)

let test_table_allocation_budget () =
  (* Minor words of one table build, a deterministic count (no timing):
     the per-cell work must stay a merge of precomputed legs.  Builds
     with per-cell sets and lists allocated 490k words on d695_leon and
     2.2M on p93791_leon. *)
  List.iter
    (fun (name, build, budget) ->
      let sys = build () in
      ignore (Test_access.table sys);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Test_access.table sys));
      let words = Gc.minor_words () -. before in
      if words > budget then
        Alcotest.failf "%s: table build allocated %.0f minor words, budget %.0f"
          name words budget)
    [
      ("d695_leon", Core.Experiments.d695_leon, 250_000.);
      ("p93791_leon", Core.Experiments.p93791_leon, 1_000_000.);
    ]

let test_table_live_words_per_cell () =
  (* Live heap of one many-endpoint table after a full collection, per
     cell: the cells hold scalars in flat arrays and only the
     per-(module, endpoint) legs hold paths.  A cell holding an option
     record, a boxed power, a links list and a channel array came to
     89.6 words here; the flat layout measures 9.2. *)
  let sys =
    Result.get_ok
      (Nocplan_serve.Sysbuild.build
         (Nocplan_serve.Sysbuild.spec ~width:12 ~height:12 ~leons:60 "d695"))
  in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let t = Test_access.table sys in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  let cells = Test_access.cell_count t in
  Alcotest.(check int) "cells" (70 * 62 * 62) cells;
  let per_cell = float_of_int (after - before) /. float_of_int cells in
  if per_cell > 12.0 then
    Alcotest.failf "table holds %.1f live words per cell, budget 12" per_cell;
  ignore (Sys.opaque_identity t)

(* --- table fallback paths ------------------------------------------ *)

(* The same modules as [small_soc] under ids no table of the standard
   fixtures knows, so every table lookup for its schedule misses. *)
let renumbered_system () =
  let bump (m : Nocplan_itc02.Module_def.t) =
    Nocplan_itc02.Module_def.make ~id:(m.Nocplan_itc02.Module_def.id + 100)
      ~name:m.Nocplan_itc02.Module_def.name
      ~inputs:m.Nocplan_itc02.Module_def.inputs
      ~outputs:m.Nocplan_itc02.Module_def.outputs
      ~scan_chains:m.Nocplan_itc02.Module_def.scan_chains
      ~patterns:m.Nocplan_itc02.Module_def.patterns ()
  in
  let soc =
    Nocplan_itc02.Soc.make ~name:"tiny-renumbered"
      ~modules:(List.map bump (small_soc ()).Nocplan_itc02.Soc.modules)
  in
  Core.System.build ~soc
    ~topology:(Nocplan_noc.Topology.make ~width:3 ~height:3)
    ~processors:[ Proc.Processor.leon ~id:1 ]
    ~io_inputs:[ Coord.make ~x:0 ~y:0 ]
    ~io_outputs:[ Coord.make ~x:2 ~y:2 ]
    ()

let violation_strings = function
  | Ok () -> []
  | Error vs ->
      List.sort String.compare
        (List.map (Fmt.str "%a" Core.Schedule.pp_violation) vs)

let validate ?access sys sched =
  violation_strings
    (Core.Schedule.validate ?access sys ~application:Proc.Processor.Bist
       ~power_limit:None ~reuse:1 sched)

let test_scheduler_rejects_foreign_table () =
  let sys = system () in
  let twin = system () in
  (* Physically distinct, even though structurally identical. *)
  (match
     Core.Scheduler.run
       ~access:(Test_access.table twin)
       sys
       (Core.Scheduler.config ~reuse:1 ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "table of another system accepted");
  match
    Core.Scheduler.run
      ~access:(Test_access.table ~application:Proc.Processor.Decompression sys)
      sys
      (Core.Scheduler.config ~reuse:1 ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "table of another application accepted"

let test_validate_falls_back_on_lookup_miss () =
  (* A table that knows none of the schedule's modules: every lookup
     raises, validate silently recomputes directly, and the verdict is
     identical to running without a table — on a valid schedule and on
     a tampered one alike. *)
  let foreign_table = Test_access.table (system ()) in
  let sys = renumbered_system () in
  let sched = Core.Scheduler.run sys (Core.Scheduler.config ~reuse:1 ()) in
  Alcotest.(check (list string))
    "valid schedule: same verdict" (validate sys sched)
    (validate ~access:foreign_table sys sched);
  Alcotest.(check (list string)) "and that verdict is clean" []
    (validate ~access:foreign_table sys sched);
  let tampered =
    Core.Schedule.of_entries
      (List.mapi
         (fun i (e : Core.Schedule.entry) ->
           if i = 0 then { e with Core.Schedule.finish = e.Core.Schedule.finish + 7 }
           else e)
         sched.Core.Schedule.entries)
  in
  let direct = validate sys tampered in
  Alcotest.(check bool) "tampering detected" true (direct <> []);
  Alcotest.(check (list string))
    "tampered schedule: same violations via fallback" direct
    (validate ~access:foreign_table sys tampered)

let test_validate_with_twin_table_identical () =
  (* A table from a structurally identical twin passes the lookups and
     returns the same costs, so the verdict still matches the direct
     computation (the mli's cache-never-oracle contract). *)
  let sys = system () in
  let twin_table = Test_access.table (system ()) in
  let sched = Core.Scheduler.run sys (Core.Scheduler.config ~reuse:1 ()) in
  Alcotest.(check (list string))
    "same verdict through the twin table" (validate sys sched)
    (validate ~access:twin_table sys sched)

let test_sweep_ignores_mismatched_table () =
  (* Planner.reuse_sweep treats a foreign table as absent (it rebuilds)
     rather than failing: the series must equal the tableless run. *)
  let sys = system () in
  let foreign = Test_access.table (renumbered_system ()) in
  let series (s : Core.Planner.sweep) =
    List.map
      (fun (p : Core.Planner.point) -> (p.Core.Planner.reuse, p.Core.Planner.makespan))
      s.Core.Planner.points
  in
  Alcotest.(check (list (pair int int)))
    "identical series"
    (series (Core.Planner.reuse_sweep sys))
    (series (Core.Planner.reuse_sweep ~access:foreign sys))

let suite =
  [
    Alcotest.test_case "external pair cost" `Quick test_external_pair_cost;
    Alcotest.test_case "processor source adds overhead" `Quick
      test_processor_source_slower;
    Alcotest.test_case "power includes all parties" `Quick
      test_power_includes_all_parties;
    Alcotest.test_case "invalid pairs rejected" `Quick
      test_invalid_pairs_rejected;
    Alcotest.test_case "links deduplicated" `Quick test_links_deduplicated;
    Alcotest.test_case "duration scales with patterns" `Quick
      test_duration_scales_with_patterns;
    Alcotest.test_case "flit width matters" `Quick test_flit_width_matters;
    Alcotest.test_case "scheduler rejects foreign table" `Quick
      test_scheduler_rejects_foreign_table;
    Alcotest.test_case "validate falls back on lookup miss" `Quick
      test_validate_falls_back_on_lookup_miss;
    Alcotest.test_case "validate via twin table identical" `Quick
      test_validate_with_twin_table_identical;
    Alcotest.test_case "sweep ignores mismatched table" `Quick
      test_sweep_ignores_mismatched_table;
    prop_cost_well_formed;
    Alcotest.test_case "chunk price identity" `Quick test_chunk_price_identity;
    prop_session_prices_corpus;
    Alcotest.test_case "session prices on d695_leon" `Quick
      test_session_prices_d695_leon;
    Alcotest.test_case "table allocation budget" `Quick
      test_table_allocation_budget;
    Alcotest.test_case "table live words per cell" `Slow
      test_table_live_words_per_cell;
    prop_table_matches_cost;
    prop_corpus_table_matches_cost;
    prop_fault_free_detour_table_is_xy;
  ]
