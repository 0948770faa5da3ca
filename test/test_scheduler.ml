open Util
module Core = Nocplan_core
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Resource = Core.Resource
module Proc = Nocplan_proc

let run ?(policy = Scheduler.Greedy) ?(application = Proc.Processor.Bist)
    ?(power_limit = None) ~reuse sys =
  Scheduler.run sys (Scheduler.config ~policy ~application ~power_limit ~reuse ())

let assert_valid ?(application = Proc.Processor.Bist) ~power_limit ~reuse sys
    sched =
  (match Schedule.validate sys ~application ~power_limit ~reuse sched with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid schedule: %a"
        (Fmt.list ~sep:Fmt.comma Schedule.pp_violation)
        vs);
  (* And through the test suite's own naive checker, so the production
     validator is never the sole witness. *)
  assert_schedule_invariants ~power_limit sys sched

let test_baseline_serializes () =
  (* One external pair and no processors: tests cannot overlap, so the
     makespan is the sum of the durations. *)
  let sys = small_system ~processors:[] () in
  let sched = run ~reuse:0 sys in
  assert_valid ~power_limit:None ~reuse:0 sys sched;
  let total =
    List.fold_left
      (fun acc (e : Schedule.entry) ->
        acc + (e.Schedule.finish - e.Schedule.start))
      0 sched.Schedule.entries
  in
  Alcotest.(check int) "serialized" total sched.Schedule.makespan

let test_reuse_never_hurts_at_capacity () =
  (* Reuse can fluctuate (greedy), but full reuse beats no reuse on
     the fixture. *)
  let sys = small_system ~processors:[ Proc.Processor.leon ~id:1; Proc.Processor.leon ~id:1 ] () in
  let base = (run ~reuse:0 sys).Schedule.makespan in
  let full = (run ~reuse:2 sys).Schedule.makespan in
  Alcotest.(check bool) "reuse improves the fixture" true (full < base)

let test_processor_tested_before_reused () =
  let sys = small_system () in
  let sched = run ~reuse:1 sys in
  let proc_id = (List.hd sys.System.processors).System.module_id in
  let proc_test_finish =
    match Schedule.entries_for sched proc_id with
    | [ e ] -> e.Schedule.finish
    | _ -> Alcotest.fail "processor tested other than once"
  in
  List.iter
    (fun (e : Schedule.entry) ->
      let uses_proc =
        Resource.equal e.Schedule.source (Resource.Processor proc_id)
        || Resource.equal e.Schedule.sink (Resource.Processor proc_id)
      in
      if uses_proc then
        Alcotest.(check bool) "use starts after the processor's test" true
          (e.Schedule.start >= proc_test_finish))
    sched.Schedule.entries

let test_power_limit_respected () =
  let sys = small_system () in
  let limit = Some 1500.0 in
  let sched = run ~power_limit:limit ~reuse:1 sys in
  assert_valid ~power_limit:limit ~reuse:1 sys sched

let test_unschedulable_power () =
  (* A limit below any single test's power can never be met. *)
  let sys = small_system () in
  match run ~power_limit:(Some 1.0) ~reuse:1 sys with
  | exception Scheduler.Unschedulable _ -> ()
  | _ -> Alcotest.fail "impossible power limit scheduled"

let test_lookahead_on_fixture () =
  let sys = small_system ~processors:[ Proc.Processor.leon ~id:1; Proc.Processor.plasma ~id:1 ] () in
  let sched = run ~policy:Scheduler.Lookahead ~reuse:2 sys in
  assert_valid ~power_limit:None ~reuse:2 sys sched

let test_decompression_application () =
  let sys = small_system () in
  let sched = run ~application:Proc.Processor.Decompression ~reuse:1 sys in
  match
    Schedule.validate sys ~application:Proc.Processor.Decompression
      ~power_limit:None ~reuse:1 sched
  with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid: %a" (Fmt.list Schedule.pp_violation) vs

let test_reuse_out_of_range () =
  let sys = small_system () in
  match run ~reuse:5 sys with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reuse beyond processors accepted"

(* A warm run allocates per commit, not per candidate: greedy attempts
   pick candidates from the arena's buffer and lookahead attempts walk
   the arena's per-row duration orders, instead of building a pair list
   each (list-based selection allocated 1,573,085 words for this
   lookahead run, 51,944 for greedy).  Through a workspace the walk
   orders are built by the first run only, so a second run allocates no
   more than the first. *)
let test_run_allocation_budget () =
  let sys = Core.Experiments.p93791_leon () in
  let access = Core.Test_access.table sys in
  let budget = 60_000. in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  List.iter
    (fun policy ->
      let config = Scheduler.config ~policy ~reuse:8 () in
      ignore (Scheduler.run ~access sys config);
      let w = words (fun () -> Scheduler.run ~access sys config) in
      if w > budget then
        Alcotest.failf "%a run allocated %.0f minor words (budget %.0f)"
          Scheduler.pp_policy policy w budget)
    [ Scheduler.Greedy; Scheduler.Lookahead ];
  let config = Scheduler.config ~policy:Scheduler.Lookahead ~reuse:8 () in
  let workspace = Scheduler.workspace () in
  let run () = Scheduler.run_traced ~workspace ~access sys config in
  let first = words run in
  let second = words run in
  if first > budget || second > budget then
    Alcotest.failf
      "workspace lookahead runs allocated %.0f and %.0f minor words (budget \
       %.0f)"
      first second budget;
  if second > first then
    Alcotest.failf
      "second workspace lookahead run allocated %.0f minor words, more than \
       the first's %.0f"
      second first

(* The central property: for random systems, any configuration the
   engine accepts yields a schedule the independent validator fully
   approves. *)
let prop_schedules_always_valid =
  qcheck ~count:60 "every produced schedule validates"
    QCheck2.Gen.(
      tup4 system_gen (oneofl [ Scheduler.Greedy; Scheduler.Lookahead ])
        (oneofl [ None; Some 40.0; Some 70.0 ])
        (oneofl [ Proc.Processor.Bist; Proc.Processor.Decompression ]))
    (fun (sys, policy, pct, application) ->
      let reuse = List.length sys.System.processors in
      let power_limit =
        Option.map (fun p -> Core.System.power_limit_of_pct sys ~pct:p) pct
      in
      match
        Scheduler.run sys
          (Scheduler.config ~policy ~application ~power_limit ~reuse ())
      with
      | sched -> (
          match
            Schedule.validate sys ~application ~power_limit ~reuse sched
          with
          | Ok () -> schedule_invariant_errors ~power_limit sys sched = []
          | Error _ -> false)
      | exception Scheduler.Unschedulable _ ->
          (* Only acceptable when a tight percentage limit makes a
             single heavy test infeasible. *)
          pct <> None)

let prop_all_modules_tested =
  qcheck ~count:40 "schedules cover every module exactly once" system_gen
    (fun sys ->
      let reuse = List.length sys.System.processors in
      let sched = Scheduler.run sys (Scheduler.config ~reuse ()) in
      List.for_all
        (fun id -> List.length (Schedule.entries_for sched id) = 1)
        (System.module_ids sys))

let prop_makespan_lower_bounds =
  (* Two easy lower bounds hold for any valid schedule: the longest
     single test, and the total work divided by the theoretical
     maximum parallelism (half the endpoint count). *)
  qcheck ~count:30 "makespan respects work and critical-path lower bounds"
    system_gen
    (fun sys ->
      let reuse = List.length sys.System.processors in
      let sched = Scheduler.run sys (Scheduler.config ~reuse ()) in
      let durations =
        List.map
          (fun (e : Schedule.entry) ->
            e.Schedule.finish - e.Schedule.start)
          sched.Schedule.entries
      in
      let longest = List.fold_left max 0 durations in
      let total = List.fold_left ( + ) 0 durations in
      let endpoints =
        List.length (Core.Resource.all_endpoints sys ~reuse)
      in
      let max_parallel = max 1 (endpoints / 2) in
      sched.Schedule.makespan >= longest
      && sched.Schedule.makespan * max_parallel >= total)

let prop_no_idle_gaps_on_single_pair =
  (* With only the external pair, the greedy engine never leaves the
     tester idle between tests: entries tile the timeline. *)
  qcheck ~count:20 "single-pair schedules have no idle gaps" soc_gen
    (fun soc ->
      let sys =
        System.build ~soc
          ~topology:(Nocplan_noc.Topology.make ~width:3 ~height:3)
          ~processors:[]
          ~io_inputs:[ Nocplan_noc.Coord.make ~x:0 ~y:0 ]
          ~io_outputs:[ Nocplan_noc.Coord.make ~x:2 ~y:2 ]
          ()
      in
      let sched = Scheduler.run sys (Scheduler.config ~reuse:0 ()) in
      let rec contiguous = function
        | (a : Schedule.entry) :: (b :: _ as rest) ->
            a.Schedule.finish = b.Schedule.start && contiguous rest
        | [ _ ] | [] -> true
      in
      contiguous sched.Schedule.entries)

let prop_deterministic =
  qcheck ~count:20 "scheduling is deterministic" system_gen (fun sys ->
      let reuse = List.length sys.System.processors in
      let a = Scheduler.run sys (Scheduler.config ~reuse ()) in
      let b = Scheduler.run sys (Scheduler.config ~reuse ()) in
      a.Schedule.makespan = b.Schedule.makespan
      && List.length a.Schedule.entries = List.length b.Schedule.entries)

let suite =
  [
    Alcotest.test_case "baseline serializes on one pair" `Quick
      test_baseline_serializes;
    Alcotest.test_case "full reuse beats baseline" `Quick
      test_reuse_never_hurts_at_capacity;
    Alcotest.test_case "processor tested before reused" `Quick
      test_processor_tested_before_reused;
    Alcotest.test_case "power limit respected" `Quick test_power_limit_respected;
    Alcotest.test_case "impossible power limit" `Quick test_unschedulable_power;
    Alcotest.test_case "lookahead policy" `Quick test_lookahead_on_fixture;
    Alcotest.test_case "decompression application" `Quick
      test_decompression_application;
    Alcotest.test_case "reuse out of range" `Quick test_reuse_out_of_range;
    Alcotest.test_case "warm run allocation budget" `Quick
      test_run_allocation_budget;
    prop_schedules_always_valid;
    prop_all_modules_tested;
    prop_makespan_lower_bounds;
    prop_no_idle_gaps_on_single_pair;
    prop_deterministic;
  ]
