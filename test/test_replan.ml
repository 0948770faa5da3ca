(* Adaptive re-planning after a mid-session channel failure. *)

open Util
module Core = Nocplan_core
module Replan = Core.Replan
module Planner = Core.Planner
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Link = Nocplan_noc.Link
module Coord = Nocplan_noc.Coord
module Proc = Nocplan_proc

let c x y = Coord.make ~x ~y

let fixture () =
  let sys = small_system () in
  (sys, Planner.schedule ~reuse:1 sys)

let assert_valid sys ~reuse ~at ~failed r =
  match
    Replan.validate sys ~application:Proc.Processor.Bist ~power_limit:None ~reuse ~at ~failed r
  with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid replan: %a"
        (Fmt.list ~sep:Fmt.comma Schedule.pp_violation)
        vs

let test_no_fault_midway () =
  (* An event with no failed links: the remainder is simply
     re-scheduled from [at]; everything still validates. *)
  let sys, sched = fixture () in
  let at = sched.Schedule.makespan / 2 in
  let r = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
  assert_valid sys ~reuse:1 ~at ~failed:[] r;
  Alcotest.(check int) "kept + voided = original"
    (List.length sched.Schedule.entries)
    (List.length r.Replan.kept + List.length r.Replan.voided)

let test_event_after_completion_keeps_everything () =
  let sys, sched = fixture () in
  let at = sched.Schedule.makespan in
  let r = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
  Alcotest.(check int) "nothing voided" 0 (List.length r.Replan.voided);
  Alcotest.(check int) "nothing replanned" 0 (List.length r.Replan.replanned);
  Alcotest.(check int) "makespan unchanged" sched.Schedule.makespan
    r.Replan.makespan;
  assert_valid sys ~reuse:1 ~at ~failed:[] r

let test_event_at_zero_is_a_fresh_plan () =
  let sys, sched = fixture () in
  let r = Replan.after_fault ~reuse:1 ~at:0 ~failed:[] sys sched in
  Alcotest.(check int) "nothing kept" 0 (List.length r.Replan.kept);
  Alcotest.(check int) "all replanned" 4 (List.length r.Replan.replanned);
  Alcotest.(check int) "same as scheduling from scratch"
    sched.Schedule.makespan r.Replan.makespan;
  assert_valid sys ~reuse:1 ~at:0 ~failed:[] r

let test_fault_forces_detour () =
  let sys, sched = fixture () in
  let at = sched.Schedule.makespan / 2 in
  let failed = [ Link.channel (c 1 0) (c 2 0) ] in
  let r = Replan.after_fault ~reuse:1 ~at ~failed sys sched in
  assert_valid sys ~reuse:1 ~at ~failed r;
  (* The degraded plan never touches the failed channel. *)
  List.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool) "failed link unused" false
        (List.exists (Link.equal (List.hd failed)) e.Schedule.links))
    r.Replan.replanned

let test_unoccupied_failed_link_still_voids_in_flight () =
  (* Pinned semantics: the kept/voided split is by time only.  A
     failed link no stream occupies still voids every test in flight
     at the event (the diagnosis interrupts the session), and the
     voided modules are re-planned on the degraded NoC. *)
  let sys, sched = fixture () in
  let at = sched.Schedule.makespan / 2 in
  let occupied =
    List.concat_map (fun (e : Schedule.entry) -> e.Schedule.links)
      sched.Schedule.entries
  in
  let all_channels =
    let topology = sys.System.topology in
    List.concat_map
      (fun i ->
        let a = Nocplan_noc.Topology.of_index topology i in
        List.map
          (fun b -> Link.channel a b)
          (Nocplan_noc.Topology.neighbors topology a))
      (List.init
         (topology.Nocplan_noc.Topology.width
         * topology.Nocplan_noc.Topology.height)
         Fun.id)
  in
  let unused =
    List.find
      (fun l -> not (List.exists (Link.equal l) occupied))
      all_channels
  in
  let r = Replan.after_fault ~reuse:1 ~at ~failed:[ unused ] sys sched in
  let r_empty = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
  (* Same time-only split as the no-fault event... *)
  Alcotest.(check int) "same kept count"
    (List.length r_empty.Replan.kept)
    (List.length r.Replan.kept);
  Alcotest.(check int) "same voided count"
    (List.length r_empty.Replan.voided)
    (List.length r.Replan.voided);
  (* ...with every in-flight test voided, not selectively killed. *)
  List.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool) "in-flight entry voided" true
        (e.Schedule.finish <= at
        || List.exists
             (fun (v : Schedule.entry) ->
               v.Schedule.module_id = e.Schedule.module_id)
             r.Replan.voided))
    sched.Schedule.entries;
  assert_valid sys ~reuse:1 ~at ~failed:[ unused ] r

let test_event_past_makespan_with_faults_keeps_everything () =
  (* Pinned semantics: an [at] at or past the makespan keeps
     everything even when links did fail — nothing was in flight, so
     the fault only matters to the next session. *)
  let sys, sched = fixture () in
  let failed = [ Link.channel (c 1 0) (c 2 0) ] in
  let r =
    Replan.after_fault ~reuse:1 ~at:(sched.Schedule.makespan + 7) ~failed sys
      sched
  in
  Alcotest.(check int) "nothing voided" 0 (List.length r.Replan.voided);
  Alcotest.(check int) "nothing replanned" 0 (List.length r.Replan.replanned);
  Alcotest.(check int) "makespan unchanged" sched.Schedule.makespan
    r.Replan.makespan

let test_pretested_processors_not_retested () =
  (* If the processor's own test completed before the event, the
     replanned part may use it immediately and must not test it
     again. *)
  let sys, sched = fixture () in
  let proc_id = (List.hd sys.System.processors).System.module_id in
  let proc_finish =
    match Schedule.entries_for sched proc_id with
    | [ e ] -> e.Schedule.finish
    | _ -> Alcotest.fail "processor tested other than once"
  in
  let at = proc_finish + 1 in
  let r = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
  assert_valid sys ~reuse:1 ~at ~failed:[] r;
  Alcotest.(check bool) "processor test kept" true
    (List.exists
       (fun (e : Schedule.entry) -> e.Schedule.module_id = proc_id)
       r.Replan.kept);
  Alcotest.(check bool) "processor not replanned" true
    (not
       (List.exists
          (fun (e : Schedule.entry) -> e.Schedule.module_id = proc_id)
          r.Replan.replanned))

let test_validator_rejects_doctored_result () =
  let sys, sched = fixture () in
  let at = sched.Schedule.makespan / 2 in
  let r = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
  (* Drop one replanned entry: coverage violation. *)
  (match r.Replan.replanned with
  | e :: rest ->
      let doctored = { r with Replan.replanned = rest } in
      (match
         Replan.validate sys ~application:Proc.Processor.Bist ~power_limit:None ~reuse:1 ~at
           ~failed:[] doctored
       with
      | Ok () -> Alcotest.fail "missing module not caught"
      | Error vs ->
          Alcotest.(check bool) "Module_not_tested reported" true
            (List.exists
               (function Schedule.Module_not_tested _ -> true | _ -> false)
               vs));
      (* Shift an entry before the event: timing violation. *)
      let early = { e with Schedule.start = 0; Schedule.finish = e.Schedule.finish - e.Schedule.start } in
      let doctored2 = { r with Replan.replanned = early :: rest } in
      (match
         Replan.validate sys ~application:Proc.Processor.Bist ~power_limit:None ~reuse:1 ~at
           ~failed:[] doctored2
       with
      | Ok () -> Alcotest.fail "early entry not caught"
      | Error vs ->
          Alcotest.(check bool) "Before_start_time reported" true
            (List.exists
               (function Schedule.Before_start_time _ -> true | _ -> false)
               vs))
  | [] -> Alcotest.fail "expected replanned entries");
  (* Keep one finished test twice: the kept list is checked too. *)
  let at =
    List.fold_left
      (fun acc (e : Schedule.entry) -> min acc e.Schedule.finish)
      max_int sched.Schedule.entries
  in
  let r = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
  match r.Replan.kept with
  | k :: _ -> (
      match
        Replan.validate sys ~application:Proc.Processor.Bist ~power_limit:None
          ~reuse:1 ~at ~failed:[]
          { r with Replan.kept = k :: r.Replan.kept }
      with
      | Ok () -> Alcotest.fail "module kept twice not caught"
      | Error vs ->
          Alcotest.(check bool) "Module_tested_twice reported" true
            (List.exists
               (function Schedule.Module_tested_twice _ -> true | _ -> false)
               vs))
  | [] -> Alcotest.fail "expected kept entries"

let prop_replan_valid_at_random_times =
  qcheck ~count:20 "replanning validates at any event time"
    QCheck2.Gen.(int_range 0 100)
    (fun pct ->
      let sys, sched = fixture () in
      let at = sched.Schedule.makespan * pct / 100 in
      let r = Replan.after_fault ~reuse:1 ~at ~failed:[] sys sched in
      Result.is_ok
        (Replan.validate sys ~application:Proc.Processor.Bist ~power_limit:None ~reuse:1 ~at
           ~failed:[] r))

let suite =
  [
    Alcotest.test_case "no fault midway" `Quick test_no_fault_midway;
    Alcotest.test_case "event after completion" `Quick
      test_event_after_completion_keeps_everything;
    Alcotest.test_case "event at zero" `Quick test_event_at_zero_is_a_fresh_plan;
    Alcotest.test_case "fault forces detour" `Quick test_fault_forces_detour;
    Alcotest.test_case "unoccupied failed link still voids in-flight" `Quick
      test_unoccupied_failed_link_still_voids_in_flight;
    Alcotest.test_case "event past makespan with faults" `Quick
      test_event_past_makespan_with_faults_keeps_everything;
    Alcotest.test_case "pretested processors reused" `Quick
      test_pretested_processors_not_retested;
    Alcotest.test_case "validator rejects doctored results" `Quick
      test_validator_rejects_doctored_result;
    prop_replan_valid_at_random_times;
  ]
