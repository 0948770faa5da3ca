open Util
module Core = Nocplan_core
module Preemptive = Core.Preemptive
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Soc = Nocplan_itc02.Soc
module Module_def = Nocplan_itc02.Module_def
module Proc = Nocplan_proc

let validate ?(application = Proc.Processor.Bist) ?(power_limit = None)
    ~reuse sys plan =
  Preemptive.validate sys ~application ~power_limit ~reuse plan

let assert_valid ?application ?power_limit ~reuse sys plan =
  match validate ?application ?power_limit ~reuse sys plan with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid plan: %a"
        (Fmt.list ~sep:Fmt.comma Schedule.pp_violation)
        vs

let test_one_session_equals_greedy () =
  (* With max_sessions = 1 the preemptive engine degenerates to the
     paper's greedy scheduler. *)
  let sys = small_system () in
  let greedy = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  let plan =
    Preemptive.schedule sys (Preemptive.config ~max_sessions:1 ~reuse:1 ())
  in
  Alcotest.(check int) "same makespan" greedy.Schedule.makespan
    plan.Preemptive.makespan;
  Alcotest.(check int) "one session per module"
    (List.length greedy.Schedule.entries)
    (List.length plan.Preemptive.sessions)

let test_sessions_validate () =
  let sys = small_system () in
  List.iter
    (fun max_sessions ->
      let plan =
        Preemptive.schedule sys
          (Preemptive.config ~max_sessions ~reuse:1 ())
      in
      assert_valid ~reuse:1 sys plan)
    [ 1; 2; 3; 6 ]

let test_coverage_is_full () =
  let sys = small_system () in
  let plan =
    Preemptive.schedule sys (Preemptive.config ~max_sessions:3 ~reuse:1 ())
  in
  List.iter
    (fun id ->
      let m = Soc.find sys.System.soc id in
      let applied =
        List.fold_left
          (fun acc (s : Preemptive.session) ->
            if s.Preemptive.module_id = id then acc + s.Preemptive.patterns
            else acc)
          0 plan.Preemptive.sessions
      in
      Alcotest.(check int)
        (Printf.sprintf "module %d fully tested" id)
        m.Module_def.patterns applied)
    (System.module_ids sys)

let test_small_pattern_sets_not_oversplit () =
  (* A 3-pattern core asked for 10 sessions gets at most 3. *)
  let soc =
    Soc.make ~name:"tiny"
      ~modules:
        [
          Module_def.make ~id:1 ~name:"a" ~inputs:4 ~outputs:4 ~scan_chains:[]
            ~patterns:3 ();
        ]
  in
  let sys =
    System.build ~soc
      ~topology:(Nocplan_noc.Topology.make ~width:2 ~height:2)
      ~processors:[]
      ~io_inputs:[ Nocplan_noc.Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Nocplan_noc.Coord.make ~x:1 ~y:1 ]
      ()
  in
  let plan =
    Preemptive.schedule sys (Preemptive.config ~max_sessions:10 ~reuse:0 ())
  in
  Alcotest.(check bool) "at most 3 sessions" true
    (List.length plan.Preemptive.sessions <= 3);
  assert_valid ~reuse:0 sys plan

let test_validator_catches_missing_patterns () =
  let sys = small_system () in
  let plan =
    Preemptive.schedule sys (Preemptive.config ~max_sessions:2 ~reuse:1 ())
  in
  let truncated =
    Preemptive.plan_of_sessions (List.tl plan.Preemptive.sessions)
  in
  match validate ~reuse:1 sys truncated with
  | Ok () -> Alcotest.fail "missing coverage not caught"
  | Error vs ->
      Alcotest.(check bool) "Patterns_not_covered reported" true
        (List.exists
           (function
             | Schedule.Patterns_not_covered _ -> true | _ -> false)
           vs)

let test_validator_catches_overlap () =
  let sys = small_system () in
  let plan =
    Preemptive.schedule sys (Preemptive.config ~max_sessions:1 ~reuse:0 ())
  in
  let squashed =
    Preemptive.plan_of_sessions
      (List.map
         (fun (s : Preemptive.session) ->
           {
             s with
             Preemptive.start = 0;
             Preemptive.finish = s.Preemptive.finish - s.Preemptive.start;
           })
         plan.Preemptive.sessions)
  in
  match validate ~reuse:0 sys squashed with
  | Ok () -> Alcotest.fail "overlaps not caught"
  | Error vs ->
      Alcotest.(check bool) "Endpoint_overlap reported" true
        (List.exists
           (function Schedule.Endpoint_overlap _ -> true | _ -> false)
           vs)

let test_power_limited_plan () =
  let sys = small_system () in
  let power_limit = Some (System.power_limit_of_pct sys ~pct:95.0) in
  let plan =
    Preemptive.schedule sys
      (Preemptive.config ~power_limit ~max_sessions:2 ~reuse:1 ())
  in
  assert_valid ~power_limit ~reuse:1 sys plan

let prop_plans_always_valid =
  qcheck ~count:25 "preemptive plans validate on random systems"
    QCheck2.Gen.(pair system_gen (int_range 1 4))
    (fun (sys, max_sessions) ->
      let reuse = List.length sys.System.processors in
      let plan =
        Preemptive.schedule sys (Preemptive.config ~max_sessions ~reuse ())
      in
      Result.is_ok
        (Preemptive.validate sys ~application:Proc.Processor.Bist
           ~power_limit:None ~reuse plan))

let prop_session_overhead_bounded =
  qcheck ~count:10 "splitting costs at most 20% on the fixture"
    QCheck2.Gen.(int_range 2 5)
    (fun max_sessions ->
      let sys = small_system () in
      let base =
        (Preemptive.schedule sys
           (Preemptive.config ~max_sessions:1 ~reuse:1 ()))
          .Preemptive.makespan
      in
      let split =
        (Preemptive.schedule sys (Preemptive.config ~max_sessions ~reuse:1 ()))
          .Preemptive.makespan
      in
      float_of_int split <= 1.2 *. float_of_int base)

let suite =
  [
    Alcotest.test_case "one session equals greedy" `Quick
      test_one_session_equals_greedy;
    Alcotest.test_case "sessions validate" `Quick test_sessions_validate;
    Alcotest.test_case "full coverage" `Quick test_coverage_is_full;
    Alcotest.test_case "small pattern sets" `Quick
      test_small_pattern_sets_not_oversplit;
    Alcotest.test_case "validator: missing patterns" `Quick
      test_validator_catches_missing_patterns;
    Alcotest.test_case "validator: overlaps" `Quick
      test_validator_catches_overlap;
    Alcotest.test_case "power-limited plan" `Quick test_power_limited_plan;
    prop_plans_always_valid;
    prop_session_overhead_bounded;
  ]
