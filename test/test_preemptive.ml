open Util
module Core = Nocplan_core
module Preemptive = Core.Preemptive
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Soc = Nocplan_itc02.Soc
module Module_def = Nocplan_itc02.Module_def
module Proc = Nocplan_proc
module Corpus = Nocplan_corpus.Corpus
module Test_access = Core.Test_access

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

(* With max_sessions = 1 the preemptive engine degenerates to the
   paper's greedy scheduler: the same entries, field for field — module,
   pair, start, finish, power and links — each session applying the
   module's whole pattern set. *)
let check_one_session_equals_greedy ~label ?(power_limit = None) ~reuse sys =
  let greedy =
    match Scheduler.run sys (Scheduler.config ~power_limit ~reuse ()) with
    | s -> Some s
    | exception Scheduler.Unschedulable _ -> None
  in
  let plan =
    match
      Preemptive.schedule sys
        (Preemptive.config ~power_limit ~max_sessions:1 ~reuse ())
    with
    | p -> Some p
    | exception Scheduler.Unschedulable _ -> None
  in
  match (greedy, plan) with
  | None, None -> ()
  | Some _, None | None, Some _ ->
      Alcotest.failf "%s: only one of the two is unschedulable" label
  | Some greedy, Some plan ->
      Alcotest.(check int) (label ^ ": makespan") greedy.Schedule.makespan
        plan.Preemptive.makespan;
      let entry (s : Preemptive.session) =
        let m = Soc.find sys.System.soc s.Preemptive.module_id in
        Alcotest.(check int)
          (Printf.sprintf "%s: module %d whole pattern set" label
             s.Preemptive.module_id)
          m.Module_def.patterns s.Preemptive.patterns;
        {
          Schedule.module_id = s.Preemptive.module_id;
          source = s.Preemptive.source;
          sink = s.Preemptive.sink;
          start = s.Preemptive.start;
          finish = s.Preemptive.finish;
          power = s.Preemptive.power;
          links = s.Preemptive.links;
        }
      in
      Alcotest.(check bool) (label ^ ": entries equal") true
        (greedy.Schedule.entries = List.map entry plan.Preemptive.sessions)

let test_one_session_equals_greedy () =
  check_one_session_equals_greedy ~label:"small" ~reuse:1 (small_system ());
  List.iter
    (fun (item : Corpus.item) ->
      check_one_session_equals_greedy ~label:item.Corpus.name
        ~power_limit:item.Corpus.power_limit ~reuse:item.Corpus.reuse
        item.Corpus.system)
    (Corpus.generate ~seed:7L ~count:100);
  List.iter
    (fun (name, sys) ->
      for reuse = 0 to List.length sys.System.processors do
        check_one_session_equals_greedy
          ~label:(Printf.sprintf "%s reuse %d" name reuse)
          ~reuse sys
      done)
    (Core.Experiments.all ())

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

let test_unschedulable_raises_engine_error () =
  (* A limit below every test's power: the engine makes no progress. *)
  let sys = small_system () in
  match
    Preemptive.schedule sys
      (Preemptive.config ~power_limit:(Some 0.001) ~max_sessions:2 ~reuse:1 ())
  with
  | _ -> Alcotest.fail "expected Unschedulable"
  | exception Scheduler.Unschedulable msg ->
      Alcotest.(check bool) ("engine message: " ^ msg) true
        (String.starts_with ~prefix:"no progress at t=0 with 4 cores pending"
           msg)

(* On a table the validator prices every session from its cell; its
   verdict is the direct one, on plans as planned and on plans with one
   session's finish, power, links or pattern count doctored. *)
let test_validate_on_a_table_agrees () =
  let verdict ?access ~application ~power_limit ~reuse sys plan =
    match
      Preemptive.validate ?access sys ~application ~power_limit ~reuse plan
    with
    | Ok () -> "ok"
    | Error vs ->
        Fmt.str "%a" (Fmt.list ~sep:Fmt.semi Schedule.pp_violation) vs
  in
  let doctored (plan : Preemptive.plan) =
    match plan.Preemptive.sessions with
    | [] -> []
    | s :: rest ->
        let with_first s' = Preemptive.plan_of_sessions (s' :: rest) in
        [
          with_first { s with Preemptive.finish = s.Preemptive.finish + 1 };
          with_first { s with Preemptive.power = s.Preemptive.power +. 1.0 };
          with_first { s with Preemptive.links = [] };
        ]
        @
        if s.Preemptive.patterns > 1 then
          [
            with_first
              { s with Preemptive.patterns = s.Preemptive.patterns - 1 };
          ]
        else []
  in
  let check label ~application ~power_limit ~reuse ~max_sessions sys =
    let access = Test_access.table ~application sys in
    match
      Preemptive.schedule ~access sys
        (Preemptive.config ~application ~power_limit ~max_sessions ~reuse ())
    with
    | exception Scheduler.Unschedulable _ -> ()
    | plan ->
        let verdicts plan =
          ( verdict ~application ~power_limit ~reuse sys plan,
            verdict ~access ~application ~power_limit ~reuse sys plan )
        in
        let direct, tabled = verdicts plan in
        Alcotest.(check string) (label ^ ": plan valid, direct") "ok" direct;
        Alcotest.(check string) (label ^ ": plan valid, on the table") "ok"
          tabled;
        List.iteri
          (fun i plan ->
            let direct, tabled = verdicts plan in
            if direct = "ok" then
              Alcotest.failf "%s: doctored plan %d validates" label i;
            Alcotest.(check string)
              (Printf.sprintf "%s: doctored plan %d" label i)
              direct tabled)
          (doctored plan)
  in
  List.iter
    (fun (name, sys) ->
      let reuse = List.length sys.System.processors in
      List.iter
        (fun application ->
          List.iter
            (fun max_sessions ->
              check
                (Printf.sprintf "%s %s %d sessions" name
                   (match application with
                   | Proc.Processor.Bist -> "bist"
                   | Proc.Processor.Decompression -> "decompression")
                   max_sessions)
                ~application ~power_limit:None ~reuse ~max_sessions sys)
            [ 2; 3 ])
        [ Proc.Processor.Bist; Proc.Processor.Decompression ])
    (Core.Experiments.all ());
  List.iter
    (fun (item : Corpus.item) ->
      check item.Corpus.name ~application:Proc.Processor.Bist
        ~power_limit:item.Corpus.power_limit ~reuse:item.Corpus.reuse
        ~max_sessions:2 item.Corpus.system)
    (Corpus.generate ~seed:7L ~count:20)

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
    Alcotest.test_case "validator on a table agrees with the direct one"
      `Quick test_validate_on_a_table_agrees;
    Alcotest.test_case "unschedulable raises the engine error" `Quick
      test_unschedulable_raises_engine_error;
    prop_plans_always_valid;
    prop_session_overhead_bounded;
  ]
