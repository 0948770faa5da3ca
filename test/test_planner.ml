open Util
module Core = Nocplan_core
module Planner = Core.Planner
module Scheduler = Core.Scheduler

let test_reduction_pct () =
  Alcotest.(check (float 1e-9)) "half" 50.0
    (Planner.reduction_pct ~baseline:100 50);
  Alcotest.(check (float 1e-9)) "none" 0.0
    (Planner.reduction_pct ~baseline:100 100);
  Alcotest.(check (float 1e-9)) "regression is negative" (-10.0)
    (Planner.reduction_pct ~baseline:100 110);
  match Planner.reduction_pct ~baseline:0 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero baseline accepted"

let test_sweep_structure () =
  let sys = small_system () in
  let sweep = Planner.reuse_sweep sys in
  Alcotest.(check int) "points 0..n" 2 (List.length sweep.Planner.points);
  List.iteri
    (fun i (p : Planner.point) ->
      Alcotest.(check int) "reuse in order" i p.Planner.reuse;
      Alcotest.(check bool) "validated" true p.Planner.validated)
    sweep.Planner.points

let test_baseline_and_best () =
  let sys = small_system () in
  let sweep = Planner.reuse_sweep sys in
  let base = Planner.baseline_point sweep in
  Alcotest.(check int) "baseline reuse" 0 base.Planner.reuse;
  let best = Planner.best_point sweep in
  Alcotest.(check bool) "best is minimal" true
    (List.for_all
       (fun (p : Planner.point) -> best.Planner.makespan <= p.Planner.makespan)
       sweep.Planner.points)

let test_max_reuse_truncates () =
  let sys =
    small_system
      ~processors:[ Nocplan_proc.Processor.leon ~id:1; Nocplan_proc.Processor.leon ~id:1 ]
      ()
  in
  let sweep = Planner.reuse_sweep ~max_reuse:1 sys in
  Alcotest.(check int) "truncated" 2 (List.length sweep.Planner.points)

let test_power_sweep_respects_limits () =
  (* Greedy scheduling under a tighter limit is not always slower (a
     constraint can steer greedy away from an anomalous choice), so
     monotonicity is not asserted — only that every point is feasible,
     validated and within its own limit. *)
  let sys = small_system () in
  let points = Planner.power_sweep ~reuse:1 ~pcts:[ 100.0; 95.0; 90.0 ] sys in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun (pct, (p : Planner.point)) ->
      Alcotest.(check bool) "validated" true p.Planner.validated;
      let limit = Core.System.power_limit_of_pct sys ~pct in
      Alcotest.(check bool) "peak within limit" true
        (p.Planner.peak_power <= limit +. 1e-6))
    points

let test_schedule_wrapper_consistency () =
  let sys = small_system () in
  let sweep = Planner.reuse_sweep sys in
  let direct = Planner.schedule ~reuse:1 sys in
  let from_sweep =
    List.find (fun (p : Planner.point) -> p.Planner.reuse = 1)
      sweep.Planner.points
  in
  Alcotest.(check int) "same makespan" from_sweep.Planner.makespan
    direct.Core.Schedule.makespan

let test_lookahead_sweep_valid () =
  let sys = small_system () in
  let sweep = Planner.reuse_sweep ~policy:Scheduler.Lookahead sys in
  List.iter
    (fun (p : Planner.point) ->
      Alcotest.(check bool) "validated" true p.Planner.validated)
    sweep.Planner.points

let prop_peak_power_nonnegative =
  qcheck ~count:20 "peak power is non-negative and finite" system_gen
    (fun sys ->
      let sweep = Planner.reuse_sweep sys in
      List.for_all
        (fun (p : Planner.point) ->
          p.Planner.peak_power >= 0.0 && Float.is_finite p.Planner.peak_power)
        sweep.Planner.points)

let suite =
  [
    Alcotest.test_case "reduction percentage" `Quick test_reduction_pct;
    Alcotest.test_case "sweep structure" `Quick test_sweep_structure;
    Alcotest.test_case "baseline and best" `Quick test_baseline_and_best;
    Alcotest.test_case "max_reuse truncates" `Quick test_max_reuse_truncates;
    Alcotest.test_case "power sweep respects limits" `Quick
      test_power_sweep_respects_limits;
    Alcotest.test_case "schedule wrapper consistent" `Quick
      test_schedule_wrapper_consistency;
    Alcotest.test_case "lookahead sweep valid" `Quick test_lookahead_sweep_valid;
    prop_peak_power_nonnegative;
  ]
