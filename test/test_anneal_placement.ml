(* Joint order+placement annealing: the incremental access-table
   rebuild placement moves are priced with, the dominance and
   determinism guarantees of the joint walk, and the torus
   strict-improvement pin. *)

open Util
module Core = Nocplan_core
module Annealing = Core.Annealing
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Test_access = Core.Test_access
module Experiments = Core.Experiments

let swappable sys =
  List.filter
    (fun id -> not (System.is_processor_module sys id))
    (System.module_ids sys)

let d695_torus () = Experiments.torus_variant (Experiments.d695_leon ())

(* --- incremental table rebuild --------------------------------------- *)

(* A placement move prices its candidate with the access table
   [Test_access.table_rebuild] derives from the current one, so after
   one placement swap that table must agree with a fresh build of the
   mutated system in every (module, source, sink) cell: feasibility
   (route and memory parts too) and the whole cost record.  100
   generated systems (meshes and tori, pinned and free processors),
   both test applications. *)
let prop_table_rebuild_matches_fresh =
  qcheck ~count:100 "table_rebuild = table of swapped system"
    QCheck2.Gen.(
      Generators.system_gen_any >>= fun sys ->
      triple (return sys) (pair (int_bound 1000) (int_bound 1000)) bool)
    (fun (sys, (na, nb), decompress) ->
      let application =
        if decompress then Nocplan_proc.Processor.Decompression
        else Nocplan_proc.Processor.Bist
      in
      let sw = Array.of_list (swappable sys) in
      let ns = Array.length sw in
      let a = sw.(na mod max 1 ns) and b = sw.(nb mod max 1 ns) in
      ns < 2 || a = b
      ||
      let sys' = System.swap_tiles sys a b in
      let rebuilt =
        Test_access.table_rebuild
          (Test_access.table ~application sys)
          ~system:sys' ~affected:[ a; b ]
      in
      let fresh = Test_access.table ~application sys' in
      let endpoints =
        Core.Resource.all_endpoints sys'
          ~reuse:(List.length sys'.System.processors)
      in
      let cell t ~module_id ~source ~sink =
        ( Test_access.table_feasible t ~module_id ~source ~sink,
          Test_access.table_route_feasible t ~module_id ~source ~sink,
          Test_access.table_memory_feasible t ~module_id ~source,
          match Test_access.table_cost t ~module_id ~source ~sink with
          | c -> Some c
          | exception Invalid_argument _ -> None )
      in
      List.for_all
        (fun module_id ->
          List.for_all
            (fun source ->
              List.for_all
                (fun sink ->
                  cell rebuilt ~module_id ~source ~sink
                  = cell fresh ~module_id ~source ~sink
                  || QCheck2.Test.fail_reportf
                       "module %d, %a -> %a: rebuilt cell differs from fresh"
                       module_id Core.Resource.pp source Core.Resource.pp sink)
                endpoints)
            endpoints)
        (System.module_ids sys'))

(* --- dominance ----------------------------------------------------- *)

(* Chain 0 of a multi-chain joint run is a pure order annealer on the
   base seed, so the joint result can never be worse than order-only
   annealing under the same seed and per-chain budget. *)
let joint_vs_order_only ?(placement_moves = 0.5) ~iterations ~seed ~reuse sys
    =
  let order_only =
    Annealing.schedule ~iterations ~seed ~chains:1 ~reuse sys
  in
  let joint =
    Annealing.schedule ~iterations ~seed ~chains:2
      ~exchange_period:(iterations + 1) ~placement_moves ~reuse sys
  in
  (order_only, joint)

let prop_joint_never_worse =
  qcheck ~count:8 "joint anneal never worse than order-only"
    Generators.system_gen_any (fun sys ->
      let reuse = List.length sys.System.processors in
      let order_only, joint =
        joint_vs_order_only ~iterations:30 ~seed:0x5AL ~reuse sys
      in
      joint.Annealing.schedule.Schedule.makespan
      <= order_only.Annealing.schedule.Schedule.makespan)

(* The acceptance pin: on d695_leon mapped onto a 4x4 torus, the same
   iteration budget and seed buy a strictly lower makespan once tile
   swaps join the move set — wraparound links make the placement the
   binding dimension. *)
let test_torus_strict_improvement () =
  let sys = d695_torus () in
  let order_only, joint =
    joint_vs_order_only ~placement_moves:0.3 ~iterations:150 ~seed:7L ~reuse:6
      sys
  in
  let om = order_only.Annealing.schedule.Schedule.makespan in
  let jm = joint.Annealing.schedule.Schedule.makespan in
  if jm >= om then
    Alcotest.failf "joint %d not strictly below order-only %d" jm om;
  Alcotest.(check bool) "placement swaps were accepted" true
    (joint.Annealing.placement_accepted > 0);
  (* The winning schedule belongs to the mutated system and must
     satisfy every safety invariant against it. *)
  assert_schedule_invariants joint.Annealing.system joint.Annealing.schedule

(* The bench's anneal:placement configuration (150 iterations, seed 7,
   2 chains, placement ratio 0.3) is deterministic: pin its joint
   makespans, each no worse than its own order-only run. *)
let test_bench_configuration_makespans () =
  List.iter
    (fun (name, sys, pinned) ->
      let order_only, joint =
        joint_vs_order_only ~placement_moves:0.3 ~iterations:150 ~seed:7L
          ~reuse:6 sys
      in
      let jm = joint.Annealing.schedule.Schedule.makespan in
      Alcotest.(check int) (name ^ " joint makespan") pinned jm;
      if jm > order_only.Annealing.schedule.Schedule.makespan then
        Alcotest.failf "%s: joint %d worse than order-only %d" name jm
          order_only.Annealing.schedule.Schedule.makespan)
    [
      ("d695_leon", Experiments.d695_leon (), 357796);
      ("d695_leon_torus", d695_torus (), 344737);
    ]

(* --- determinism --------------------------------------------------- *)

(* For every chain count the joint anneal is a pure function of its
   parameters: same makespan, same counters, same final placement. *)
let test_deterministic_across_chain_counts () =
  let sys = d695_torus () in
  for chains = 1 to 4 do
    let run () =
      Annealing.schedule ~iterations:40 ~seed:9L ~chains ~exchange_period:10
        ~placement_moves:0.4 ~reuse:6 sys
    in
    let a = run () and b = run () in
    let tag fmt = Printf.sprintf ("chains=%d: " ^^ fmt) chains in
    Alcotest.(check int)
      (tag "makespan")
      a.Annealing.schedule.Schedule.makespan
      b.Annealing.schedule.Schedule.makespan;
    Alcotest.(check int) (tag "evaluations") a.Annealing.evaluations
      b.Annealing.evaluations;
    Alcotest.(check int) (tag "accepted") a.Annealing.accepted
      b.Annealing.accepted;
    Alcotest.(check int)
      (tag "placement evals")
      a.Annealing.placement_evals b.Annealing.placement_evals;
    Alcotest.(check int)
      (tag "placement accepted")
      a.Annealing.placement_accepted b.Annealing.placement_accepted;
    Alcotest.(check int) (tag "exchanges") a.Annealing.exchanges
      b.Annealing.exchanges;
    Alcotest.(check string)
      (tag "final placement")
      (System.fingerprint a.Annealing.system)
      (System.fingerprint b.Annealing.system)
  done

(* --- joint results stay safe --------------------------------------- *)

let prop_joint_results_satisfy_invariants =
  qcheck ~count:10 "joint results satisfy schedule invariants"
    QCheck2.Gen.(pair Generators.system_gen_any Generators.power_pct_gen)
    (fun (sys, power_pct) ->
      let power_limit =
        Option.map (fun pct -> System.power_limit_of_pct sys ~pct) power_pct
      in
      let reuse = List.length sys.System.processors in
      match
        Annealing.schedule ~iterations:30 ~power_limit ~placement_moves:0.5
          ~reuse sys
      with
      | exception Scheduler.Unschedulable _ -> true
      | r ->
          (* Validate against the system the winning schedule belongs
             to — the placement may have moved. *)
          schedule_invariant_errors ~power_limit r.Annealing.system
            r.Annealing.schedule
          = [])

(* --- degenerate cases ---------------------------------------------- *)

let test_improvement_pct_zero_initial () =
  let sys = small_system () in
  let r =
    {
      Annealing.schedule = Schedule.of_entries [];
      system = sys;
      best_trace =
        Scheduler.run_traced sys (Scheduler.config ~reuse:1 ());
      initial_makespan = 0;
      warm_started = false;
      evaluations = 1;
      accepted = 0;
      placement_evals = 0;
      placement_accepted = 0;
      chains = 1;
      exchanges = 0;
    }
  in
  Alcotest.(check (float 0.0)) "0/0 improvement is 0" 0.0
    (Annealing.improvement_pct r)

let test_placement_moves_validated () =
  let sys = small_system () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Annealing.schedule ~placement_moves:(-0.1) ~reuse:1 sys);
  expect_invalid (fun () ->
      Annealing.schedule ~placement_moves:1.5 ~reuse:1 sys)

let test_ratio_zero_matches_historical () =
  (* placement_moves = 0 consumes the same generator stream as the
     pre-placement annealer: explicitly passing 0 changes nothing. *)
  let sys = small_system () in
  let a = Annealing.schedule ~iterations:60 ~seed:7L ~reuse:1 sys in
  let b =
    Annealing.schedule ~iterations:60 ~seed:7L ~placement_moves:0.0 ~reuse:1
      sys
  in
  Alcotest.(check int) "same makespan" a.Annealing.schedule.Schedule.makespan
    b.Annealing.schedule.Schedule.makespan;
  Alcotest.(check int) "same evaluations" a.Annealing.evaluations
    b.Annealing.evaluations;
  Alcotest.(check int) "same accepted" a.Annealing.accepted
    b.Annealing.accepted

(* --- warm starts ---------------------------------------------------- *)

(* A warm-started search resumes from the cached best: whatever its own
   chains find, it may never return a makespan worse than the trace it
   was seeded with. *)
let prop_warm_start_never_worse =
  qcheck ~count:60 "warm start never worse than cached best"
    QCheck2.Gen.(
      Generators.system_gen_any >>= fun sys -> pair (return sys) bool)
    (fun (sys, lookahead) ->
      let policy =
        if lookahead then Scheduler.Lookahead else Scheduler.Greedy
      in
      let reuse = List.length sys.System.processors in
      match Annealing.schedule ~policy ~iterations:40 ~seed:1L ~reuse sys with
      | exception Scheduler.Unschedulable _ -> true
      | cold ->
          let warm =
            Annealing.schedule ~policy ~iterations:40 ~seed:2L
              ~warm_start:cold.Annealing.best_trace ~reuse sys
          in
          let cold_makespan = cold.Annealing.schedule.Schedule.makespan in
          warm.Annealing.warm_started
          && warm.Annealing.schedule.Schedule.makespan <= cold_makespan
          && warm.Annealing.initial_makespan = cold_makespan)

let test_warm_start_mismatch_ignored () =
  (* A trace from a different configuration must be rejected, and the
     run must then be byte-identical to a cold one. *)
  let sys = Experiments.d695_leon () in
  let other = Annealing.schedule ~iterations:30 ~reuse:6 sys in
  let warm =
    Annealing.schedule ~iterations:30 ~seed:9L
      ~warm_start:other.Annealing.best_trace ~reuse:3 sys
  in
  let cold = Annealing.schedule ~iterations:30 ~seed:9L ~reuse:3 sys in
  Alcotest.(check bool) "mismatched trace rejected" false
    warm.Annealing.warm_started;
  Alcotest.(check int) "run is byte-identical to cold"
    cold.Annealing.schedule.Schedule.makespan
    warm.Annealing.schedule.Schedule.makespan;
  Alcotest.(check int) "same evaluations" cold.Annealing.evaluations
    warm.Annealing.evaluations

let test_swap_tiles_rejects_pinned () =
  let sys = d695_torus () in
  let proc =
    List.find (fun id -> System.is_processor_module sys id)
      (System.module_ids sys)
  in
  let free = List.hd (swappable sys) in
  match System.swap_tiles sys proc free with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "swapping a pinned processor tile was accepted"

let suite =
  [
    prop_table_rebuild_matches_fresh;
    prop_joint_never_worse;
    Alcotest.test_case "torus strict improvement" `Slow
      test_torus_strict_improvement;
    Alcotest.test_case "bench configuration makespans" `Quick
      test_bench_configuration_makespans;
    Alcotest.test_case "deterministic for chains 1..4" `Slow
      test_deterministic_across_chain_counts;
    prop_joint_results_satisfy_invariants;
    Alcotest.test_case "improvement_pct of empty system" `Quick
      test_improvement_pct_zero_initial;
    Alcotest.test_case "placement_moves validated" `Quick
      test_placement_moves_validated;
    Alcotest.test_case "ratio 0 matches historical annealer" `Quick
      test_ratio_zero_matches_historical;
    prop_warm_start_never_worse;
    Alcotest.test_case "mismatched warm start ignored" `Quick
      test_warm_start_mismatch_ignored;
    Alcotest.test_case "pinned processors stay pinned" `Quick
      test_swap_tiles_rejects_pinned;
  ]
