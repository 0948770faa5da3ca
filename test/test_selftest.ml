(* Router/link self-test scheduling: wave timing, policy semantics and
   the link_ready gating of the core-test schedule. *)

open Util
module Noc = Nocplan_noc
module Core = Nocplan_core
module Fault = Nocplan_fault
module Selftest = Fault.Selftest
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module Topology = Noc.Topology
module Coord = Noc.Coord
module Link = Noc.Link

let c x y = Coord.make ~x ~y

let test_params_validation () =
  Alcotest.check_raises "lanes < 1" (Invalid_argument "Selftest.params: lanes < 1")
    (fun () -> ignore (Selftest.params ~lanes:0 ()));
  Alcotest.check_raises "negative test length"
    (Invalid_argument "Selftest.params: negative router_test") (fun () ->
      ignore (Selftest.params ~router_test:(-1) ()))

let test_router_waves () =
  (* 3x3 mesh, 2 lanes: routers finish in row-major waves of two. *)
  let topology = Topology.make ~width:3 ~height:3 in
  let p = Selftest.params ~router_test:100 ~link_test:10 ~lanes:2 () in
  Alcotest.(check int) "first wave" 100 (Selftest.router_done p topology (c 0 0));
  Alcotest.(check int) "first wave, lane 2" 100
    (Selftest.router_done p topology (c 1 0));
  Alcotest.(check int) "second wave" 200
    (Selftest.router_done p topology (c 2 0));
  Alcotest.(check int) "last wave (9th router, wave 5)" 500
    (Selftest.router_done p topology (c 2 2))

let test_link_done_times () =
  let topology = Topology.make ~width:3 ~height:3 in
  let p = Selftest.params ~router_test:100 ~link_test:10 ~lanes:2 () in
  (* Local ports wait only for their own router. *)
  Alcotest.(check int) "inject port" 110
    (Selftest.link_done p topology (Link.Inject (c 0 0)));
  (* A channel waits for the later of its two routers. *)
  Alcotest.(check int) "channel, both waves" 210
    (Selftest.link_done p topology (Link.channel (c 1 0) (c 2 0)))

let test_horizon_and_policies () =
  let topology = Topology.make ~width:3 ~height:3 in
  let p = Selftest.params ~router_test:100 ~link_test:10 ~lanes:2 () in
  let horizon = Selftest.horizon p topology in
  Alcotest.(check int) "horizon = last wave + link test" 510 horizon;
  let links = Selftest.all_links topology in
  Alcotest.(check int) "all_links covers ports and channels"
    ((3 * 3 * 2) + (2 * 2 * 2 * 3))
    (List.length links);
  (* Interleaved: each link at its own completion; Eager: all at the
     horizon. *)
  List.iter
    (fun (l, t) ->
      Alcotest.(check int)
        (Fmt.str "interleaved gate %a" Link.pp l)
        (Selftest.link_done p topology l)
        t)
    (Selftest.ready_times p topology);
  List.iter
    (fun ((_ : Link.t), t) -> Alcotest.(check int) "eager gate" horizon t)
    (Selftest.ready_times ~policy:Selftest.Eager p topology);
  (* Every interleaved gate is at or before the eager one. *)
  List.iter
    (fun ((_ : Link.t), t) ->
      Alcotest.(check bool) "interleaved <= eager" true (t <= horizon))
    (Selftest.ready_times p topology)

(* The validator's verdict on a gated schedule, checked against the
   gates it was planned under. *)
let gated_violations ?policy p sys (config : Scheduler.config) s =
  match
    Schedule.validate sys ~application:config.Scheduler.application
      ~power_limit:config.Scheduler.power_limit ~reuse:config.Scheduler.reuse
      ~link_ready:(Selftest.ready_times ?policy p sys.Core.System.topology)
      s
  with
  | Ok () -> []
  | Error vs -> vs

let assert_gated_valid ?policy p sys config s =
  match gated_violations ?policy p sys config s with
  | [] -> ()
  | vs ->
      Alcotest.failf "gated schedule fails the validator: %a"
        (Fmt.list ~sep:Fmt.comma Schedule.pp_violation)
        vs

let test_gated_schedule_respects_ready_times () =
  let sys = small_system () in
  let p = Selftest.params ~router_test:200 ~link_test:50 ~lanes:2 () in
  let config = Scheduler.config ~reuse:1 () in
  let baseline = Scheduler.run sys config in
  let interleaved = Selftest.schedule p sys config in
  let eager = Selftest.schedule ~policy:Selftest.Eager p sys config in
  assert_schedule_invariants sys interleaved;
  assert_schedule_invariants sys eager;
  assert_gated_valid p sys config interleaved;
  assert_gated_valid ~policy:Selftest.Eager p sys config eager;
  (* Gates only delay: makespans are ordered baseline <= interleaved
     <= eager (eager opens every gate at the common horizon, the
     latest of all interleaved gate times). *)
  Alcotest.(check bool) "interleaved >= baseline" true
    (interleaved.Schedule.makespan >= baseline.Schedule.makespan);
  Alcotest.(check bool) "eager >= interleaved" true
    (eager.Schedule.makespan >= interleaved.Schedule.makespan);
  (* No stream occupies a channel before that channel's gate opens. *)
  let gates = Selftest.ready_times p sys.Core.System.topology in
  let gate_of l =
    match List.find_opt (fun (g, _) -> Link.equal g l) gates with
    | Some (_, t) -> t
    | None -> Alcotest.failf "no gate for %a" Link.pp l
  in
  List.iter
    (fun (e : Schedule.entry) ->
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (Fmt.str "module %d waits for %a" e.Schedule.module_id Link.pp l)
            true
            (e.Schedule.start >= gate_of l))
        e.Schedule.links)
    interleaved.Schedule.entries;
  (* Under Eager nothing starts before the horizon. *)
  let horizon = Selftest.horizon p sys.Core.System.topology in
  List.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool) "starts after the health phase" true
        (e.Schedule.start >= horizon))
    eager.Schedule.entries

let test_empty_gates_are_identity () =
  (* Zero-length self-tests: every gate opens at 0 and the schedule
     is the classic one. *)
  let sys = small_system () in
  let p = Selftest.params ~router_test:0 ~link_test:0 () in
  let config = Scheduler.config ~reuse:1 () in
  let baseline = Scheduler.run sys config in
  let gated = Selftest.schedule p sys config in
  assert_gated_valid p sys config gated;
  Alcotest.(check int) "same makespan" baseline.Schedule.makespan
    gated.Schedule.makespan;
  Alcotest.(check int) "same entry count"
    (List.length baseline.Schedule.entries)
    (List.length gated.Schedule.entries)

let prop_gated_schedules_valid =
  qcheck ~count:20 "gated schedules keep every invariant"
    QCheck2.Gen.(int_range 0 500)
    (fun router_test ->
      let sys = small_system () in
      let p = Selftest.params ~router_test ~link_test:(router_test / 4) () in
      let config = Scheduler.config ~reuse:1 () in
      let s = Selftest.schedule p sys config in
      schedule_invariant_errors sys s = []
      && gated_violations p sys config s = [])

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "router waves" `Quick test_router_waves;
    Alcotest.test_case "link completion times" `Quick test_link_done_times;
    Alcotest.test_case "horizon and policies" `Quick test_horizon_and_policies;
    Alcotest.test_case "gating respects ready times" `Quick
      test_gated_schedule_respects_ready_times;
    Alcotest.test_case "zero-length self-test is identity" `Quick
      test_empty_gates_are_identity;
    prop_gated_schedules_valid;
  ]
