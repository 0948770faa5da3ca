(* Torus topology: wraparound channels and shorter-way routing. *)

open Util
module Noc = Nocplan_noc
module Topology = Noc.Topology
module Coord = Noc.Coord
module Xy = Noc.Xy_routing
module Link = Noc.Link
module Flit_sim = Noc.Flit_sim
module Latency = Noc.Latency
module Packet = Noc.Packet

let c x y = Coord.make ~x ~y
let torus5 = Topology.torus ~width:5 ~height:5

let test_distance_wraps () =
  Alcotest.(check int) "wrap x" 1 (Topology.distance torus5 (c 0 0) (c 4 0));
  Alcotest.(check int) "wrap y" 2 (Topology.distance torus5 (c 0 0) (c 0 3));
  Alcotest.(check int) "both axes" 3
    (Topology.distance torus5 (c 0 0) (c 4 3));
  (* mesh distance is unchanged *)
  let mesh5 = Topology.make ~width:5 ~height:5 in
  Alcotest.(check int) "mesh no wrap" 4
    (Topology.distance mesh5 (c 0 0) (c 4 0))

let test_neighbors_torus () =
  (* Every torus router has four neighbours on a >= 3-wide torus. *)
  List.iter
    (fun coord ->
      Alcotest.(check int)
        (Fmt.str "%a" Coord.pp coord)
        4
        (List.length (Topology.neighbors torus5 coord)))
    (Topology.coords torus5);
  (* Corner wraps to the opposite edges. *)
  let n = Topology.neighbors torus5 (c 0 0) in
  Alcotest.(check bool) "wraps west" true (List.exists (Coord.equal (c 4 0)) n);
  Alcotest.(check bool) "wraps north" true (List.exists (Coord.equal (c 0 4)) n)

let test_degenerate_axes () =
  (* 1-wide axis: wrapping reaches yourself — excluded; 2-wide: one
     partner, not two copies. *)
  let t1 = Topology.torus ~width:1 ~height:3 in
  Alcotest.(check int) "1-wide axis" 2
    (List.length (Topology.neighbors t1 (c 0 1)));
  let t2 = Topology.torus ~width:2 ~height:1 in
  Alcotest.(check int) "2-wide ring of two" 1
    (List.length (Topology.neighbors t2 (c 0 0)))

let test_route_takes_short_way () =
  let route = Xy.route torus5 ~src:(c 0 0) ~dst:(c 4 0) in
  Alcotest.(check int) "one hop via wraparound" 2 (List.length route);
  match route with
  | [ a; b ] ->
      Alcotest.(check bool) "from origin" true (Coord.equal a (c 0 0));
      Alcotest.(check bool) "to the far column" true (Coord.equal b (c 4 0))
  | _ -> Alcotest.fail "unexpected route"

let prop_route_length_is_distance =
  qcheck "torus route length = torus distance + 1"
    QCheck2.Gen.(
      let coord = pair (int_range 0 4) (int_range 0 4) in
      pair coord coord)
    (fun ((sx, sy), (dx, dy)) ->
      let src = c sx sy and dst = c dx dy in
      List.length (Xy.route torus5 ~src ~dst)
      = Topology.distance torus5 src dst + 1)

let prop_route_steps_adjacent =
  qcheck "torus route steps are torus-adjacent"
    QCheck2.Gen.(
      let coord = pair (int_range 0 4) (int_range 0 4) in
      pair coord coord)
    (fun ((sx, sy), (dx, dy)) ->
      let route = Xy.route torus5 ~src:(c sx sy) ~dst:(c dx dy) in
      let rec ok = function
        | a :: (b :: _ as rest) ->
            List.exists (Coord.equal b) (Topology.neighbors torus5 a)
            && ok rest
        | [ _ ] | [] -> true
      in
      ok route)

let test_flit_sim_on_torus () =
  (* The simulator agrees with the analytic model on torus paths too,
     including wraparound ones. *)
  let config = Flit_sim.config torus5 Latency.hermes_like in
  List.iter
    (fun ((sx, sy), (dx, dy), flits) ->
      let src = c sx sy and dst = c dx dy in
      let hops = Xy.hops torus5 ~src ~dst in
      let p = Packet.make ~id:0 ~src ~dst ~flits ~inject_time:0 in
      match (Flit_sim.run config [ p ]).Flit_sim.deliveries with
      | [ d ] ->
          Alcotest.(check int)
            (Printf.sprintf "(%d,%d)->(%d,%d) f=%d" sx sy dx dy flits)
            (Latency.packet_latency Latency.hermes_like ~hops ~flits)
            (Flit_sim.latency d)
      | _ -> Alcotest.fail "expected one delivery")
    [
      ((0, 0), (4, 0), 4);
      ((0, 0), (4, 4), 8);
      ((2, 2), (0, 3), 2);
      ((1, 0), (3, 4), 16);
    ]

let test_characterization_on_torus () =
  let config = Flit_sim.config torus5 Latency.hermes_like in
  let t = Noc.Characterize.measure_timing config in
  Alcotest.(check int) "routing recovered" 5 t.Noc.Characterize.routing_latency;
  Alcotest.(check int) "flow recovered" 2 t.Noc.Characterize.flow_latency;
  Alcotest.(check int) "exact" 0 t.Noc.Characterize.residual

let test_torus_system_plans () =
  (* A full planning run on a torus system, validated. *)
  let sys =
    Nocplan_core.System.build ~soc:(small_soc ())
      ~topology:(Topology.torus ~width:3 ~height:3)
      ~processors:[ Nocplan_proc.Processor.leon ~id:1 ]
      ~io_inputs:[ c 0 0 ] ~io_outputs:[ c 2 2 ] ()
  in
  let sched = Nocplan_core.Planner.schedule ~reuse:1 sys in
  match
    Nocplan_core.Schedule.validate sys
      ~application:Nocplan_proc.Processor.Bist ~power_limit:None ~reuse:1
      sched
  with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid: %a"
        (Fmt.list Nocplan_core.Schedule.pp_violation)
        vs

let test_torus_never_slower_than_mesh () =
  (* Same system on mesh and torus: wraparound shortens fills and never
     lengthens any path, so the baseline cannot get worse. *)
  let build topology =
    Nocplan_core.System.build ~soc:(small_soc ()) ~topology
      ~processors:[] ~io_inputs:[ c 0 0 ] ~io_outputs:[ c 2 2 ] ()
  in
  let baseline topology =
    (Nocplan_core.Planner.schedule ~reuse:0 (build topology))
      .Nocplan_core.Schedule.makespan
  in
  let mesh = baseline (Topology.make ~width:3 ~height:3) in
  let torus = baseline (Topology.torus ~width:3 ~height:3) in
  Alcotest.(check bool) "torus <= mesh" true (torus <= mesh)

let test_replay_on_torus () =
  let sys =
    Nocplan_core.Schedule_sim.downscale ~max_patterns:8
      (Nocplan_core.System.build ~soc:(small_soc ())
         ~topology:(Topology.torus ~width:3 ~height:3)
         ~processors:[ Nocplan_proc.Processor.leon ~id:1 ]
         ~io_inputs:[ c 0 0 ] ~io_outputs:[ c 2 2 ] ())
  in
  let sched = Nocplan_core.Planner.schedule ~reuse:1 sys in
  let r = Nocplan_core.Schedule_sim.replay sys sched in
  Alcotest.(check bool) "torus replay within schedule" true
    (r.Nocplan_core.Schedule_sim.worst_slack >= 0)

let suite =
  [
    Alcotest.test_case "distance wraps" `Quick test_distance_wraps;
    Alcotest.test_case "neighbors" `Quick test_neighbors_torus;
    Alcotest.test_case "degenerate axes" `Quick test_degenerate_axes;
    Alcotest.test_case "route takes the short way" `Quick
      test_route_takes_short_way;
    Alcotest.test_case "flit sim on torus" `Quick test_flit_sim_on_torus;
    Alcotest.test_case "characterization on torus" `Quick
      test_characterization_on_torus;
    Alcotest.test_case "torus system plans" `Quick test_torus_system_plans;
    Alcotest.test_case "torus never slower" `Quick
      test_torus_never_slower_than_mesh;
    Alcotest.test_case "replay on torus" `Quick test_replay_on_torus;
    prop_route_length_is_distance;
    prop_route_steps_adjacent;
  ]
