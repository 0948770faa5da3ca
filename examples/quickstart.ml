(* Quickstart: build a small NoC-based system around the d695
   benchmark, add two Leon processors, and compare the test time with
   and without processor reuse.

   Run with: dune exec examples/quickstart.exe *)

module Itc02 = Nocplan_itc02
module Noc = Nocplan_noc
module Proc = Nocplan_proc
module Core = Nocplan_core

let () =
  (* 1. A benchmark: the ten-core d695 system from the ITC'02 set. *)
  let soc = Itc02.Data_d695.soc () in
  Fmt.pr "benchmark: %a@.@." Itc02.Soc.pp_summary soc;

  (* 2. A system: 4x4 mesh, two Leon processors, one external input
     port at (0,0) and one output port at (3,3). *)
  let topology = Noc.Topology.make ~width:4 ~height:4 in
  let system =
    Core.System.build ~soc ~topology
      ~processors:[ Proc.Processor.leon ~id:1; Proc.Processor.leon ~id:1 ]
      ~io_inputs:[ Noc.Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Noc.Coord.make ~x:3 ~y:3 ]
      ()
  in

  (* 3. Baseline: external tester only. *)
  let baseline = Core.Planner.schedule ~reuse:0 system in
  Fmt.pr "baseline (no reuse): %d cycles@." baseline.Core.Schedule.makespan;

  (* 4. Reuse both processors as extra test sources/sinks. *)
  let reused = Core.Planner.schedule ~reuse:2 system in
  Fmt.pr "with 2 Leons reused: %d cycles (%.1f%% reduction)@.@."
    reused.Core.Schedule.makespan
    (Core.Planner.reduction_pct
       ~baseline:baseline.Core.Schedule.makespan
       reused.Core.Schedule.makespan);

  (* 5. Inspect the plan. *)
  print_string (Core.Gantt.render system reused);

  (* 6. Never trust a scheduler: re-check every constraint. *)
  match
    Core.Schedule.validate system ~application:Proc.Processor.Bist
      ~power_limit:None ~reuse:2 reused
  with
  | Ok () -> Fmt.pr "@.schedule validated: ok@."
  | Error violations ->
      Fmt.pr "@.schedule INVALID:@.%a@."
        (Fmt.list Core.Schedule.pp_violation)
        violations
