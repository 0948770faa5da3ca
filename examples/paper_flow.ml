(* The paper's tool flow, end to end.

   Section 2 of the paper describes three steps the designer performs
   before test planning; this example executes each one explicitly and
   then plans, so the structure maps one-to-one onto the paper:

     step 1  characterize the NoC (time + power) and describe the
             system (topology, routing, flit width, positions);
     step 2  characterize the reused processors (run the test
             application, measure time/memory/power; know the
             processor's own test size);
     step 3  collect the CUTs' test characterizations (from the core
             providers — here, the benchmark);
     then    plan, and compare against the no-reuse baseline.

   Run with: dune exec examples/paper_flow.exe *)

module Itc02 = Nocplan_itc02
module Noc = Nocplan_noc
module Proc = Nocplan_proc
module Core = Nocplan_core

let () =
  (* --- step 1: NoC characterization --------------------------------- *)
  Fmt.pr "== step 1: NoC characterization ==@.";
  let topology = Noc.Topology.make ~width:4 ~height:4 in
  let sim = Noc.Flit_sim.config topology Noc.Latency.hermes_like in
  let timing = Noc.Characterize.measure_timing sim in
  Fmt.pr "  measured: %a@." Noc.Characterize.pp_timing timing;
  let latency =
    Noc.Latency.make ~routing_latency:timing.Noc.Characterize.routing_latency
      ~flow_latency:timing.Noc.Characterize.flow_latency
  in
  let noc_power =
    Noc.Characterize.measure_power sim (Noc.Traffic.spec ~packets:300 ())
  in
  Fmt.pr "  mean stream power: %a@.@." Noc.Power.pp noc_power;

  (* --- step 2: processor characterization --------------------------- *)
  Fmt.pr "== step 2: processor characterization ==@.";
  (* Processor.leon runs the BIST/sink/decompression programs on the
     instruction-set machine and records the results. *)
  let leon = Proc.Processor.leon ~id:1 in
  Fmt.pr "  %a@." Proc.Characterization.pp leon.Proc.Processor.bist;
  Fmt.pr "  self-test size: %d patterns@.@."
    leon.Proc.Processor.self_test.Itc02.Module_def.patterns;

  (* --- step 3: CUT characterization ---------------------------------- *)
  Fmt.pr "== step 3: CUTs ==@.";
  let soc = Itc02.Data_d695.soc () in
  Fmt.pr "  %a@.@." Itc02.Soc.pp_summary soc;

  (* --- planning ------------------------------------------------------ *)
  Fmt.pr "== planning ==@.";
  let system =
    Core.System.build ~latency ~noc_power ~soc ~topology
      ~processors:(List.init 4 (fun _ -> Proc.Processor.leon ~id:1))
      ~io_inputs:[ Noc.Coord.make ~x:0 ~y:0 ]
      ~io_outputs:[ Noc.Coord.make ~x:3 ~y:3 ]
      ()
  in
  let baseline =
    (Core.Planner.schedule ~reuse:0 system).Core.Schedule.makespan
  in
  let sweep = Core.Planner.reuse_sweep system in
  Fmt.pr "%a@.@." Core.Planner.pp_sweep sweep;
  let best = Core.Planner.best_point sweep in
  Fmt.pr
    "baseline %d -> %d with %d processors reused: %.1f%% test time saved, at \
     zero extra area and zero extra pins.@."
    baseline best.Core.Planner.makespan best.Core.Planner.reuse
    (Core.Planner.reduction_pct ~baseline best.Core.Planner.makespan)
