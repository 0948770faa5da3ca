(* Aggregated alcotest runner for the whole repository. *)

let () =
  Alcotest.run "nocplan"
    [
      ("module_def", Test_module_def.suite);
      ("wrapper", Test_wrapper.suite);
      ("wrapper sim", Test_wrapper_sim.suite);
      ("soc", Test_soc.suite);
      ("parser", Test_parser.suite);
      ("benchmark data", Test_data.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("benchmark corpus", Test_benchmarks.suite);
      ("power model", Test_power_model.suite);
      ("topology", Test_topology.suite);
      ("xy routing", Test_xy_routing.suite);
      ("torus", Test_torus.suite);
      ("latency", Test_latency.suite);
      ("reservation", Test_reservation.suite);
      ("min heap", Test_min_heap.suite);
      ("flit simulator", Test_flit_sim.suite);
      ("traffic", Test_traffic.suite);
      ("noc characterization", Test_characterize.suite);
      ("machine", Test_machine.suite);
      ("program", Test_program.suite);
      ("bist", Test_bist.suite);
      ("decompress", Test_decompress.suite);
      ("processor", Test_processor.suite);
      ("test data", Test_test_data.suite);
      ("fault coverage", Test_coverage.suite);
      ("placement", Test_placement.suite);
      ("system", Test_system.suite);
      ("resource", Test_resource.suite);
      ("test access", Test_test_access.suite);
      ("power monitor", Test_power_monitor.suite);
      ("priority", Test_priority.suite);
      ("schedule", Test_schedule.suite);
      ("validator mutations", Test_validate.suite);
      ("scheduler", Test_scheduler.suite);
      ("scheduler golden equivalence", Test_golden.suite);
      ("schedule replay", Test_schedule_sim.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("memory constraint", Test_memory.suite);
      ("assembler", Test_asm.suite);
      ("export", Test_export.suite);
      ("experiment builders", Test_experiment_builders.suite);
      ("preemptive", Test_preemptive.suite);
      ("fault-aware planning", Test_faults.suite);
      ("detour routing", Test_detour.suite);
      ("network self-test", Test_selftest.suite);
      ("fault injection", Test_fault_inject.suite);
      ("annealing", Test_annealing.suite);
      ("placement annealing", Test_anneal_placement.suite);
      ("incremental evaluation", Test_incremental.suite);
      ("metrics and vcd", Test_metrics_vcd.suite);
      ("bus baseline", Test_bus_baseline.suite);
      ("replanning", Test_replan.suite);
      ("planner", Test_planner.suite);
      ("experiments", Test_experiments.suite);
      ("gantt and report", Test_gantt_report.suite);
      ("planning service", Test_serve.suite);
      ("planning service fuzz", Test_serve_fuzz.suite);
      ("planning service batching", Test_serve_batch.suite);
      ("planning backends", Test_backend.suite);
      ("planning service backends", Test_serve_backend.suite);
      ("corpus and testplan", Test_corpus.suite);
      ("observability", Test_obs.suite);
    ]
