(* nocplan — NoC-based SoC test planning with processor reuse.

   Command-line front end over the nocplan_core planner: inspect
   benchmarks, characterize the NoC and the processors, produce single
   schedules, run the paper's sweeps, and host the concurrent planning
   service. *)

module Itc02 = Nocplan_itc02
module Noc = Nocplan_noc
module Proc = Nocplan_proc
module Core = Nocplan_core
module Fault = Nocplan_fault
module Serve = Nocplan_serve
module Obs = Nocplan_obs
module Corpus = Nocplan_corpus
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Exit codes                                                         *)

(* Scripts driving nocplan (CI included) distinguish "you asked for
   something malformed" from "the instance is infeasible". *)
let exit_parse = 2
let exit_unschedulable = 3

let exits =
  Cmd.Exit.info exit_parse
    ~doc:
      "on malformed input: unknown system, unreadable or invalid benchmark \
       description, invalid generation profile."
  :: Cmd.Exit.info exit_unschedulable
       ~doc:"when the planner proves the requested instance unschedulable."
  :: Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~exits

let parse_fail msg =
  Fmt.epr "nocplan: %s@." msg;
  exit_parse

let plan_fail msg =
  Fmt.epr "nocplan: unschedulable: %s@." msg;
  exit_unschedulable

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                            *)

(* Counts and capacities are range-checked by the parser, so a bad
   value is a usage error naming its flag rather than an uncaught
   [Invalid_argument] from the library it is passed to. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is below the minimum %d" s lo))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Fmt.int)

(* A float option restricted to the values its consumer accepts. *)
let float_where ok ~expected =
  let parse s =
    match float_of_string_opt s with
    | Some f when ok f -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not %s" s expected))
    | None -> Error (`Msg (Printf.sprintf "%S is not a number" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let load_system ~spec ~width ~height ~leons ~plasmas =
  (* A spec naming neither a builtin system nor a corpus benchmark may
     be a description file; its text goes through the same inline path
     the planning service uses. *)
  let is_named =
    Option.is_some (Serve.Sysbuild.builtin_system spec)
    || Option.is_some (Itc02.Benchmarks.find spec)
  in
  if (not is_named) && Sys.file_exists spec then
    match In_channel.with_open_text spec In_channel.input_all with
    | text ->
        Result.map_error
          (fun e -> Fmt.str "%s: %s" spec e)
          (Serve.Sysbuild.build
             { Serve.Sysbuild.system = spec; soc_text = Some text; width;
               height; leons; plasmas })
    | exception Sys_error msg -> Error msg
  else
    Serve.Sysbuild.build
      { Serve.Sysbuild.system = spec; soc_text = None; width; height; leons;
        plasmas }

let system_spec =
  let doc =
    "System to plan: a builtin system (d695_leon, p22810_leon, p93791_leon, \
     *_mixed), any ITC'02 corpus benchmark (u226 .. a586710) or a benchmark \
     description file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)

let width_arg =
  Arg.(value & opt (some int) None & info [ "width" ] ~docv:"W"
         ~doc:"Mesh width (benchmark/file systems only).")

let height_arg =
  Arg.(value & opt (some int) None & info [ "height" ] ~docv:"H"
         ~doc:"Mesh height (benchmark/file systems only).")

let leons_arg =
  Arg.(value & opt int 4 & info [ "leons" ] ~docv:"N"
         ~doc:"Leon processors to add (benchmark/file systems only).")

let plasmas_arg =
  Arg.(value & opt int 0 & info [ "plasmas" ] ~docv:"N"
         ~doc:"Plasma processors to add (benchmark/file systems only).")

let policy_arg =
  let policy_conv =
    Arg.enum [ ("greedy", Core.Scheduler.Greedy); ("lookahead", Core.Scheduler.Lookahead) ]
  in
  Arg.(value & opt policy_conv Core.Scheduler.Greedy & info [ "policy" ] ~docv:"POLICY"
         ~doc:"Resource selection policy: greedy (the paper's) or lookahead.")

let application_arg =
  let application_conv =
    Arg.enum
      [ ("bist", Proc.Processor.Bist); ("decompress", Proc.Processor.Decompression) ]
  in
  Arg.(value & opt application_conv Proc.Processor.Bist & info [ "application" ] ~docv:"APP"
         ~doc:"Test application run by reused processors.")

let power_arg =
  let pct = float_where (fun f -> f > 0.0) ~expected:"positive" in
  Arg.(value & opt (some pct) None & info [ "power" ] ~docv:"PCT"
         ~doc:"Power limit as a percentage of the sum of all core powers.")

let reuse_arg =
  Arg.(value & opt (some int) None & info [ "reuse" ] ~docv:"N"
         ~doc:"Number of processors reused for test (default: all).")

(* The instance a planning subcommand works on: the loaded system, the
   reuse count (default: every processor) and the absolute power limit.
   A reuse count the system cannot supply is malformed input, like an
   unknown system. *)
let load_instance spec width height leons plasmas reuse power =
  Result.bind (load_system ~spec ~width ~height ~leons ~plasmas)
    (fun system ->
      let processors = List.length system.Core.System.processors in
      match reuse with
      | Some r when r < 0 || r > processors ->
          Error
            (Fmt.str "--reuse %d is out of range: %s has %d processors" r spec
               processors)
      | _ ->
          let power_limit =
            Option.map
              (fun pct -> Core.System.power_limit_of_pct system ~pct)
              power
          in
          Ok (system, Option.value reuse ~default:processors, power_limit))

(* [instance power] parses the instance flags; [power] is [power_arg],
   or [Term.const None] for a subcommand without [--power]. *)
let instance power =
  Term.(const load_instance $ system_spec $ width_arg $ height_arg
        $ leons_arg $ plasmas_arg $ reuse_arg $ power)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record trace spans and write them to $(docv) as Chrome \
               trace-event JSON (open in chrome://tracing or Perfetto).")

let backend_arg =
  let names =
    List.map (fun b -> b.Core.Backend.name) Core.Backend.builtins @ [ "race" ]
  in
  Arg.(value & opt (enum (List.map (fun n -> (n, n)) names)) "greedy"
       & info [ "backend" ] ~docv:"BACKEND"
         ~doc:"Planning backend: greedy (the paper's event-driven list \
               scheduler), binpack (rectangle bin packing: shelf heuristic, \
               best-fit decreasing), or race (run both backends in \
               sequence on one shared access table and keep the best \
               valid plan).")

(* Traced CLI runs want real time on the trace axis; tests that pin
   event structure use the library's deterministic default clock. *)
let wall_clock () =
  let epoch = Unix.gettimeofday () in
  fun () -> (Unix.gettimeofday () -. epoch) *. 1e6

(* Run [f] under a trace collector when [trace] (a Chrome JSON output
   path) or [decisions] (--explain) asks for one; return [f]'s result
   with the collected events.  The trace file is written on success. *)
let with_tracing ?(decisions = false) trace f =
  if trace = None && not decisions then (f (), [])
  else begin
    let level = if decisions then Obs.Trace.Decisions else Obs.Trace.Spans in
    let result, events =
      Obs.Trace.with_collector ~level ~clock:(wall_clock ()) f
    in
    (match trace with
    | Some path ->
        Obs.Chrome.to_file path events;
        Fmt.epr "nocplan: trace written to %s (%d events)@." path
          (List.length events)
    | None -> ());
    (result, events)
  end

(* ------------------------------------------------------------------ *)
(* show                                                               *)

let show_cmd =
  let run spec width height leons plasmas =
    match load_system ~spec ~width ~height ~leons ~plasmas with
    | Error msg -> parse_fail msg
    | Ok system ->
        Fmt.pr "%a@." Core.System.pp system;
        0
  in
  let term =
    Term.(const run $ system_spec $ width_arg $ height_arg $ leons_arg
          $ plasmas_arg)
  in
  Cmd.v (cmd_info "show" ~doc:"Describe a system: modules, placement, ports.")
    term

(* ------------------------------------------------------------------ *)
(* plan                                                               *)

let pp_attempt ppf (a : Core.Backend.attempt) =
  match a.Core.Backend.outcome with
  | Ok s ->
      Fmt.pf ppf "  %-8s makespan %8d  %s  %.3fs" a.Core.Backend.backend
        s.Core.Schedule.makespan
        (if a.Core.Backend.valid then "valid  " else "INVALID")
        a.Core.Backend.latency_s
  | Error msg ->
      Fmt.pf ppf "  %-8s failed: %s  (%.3fs)" a.Core.Backend.backend msg
        a.Core.Backend.latency_s

let plan_cmd =
  let run instance policy application backend gantt resources json csv trace
      explain =
    match instance with
    | Error msg -> parse_fail msg
    | Ok (system, reuse, power_limit) -> (
        let config =
          Core.Scheduler.config ~policy ~application ~power_limit ~reuse ()
        in
        let solve () =
          match Core.Backend.find backend with
          | Some b -> (Core.Backend.solve b system config, None)
          | None ->
              let outcome =
                Core.Backend.race ~clock:Unix.gettimeofday system config
              in
              (outcome.Core.Backend.schedule, Some outcome)
        in
        match with_tracing ~decisions:explain trace solve with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | (sched, _), _ when json ->
            print_string (Core.Export.schedule_json system sched);
            0
        | (sched, _), _ when csv ->
            print_string (Core.Export.schedule_csv system sched);
            0
        | (sched, race_outcome), events ->
            (match race_outcome with
            | Some o ->
                Fmt.pr "@[<v>backend race: winner %s@,%a@]@."
                  o.Core.Backend.winner
                  (Fmt.list ~sep:Fmt.cut pp_attempt)
                  o.Core.Backend.attempts
            | None -> ());
            Fmt.pr "%a@." Core.Schedule.pp sched;
            if gantt then
              print_string (Core.Gantt.render system sched);
            if resources then
              print_string (Core.Gantt.render_resources system ~reuse sched);
            (match
               Core.Schedule.validate system ~application ~power_limit ~reuse
                 sched
             with
            | Ok () -> Fmt.pr "schedule validated: ok@."
            | Error vs ->
                Fmt.pr "@[<v>schedule INVALID:@,%a@]@."
                  (Fmt.list ~sep:Fmt.cut Core.Schedule.pp_violation)
                  vs);
            if explain then
              Fmt.pr "@.%a@." Core.Explain.pp_report
                (Core.Explain.decisions_of_events events);
            0)
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.")
  in
  let resources_arg =
    Arg.(value & flag & info [ "resources" ]
           ~doc:"Render per-resource utilization bars.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the schedule as JSON.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the schedule as CSV.")
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print the scheduler's decision log: every commit with its \
                 full candidate set, flagging greedy-anomaly commits where a \
                 busy external pair would have finished earlier than the \
                 processor chosen.")
  in
  let term =
    Term.(const run $ instance power_arg $ policy_arg $ application_arg
          $ backend_arg $ gantt_arg $ resources_arg $ json_arg $ csv_arg
          $ trace_arg $ explain_arg)
  in
  Cmd.v (cmd_info "plan" ~doc:"Produce and validate one test schedule.") term

(* ------------------------------------------------------------------ *)
(* stats                                                              *)

let stats_cmd =
  let run instance policy application vcd =
    match instance with
    | Error msg -> parse_fail msg
    | Ok (system, reuse, power_limit) -> (
        match
          Core.Planner.run_point system ~policy ~application ~power_limit
            ~reuse
        with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | _, sched ->
            Fmt.pr "%a@." Core.Metrics.pp
              (Core.Metrics.of_schedule system ~reuse sched);
            (match vcd with
            | Some path ->
                Core.Vcd.to_file path system ~reuse sched;
                Fmt.pr "waveform written to %s@." path
            | None -> ());
            0)
  in
  let vcd_arg =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Also dump the schedule as a VCD waveform.")
  in
  let term =
    Term.(const run $ instance power_arg $ policy_arg $ application_arg
          $ vcd_arg)
  in
  Cmd.v
    (cmd_info "stats"
       ~doc:"Schedule quality metrics (concurrency, utilization, power).")
    term

(* ------------------------------------------------------------------ *)
(* anneal                                                             *)

let anneal_cmd =
  let run instance iterations seed chains exchange placement_moves trace =
    match instance with
    | Error msg -> parse_fail msg
    | Ok (system, reuse, power_limit) -> (
        match
          with_tracing trace (fun () ->
              Core.Annealing.schedule ~power_limit ~iterations
                ~seed:(Int64.of_int seed) ~chains ~exchange_period:exchange
                ~placement_moves ~reuse system)
        with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | r, _ ->
            Fmt.pr "%a@." Core.Schedule.pp r.Core.Annealing.schedule;
            Fmt.pr
              "greedy order %d -> annealed %d (%.1f%% better; %d engine \
               evaluations, %d accepted moves, %d chains, %d exchanges)@."
              r.Core.Annealing.initial_makespan
              r.Core.Annealing.schedule.Core.Schedule.makespan
              (Core.Annealing.improvement_pct r)
              r.Core.Annealing.evaluations r.Core.Annealing.accepted
              r.Core.Annealing.chains r.Core.Annealing.exchanges;
            if r.Core.Annealing.placement_evals > 0 then
              Fmt.pr
                "placement moves: %d evaluated, %d accepted (joint \
                 order+placement search)@."
                r.Core.Annealing.placement_evals
                r.Core.Annealing.placement_accepted;
            0)
  in
  let iterations_arg =
    Arg.(value & opt (int_at_least 1) 400 & info [ "iterations" ] ~docv:"N"
           ~doc:"Annealing iterations per chain (engine evaluations).")
  in
  let seed_arg =
    Arg.(value & opt int 0x5A & info [ "seed" ] ~docv:"SEED"
           ~doc:"Deterministic search seed.")
  in
  let chains_arg =
    Arg.(value & opt (int_at_least 1) 1 & info [ "chains" ] ~docv:"K"
           ~doc:"Parallel tempering chains (1 = the sequential annealer).")
  in
  let exchange_arg =
    Arg.(value & opt (int_at_least 1) 50 & info [ "exchange" ] ~docv:"N"
           ~doc:"Iterations between best-exchanges across chains.")
  in
  let placement_arg =
    let ratio =
      float_where (fun r -> r >= 0.0 && r <= 1.0) ~expected:"in [0, 1]"
    in
    Arg.(value & opt ratio 0.0 & info [ "placement-moves" ] ~docv:"RATIO"
           ~doc:"Probability in [0, 1] that a move swaps two module tiles \
                 instead of two order positions (0 = order-only annealing; \
                 processors and IO ports stay pinned).")
  in
  let term =
    Term.(const run $ instance power_arg $ iterations_arg $ seed_arg
          $ chains_arg $ exchange_arg $ placement_arg $ trace_arg)
  in
  Cmd.v
    (cmd_info "anneal"
       ~doc:
         "Improve the test order by simulated annealing (parallel tempering \
          with --chains > 1).")
    term

(* ------------------------------------------------------------------ *)
(* replay                                                             *)

let replay_cmd =
  let run instance max_patterns =
    match instance with
    | Error msg -> parse_fail msg
    | Ok (system, reuse, _) -> (
        let system = Core.Schedule_sim.downscale ~max_patterns system in
        match Core.Planner.schedule ~reuse system with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | sched ->
            let report = Core.Schedule_sim.replay system sched in
            Fmt.pr "%a@." Core.Schedule_sim.pp_report report;
            0)
  in
  let max_patterns_arg =
    Arg.(value & opt (int_at_least 1) 20 & info [ "max-patterns" ] ~docv:"N"
           ~doc:"Cap pattern counts before replay (flit-level cost).")
  in
  let term =
    Term.(const run $ instance (Term.const None) $ max_patterns_arg)
  in
  Cmd.v
    (cmd_info "replay"
       ~doc:
         "Cross-validate the cost model: execute a (downscaled) schedule on \
          the flit-level simulator.")
    term

(* ------------------------------------------------------------------ *)
(* optimal                                                            *)

let optimal_cmd =
  let run instance max_nodes =
    match instance with
    | Error msg -> parse_fail msg
    | Ok (system, reuse, power_limit) -> (
        match
          Core.Exhaustive.schedule ~power_limit ~max_nodes ~reuse system
        with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | r ->
            let greedy =
              Core.Scheduler.run system
                (Core.Scheduler.config ~power_limit ~reuse ())
            in
            Fmt.pr "%a@." Core.Schedule.pp r.Core.Exhaustive.schedule;
            Fmt.pr "greedy %d, branch-and-bound %d (%s, %d nodes expanded)@."
              greedy.Core.Schedule.makespan
              r.Core.Exhaustive.schedule.Core.Schedule.makespan
              (if r.Core.Exhaustive.exact then "optimal"
               else "node budget exhausted")
              r.Core.Exhaustive.nodes;
            0)
  in
  let max_nodes_arg =
    Arg.(value & opt (int_at_least 1) 300_000 & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Branch-and-bound node budget.")
  in
  let term = Term.(const run $ instance power_arg $ max_nodes_arg) in
  Cmd.v
    (cmd_info "optimal"
       ~doc:"Certified-optimal schedule for small systems (branch and bound).")
    term

(* ------------------------------------------------------------------ *)
(* sweep                                                              *)

let sweep_cmd =
  let run spec width height leons plasmas policy application power csv trace =
    match load_system ~spec ~width ~height ~leons ~plasmas with
    | Error msg -> parse_fail msg
    | Ok system -> (
        match
          with_tracing trace (fun () ->
              Core.Planner.reuse_sweep ~policy ~application
                ?power_limit_pct:power system)
        with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | sweep, _ ->
            if csv then print_string (Core.Report.sweep_csv sweep)
            else begin
              Fmt.pr "%a@." Core.Planner.pp_sweep sweep;
              Fmt.pr "%a@." Core.Report.pp_headline (Core.Report.headline sweep)
            end;
            0)
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let term =
    Term.(const run $ system_spec $ width_arg $ height_arg $ leons_arg
          $ plasmas_arg $ policy_arg $ application_arg $ power_arg
          $ csv_arg $ trace_arg)
  in
  Cmd.v
    (cmd_info "sweep"
       ~doc:"Test time for every processor-reuse count (Figure 1 series).")
    term

(* ------------------------------------------------------------------ *)
(* characterize                                                       *)

let characterize_cmd =
  let run width height =
    let width = Option.value width ~default:4 in
    let height = Option.value height ~default:4 in
    let topology = Noc.Topology.make ~width ~height in
    let latency = Noc.Latency.hermes_like in
    let config = Noc.Flit_sim.config topology latency in
    let timing = Noc.Characterize.measure_timing config in
    Fmt.pr "NoC (%a, %a):@." Noc.Topology.pp topology Noc.Latency.pp latency;
    Fmt.pr "  measured on the flit simulator: %a@." Noc.Characterize.pp_timing
      timing;
    let power =
      Noc.Characterize.measure_power config (Noc.Traffic.spec ~packets:500 ())
    in
    Fmt.pr "  mean stream power: %a@.@." Noc.Power.pp power;
    List.iter
      (fun p -> Fmt.pr "%a@.@." Proc.Processor.pp p)
      [ Proc.Processor.leon ~id:1; Proc.Processor.plasma ~id:1 ];
    0
  in
  let term = Term.(const run $ width_arg $ height_arg) in
  Cmd.v
    (cmd_info "characterize"
       ~doc:"Measure NoC timing/power and processor test applications.")
    term

(* ------------------------------------------------------------------ *)
(* generate                                                           *)

let generate_cmd =
  let run name seed scan comb cells chains min_patterns max_patterns output =
    let profile =
      {
        Itc02.Data_gen.name;
        seed = Int64.of_int seed;
        scan_modules = scan;
        comb_modules = comb;
        target_scan_cells = cells;
        max_chains = chains;
        min_patterns;
        max_patterns;
      }
    in
    match Itc02.Data_gen.generate profile with
    | exception Invalid_argument msg -> parse_fail msg
    | soc -> (
        match output with
        | Some path ->
            Itc02.Printer.to_file path soc;
            Fmt.pr "%a@.written to %s@." Itc02.Soc.pp_summary soc path;
            0
        | None ->
            print_string (Itc02.Printer.to_string soc);
            0)
  in
  let name_arg =
    Arg.(value & opt string "synthetic" & info [ "name" ] ~docv:"NAME"
           ~doc:"Benchmark name.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Deterministic generation seed.")
  in
  let scan_arg =
    Arg.(value & opt int 8 & info [ "scan-modules" ] ~docv:"N"
           ~doc:"Number of scan-testable cores.")
  in
  let comb_arg =
    Arg.(value & opt int 2 & info [ "comb-modules" ] ~docv:"N"
           ~doc:"Number of combinational cores.")
  in
  let cells_arg =
    Arg.(value & opt int 10_000 & info [ "scan-cells" ] ~docv:"N"
           ~doc:"Total scan cells to calibrate to.")
  in
  let chains_arg =
    Arg.(value & opt int 32 & info [ "max-chains" ] ~docv:"N"
           ~doc:"Upper bound on scan chains per core.")
  in
  let min_patterns_arg =
    Arg.(value & opt int 20 & info [ "min-patterns" ] ~docv:"N"
           ~doc:"Minimum pattern count per core.")
  in
  let max_patterns_arg =
    Arg.(value & opt int 800 & info [ "max-patterns" ] ~docv:"N"
           ~doc:"Maximum pattern count per core.")
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the description to a file instead of stdout.")
  in
  let term =
    Term.(const run $ name_arg $ seed_arg $ scan_arg $ comb_arg
          $ cells_arg $ chains_arg $ min_patterns_arg $ max_patterns_arg
          $ output_arg)
  in
  Cmd.v
    (cmd_info "generate"
       ~doc:"Generate a deterministic synthetic benchmark description.")
    term

(* ------------------------------------------------------------------ *)
(* corpus                                                             *)

let corpus_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Deterministic corpus seed (generate/describe).")

let corpus_count_arg =
  Arg.(value & opt int 16 & info [ "count" ] ~docv:"N"
         ~doc:"Number of synthetic systems to draw (generate/describe).")

let corpus_cmd =
  let list_embedded () =
    Fmt.pr "%-10s %-8s %-12s %-14s %-12s@." "name" "modules" "scan cells"
      "test bits" "total power";
    List.iter
      (fun soc ->
        let cells =
          List.fold_left
            (fun acc m -> acc + Itc02.Module_def.scan_cells m)
            0 soc.Itc02.Soc.modules
        in
        Fmt.pr "%-10s %-8d %-12d %-14d %-12.1f@." soc.Itc02.Soc.name
          (Itc02.Soc.module_count soc)
          cells
          (Itc02.Soc.total_test_bits soc)
          (Itc02.Soc.total_test_power soc))
      (Itc02.Benchmarks.all ());
    0
  in
  let describe items =
    Fmt.pr "%a@." Corpus.Corpus.pp_header ();
    List.iter (fun item -> Fmt.pr "%a@." Corpus.Corpus.pp_row item) items;
    Fmt.pr "corpus digest: %s@." (Corpus.Corpus.digest items);
    0
  in
  let generate items out =
    match out with
    | None -> parse_fail "corpus generate needs --out DIR"
    | Some dir -> (
        match
          if Sys.file_exists dir then
            if Sys.is_directory dir then Ok ()
            else Error (dir ^ " exists and is not a directory")
          else begin
            Unix.mkdir dir 0o755;
            Ok ()
          end
        with
        | Error msg -> parse_fail msg
        | exception Unix.Unix_error (e, _, _) ->
            parse_fail (dir ^ ": " ^ Unix.error_message e)
        | Ok () ->
            List.iter
              (fun (item : Corpus.Corpus.item) ->
                Itc02.Printer.to_file
                  (Filename.concat dir (item.Corpus.Corpus.name ^ ".soc"))
                  item.Corpus.Corpus.soc)
              items;
            Out_channel.with_open_text (Filename.concat dir "MANIFEST.csv")
              (fun oc ->
                Out_channel.output_string oc Corpus.Corpus.csv_header;
                Out_channel.output_char oc '\n';
                List.iter
                  (fun item ->
                    Out_channel.output_string oc (Corpus.Corpus.csv_row item);
                    Out_channel.output_char oc '\n')
                  items);
            Fmt.pr "wrote %d systems and MANIFEST.csv to %s (digest %s)@."
              (List.length items) dir
              (Corpus.Corpus.digest items);
            0)
  in
  let run action seed count out =
    match action with
    | `List -> list_embedded ()
    | `Describe | `Generate -> (
        match Corpus.Corpus.generate ~seed:(Int64.of_int seed) ~count with
        | exception Invalid_argument msg -> parse_fail msg
        | items -> (
            match action with
            | `Describe -> describe items
            | _ -> generate items out))
  in
  let action_arg =
    let actions =
      [ ("list", `List); ("describe", `Describe); ("generate", `Generate) ]
    in
    Arg.(value & pos 0 (enum actions) `List
         & info [] ~docv:"ACTION"
             ~doc:
               "$(docv) is $(b,list) (default: the embedded ITC'02 \
                benchmarks), $(b,describe) (draw a seeded synthetic corpus \
                and print its table and digest) or $(b,generate) (write the \
                drawn systems and a MANIFEST.csv to --out).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory the generated corpus is written to.")
  in
  Cmd.v
    (cmd_info "corpus"
       ~doc:
         "List the embedded ITC'02 benchmark corpus, or draw a deterministic \
          synthetic SoC corpus (describe/generate).")
    Term.(const run $ action_arg $ corpus_seed_arg $ corpus_count_arg
          $ out_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                             *)

let verify_cmd =
  let run testplan seed count jobs shard csv out lint trace =
    match Corpus.Testplan.load testplan with
    | Error msg -> parse_fail ("testplan: " ^ msg)
    | Ok plan -> (
        match Corpus.Testplan.lint ~suites:(Corpus.Suites.names ()) plan with
        | _ :: _ as errors ->
            List.iter (fun e -> Fmt.epr "nocplan: testplan: %s@." e) errors;
            exit_parse
        | [] ->
            if lint then begin
              Fmt.pr "testplan %s: %d testpoints over %d property suites, \
                      lint clean@."
                plan.Corpus.Testplan.name
                (List.length plan.Corpus.Testplan.testpoints)
                (List.length (Corpus.Suites.names ()));
              0
            end
            else begin
              let items =
                Corpus.Corpus.generate ~seed:(Int64.of_int seed) ~count
              in
              match
                match shard with
                | None -> Ok items
                | Some (k, n) -> (
                    match Corpus.Runner.shard ~k ~n items with
                    | sharded -> Ok sharded
                    | exception Invalid_argument msg -> Error msg)
              with
              | Error msg -> parse_fail msg
              | Ok items ->
                  let epoch = Unix.gettimeofday () in
                  let clock () = Unix.gettimeofday () -. epoch in
                  let report, _events =
                    with_tracing trace (fun () ->
                        Corpus.Runner.run ~jobs ?shard_of:shard ~clock
                          ~testplan:plan items)
                  in
                  if csv then Fmt.pr "%s@." (Corpus.Runner.csv report)
                  else Fmt.pr "%a@." Corpus.Runner.pp_report report;
                  Option.iter
                    (fun path ->
                      Out_channel.with_open_text path (fun oc ->
                          Out_channel.output_string oc
                            (Serve.Json.to_string
                               (Corpus.Runner.to_json
                                  ~seed:(Int64.of_int seed) report));
                          Out_channel.output_char oc '\n');
                      Fmt.pr "summary written to %s@." path)
                    out;
                  if Corpus.Runner.ok report then 0 else 1
            end)
  in
  let testplan_arg =
    Arg.(required & opt (some string) None & info [ "testplan" ] ~docv:"FILE"
           ~doc:"Machine-parseable testplan (JSON) mapping testpoints to \
                 property suites.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains the corpus sweep fans out over (clamped to \
                 the recommended domain count).")
  in
  let shard_conv =
    let parse s =
      match String.split_on_char '/' s with
      | [ k; n ] -> (
          match (int_of_string_opt k, int_of_string_opt n) with
          | Some k, Some n -> Ok (k, n)
          | _ -> Error (`Msg "expected K/N, e.g. 2/4"))
      | _ -> Error (`Msg "expected K/N, e.g. 2/4")
    in
    Arg.conv (parse, fun ppf (k, n) -> Fmt.pf ppf "%d/%d" k n)
  in
  let shard_arg =
    Arg.(value & opt (some shard_conv) None & info [ "shard" ] ~docv:"K/N"
           ~doc:"Verify only the K-th of N disjoint corpus shards (CI \
                 fan-out); the N shards cover the corpus exactly.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ]
           ~doc:"Print per-testpoint counts as CSV instead of the table.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the JSON summary artifact to $(docv).")
  in
  let lint_arg =
    Arg.(value & flag & info [ "lint" ]
           ~doc:"Only cross-check the testplan against the property-suite \
                 registry (both ways) and exit.")
  in
  let count_arg =
    Arg.(value & opt int 1000 & info [ "count" ] ~docv:"N"
           ~doc:"Corpus size to draw before sharding.")
  in
  let term =
    Term.(const run $ testplan_arg $ corpus_seed_arg $ count_arg $ jobs_arg
          $ shard_arg $ csv_arg $ out_arg $ lint_arg $ trace_arg)
  in
  Cmd.v
    (cmd_info "verify"
       ~doc:
         "Run every testplan testpoint's property suites over a seeded \
          synthetic corpus, Domain-parallel, and report per-testpoint \
          pass/fail/coverage counts.")
    term

(* ------------------------------------------------------------------ *)
(* faults                                                             *)

let faults_cmd =
  let run instance policy application rates seed selftest csv gate trace =
    match instance with
    | Error msg -> parse_fail msg
    | Ok (system, reuse, power_limit) -> (
        let topology = system.Core.System.topology in
        match
          with_tracing trace (fun () ->
              let sweep =
                Fault.Injector.sweep ~policy ~application ~power_limit ~reuse
                  ~seed ~rates system
              in
              (* Independent per-step validation: every replanned
                 schedule must route only over healthy resources. *)
              let violations =
                List.concat_map
                  (fun (_, r) ->
                    List.concat_map
                      (fun (s : Fault.Injector.step) ->
                        match
                          Fault.Recover.validate ~application ~power_limit
                            ~reuse ~at:s.Fault.Injector.at
                            ~faults:s.Fault.Injector.faults system
                            s.Fault.Injector.outcome
                        with
                        | Ok () -> []
                        | Error vs -> vs)
                      r.Fault.Injector.steps)
                  sweep
              in
              (sweep, violations))
        with
        | exception Core.Scheduler.Unschedulable msg -> plan_fail msg
        | (sweep, violations), _ ->
            let selftest_violations =
              if not selftest then []
              else begin
                let params = Fault.Selftest.params () in
                let config =
                  Core.Scheduler.config ~policy ~application ~power_limit ~reuse
                    ()
                in
                let baseline = Core.Scheduler.run system config in
                let interleaved =
                  Fault.Selftest.schedule ~policy:Fault.Selftest.Interleaved
                    params system config
                in
                let eager =
                  Fault.Selftest.schedule ~policy:Fault.Selftest.Eager params
                    system config
                in
                Fmt.pr
                  "self-test (router %d, link %d, %d lanes, horizon %d): \
                   trusted %d, interleaved %d, eager %d@."
                  params.Fault.Selftest.router_test
                  params.Fault.Selftest.link_test params.Fault.Selftest.lanes
                  (Fault.Selftest.horizon params topology)
                  baseline.Core.Schedule.makespan
                  interleaved.Core.Schedule.makespan
                  eager.Core.Schedule.makespan;
                (* Each gated schedule against the gates it was planned
                   under. *)
                List.concat_map
                  (fun (policy, s) ->
                    match
                      Core.Schedule.validate system ~application ~power_limit
                        ~reuse
                        ~link_ready:
                          (Fault.Selftest.ready_times ~policy params topology)
                        s
                    with
                    | Ok () -> []
                    | Error vs -> vs)
                  [
                    (Fault.Selftest.Interleaved, interleaved);
                    (Fault.Selftest.Eager, eager);
                  ]
              end
            in
            if csv then begin
              Fmt.pr "rate,faults,replans,abandoned,availability,makespan@.";
              List.iter
                (fun ((p : Fault.Injector.point), _) ->
                  Fmt.pr "%.3f,%d,%d,%d,%.4f,%d@." p.Fault.Injector.rate
                    p.Fault.Injector.injected p.Fault.Injector.replans
                    p.Fault.Injector.abandoned_count
                    p.Fault.Injector.availability p.Fault.Injector.makespan)
                sweep
            end
            else
              List.iter
                (fun ((p : Fault.Injector.point), _) ->
                  Fmt.pr "%a@." Fault.Injector.pp_point p)
                sweep;
            let monotone =
              let rec ok = function
                | (a : Fault.Injector.point) :: (b :: _ as rest) ->
                    a.Fault.Injector.availability
                    >= b.Fault.Injector.availability
                    && ok rest
                | [ _ ] | [] -> true
              in
              ok (List.map fst sweep)
            in
            if violations <> [] then
              Fmt.pr "@[<v>invariant violations:@,%a@]@."
                (Fmt.list ~sep:Fmt.cut Core.Schedule.pp_violation)
                violations;
            if selftest_violations <> [] then
              Fmt.pr "@[<v>self-test gated schedule violations:@,%a@]@."
                (Fmt.list ~sep:Fmt.cut Core.Schedule.pp_violation)
                selftest_violations;
            if not monotone then
              Fmt.pr "availability curve is not monotone in fault rate@.";
            if
              gate
              && (violations <> [] || selftest_violations <> [] || not monotone)
            then begin
              Fmt.epr "nocplan: faults gate failed@.";
              1
            end
            else 0)
  in
  let rates_arg =
    let doc = "Comma-separated fault rates in [0, 1] to sweep." in
    let rate =
      float_where (fun r -> r >= 0.0 && r <= 1.0) ~expected:"in [0, 1]"
    in
    Arg.(value
         & opt (list rate) [ 0.0; 0.05; 0.1; 0.15; 0.2 ]
         & info [ "rates" ] ~docv:"R1,R2,..." ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Deterministic fault-injection seed.")
  in
  let selftest_arg =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Also report the network health phase: makespans under \
                 eager (test-first) and interleaved (test-on-demand) router \
                 self-test gating next to the trusted-network baseline.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the curve as CSV.")
  in
  let gate_arg =
    Arg.(value & flag & info [ "gate" ]
           ~doc:"Exit non-zero if any replanned or self-test gated \
                 schedule fails the validator or the availability curve is \
                 not monotone in the fault rate (CI smoke gate).")
  in
  let term =
    Term.(const run $ instance power_arg $ policy_arg $ application_arg
          $ rates_arg $ seed_arg $ selftest_arg $ csv_arg $ gate_arg
          $ trace_arg)
  in
  Cmd.v
    (cmd_info "faults"
       ~doc:
         "Seeded fault-injection campaigns: kill routers and links \
          mid-session, replan over detour routes, and report the \
          availability / makespan-degradation curve.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                              *)

let serve_cmd =
  let run socket tcp tcp_ro workers queue cache verbosity trace trace_ring =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level
      (Some
         (match verbosity with
         | [] -> Logs.Warning
         | [ _ ] -> Logs.Info
         | _ -> Logs.Debug));
    (* The serve trace is bounded: a fixed-size ring of events whose
       overflow batches stream straight into the trace file, so memory
       stays at one ring's worth however long the server runs. *)
    let finish_trace =
      match trace with
      | None -> fun () -> ()
      | Some path ->
          let stream = Obs.Chrome.stream path in
          let collector =
            Obs.Trace.collector ~clock:(wall_clock ()) ~capacity:trace_ring
              ~on_flush:(Obs.Chrome.stream_events stream)
              ()
          in
          Obs.Trace.install collector;
          fun () ->
            Obs.Trace.uninstall ();
            Obs.Trace.flush collector;
            let n = Obs.Chrome.close_stream stream in
            Fmt.epr "nocplan: trace written to %s (%d events)@." path n
    in
    let make_service () =
      Serve.Service.create ?workers ~queue_capacity:queue
        ~cache_capacity:cache ()
    in
    (match (socket, tcp, tcp_ro) with
    | None, None, None ->
        let service = make_service () in
        Serve.Server.serve_stdio service;
        Serve.Service.shutdown service
    | _ ->
        (* Take SIGINT/SIGTERM synchronously in a dedicated thread.  A
           Sys.Signal_handle callback only runs at an OCaml safepoint,
           and an idle server has every thread blocked in accept or a
           condition wait — the callback would never fire.  Blocking
           the signals here, before any worker or handler thread is
           spawned, makes every descendant inherit the mask. *)
        ignore (Thread.sigmask SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
        let service = make_service () in
        let listeners =
          (match socket with
          | Some path -> [ Serve.Server.listen service ~path ]
          | None -> [])
          @ (match tcp with
            | Some (host, port) ->
                [ Serve.Server.listen_tcp service ~host ~port ]
            | None -> [])
          @
          match tcp_ro with
          | Some (host, port) ->
              [ Serve.Server.listen_tcp ~read_only:true service ~host ~port ]
          | None -> []
        in
        let _stopper =
          Thread.create
            (fun () ->
              ignore (Thread.wait_signal [ Sys.sigint; Sys.sigterm ]);
              List.iter Serve.Server.stop listeners)
            ()
        in
        List.iter Serve.Server.wait listeners;
        Serve.Service.shutdown service);
    finish_trace ();
    0
  in
  let hostport =
    let parse s =
      let default_host = "127.0.0.1" in
      let of_port p =
        match int_of_string_opt p with
        | Some port when port >= 0 && port < 65536 -> Ok port
        | _ -> Error (`Msg (Printf.sprintf "bad port %S" p))
      in
      match String.rindex_opt s ':' with
      | None -> Result.map (fun port -> (default_host, port)) (of_port s)
      | Some i ->
          let host = String.sub s 0 i in
          let host = if host = "" then default_host else host in
          Result.map
            (fun port -> (host, port))
            (of_port (String.sub s (i + 1) (String.length s - i - 1)))
    in
    let print ppf (host, port) = Fmt.pf ppf "%s:%d" host port in
    Arg.conv (parse, print)
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of \
                 serving stdin/stdout.")
  in
  let tcp_arg =
    Arg.(value & opt (some hostport) None & info [ "tcp" ] ~docv:"[HOST:]PORT"
           ~doc:"Also listen on TCP at $(docv) (host defaults to \
                 127.0.0.1; port 0 picks a free one).")
  in
  let tcp_ro_arg =
    Arg.(value & opt (some hostport) None
         & info [ "tcp-ro" ] ~docv:"[HOST:]PORT"
             ~doc:"Also listen on TCP at $(docv) in read-only mode: metrics \
                   and prometheus ops are served, planning ops are refused \
                   with a read_only error — safe to expose to a scrape \
                   pipeline.")
  in
  let workers_arg =
    Arg.(value & opt (some (int_at_least 1)) None & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains (default: recommended domain count - 1, \
                 at least 1; clamped to the recommended count).")
  in
  let queue_arg =
    Arg.(value & opt (int_at_least 0) 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Job queue capacity; a full queue rejects requests with an \
                 overload error.")
  in
  let cache_arg =
    Arg.(value & opt (int_at_least 1) 8 & info [ "cache" ] ~docv:"N"
           ~doc:"Access-table cache capacity (systems retained, each with \
                 the evaluation caches of up to 8 configurations).")
  in
  let verbose_arg =
    Arg.(value & flag_all & info [ "v"; "verbose" ]
           ~doc:"Log requests to stderr (repeat for debug logging).")
  in
  let trace_ring_arg =
    Arg.(value & opt (int_at_least 1) 4096 & info [ "trace-ring" ] ~docv:"N"
           ~doc:"Trace ring capacity: events buffered in memory between \
                 flushes to the --trace file.")
  in
  let term =
    Term.(const run $ socket_arg $ tcp_arg $ tcp_ro_arg $ workers_arg
          $ queue_arg $ cache_arg $ verbose_arg $ trace_arg $ trace_ring_arg)
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Run the concurrent planning service: JSON-lines requests over \
          stdin/stdout, a Unix-domain socket, and/or TCP.")
    term

let main =
  let doc = "test planning for NoC-based SoCs with processor reuse" in
  Cmd.group
    (Cmd.info "nocplan" ~version:"1.0.0" ~doc ~exits)
    [
      show_cmd;
      plan_cmd;
      sweep_cmd;
      characterize_cmd;
      replay_cmd;
      optimal_cmd;
      stats_cmd;
      anneal_cmd;
      generate_cmd;
      corpus_cmd;
      verify_cmd;
      faults_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main)
