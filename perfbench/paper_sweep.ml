(* paper-sweep: the Figure-1 computation as CLI users run it.

   A closed loop of rounds on one domain.  A round covers all six
   builtin systems (in a seeded order): build the system, build one
   access table, then run a greedy unconstrained, a greedy
   binding-power and a lookahead reuse sweep over it.  One operation is
   one reuse sweep; it is correct when every point validated and its
   makespans equal the pinned series in perfbench/figure1.expected
   (whose _leon greedy series are the Figure-1 makespans of the
   repository's committed bench artefact). *)

module Core = Nocplan_core
module Trace = Nocplan_obs.Trace
open Perfbench

let expected_file = "perfbench/figure1.expected"

let series =
  [
    ("greedy", Core.Scheduler.Greedy, None);
    ("greedy-binding", Core.Scheduler.Greedy, Some Core.Experiments.binding_power_pct);
    ("lookahead", Core.Scheduler.Lookahead, None);
  ]

(* Latency limit of one sweep for goodput: about 1.5 times the slowest
   sweep's undisturbed time (12-13 ms on a 2-core Xeon), so a sweep that
   slows by half or more shows as lost goodput. *)
let limit_ms = 20.0

type outcome = {
  system : string;
  label : string;
  makespans : int list;
  validated : bool;
  ms : float;
}

let series_line o =
  String.concat " " (o.system :: o.label :: List.map string_of_int o.makespans)

(* "<system> <series> m0 m1 ..." lines, keyed by "<system> <series>". *)
let load_expected () =
  In_channel.with_open_text expected_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "#" :: _ -> None
         | system :: label :: (_ :: _ as ms) ->
             Some ((system, label), List.map int_of_string ms)
         | _ -> None)

let correct expected o =
  o.validated && List.assoc_opt (o.system, o.label) expected = Some o.makespans

let shuffled rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* One round: its sweeps, and the time (ms) each system's build and
   access table took, by system. *)
type round = { sweeps : outcome list; preps : (string * float) list }

(* One timed reuse sweep of [series] entry [(label, policy, pct)]. *)
let run_sweep ~access name sys (label, policy, power_limit_pct) =
  let sweep, dt =
    Util.time (fun () -> Core.Planner.reuse_sweep ~policy ?power_limit_pct ~access sys)
  in
  let points = sweep.Core.Planner.points in
  {
    system = name;
    label;
    makespans = List.map (fun p -> p.Core.Planner.makespan) points;
    validated = List.for_all (fun p -> p.Core.Planner.validated) points;
    ms = dt *. 1e3;
  }

(* One untraced round through the public planning entry points. *)
let round rng =
  let per_system =
    List.map
      (fun (name, build) ->
        let (sys, access), prep =
          Util.time (fun () ->
              let sys = build () in
              (sys, Core.Test_access.table sys))
        in
        ((name, prep *. 1e3), List.map (run_sweep ~access name sys) series))
      (shuffled rng Core.Experiments.builders)
  in
  { sweeps = List.concat_map snd per_system; preps = List.map fst per_system }

(* Mean best-reuse reduction of the unconstrained greedy sweeps: the
   planner's quality and the paper's headline. *)
let reduction_pct outcomes =
  List.filter (fun o -> o.label = "greedy") outcomes
  |> List.map (fun o ->
         let baseline = List.hd o.makespans in
         let best = List.fold_left min baseline o.makespans in
         Core.Planner.reduction_pct ~baseline best)
  |> Util.mean

(* Load the oracle and check one warm-up sweep against it, the first
   builtin system's unconstrained greedy sweep, so that a broken planner
   fails before the timed window. *)
let setup () =
  let expected = load_expected () in
  let name, build = List.hd Core.Experiments.builders in
  let sys = build () in
  let o = run_sweep ~access:(Core.Test_access.table sys) name sys (List.hd series) in
  if not (correct expected o) then failwith "paper-sweep: warm-up sweep failed its oracle";
  expected

type window = {
  outcomes : outcome list;  (** every sweep of the window *)
  preps : (string * float) list;  (** every system build + access table, ms *)
  rounds : float list;  (** round wall times, s *)
  wall : float;
}

let closed_loop ~rng ~seconds run =
  let t0 = Util.now () in
  let rec go acc rounds =
    if Util.now () -. t0 >= seconds && rounds <> [] then
      {
        outcomes = List.concat_map (fun (r : round) -> r.sweeps) acc;
        preps = List.concat_map (fun (r : round) -> r.preps) acc;
        rounds;
        wall = Util.now () -. t0;
      }
    else
      let r, dt = Util.time (fun () -> run rng) in
      go (r :: acc) (dt :: rounds)
  in
  go [] []

(* Every round repeats the same 6 system preparations and 18 sweeps,
   so each is timed at the host's undisturbed speed ({!Util.undisturbed});
   an undisturbed round is their sum.  Throughput is the undisturbed
   sweep rate times the run's share of correct sweeps, goodput the part
   of it whose sweeps take at most [limit_ms]; the latency quantiles
   are those of the 18 undisturbed sweep times, one round's sweeps. *)
let end_to_end ~seed ~seconds =
  let expected = setup () in
  let rng = Random.State.make [| seed |] in
  let w = closed_loop ~rng ~seconds round in
  let ok = List.filter (correct expected) w.outcomes in
  let attempted = List.length w.outcomes in
  let sweeps = Util.undisturbed (List.map (fun o -> ((o.system, o.label), o.ms)) w.outcomes) in
  let preps = Util.undisturbed w.preps in
  let round_ms = List.fold_left ( +. ) 0.0 (sweeps @ preps) in
  let ok_share = Util.ratio (List.length ok) attempted in
  let rate = float_of_int (List.length sweeps) /. (round_ms /. 1e3) *. ok_share in
  let good = List.length (List.filter (fun ms -> ms <= limit_ms) sweeps) in
  let metrics =
    [
      Util.metric "peak_rss_mb" "MB" (Util.peak_rss_mb "self");
      Util.metric "throughput_per_s" "1/s" rate;
      Util.metric "p50_ms" "ms" (Util.quantile 0.5 sweeps);
      Util.metric "p99_ms" "ms" (Util.quantile 0.99 sweeps);
      Util.metric "goodput_per_s" "1/s" (rate *. Util.ratio good (List.length sweeps));
    ]
  in
  Printf.printf "paper-sweep: %d sweeps in %d rounds over %.2f s (%.1f sweeps/s as run), %d samples; reduction %.2f%%\n"
    attempted (List.length w.rounds) w.wall
    (float_of_int (List.length ok) /. w.wall)
    attempted (reduction_pct w.outcomes);
  Printf.printf "paper-sweep: undisturbed round %.1f ms, median round as run %.1f ms\n" round_ms
    (Util.median w.rounds *. 1e3);
  Printf.printf "paper-sweep: %d of %d sweeps of a round within the %.0f ms goodput limit (slowest %.2f ms), %.4f correct\n"
    good (List.length sweeps) limit_ms (List.fold_left Float.max 0.0 sweeps) ok_share;
  (attempted, attempted - List.length ok, metrics)

(* The traced round: the benchmark calls each layer's public function
   itself — system build, access table, one scheduler run and one
   validation per sweep point — timing every call into the ledger. *)
let traced_round ledger ~minor_words ~violations rng =
  let sweeps =
    List.concat_map
      (fun (name, build) ->
        let sys = Ledger.span ledger "experiments.build" build in
        let access = Ledger.span ledger "test_access.table" (fun () -> Core.Test_access.table sys) in
        let procs = List.length sys.Core.System.processors in
        List.map
          (fun (label, policy, pct) ->
            let power_limit = Option.map (fun pct -> Core.System.power_limit_of_pct sys ~pct) pct in
            let t0 = Util.now () in
            let points =
              List.init (procs + 1) (fun reuse ->
                  let config = Core.Scheduler.config ~policy ~power_limit ~reuse () in
                  let sched =
                    Ledger.span ledger "scheduler.run" (fun () ->
                        let w0 = Gc.minor_words () in
                        let s = Core.Scheduler.run ~access sys config in
                        minor_words := !minor_words +. (Gc.minor_words () -. w0);
                        s)
                  in
                  let verdict =
                    Ledger.span ledger "schedule.validate" (fun () ->
                        Core.Schedule.validate ~access sys
                          ~application:Nocplan_proc.Processor.Bist ~power_limit ~reuse sched)
                  in
                  (match verdict with
                  | Ok () -> ()
                  | Error vs -> violations := !violations + List.length vs);
                  (sched.Core.Schedule.makespan, Result.is_ok verdict))
            in
            {
              system = name;
              label;
              makespans = List.map fst points;
              validated = List.for_all snd points;
              ms = (Util.now () -. t0) *. 1e3;
            })
          series)
      (shuffled rng Core.Experiments.builders)
  in
  { sweeps; preps = [] }

(* A collector that only counts events by name, flushing every batch
   so memory stays bounded however long the traced window runs. *)
let counting_collector () =
  let counts = Hashtbl.create 16 in
  let bump (ev : Trace.event) =
    if ev.Trace.phase <> Trace.End then
      Hashtbl.replace counts ev.Trace.name
        (1 + Option.value (Hashtbl.find_opt counts ev.Trace.name) ~default:0)
  in
  let c = Trace.collector ~capacity:4096 ~on_flush:(List.iter bump) () in
  let count name =
    Trace.flush c;
    Option.value (Hashtbl.find_opt counts name) ~default:0
  in
  (c, count)

let per_layer ~seed ~seconds =
  let expected = setup () in
  let untraced = closed_loop ~rng:(Random.State.make [| seed |]) ~seconds:(seconds /. 2.0) round in
  let ledger = Ledger.create () in
  let minor_words = ref 0.0 and violations = ref 0 in
  let collector, count = counting_collector () in
  Trace.install collector;
  let traced =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        closed_loop ~rng:(Random.State.make [| seed |]) ~seconds:(seconds /. 2.0)
          (traced_round ledger ~minor_words ~violations))
  in
  let outcomes = untraced.outcomes @ traced.outcomes in
  let ok = List.filter (correct expected) outcomes in
  (* Layer times are per operation (one reuse sweep), like the
     per-request figures of serve-mix. *)
  let sweeps = float_of_int (List.length traced.outcomes) in
  let per_sweep name = Ledger.incl ledger name *. 1e3 /. sweeps in
  let runs = Ledger.calls ledger "scheduler.run" in
  let round_wall = List.fold_left ( +. ) 0.0 traced.rounds in
  let per_round w = w.wall /. float_of_int (List.length w.rounds) in
  let metrics =
    [
      Util.metric "experiments.build_ms" "ms" (per_sweep "experiments.build");
      Util.metric "test_access.table_ms" "ms" (per_sweep "test_access.table");
      Util.metric "test_access.table_share" "ratio" (Ledger.self ledger "test_access.table" /. round_wall);
      Util.metric "scheduler.run_ms" "ms" (per_sweep "scheduler.run");
      Util.metric "scheduler.runs" "count" (float_of_int runs /. sweeps);
      Util.metric "scheduler.commits_per_run" "count"
        (Util.ratio (count "scheduler.commit") runs);
      Util.metric "scheduler.minor_words_per_run" "words" (!minor_words /. float_of_int (max 1 runs));
      Util.metric "schedule.validate_ms" "ms" (per_sweep "schedule.validate");
      Util.metric "schedule.violations" "count" (float_of_int !violations);
      Util.metric "sweep.round_p50_ms" "ms" (Util.median untraced.rounds *. 1e3);
      Util.metric "planner.reduction_pct" "%" (reduction_pct untraced.outcomes);
      Util.metric "unattributed_share" "ratio" (Ledger.unattributed_share ledger ~wall:round_wall);
      Util.metric "trace.overhead_pct" "%" (100.0 *. ((per_round traced /. per_round untraced) -. 1.0));
    ]
  in
  (List.length outcomes, List.length outcomes - List.length ok, metrics)

(* Print the current series, one line each, in the format of
   [expected_file] — how that file is regenerated after an intended
   schedule change. *)
let print_series () =
  let outcomes = (round (Random.State.make [| 0 |])).sweeps in
  List.iter
    (fun (name, _) ->
      List.iter (fun o -> if o.system = name then print_endline (series_line o)) outcomes)
    Core.Experiments.builders
