(* corpus-verify: the [nocplan verify] path CI runs.

   The checked-in testplan drives the registered property suites over
   a fixed synthetic corpus, in an order drawn from the seed.
   [Domain.recommended_domain_count] domains pull corpus indices from a
   shared counter; each draws its item ([Corpus.item], the generator
   behind [Corpus.generate]) and checks it with [Runner.run], so every
   item's latency is timed.  One operation is one corpus item fully
   checked; it is correct when no check fails.  The merged report must
   satisfy [Runner.ok], and its check count must equal items x suites. *)

module Corpus = Nocplan_corpus.Corpus
module Runner = Nocplan_corpus.Runner
module Suites = Nocplan_corpus.Suites
module Testplan = Nocplan_corpus.Testplan
open Perfbench

let testplan_file = "test/testplan.json"

(* The corpus: the first [corpus_size] items of corpus seed
   [corpus_seed], the one [make corpus-smoke] checks, checked over and
   over, so that every item's check repeats about 50 times in a 38 s
   run.  It is the same for every run seed: item costs are so
   heavy-tailed that over corpora drawn from the run seed the mean item
   cost moved by up to 17% between seeds (200 items) and the figures
   measured the draw, not the program.  The run seed sets the order the
   items are checked in. *)
let corpus_seed = 7L
let corpus_size = 100

(* The corpus indices in the order the [seed] run checks them. *)
let order seed =
  let rng = Random.State.make [| seed |] in
  List.init corpus_size (fun i -> (Random.State.bits rng, i))
  |> List.sort compare |> List.map snd |> Array.of_list

(* Latency limit of one item for goodput: just above the slowest
   item's undisturbed time (32-43 ms over twenty runs, 2 domains, 2-core
   Xeon), so an item that slows past it shows as lost goodput. *)
let limit_ms = 40.0

let setup () =
  let plan =
    match Testplan.load testplan_file with
    | Ok plan -> plan
    | Error msg -> failwith (Printf.sprintf "corpus-verify: %s: %s" testplan_file msg)
  in
  (match Testplan.lint ~suites:(Suites.names ()) plan with
  | [] -> ()
  | msgs -> failwith ("corpus-verify: testplan lint: " ^ String.concat "; " msgs));
  (* Warm-up on one fixed item, independent of the run's seed. *)
  let r = Runner.run ~testplan:plan [ Corpus.item ~seed:0L ~index:0 ] in
  if List.exists (fun p -> p.Runner.fail > 0) r.Runner.points then
    failwith "corpus-verify: warm-up item failed";
  plan

type item = { ms : float; points : Runner.point list }

(* Check the corpus in the [seed] run's order, round and round, on
   [domains] domains until [stop ()] holds; every check with its item's
   index. *)
let sweep ~plan ~seed ~domains ~stop =
  let order = order seed in
  let next = Atomic.make 0 in
  let worker () =
    let rec go acc =
      if stop () then acc
      else
        let index = order.(Atomic.fetch_and_add next 1 mod corpus_size) in
        let r, dt =
          Util.time (fun () ->
              let it = Corpus.item ~seed:corpus_seed ~index in
              Runner.run ~clock:Util.now ~testplan:plan [ it ])
        in
        go ((index, { ms = dt *. 1e3; points = r.Runner.points }) :: acc)
    in
    go []
  in
  let t0 = Util.now () in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  let mine = worker () in
  let all = mine @ List.concat_map Domain.join spawned in
  let wall = Util.now () -. t0 in
  (all, wall)

let item_failed it = List.exists (fun p -> p.Runner.fail > 0) it.points

(* The merged report over all items, and whether it passes: [Runner.ok]
   and exactly one outcome per (item, testpoint suite). *)
let verdict ~plan items =
  let merged =
    List.map
      (fun (tp : Testplan.testpoint) ->
        let mine =
          List.concat_map
            (fun it -> List.filter (fun p -> p.Runner.testpoint = tp.Testplan.name) it.points)
            items
        in
        let sum f = List.fold_left (fun s p -> s + f p) 0 mine in
        {
          Runner.testpoint = tp.Testplan.name;
          desc = tp.Testplan.desc;
          pass = sum (fun p -> p.Runner.pass);
          fail = sum (fun p -> p.Runner.fail);
          skip = sum (fun p -> p.Runner.skip);
          failures = [];
        })
      plan.Testplan.testpoints
  in
  let report =
    { Runner.corpus = List.length items; jobs = 1; shard = None; seconds = 0.0; points = merged }
  in
  let counted =
    List.for_all2
      (fun (tp : Testplan.testpoint) p ->
        p.Runner.pass + p.Runner.fail + p.Runner.skip
        = List.length items * List.length tp.Testplan.suites)
      plan.Testplan.testpoints merged
  in
  Runner.ok report && counted

let deadline seconds =
  let t_end = Util.now () +. seconds in
  fun () -> Util.now () >= t_end

(* Every item is checked many times, so each is timed at the host's
   undisturbed speed ({!Util.undisturbed}).  Throughput is [domains]
   items per undisturbed mean item time, times the run's share of
   correct checks; goodput is the part of it whose items take at most
   [limit_ms]; the latency quantiles are those of the undisturbed item
   times, one per corpus item. *)
let end_to_end ~seed ~seconds =
  let plan = setup () in
  let domains = Domain.recommended_domain_count () in
  let checked, wall =
    sweep ~plan ~seed ~domains ~stop:(deadline seconds)
  in
  let items = List.map snd checked in
  let attempted = List.length items in
  let ok = List.filter (fun it -> not (item_failed it)) items in
  let times = Util.undisturbed (List.map (fun (index, it) -> (index, it.ms)) checked) in
  let ok_share = Util.ratio (List.length ok) attempted in
  let rate = float_of_int domains /. (Util.mean times /. 1e3) *. ok_share in
  let good = List.length (List.filter (fun ms -> ms <= limit_ms) times) in
  Printf.printf "corpus-verify: %d checks of %d items on %d domains over %.2f s (%.1f items/s as run)\n"
    attempted (List.length times) domains wall (float_of_int (List.length ok) /. wall);
  Printf.printf "corpus-verify: %d of %d items within the %.0f ms goodput limit (slowest %.2f ms), %.4f correct\n"
    good (List.length times) limit_ms (List.fold_left Float.max 0.0 times) ok_share;
  let correct = verdict ~plan items in
  let metrics =
    [
      Util.metric "peak_rss_mb" "MB" (Util.peak_rss_mb "self");
      Util.metric "throughput_per_s" "1/s" rate;
      Util.metric "p50_ms" "ms" (Util.quantile 0.5 times);
      Util.metric "p99_ms" "ms" (Util.quantile 0.99 times);
      Util.metric "goodput_per_s" "1/s" (rate *. Util.ratio good (List.length times));
    ]
  in
  (correct, attempted, attempted - List.length ok, metrics)

(* The traced pass: one domain, the benchmark itself drawing each item
   and calling every suite's [check], each call timed into the ledger;
   library spans are only counted. *)
let traced_items ~plan ~seed ~count =
  let order = order seed in
  let ledger = Ledger.create () in
  let minor_words = ref 0.0 in
  let suites =
    List.concat_map
      (fun (tp : Testplan.testpoint) ->
        List.filter_map Suites.find tp.Testplan.suites
        |> List.map (fun s -> (tp, s)))
      plan.Testplan.testpoints
  in
  let items =
    List.init count (fun index ->
        let w0 = Gc.minor_words () in
        let it, dt =
          Util.time (fun () ->
              let it =
                Ledger.span ledger "corpus.generate" (fun () ->
                    Corpus.item ~seed:corpus_seed ~index:order.(index mod corpus_size))
              in
              List.map
                (fun ((tp : Testplan.testpoint), (s : Suites.suite)) ->
                  let outcome =
                    Ledger.span ledger ("suites." ^ s.Suites.name) (fun () ->
                        try s.Suites.check it with e -> Suites.Fail (Printexc.to_string e))
                  in
                  let n b = if b then 1 else 0 in
                  {
                    Runner.testpoint = tp.Testplan.name;
                    desc = tp.Testplan.desc;
                    pass = n (outcome = Suites.Pass);
                    fail = n (match outcome with Suites.Fail _ -> true | _ -> false);
                    skip = n (match outcome with Suites.Skip _ -> true | _ -> false);
                    failures = [];
                  })
                suites)
        in
        minor_words := !minor_words +. (Gc.minor_words () -. w0);
        { ms = dt *. 1e3; points = it })
  in
  (items, ledger, !minor_words)

let per_layer ~seed ~seconds =
  let plan = setup () in
  let domains = Domain.recommended_domain_count () in
  let parallel, wall_par = sweep ~plan ~seed ~domains ~stop:(deadline (0.4 *. seconds)) in
  let single, wall_one = sweep ~plan ~seed ~domains:1 ~stop:(deadline (0.3 *. seconds)) in
  let parallel = List.map snd parallel and single = List.map snd single in
  let count = List.length single in
  let collector, counted = Paper_sweep.counting_collector () in
  Nocplan_obs.Trace.install collector;
  let (traced, ledger, minor_words), wall_traced =
    Fun.protect ~finally:Nocplan_obs.Trace.uninstall (fun () ->
        Util.time (fun () -> traced_items ~plan ~seed ~count))
  in
  let all = parallel @ single @ traced in
  let failed = List.length (List.filter item_failed all) in
  let n = float_of_int count in
  let per_item name = Ledger.incl ledger name *. 1e3 /. n in
  let suite_metrics =
    List.map
      (fun (s : Suites.suite) ->
        Util.metric ("suites." ^ s.Suites.name ^ "_ms") "ms" (per_item ("suites." ^ s.Suites.name)))
      Suites.all
  in
  let per_item_wall items wall = wall /. float_of_int (List.length items) in
  let metrics =
    [ Util.metric "corpus.generate_ms" "ms" (per_item "corpus.generate") ]
    @ suite_metrics
    @ [
        Util.metric "test_access.tables_per_item" "count" (float_of_int (counted "access.table") /. n);
        Util.metric "scheduler.runs_per_item" "count" (float_of_int (counted "scheduler.run") /. n);
        Util.metric "fault.replans_per_item" "count" (float_of_int (counted "fault.replan") /. n);
        Util.metric "gc.minor_words_per_item" "words" (minor_words /. n);
        Util.metric "runner.domain_speedup" "ratio"
          (per_item_wall single wall_one /. per_item_wall parallel wall_par);
        Util.metric "unattributed_share" "ratio" (Ledger.unattributed_share ledger ~wall:wall_traced);
        Util.metric "trace.overhead_pct" "%" (100.0 *. ((wall_traced /. wall_one) -. 1.0));
      ]
  in
  let correct = verdict ~plan parallel && verdict ~plan single && verdict ~plan traced in
  (correct, List.length all, failed, metrics)
