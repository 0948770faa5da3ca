(* Corpus generation, testplan engine and differential regression.

   The golden digests pin byte-identical generation across runs and
   platforms: Data_gen and Corpus draw from a self-contained splitmix64
   stream in a fixed order, so the same seed must always reproduce the
   same systems (the Data_gen determinism audit, PR 10). *)

module Itc02 = Nocplan_itc02
module Core = Nocplan_core
module Corpus = Nocplan_corpus

open QCheck2.Gen

let seed_gen = map Int64.of_int (int_range 0 10_000)

let item_gen =
  let* seed = seed_gen in
  let* index = int_range 0 50 in
  return (Corpus.Corpus.item ~seed ~index)

(* --- every generated item builds, schedules clean, round-trips ------ *)

let prop_item_schedules_clean =
  Util.qcheck ~count:25 "corpus items schedule validator-clean under greedy"
    item_gen (fun item ->
      match Corpus.Suites.(find "schedule_invariants") with
      | None -> QCheck2.Test.fail_report "schedule_invariants not registered"
      | Some suite -> (
          match suite.Corpus.Suites.check item with
          | Corpus.Suites.Pass -> true
          | Corpus.Suites.Fail msg -> QCheck2.Test.fail_report msg
          | Corpus.Suites.Skip msg -> QCheck2.Test.fail_report ("skip: " ^ msg)))

let prop_item_roundtrips =
  Util.qcheck ~count:50 "corpus items round-trip through export/parse"
    item_gen (fun item ->
      match Itc02.Parser.parse (Itc02.Printer.to_string item.Corpus.Corpus.soc) with
      | Error e -> QCheck2.Test.fail_report e.Itc02.Parser.message
      | Ok soc -> Itc02.Soc.equal soc item.Corpus.Corpus.soc)

(* --- shard selection partitions the corpus exactly ------------------ *)

let prop_shard_partitions =
  Util.qcheck ~count:100 "shard k/n partitions the corpus (disjoint, covering)"
    (pair (int_range 1 7) (int_range 0 40))
    (fun (n, len) ->
      let items = List.init len Fun.id in
      let shards = List.init n (fun i -> Corpus.Runner.shard ~k:(i + 1) ~n items) in
      (* Covering: the shards together hold every item exactly once. *)
      let merged = List.sort compare (List.concat shards) in
      merged = items
      (* Disjoint, order-preserving: each shard is strictly increasing. *)
      && List.for_all
           (fun shard -> List.sort compare shard = shard)
           shards)

(* --- golden digests: byte-identical generation ---------------------- *)

let test_data_gen_digest () =
  let profile =
    {
      Itc02.Data_gen.name = "golden";
      seed = 0xD1CEL;
      scan_modules = 5;
      comb_modules = 2;
      target_scan_cells = 4_000;
      max_chains = 12;
      min_patterns = 8;
      max_patterns = 120;
    }
  in
  let digest () =
    Digest.to_hex
      (Digest.string (Itc02.Printer.to_string (Itc02.Data_gen.generate profile)))
  in
  Alcotest.(check string)
    "Data_gen golden digest" "fd97f7b13bb35a2fc5d19590ff4ebcd4" (digest ());
  Alcotest.(check string) "generation is repeatable" (digest ()) (digest ())

let test_corpus_digest () =
  let items = Corpus.Corpus.generate ~seed:42L ~count:8 in
  Alcotest.(check string)
    "corpus golden digest" "4379df724740ff0280921b20176e8db0"
    (Corpus.Corpus.digest items)

let test_power_profiles () =
  let profile =
    {
      Itc02.Data_gen.name = "p";
      seed = 7L;
      scan_modules = 4;
      comb_modules = 1;
      target_scan_cells = 2_000;
      max_chains = 8;
      min_patterns = 5;
      max_patterns = 50;
    }
  in
  let plain = Itc02.Data_gen.generate profile in
  let default = Itc02.Data_gen.generate ~power:Itc02.Data_gen.Toggle profile in
  Alcotest.(check bool) "Toggle is the default" true (Itc02.Soc.equal plain default);
  let hot =
    Itc02.Data_gen.generate
      ~power:(Itc02.Data_gen.Hotspot { count = 2; factor = 3.0 })
      profile
  in
  Alcotest.(check bool)
    "Hotspot reshapes power" true
    (Itc02.Soc.total_test_power hot > Itc02.Soc.total_test_power plain);
  Alcotest.(check int)
    "Hotspot keeps the structure" (Itc02.Soc.module_count plain)
    (Itc02.Soc.module_count hot);
  Alcotest.check_raises "bad Scaled range rejected"
    (Invalid_argument "Data_gen.generate: bad Scaled power range") (fun () ->
      ignore
        (Itc02.Data_gen.generate
           ~power:(Itc02.Data_gen.Scaled { lo = 0.0; hi = 1.0 })
           profile))

(* --- differential regression over a seed-pinned 50-system slice ----- *)

let test_differential_regression () =
  let items = Corpus.Corpus.generate ~seed:0xD1FFL ~count:50 in
  let check =
    (Option.get (Corpus.Suites.find "backend_differential")).Corpus.Suites.check
  in
  let outcomes =
    Core.Domains.map ~domains:2
      (fun item -> (item.Corpus.Corpus.name, check item))
      items
  in
  Alcotest.(check int) "one outcome per system" 50 (List.length outcomes);
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Corpus.Suites.Pass -> ()
      | Corpus.Suites.Fail msg | Corpus.Suites.Skip msg ->
          Alcotest.failf "%s: backend_differential: %s" name msg)
    outcomes

(* --- testplan parsing, lint, and the checked-in plan ---------------- *)

(* Under `dune runtest` the cwd is the test build dir (the plan is a
   declared dep); a bare `dune exec test/test_main.exe` runs from the
   repo root. *)
let testplan_path =
  if Sys.file_exists "testplan.json" then "testplan.json"
  else "test/testplan.json"

let test_checked_in_testplan () =
  match Corpus.Testplan.load testplan_path with
  | Error msg -> Alcotest.failf "test/testplan.json does not parse: %s" msg
  | Ok plan ->
      Alcotest.(check (list string))
        "testplan lint clean against the suite registry" []
        (Corpus.Testplan.lint ~suites:(Corpus.Suites.names ()) plan)

let test_lint_catches_drift () =
  let plan suites =
    Printf.sprintf
      {|{"name": "p", "testpoints": [{"name": "t", "desc": "d", "suites": [%s]}]}|}
      suites
  in
  (match Corpus.Testplan.of_string (plan {|"no_such_suite"|}) with
  | Error msg -> Alcotest.failf "synthetic plan must parse: %s" msg
  | Ok p ->
      Alcotest.(check int)
        "unknown suite + every unreferenced suite reported"
        (1 + List.length (Corpus.Suites.names ()))
        (List.length (Corpus.Testplan.lint ~suites:(Corpus.Suites.names ()) p)));
  match Corpus.Testplan.of_string (plan {|"schedule_invariants"|}) with
  | Error msg -> Alcotest.failf "synthetic plan must parse: %s" msg
  | Ok p ->
      let errors =
        Corpus.Testplan.lint ~suites:(Corpus.Suites.names ()) p
      in
      Alcotest.(check int)
        "unreferenced suites reported"
        (List.length (Corpus.Suites.names ()) - 1)
        (List.length errors)

let test_testplan_rejects_malformed () =
  List.iter
    (fun text ->
      match Corpus.Testplan.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed testplan %s" text)
    [
      "";
      "[]";
      {|{"name": "p"}|};
      {|{"name": "p", "testpoints": []}|};
      {|{"name": "p", "testpoints": [{"name": "t", "desc": "d", "suites": []}]}|};
      {|{"name": "p", "testpoints": [{"name": "t", "desc": "d"}]}|};
      {|{"name": "p", "testpoints": [{"name": "t", "desc": "d", "suites": ["s"]},
                                     {"name": "t", "desc": "d", "suites": ["s"]}]}|};
    ]

(* --- the runner: domain-count invariance and full-plan smoke -------- *)

let test_runner_jobs_invariant () =
  match Corpus.Testplan.load testplan_path with
  | Error msg -> Alcotest.failf "testplan: %s" msg
  | Ok testplan ->
      let items = Corpus.Corpus.generate ~seed:3L ~count:6 in
      let strip (r : Corpus.Runner.report) =
        List.map
          (fun (p : Corpus.Runner.point) ->
            Printf.sprintf "%s:%d/%d/%d" p.Corpus.Runner.testpoint
              p.Corpus.Runner.pass p.Corpus.Runner.fail p.Corpus.Runner.skip)
          r.Corpus.Runner.points
      in
      let seq = Corpus.Runner.run ~jobs:1 ~testplan items in
      let par = Corpus.Runner.run ~jobs:3 ~testplan items in
      Alcotest.(check bool) "sequential run is green" true
        (Corpus.Runner.ok seq);
      Alcotest.(check (list string))
        "jobs=3 aggregates identically to jobs=1" (strip seq) (strip par);
      (* The artifact serializes and carries the verdict. *)
      let json =
        Nocplan_serve.Json.to_string (Corpus.Runner.to_json ~seed:3L seq)
      in
      Alcotest.(check bool) "artifact mentions every testpoint" true
        (List.for_all
           (fun (tp : Corpus.Testplan.testpoint) ->
             let needle = Printf.sprintf "%S" tp.Corpus.Testplan.name in
             let rec contains i =
               i + String.length needle <= String.length json
               && (String.sub json i (String.length needle) = needle
                  || contains (i + 1))
             in
             contains 0)
           testplan.Corpus.Testplan.testpoints)

let suite =
  [
    prop_item_schedules_clean;
    prop_item_roundtrips;
    prop_shard_partitions;
    Alcotest.test_case "Data_gen golden digest" `Quick test_data_gen_digest;
    Alcotest.test_case "corpus golden digest" `Quick test_corpus_digest;
    Alcotest.test_case "power profiles" `Quick test_power_profiles;
    Alcotest.test_case "differential regression (50 systems)" `Slow
      test_differential_regression;
    Alcotest.test_case "checked-in testplan lints clean" `Quick
      test_checked_in_testplan;
    Alcotest.test_case "lint catches drift both ways" `Quick
      test_lint_catches_drift;
    Alcotest.test_case "malformed testplans rejected" `Quick
      test_testplan_rejects_malformed;
    Alcotest.test_case "runner is domain-count invariant" `Slow
      test_runner_jobs_invariant;
  ]
