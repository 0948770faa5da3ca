(* The planning-backend layer: the bin-packing scheduler must satisfy
   the same safety invariants as the greedy one (checked naively, not
   through the production validator alone), the two backends must
   agree on feasibility modulo their heuristics, and racing them must
   never return a worse plan than greedy alone — race contains greedy
   and breaks ties in its favour. *)

module Noc = Nocplan_noc
module Core = Nocplan_core
module Backend = Core.Backend
module Schedule = Core.Schedule
module Scheduler = Core.Scheduler
module System = Core.System
module Trace = Nocplan_obs.Trace
module Corpus = Nocplan_corpus.Corpus

let qcheck = Util.qcheck

(* A config over the whole system: every processor reused, the power
   limit (when any) resolved from a percentage the way the CLI and the
   service do. *)
let config_for system pct =
  let power_limit =
    Option.map (fun pct -> System.power_limit_of_pct system ~pct) pct
  in
  let reuse = List.length system.System.processors in
  Scheduler.config ~power_limit ~reuse ()

let validate system (config : Scheduler.config) s =
  Schedule.validate system ~application:config.application
    ~power_limit:config.power_limit ~reuse:config.reuse s

let gen = QCheck2.Gen.pair Generators.system_gen Generators.power_pct_gen

(* --- bin packing --------------------------------------------------- *)

let test_binpack_invariants =
  qcheck ~count:60 "binpack schedules satisfy the naive invariants" gen
    (fun (system, pct) ->
      let config = config_for system pct in
      match Backend.solve Backend.binpack system config with
      | exception Scheduler.Unschedulable _ ->
          (* Shelf packing is strictly more rigid than the event-driven
             scheduler; giving up on a tight instance is allowed,
             producing an unsafe schedule is not. *)
          true
      | s -> (
          (match
             Util.schedule_invariant_errors ~power_limit:config.power_limit
               system s
           with
          | [] -> ()
          | errs ->
              QCheck2.Test.fail_reportf "binpack invariants:@.- %s"
                (String.concat "\n- " errs));
          match validate system config s with
          | Ok () -> true
          | Error violations ->
              QCheck2.Test.fail_reportf "binpack validator:@.%a"
                Fmt.(list ~sep:cut Schedule.pp_violation)
                violations))

(* The three paper systems at full reuse: race never returns a worse
   plan than greedy alone, and every binpack plan passes the naive
   invariants and the independent validator. *)
let test_paper_systems () =
  List.iter
    (fun (name, system) ->
      let config = config_for system None in
      let greedy = Backend.solve Backend.greedy system config in
      let binpack = Backend.solve Backend.binpack system config in
      Util.assert_schedule_invariants system binpack;
      (match validate system config binpack with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "binpack %s fails the validator" name);
      let race = (Backend.race system config).Backend.schedule in
      if race.Schedule.makespan > greedy.Schedule.makespan then
        Alcotest.failf "race %s: %d worse than greedy %d" name
          race.Schedule.makespan greedy.Schedule.makespan)
    [
      ("d695_leon", Core.Experiments.d695_leon ());
      ("p22810_leon", Core.Experiments.p22810_leon ());
      ("p93791_leon", Core.Experiments.p93791_leon ());
    ]

(* --- greedy vs binpack differential -------------------------------- *)

let test_differential =
  qcheck ~count:60 "greedy and binpack both validate when they solve" gen
    (fun (system, pct) ->
      let config = config_for system pct in
      let attempt b =
        match Backend.solve b system config with
        | s -> Some s
        | exception Scheduler.Unschedulable _ -> None
      in
      let check name = function
        | None -> ()
        | Some s -> (
            match validate system config s with
            | Ok () -> ()
            | Error _ ->
                QCheck2.Test.fail_reportf "%s schedule fails the validator"
                  name)
      in
      check "greedy" (attempt Backend.greedy);
      check "binpack" (attempt Backend.binpack);
      true)

(* --- race ---------------------------------------------------------- *)

let test_race_never_worse =
  qcheck ~count:40 "race is never worse than greedy alone" gen
    (fun (system, pct) ->
      let config = config_for system pct in
      match Backend.solve Backend.greedy system config with
      | exception Scheduler.Unschedulable _ -> true
      | greedy ->
          let outcome = Backend.race system config in
          if
            outcome.Backend.schedule.Schedule.makespan
            > greedy.Schedule.makespan
          then
            QCheck2.Test.fail_reportf "race %d worse than greedy %d (winner %s)"
              outcome.Backend.schedule.Schedule.makespan
              greedy.Schedule.makespan outcome.Backend.winner
          else true)

let test_race_outcome_shape () =
  let system = Util.small_system () in
  let config = config_for system None in
  let outcome = Backend.race ~clock:Unix.gettimeofday system config in
  Alcotest.(check int)
    "one attempt per builtin backend"
    (List.length Backend.builtins)
    (List.length outcome.Backend.attempts);
  Alcotest.(check bool)
    "winner is a builtin" true
    (List.exists
       (fun (b : Backend.t) -> b.Backend.name = outcome.Backend.winner)
       Backend.builtins);
  List.iter
    (fun (a : Backend.attempt) ->
      Alcotest.(check bool)
        (a.Backend.backend ^ " latency is non-negative")
        true
        (a.Backend.latency_s >= 0.0))
    outcome.Backend.attempts;
  (* The winner's attempt must be a valid success. *)
  let w =
    List.find
      (fun (a : Backend.attempt) -> a.Backend.backend = outcome.Backend.winner)
      outcome.Backend.attempts
  in
  Alcotest.(check bool) "winner attempt valid" true w.Backend.valid

let test_race_single_backend () =
  let system = Util.small_system () in
  let config = config_for system None in
  let outcome = Backend.race ~backends:[ Backend.binpack ] system config in
  Alcotest.(check string) "winner" "binpack" outcome.Backend.winner;
  let solo = Backend.solve Backend.binpack system config in
  Alcotest.(check int)
    "race over one backend is that backend" solo.Schedule.makespan
    outcome.Backend.schedule.Schedule.makespan

(* A partial replan is checked against its own frontier like a full
   plan: a backend that plans nothing for the one module left cannot
   win with makespan 0. *)
let test_race_checks_partial_configs () =
  let system = Util.small_system () in
  let config =
    Scheduler.config ~start_time:1_000 ~modules:[ 2 ]
      ~reuse:(List.length system.System.processors) ()
  in
  let bogus =
    {
      Backend.name = "bogus";
      solve = (fun ?access:_ _ _ -> Schedule.of_entries []);
    }
  in
  let outcome =
    Backend.race ~backends:[ Backend.greedy; bogus ] system config
  in
  Alcotest.(check string) "winner" "greedy" outcome.Backend.winner;
  let valid name =
    (List.find
       (fun (a : Backend.attempt) -> a.Backend.backend = name)
       outcome.Backend.attempts)
      .Backend.valid
  in
  Alcotest.(check bool) "greedy valid" true (valid "greedy");
  Alcotest.(check bool) "bogus invalid" false (valid "bogus")

(* A race given no table builds exactly one and shares it between the
   racers; a race given one builds none. *)
let test_race_shares_one_table () =
  let system = Util.small_system () in
  let config = config_for system None in
  let table_spans f =
    let c = Trace.collector ~capacity:4096 () in
    Trace.install c;
    Fun.protect ~finally:Trace.uninstall (fun () -> ignore (f ()));
    Alcotest.(check int) "ring kept every event" 0 (Trace.dropped c);
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.Trace.name = "access.table" && e.Trace.phase = Trace.Begin)
         (Trace.events c))
  in
  Alcotest.(check int)
    "no table given: one build" 1
    (table_spans (fun () -> Backend.race system config));
  let access = Core.Test_access.table system in
  Alcotest.(check int)
    "table given: no build" 0
    (table_spans (fun () -> Backend.race ~access system config))

(* Racing changes nothing but the cost: over corpus items, the race's
   winner, makespan and per-attempt verdicts are the min rule applied
   to each builtin solved and validated on its own. *)
let test_race_matches_solo_solves () =
  List.iter
    (fun (item : Corpus.item) ->
      let system = item.Corpus.system in
      let config = Corpus.config item in
      let solo (b : Backend.t) =
        match Backend.solve b system config with
        | exception (Scheduler.Unschedulable _ | Invalid_argument _) ->
            (b.Backend.name, None)
        | s ->
            let valid =
              Schedule.validate ~start_time:config.start_time
                ?modules:config.modules ~pretested:config.pretested
                ~link_ready:config.link_ready system
                ~application:config.application
                ~power_limit:config.power_limit ~reuse:config.reuse s
              = Ok ()
            in
            (b.Backend.name, if valid then Some s.Schedule.makespan else None)
      in
      let solos = List.map solo Backend.builtins in
      let expected =
        List.fold_left
          (fun acc (name, m) ->
            match (acc, m) with
            | None, Some m -> Some (name, m)
            | Some (_, best), Some m when m < best -> Some (name, m)
            | _ -> acc)
          None solos
      in
      let what = Fmt.str "item %d" item.Corpus.index in
      match (Backend.race system config, expected) with
      | exception Scheduler.Unschedulable _ ->
          Alcotest.(check bool) (what ^ ": race fails iff no solo validates")
            true (expected = None)
      | _, None -> Alcotest.failf "%s: race won where no solo validates" what
      | outcome, Some (winner, makespan) ->
          Alcotest.(check string) (what ^ ": winner") winner
            outcome.Backend.winner;
          Alcotest.(check int) (what ^ ": makespan") makespan
            outcome.Backend.schedule.Schedule.makespan;
          Alcotest.(check (list (pair string bool)))
            (what ^ ": attempt verdicts")
            (List.map (fun (name, m) -> (name, m <> None)) solos)
            (List.map
               (fun (a : Backend.attempt) -> (a.Backend.backend, a.Backend.valid))
               outcome.Backend.attempts))
    (Corpus.generate ~seed:7L ~count:50)

(* --- lookup -------------------------------------------------------- *)

let test_lookup () =
  Alcotest.(check (list string))
    "builtin names, greedy first (race tie-break order)"
    [ "greedy"; "binpack" ]
    (List.map (fun (b : Backend.t) -> b.Backend.name) Backend.builtins);
  let found name =
    Option.map (fun (b : Backend.t) -> b.Backend.name) (Backend.find name)
  in
  Alcotest.(check (option string))
    "find greedy" (Some "greedy") (found "greedy");
  Alcotest.(check (option string))
    "find binpack" (Some "binpack") (found "binpack");
  (* "race" is a serve/CLI mode over the builtins, not a backend. *)
  Alcotest.(check (option string)) "find race" None (found "race");
  Alcotest.(check (option string)) "find unknown" None (found "simplex")

let suite =
  [
    test_binpack_invariants;
    test_differential;
    test_race_never_worse;
    Alcotest.test_case "paper systems: race <= greedy, binpack validates"
      `Quick test_paper_systems;
    Alcotest.test_case "race outcome shape" `Quick test_race_outcome_shape;
    Alcotest.test_case "race single backend" `Quick test_race_single_backend;
    Alcotest.test_case "race checks partial configs" `Quick
      test_race_checks_partial_configs;
    Alcotest.test_case "race builds one shared table" `Quick
      test_race_shares_one_table;
    Alcotest.test_case "race matches solo solves on corpus seed 7" `Quick
      test_race_matches_solo_solves;
    Alcotest.test_case "lookup" `Quick test_lookup;
  ]
