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

let test_binpack_d695 () =
  (* The big two benchmarks are covered by the bench gate (race must
     beat-or-match greedy and binpack must validate on all three);
     here the small one keeps runtest fast. *)
  let system = Core.Experiments.d695_leon () in
  let config = config_for system None in
  let s = Backend.solve Backend.binpack system config in
  Util.assert_schedule_invariants system s;
  (match validate system config s with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "binpack d695_leon fails the validator");
  Alcotest.(check bool) "positive makespan" true (s.Schedule.makespan > 0)

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
      capabilities = { Backend.honors_order = false; honors_policy = false };
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

(* --- registry ------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check (list string))
    "builtin names, greedy first (race tie-break order)"
    [ "greedy"; "binpack" ] (Backend.names ());
  Alcotest.(check bool) "find greedy" true (Backend.find "greedy" <> None);
  Alcotest.(check bool) "find binpack" true (Backend.find "binpack" <> None);
  Alcotest.(check bool) "find unknown" true (Backend.find "simplex" = None);
  Alcotest.(check bool)
    "greedy honors order and policy" true
    Backend.(
      greedy.capabilities.honors_order && greedy.capabilities.honors_policy);
  Alcotest.(check bool)
    "binpack honors neither" false
    Backend.(
      binpack.capabilities.honors_order || binpack.capabilities.honors_policy);
  (match
     Backend.register
       { Backend.greedy with Backend.name = "greedy" }
   with
  | () -> Alcotest.fail "duplicate registration accepted"
  | exception Invalid_argument _ -> ());
  (* A fresh name registers and resolves; race's default racer list is
     the builtins, so the global registry stays a lookup table. *)
  let dummy = { Backend.greedy with Backend.name = "test-dummy" } in
  Backend.register dummy;
  Alcotest.(check bool) "registered" true (Backend.find "test-dummy" <> None)

let suite =
  [
    test_binpack_invariants;
    test_differential;
    test_race_never_worse;
    Alcotest.test_case "binpack d695_leon" `Quick test_binpack_d695;
    Alcotest.test_case "race outcome shape" `Quick test_race_outcome_shape;
    Alcotest.test_case "race single backend" `Quick test_race_single_backend;
    Alcotest.test_case "race checks partial configs" `Quick
      test_race_checks_partial_configs;
    Alcotest.test_case "registry" `Quick test_registry;
  ]
