(* Seeded fault injection and fault-aware recovery: determinism,
   nested fault sets, rate-0 bit-identity, and independent validation
   of every replanned schedule. *)

open Util
module Noc = Nocplan_noc
module Core = Nocplan_core
module Fault = Nocplan_fault
module Injector = Fault.Injector
module Recover = Fault.Recover
module Detour = Fault.Detour
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module System = Core.System
module Topology = Noc.Topology
module Coord = Noc.Coord
module Link = Noc.Link

let c x y = Coord.make ~x ~y

let target_key t = Fmt.str "%a" Injector.pp_target t

let test_draw_deterministic_and_nested () =
  let topology = Topology.make ~width:4 ~height:4 in
  let draw rate = Injector.draw ~seed:5 ~rate ~horizon:100 topology in
  Alcotest.(check bool) "same seed, same events" true (draw 0.1 = draw 0.1);
  Alcotest.(check int) "rate 0 draws nothing" 0 (List.length (draw 0.0));
  Alcotest.(check int) "rate 1 draws every candidate"
    (List.length (Injector.candidates topology))
    (List.length (draw 1.0));
  (* Nested: the low-rate fault set is a subset of the high-rate one,
     with identical times. *)
  let low = draw 0.1 and high = draw 0.3 in
  Alcotest.(check bool) "low-rate events nest into high-rate" true
    (List.for_all
       (fun (e : Injector.event) ->
         List.exists
           (fun (f : Injector.event) ->
             f.Injector.at = e.Injector.at
             && target_key f.Injector.target = target_key e.Injector.target)
           high)
       low);
  (* And events are time-ordered. *)
  let rec sorted = function
    | (a : Injector.event) :: (b :: _ as rest) ->
        a.Injector.at <= b.Injector.at && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "events sorted by time" true (sorted high)

let test_rate_zero_bit_identical () =
  let sys = small_system () in
  let r = Injector.run ~reuse:1 ~events:[] sys in
  (* No events: the final schedule IS the baseline, physically. *)
  Alcotest.(check bool) "schedule == baseline" true
    (r.Injector.schedule == r.Injector.baseline);
  let plain = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  Alcotest.(check int) "baseline = plain scheduler" plain.Schedule.makespan
    r.Injector.makespan;
  Alcotest.(check (float 1e-9)) "availability 1" 1.0 r.Injector.availability;
  Alcotest.(check int) "no replans" 0 r.Injector.replans

let assert_recover_valid sys ~reuse ~at ~faults outcome =
  match Recover.validate ~power_limit:None ~reuse ~at ~faults sys outcome with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid recovery: %a"
        (Fmt.list ~sep:Fmt.comma Schedule.pp_violation)
        vs

(* The surviving schedule covers exactly the non-abandoned modules and
   keeps every pairwise safety invariant. *)
let assert_run_invariants sys (r : Injector.run) =
  let wanted =
    List.filter
      (fun id -> not (List.mem id r.Injector.abandoned))
      (System.module_ids sys)
  in
  assert_schedule_invariants ~modules:wanted sys r.Injector.schedule;
  List.iter
    (fun (s : Injector.step) ->
      assert_recover_valid sys ~reuse:1 ~at:s.Injector.at
        ~faults:s.Injector.faults s.Injector.outcome)
    r.Injector.steps

let test_fixed_campaign_validates () =
  let sys = small_system () in
  let baseline = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  let m = baseline.Schedule.makespan in
  let events =
    [
      { Injector.at = m / 4; target = Injector.Router (c 1 1) };
      {
        Injector.at = m / 2;
        target = Injector.Channel (Link.channel (c 1 0) (c 2 0));
      };
    ]
  in
  let r = Injector.run ~reuse:1 ~events sys in
  Alcotest.(check int) "two replans" 2 r.Injector.replans;
  assert_run_invariants sys r;
  (* The cumulative fault set is the union of the injected targets. *)
  Alcotest.(check int) "cumulative faults" 2
    (Detour.fault_count r.Injector.faults)

let prop_seeded_campaigns_validate =
  qcheck ~count:15 "every seeded campaign survives independent validation"
    QCheck2.Gen.(pair (int_range 0 999) (int_range 0 25))
    (fun (seed, rate_pct) ->
      let sys = small_system () in
      let baseline = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
      let events =
        Injector.draw ~seed
          ~rate:(float_of_int rate_pct /. 100.0)
          ~horizon:(max 1 baseline.Schedule.makespan)
          sys.System.topology
      in
      let r = Injector.run ~reuse:1 ~events sys in
      assert_run_invariants sys r;
      r.Injector.availability >= 0.0
      && r.Injector.availability <= 1.0
      && List.length r.Injector.steps <= List.length events)

let test_sweep_monotone_and_deterministic () =
  let sys = small_system () in
  let rates = [ 0.0; 0.1; 0.2; 0.4 ] in
  let sweep () = Injector.sweep ~reuse:1 ~seed:11 ~rates sys in
  let points = List.map fst (sweep ()) in
  Alcotest.(check int) "one point per rate" (List.length rates)
    (List.length points);
  let head = List.hd points in
  Alcotest.(check (float 1e-9)) "rate 0 availability" 1.0
    head.Injector.availability;
  let baseline = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  Alcotest.(check int) "rate 0 makespan = fault-free" baseline.Schedule.makespan
    head.Injector.makespan;
  let rec monotone = function
    | (a : Injector.point) :: (b :: _ as rest) ->
        b.Injector.availability <= a.Injector.availability && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "availability monotone in rate" true (monotone points);
  Alcotest.(check bool) "sweep deterministic" true
    (List.map fst (sweep ()) = points)

let test_recover_after_session_end_keeps_everything () =
  let sys = small_system () in
  let sched = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  let faults =
    Detour.fault_set ~links:[ Link.channel (c 1 0) (c 2 0) ] ()
  in
  let o =
    Recover.after ~reuse:1 ~at:sched.Schedule.makespan ~faults sys sched
  in
  Alcotest.(check int) "everything kept"
    (List.length sched.Schedule.entries)
    (List.length o.Recover.kept);
  Alcotest.(check int) "nothing voided" 0 (List.length o.Recover.voided);
  Alcotest.(check int) "nothing replanned" 0 (List.length o.Recover.replanned);
  Alcotest.(check int) "makespan unchanged" sched.Schedule.makespan
    o.Recover.makespan;
  Alcotest.(check (float 1e-9)) "availability 1" 1.0 o.Recover.availability;
  assert_recover_valid sys ~reuse:1 ~at:sched.Schedule.makespan ~faults o

let test_recover_rejects_negative_time () =
  let sys = small_system () in
  let sched = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  Alcotest.check_raises "negative at"
    (Invalid_argument "Recover.after: negative event time") (fun () ->
      ignore
        (Recover.after ~reuse:1 ~at:(-1) ~faults:Detour.no_faults sys sched))

let test_validator_rejects_doctored_outcome () =
  let sys = small_system () in
  let sched = Scheduler.run sys (Scheduler.config ~reuse:1 ()) in
  let at = sched.Schedule.makespan / 2 in
  let faults = Detour.fault_set () in
  let o = Recover.after ~reuse:1 ~at ~faults sys sched in
  match o.Recover.replanned with
  | [] -> Alcotest.fail "expected replanned entries"
  | e :: rest ->
      (* Dropping one entry: a coverage hole. *)
      (match
         Recover.validate ~power_limit:None ~reuse:1 ~at ~faults sys
           { o with Recover.replanned = rest }
       with
      | Ok () -> Alcotest.fail "missing module not caught"
      | Error vs ->
          Alcotest.(check bool) "Module_not_tested reported" true
            (List.exists
               (function Schedule.Module_not_tested _ -> true | _ -> false)
               vs));
      (* Shifting one before the event: a timing violation. *)
      let early =
        {
          e with
          Schedule.start = 0;
          Schedule.finish = e.Schedule.finish - e.Schedule.start;
        }
      in
      (match
         Recover.validate ~power_limit:None ~reuse:1 ~at ~faults sys
           { o with Recover.replanned = early :: rest }
       with
      | Ok () -> Alcotest.fail "early entry not caught"
      | Error vs ->
          Alcotest.(check bool) "Before_start_time reported" true
            (List.exists
               (function Schedule.Before_start_time _ -> true | _ -> false)
               vs));
      (* Claiming an abandoned module while still testing it. *)
      (match
         Recover.validate ~power_limit:None ~reuse:1 ~at ~faults sys
           { o with Recover.abandoned = [ e.Schedule.module_id ] }
       with
      | Ok () -> Alcotest.fail "abandoned-but-tested not caught"
      | Error vs ->
          Alcotest.(check bool) "Module_outside_plan reported" true
            (List.exists
               (function Schedule.Module_outside_plan _ -> true | _ -> false)
               vs))

let suite =
  [
    Alcotest.test_case "draw: deterministic, nested, sorted" `Quick
      test_draw_deterministic_and_nested;
    Alcotest.test_case "rate 0 is bit-identical" `Quick
      test_rate_zero_bit_identical;
    Alcotest.test_case "fixed campaign validates" `Quick
      test_fixed_campaign_validates;
    prop_seeded_campaigns_validate;
    Alcotest.test_case "sweep: monotone and deterministic" `Quick
      test_sweep_monotone_and_deterministic;
    Alcotest.test_case "event after session end keeps everything" `Quick
      test_recover_after_session_end_keeps_everything;
    Alcotest.test_case "negative event time rejected" `Quick
      test_recover_rejects_negative_time;
    Alcotest.test_case "validator rejects doctored outcomes" `Quick
      test_validator_rejects_doctored_outcome;
  ]
