(* Mutation testing of the plan validator: seeded corruptions of valid
   plans must all be rejected.  A corpus of valid plans only shows that
   the validator says yes; this shows it can say no.  Three kinds of
   plan — a self-test-gated greedy plan, a preemptive plan and a fault
   recovery — are drawn on a slice of the synthetic corpus plus
   d695_leon, and every corruption that applies to a plan must be
   reported with the violation it causes. *)

module Core = Nocplan_core
module Fault = Nocplan_fault
module Corpus = Nocplan_corpus.Corpus
module Schedule = Core.Schedule
module Scheduler = Core.Scheduler
module Preemptive = Core.Preemptive
module System = Core.System
module Resource = Core.Resource
module Recover = Fault.Recover
module Detour = Fault.Detour
module Selftest = Fault.Selftest
module Topology = Nocplan_noc.Topology

let application = Nocplan_proc.Processor.Bist

type interval = Schedule.entry * int option

(* What a validator is handed: the plan's intervals, the reuse count,
   and for a replan the tests kept from before it and the modules
   given up. *)
type case = {
  reuse : int;
  kept : Schedule.entry list;  (** tests finished before [start_time] *)
  abandoned : int list;
  intervals : interval list;
}

(* A valid plan, the frontier it was planned under, and the validator
   that checks it — re-run with a corrupted case. *)
type plan = {
  kind : string;
  system : System.t;
  valid : case;
  start_time : int;
  link_ready : (Nocplan_noc.Link.t * int) list;
  validate : case -> (unit, Schedule.violation list) result;
}

let full entries = List.map (fun e -> (e, None)) entries
let entries intervals = List.map fst intervals

let greedy_plan system ~power_limit ~reuse =
  let config =
    Selftest.gate (Selftest.params ()) system.System.topology
      (Scheduler.config ~power_limit ~reuse ())
  in
  let s = Scheduler.run system config in
  {
    kind = "gated greedy";
    system;
    valid =
      { reuse; kept = []; abandoned = []; intervals = full s.Schedule.entries };
    start_time = 0;
    link_ready = config.Scheduler.link_ready;
    validate =
      (fun c ->
        Schedule.validate system ~application ~power_limit ~reuse:c.reuse
          ~link_ready:config.Scheduler.link_ready
          (Schedule.of_entries (entries c.intervals)));
  }

let preemptive_plan system ~power_limit ~reuse =
  let plan =
    Preemptive.schedule system
      (Preemptive.config ~power_limit ~max_sessions:2 ~reuse ())
  in
  let to_interval (s : Preemptive.session) =
    ( {
        Schedule.module_id = s.Preemptive.module_id;
        source = s.Preemptive.source;
        sink = s.Preemptive.sink;
        start = s.Preemptive.start;
        finish = s.Preemptive.finish;
        power = s.Preemptive.power;
        links = s.Preemptive.links;
      },
      Some s.Preemptive.patterns )
  in
  let to_session ((e : Schedule.entry), patterns) =
    {
      Preemptive.module_id = e.Schedule.module_id;
      source = e.Schedule.source;
      sink = e.Schedule.sink;
      start = e.Schedule.start;
      finish = e.Schedule.finish;
      patterns = Option.get patterns;
      power = e.Schedule.power;
      links = e.Schedule.links;
    }
  in
  {
    kind = "preemptive";
    system;
    valid =
      {
        reuse;
        kept = [];
        abandoned = [];
        intervals = List.map to_interval plan.Preemptive.sessions;
      };
    start_time = 0;
    link_ready = [];
    validate =
      (fun c ->
        Preemptive.validate system ~application ~power_limit ~reuse:c.reuse
          (Preemptive.plan_of_sessions (List.map to_session c.intervals)));
  }

(* One router dies halfway through the greedy plan. *)
let recover_plan rng system ~power_limit ~reuse =
  let baseline =
    Scheduler.run system (Scheduler.config ~power_limit ~reuse ())
  in
  let topology = system.System.topology in
  let router =
    Topology.of_index topology
      (Random.State.int rng (Topology.router_count topology))
  in
  let faults = Detour.fault_set ~routers:[ router ] () in
  let at = baseline.Schedule.makespan / 2 in
  let o = Recover.after ~power_limit ~reuse ~at ~faults system baseline in
  {
    kind = "recovery";
    system;
    valid =
      {
        reuse;
        kept = o.Recover.kept;
        abandoned = o.Recover.abandoned;
        intervals = full o.Recover.replanned;
      };
    start_time = at;
    link_ready = [];
    validate =
      (fun c ->
        Recover.validate ~power_limit ~reuse:c.reuse ~at ~faults system
          {
            o with
            Recover.kept = c.kept;
            abandoned = c.abandoned;
            replanned = entries c.intervals;
          });
  }

(* --- corruptions ---------------------------------------------------- *)

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* Replace [target] (found by physical identity) with [f target]. *)
let replace target f ivs =
  List.map (fun iv -> if iv == target then f iv else iv) ivs

let shift_to start ((e : Schedule.entry), p) =
  ( {
      e with
      Schedule.start;
      finish = start + (e.Schedule.finish - e.Schedule.start);
    },
    p )

let processors_used (e : Schedule.entry) =
  List.filter_map
    (function Resource.Processor id -> Some id | _ -> None)
    [ e.Schedule.source; e.Schedule.sink ]

(* When a processor's endpoints become usable under the plan. *)
let ready_time plan id =
  List.fold_left
    (fun acc ((e : Schedule.entry), _) ->
      if e.Schedule.module_id = id then max acc e.Schedule.finish else acc)
    plan.start_time plan.valid.intervals

type corruption = {
  name : string;
  apply : Random.State.t -> plan -> case option;
      (** the case to validate, or [None] when the corruption does not
          apply to this plan *)
  expect : Schedule.violation -> bool;
}

let on_intervals f rng plan =
  Option.map (fun intervals -> { plan.valid with intervals }) (f rng plan)

let on_kept f rng plan =
  Option.map (f plan.valid) (pick rng plan.valid.kept)

let corruptions =
  [
    {
      name = "start before the frontier";
      apply =
        on_intervals (fun rng plan ->
            if plan.start_time = 0 then None
            else
              Option.map
                (fun iv ->
                  replace iv (shift_to (plan.start_time - 1)) plan.valid.intervals)
                (pick rng plan.valid.intervals));
      expect = (function Schedule.Before_start_time _ -> true | _ -> false);
    };
    {
      name = "start before a gate";
      apply =
        on_intervals (fun rng plan ->
            let gate ((e : Schedule.entry), _) =
              List.fold_left
                (fun acc l ->
                  match List.assoc_opt l plan.link_ready with
                  | Some t -> max acc t
                  | None -> acc)
                0 e.Schedule.links
            in
            Option.map
              (fun iv ->
                replace iv
                  (shift_to (Random.State.int rng (gate iv)))
                  plan.valid.intervals)
              (pick rng (List.filter (fun iv -> gate iv > 0) plan.valid.intervals)));
      expect = (function Schedule.Link_not_ready _ -> true | _ -> false);
    };
    {
      name = "swap an endpoint";
      apply =
        on_intervals (fun rng plan ->
            let external_end ((e : Schedule.entry), _) =
              List.length (processors_used e) < 2
            in
            Option.map
              (fun iv ->
                replace iv
                  (fun ((e : Schedule.entry), p) ->
                    ( {
                        e with
                        Schedule.source = e.Schedule.sink;
                        sink = e.Schedule.source;
                      },
                      p ))
                  plan.valid.intervals)
              (pick rng (List.filter external_end plan.valid.intervals)));
      expect = (function Schedule.Invalid_pair _ -> true | _ -> false);
    };
    {
      name = "power x10";
      apply =
        on_intervals (fun rng plan ->
            Option.map
              (fun iv ->
                replace iv
                  (fun ((e : Schedule.entry), p) ->
                    ({ e with Schedule.power = e.Schedule.power *. 10. }, p))
                  plan.valid.intervals)
              (pick rng plan.valid.intervals));
      expect = (function Schedule.Wrong_cost _ -> true | _ -> false);
    };
    {
      name = "drop a module";
      apply =
        on_intervals (fun rng plan ->
            Option.map
              (fun ((victim : Schedule.entry), _) ->
                List.filter
                  (fun ((e : Schedule.entry), _) ->
                    e.Schedule.module_id <> victim.Schedule.module_id)
                  plan.valid.intervals)
              (pick rng plan.valid.intervals));
      expect = (function Schedule.Module_not_tested _ -> true | _ -> false);
    };
    {
      name = "duplicate a module";
      apply =
        on_intervals (fun rng plan ->
            Option.map
              (fun iv -> iv :: plan.valid.intervals)
              (pick rng plan.valid.intervals));
      expect = (function Schedule.Module_tested_twice _ -> true | _ -> false);
    };
    {
      name = "re-test a kept module";
      apply =
        on_intervals (fun rng plan ->
            Option.map
              (fun e -> shift_to plan.start_time (e, None) :: plan.valid.intervals)
              (pick rng plan.valid.kept));
      expect = (function Schedule.Module_outside_plan _ -> true | _ -> false);
    };
    {
      name = "abandon a kept module";
      apply =
        on_kept (fun c (e : Schedule.entry) ->
            { c with abandoned = e.Schedule.module_id :: c.abandoned });
      expect = (function Schedule.Module_outside_plan _ -> true | _ -> false);
    };
    {
      name = "keep a module twice";
      apply = on_kept (fun c e -> { c with kept = e :: c.kept });
      expect = (function Schedule.Module_tested_twice _ -> true | _ -> false);
    };
    {
      name = "keep a test still running at the frontier";
      apply =
        (fun rng plan ->
          on_kept
            (fun c (e : Schedule.entry) ->
              let late =
                fst
                  (shift_to
                     (plan.start_time + 1 - (e.Schedule.finish - e.Schedule.start))
                     (e, None))
              in
              {
                c with
                kept = List.map (fun k -> if k == e then late else k) c.kept;
              })
            rng plan);
      expect =
        (function Schedule.Unfinished_at_start_time _ -> true | _ -> false);
    };
    {
      name = "clear links";
      apply =
        on_intervals (fun rng plan ->
            Option.map
              (fun iv ->
                replace iv
                  (fun ((e : Schedule.entry), p) ->
                    ({ e with Schedule.links = [] }, p))
                  plan.valid.intervals)
              (pick rng
                 (List.filter
                    (fun ((e : Schedule.entry), _) -> e.Schedule.links <> [])
                    plan.valid.intervals)));
      expect = (function Schedule.Wrong_links _ -> true | _ -> false);
    };
    {
      name = "processor beyond reuse";
      apply =
        (fun rng plan ->
          let rank id =
            let rec go i = function
              | [] -> assert false
              | (p : System.placed_processor) :: rest ->
                  if p.System.module_id = id then i else go (i + 1) rest
            in
            go 0 plan.system.System.processors
          in
          Option.map
            (fun id -> { plan.valid with reuse = rank id })
            (pick rng
               (List.concat_map
                  (fun (e, _) -> processors_used e)
                  plan.valid.intervals)));
      expect =
        (function Schedule.Processor_not_reusable _ -> true | _ -> false);
    };
    {
      name = "processor used before its last session";
      apply =
        on_intervals (fun rng plan ->
            Option.map
              (fun (((e : Schedule.entry), _) as iv) ->
                let id = Option.get (pick rng (processors_used e)) in
                replace iv (shift_to (ready_time plan id - 1)) plan.valid.intervals)
              (pick rng
                 (List.filter
                    (fun ((e : Schedule.entry), _) -> processors_used e <> [])
                    plan.valid.intervals)));
      expect =
        (function Schedule.Processor_used_before_tested _ -> true | _ -> false);
    };
  ]

(* --- the slice ------------------------------------------------------ *)

let systems =
  lazy
    (("d695_leon", Core.Experiments.d695_leon (), None)
    :: List.map
         (fun (item : Corpus.item) ->
           (item.Corpus.name, item.Corpus.system, item.Corpus.power_limit))
         (Corpus.generate ~seed:7L ~count:50))

let plans_of (_, system, power_limit) =
  let reuse = List.length system.System.processors in
  let rng = Random.State.make [| Hashtbl.hash (System.fingerprint system) |] in
  [
    greedy_plan system ~power_limit ~reuse;
    preemptive_plan system ~power_limit ~reuse;
    recover_plan rng system ~power_limit ~reuse;
  ]

let plans = lazy (Array.of_list (List.map plans_of (Lazy.force systems)))

let test_plans_valid () =
  Array.iteri
    (fun i ps ->
      List.iter
        (fun plan ->
          match plan.validate plan.valid with
          | Ok () -> ()
          | Error vs ->
              let name, _, _ = List.nth (Lazy.force systems) i in
              Alcotest.failf "%s %s plan invalid: %a" name plan.kind
                Fmt.(list ~sep:comma Schedule.pp_violation)
                vs)
        ps)
    (Lazy.force plans)

(* Every applicable corruption of every plan of the drawn system is
   rejected, and the rejection names what was corrupted. *)
let prop_corruptions_killed =
  Util.qcheck ~count:150 "every seeded corruption is rejected"
    QCheck2.Gen.(pair (int_range 0 50) int)
    (fun (i, seed) ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun plan ->
          List.for_all
            (fun c ->
              match c.apply rng plan with
              | None -> true
              | Some case -> (
                  match plan.validate case with
                  | Error vs when List.exists c.expect vs -> true
                  | Ok () ->
                      QCheck2.Test.fail_reportf "%s: %s survived" plan.kind
                        c.name
                  | Error vs ->
                      QCheck2.Test.fail_reportf
                        "%s: %s rejected for another reason: %a" plan.kind
                        c.name
                        Fmt.(list ~sep:comma Schedule.pp_violation)
                        vs))
            corruptions)
        (Lazy.force plans).(i))

(* Each corruption gets exercised somewhere on the slice, so the kill
   rate is not vacuous. *)
let test_every_corruption_applies () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun c ->
      let applied =
        Array.exists
          (List.exists (fun plan -> Option.is_some (c.apply rng plan)))
          (Lazy.force plans)
      in
      Alcotest.(check bool) (c.name ^ " applies") true applied)
    corruptions

let suite =
  [
    Alcotest.test_case "uncorrupted plans validate" `Quick test_plans_valid;
    Alcotest.test_case "every corruption applies somewhere" `Quick
      test_every_corruption_applies;
    prop_corruptions_killed;
  ]
