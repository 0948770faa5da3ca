module Itc02 = Nocplan_itc02
module Proc = Nocplan_proc
module Core = Nocplan_core
module Fault = Nocplan_fault

type outcome = Pass | Fail of string | Skip of string

type suite = {
  name : string;
  doc : string;
  check : Corpus.item -> outcome;
}

let truncate_list pp l =
  let shown = List.filteri (fun i _ -> i < 3) l in
  Fmt.str "%a%s" (Fmt.list ~sep:(Fmt.any "; ") pp) shown
    (if List.length l > 3 then Fmt.str "; … (%d total)" (List.length l)
     else "")

(* -- schedule_invariants -------------------------------------------- *)

let schedule_invariants_check (item : Corpus.item) =
  let config = Corpus.config item in
  match Core.Scheduler.run item.Corpus.system config with
  | exception Core.Scheduler.Unschedulable msg ->
      Fail ("greedy found the item unschedulable: " ^ msg)
  | schedule -> (
      match
        Core.Schedule.validate item.Corpus.system
          ~application:config.Core.Scheduler.application
          ~power_limit:config.Core.Scheduler.power_limit
          ~reuse:config.Core.Scheduler.reuse schedule
      with
      | Error violations ->
          Fail
            ("validator: "
            ^ truncate_list Core.Schedule.pp_violation violations)
      | Ok () -> (
          match
            Invariants.schedule_invariant_errors
              ~power_limit:config.Core.Scheduler.power_limit
              item.Corpus.system schedule
          with
          | [] -> Pass
          | errors -> Fail ("invariants: " ^ truncate_list Fmt.string errors)))

(* -- backend_differential ------------------------------------------- *)

let backend_differential_check (item : Corpus.item) =
  let row =
    Core.Differential.race_row ~label:item.Corpus.name item.Corpus.system
      (Corpus.config item)
  in
  match row.Core.Differential.outcome with
  | Error msg -> Fail ("no backend produced a valid schedule: " ^ msg)
  | Ok outcome ->
      if not (Core.Differential.all_backends_valid row) then
        let bad =
          List.filter_map
            (fun (a : Core.Backend.attempt) ->
              match a.Core.Backend.outcome with
              | Ok _ when not a.Core.Backend.valid ->
                  Some a.Core.Backend.backend
              | Ok _ | Error _ -> None)
            outcome.Core.Backend.attempts
        in
        Fail
          ("backend(s) emitted an invalid schedule: "
          ^ String.concat ", " bad)
      else if not (Core.Differential.race_never_worse row) then
        Fail
          (Fmt.str "race (%s, makespan %d) is worse than greedy (%a)"
             outcome.Core.Backend.winner
             outcome.Core.Backend.schedule.Core.Schedule.makespan
             (Fmt.option Fmt.int)
             (Core.Differential.greedy_makespan row))
      else Pass

(* -- fault_monotonicity --------------------------------------------- *)

let fault_rates = [ 0.0; 0.1; 0.25 ]

(* The injected fault SETS of a sweep are nested (prefixes of one seeded
   permutation), so the injected COUNT is monotone by construction.
   Availability itself is not: an extra early fault forces a replan that
   can move a module ahead of a later shared fault which would have
   abandoned it at the lower rate, so availability may locally rise with
   the rate (observed on ~0.5% of a 1000-system corpus).  We therefore
   check only the sound properties here: the rate-0 point is the fault-free
   baseline, injected counts never fall, and every availability figure is
   consistent with its abandoned count. *)
let fault_monotonicity_check (item : Corpus.item) =
  let seed = item.Corpus.index + 1 in
  match
    Fault.Injector.sweep ~power_limit:item.Corpus.power_limit
      ~reuse:item.Corpus.reuse ~seed ~rates:fault_rates item.Corpus.system
  with
  | exception Core.Scheduler.Unschedulable msg ->
      Fail ("fault sweep unschedulable: " ^ msg)
  | points -> (
      let physical (p : Fault.Injector.point) =
        if p.Fault.Injector.availability < 0.0
           || p.Fault.Injector.availability > 1.0
        then
          Some
            (Fmt.str "availability %.3f@%g outside [0,1]"
               p.Fault.Injector.availability p.Fault.Injector.rate)
        else if
          p.Fault.Injector.abandoned_count = 0
          && p.Fault.Injector.availability < 1.0
        then
          Some
            (Fmt.str "nothing abandoned at rate %g yet availability %.3f"
               p.Fault.Injector.rate p.Fault.Injector.availability)
        else if
          p.Fault.Injector.abandoned_count > 0
          && p.Fault.Injector.availability >= 1.0
        then
          Some
            (Fmt.str "%d abandoned at rate %g yet availability %.3f"
               p.Fault.Injector.abandoned_count p.Fault.Injector.rate
               p.Fault.Injector.availability)
        else None
      in
      let rec monotone = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if b.Fault.Injector.injected < a.Fault.Injector.injected then
              Fail
                (Fmt.str "injected faults fell with the rate: %d@%g -> %d@%g"
                   a.Fault.Injector.injected a.Fault.Injector.rate
                   b.Fault.Injector.injected b.Fault.Injector.rate)
            else monotone rest
        | _ -> Pass
      in
      match List.filter_map (fun (p, _) -> physical p) points with
      | msg :: _ -> Fail msg
      | [] -> (
          match points with
          | (zero, _) :: _
            when zero.Fault.Injector.availability < 1.0
                 || zero.Fault.Injector.injected <> 0 ->
              Fail
                (Fmt.str "rate 0 is not fault-free: %d faults, availability %.3f"
                   zero.Fault.Injector.injected
                   zero.Fault.Injector.availability)
          | points -> monotone points))

(* -- preemptive_validity -------------------------------------------- *)

let preemptive_validity_check (item : Corpus.item) =
  let config =
    Core.Preemptive.config ~power_limit:item.Corpus.power_limit
      ~max_sessions:2 ~reuse:item.Corpus.reuse ()
  in
  match Core.Preemptive.schedule item.Corpus.system config with
  | exception Core.Scheduler.Unschedulable msg ->
      Fail ("preemptive planning unschedulable: " ^ msg)
  | plan -> (
      match
        Core.Preemptive.validate item.Corpus.system
          ~application:config.Core.Preemptive.application
          ~power_limit:config.Core.Preemptive.power_limit
          ~reuse:config.Core.Preemptive.reuse plan
      with
      | Ok () -> Pass
      | Error violations ->
          Fail
            ("preemptive validator: "
            ^ truncate_list Core.Schedule.pp_violation violations))

(* -- export_roundtrip ----------------------------------------------- *)

let export_roundtrip_check (item : Corpus.item) =
  match Itc02.Parser.parse (Itc02.Printer.to_string item.Corpus.soc) with
  | Error e ->
      Fail (Fmt.str "exported text does not parse: line %d: %s"
              e.Itc02.Parser.line e.Itc02.Parser.message)
  | Ok soc ->
      if Itc02.Soc.equal soc item.Corpus.soc then Pass
      else Fail "print/parse round-trip changed the SoC"

(* -- generation_determinism ----------------------------------------- *)

let generation_determinism_check (item : Corpus.item) =
  let again = Corpus.item ~seed:item.Corpus.seed ~index:item.Corpus.index in
  if String.equal (Corpus.fingerprint again) (Corpus.fingerprint item) then
    Pass
  else Fail "re-drawing the item from its seed changed the system"

(* -- registry -------------------------------------------------------- *)

let all =
  [
    {
      name = "schedule_invariants";
      doc =
        "greedy plans every item; production validator and naive \
         independent re-check both clean";
      check = schedule_invariants_check;
    };
    {
      name = "backend_differential";
      doc =
        "race the full backend registry: all attempts validator-clean, \
         race never worse than greedy";
      check = backend_differential_check;
    };
    {
      name = "fault_monotonicity";
      doc =
        "seeded fault sweep: fault-free at rate 0, injected counts \
         non-decreasing, availability consistent with abandonment";
      check = fault_monotonicity_check;
    };
    {
      name = "preemptive_validity";
      doc = "session-split plans pass the preemptive validator";
      check = preemptive_validity_check;
    };
    {
      name = "export_roundtrip";
      doc = "the generated SoC survives print/parse byte-exactly";
      check = export_roundtrip_check;
    };
    {
      name = "generation_determinism";
      doc = "re-drawing an item from its seed reproduces its fingerprint";
      check = generation_determinism_check;
    };
  ]

let names () = List.map (fun s -> s.name) all
let find name = List.find_opt (fun s -> s.name = name) all
