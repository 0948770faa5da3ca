(* Lookahead schedule digests for configurations the golden rows do not
   reach: link-health gates, fault-recovery replans (which plan from a
   nonzero start time over a module subset with pretested processors)
   and a chain of swapped orders run through one shared workspace.  Captured from the
   candidate-buffer selection (every pooled pair filled per attempt,
   visited in (estimated finish, source-major index) order); the
   duration-ordered walk that replaced it must reproduce them. *)

module Core = Nocplan_core
open Core
module Fault = Nocplan_fault
module Corpus = Nocplan_corpus.Corpus
module Topology = Nocplan_noc.Topology

let digest sched = Digest.to_hex (Digest.string (Fmt.str "%a" Schedule.pp sched))

(* MD5 over one line per outcome. *)
let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let run_or_mark f =
  match f () with
  | sched -> digest sched
  | exception Scheduler.Unschedulable _ -> "unschedulable"

(* Every reuse level, with and without the binding power limit, under
   both self-test policies. *)
let gated_digest system =
  let access = Test_access.table system in
  let params = Fault.Selftest.params () in
  let reuses = List.init (List.length system.System.processors + 1) Fun.id in
  digest_lines
    (List.concat_map
       (fun policy ->
         List.concat_map
           (fun pct ->
             let power_limit =
               Option.map (fun pct -> System.power_limit_of_pct system ~pct) pct
             in
             List.map
               (fun reuse ->
                 let config =
                   Fault.Selftest.gate ~policy params system.System.topology
                     (Scheduler.config ~policy:Scheduler.Lookahead ~power_limit
                        ~reuse ())
                 in
                 run_or_mark (fun () -> Scheduler.run ~access system config))
               reuses)
           [ None; Some 25.0 ])
       [ Fault.Selftest.Eager; Fault.Selftest.Interleaved ])

let test_gated () =
  List.iter
    (fun (name, system, md5) ->
      Alcotest.(check string) (name ^ " gated lookahead digest") md5
        (gated_digest (system ())))
    [
      ("d695_leon", Experiments.d695_leon, "23e579d7b750b0612254e07972e973ad");
      ("p93791_leon", Experiments.p93791_leon, "7ad34a899936513a241b659edd8f5b68");
    ]

(* Corpus seed 7, items 0-49: the lookahead plan, then one router dies
   halfway through it and [Recover.after] replans the rest under the
   lookahead policy. *)
let test_recover () =
  let items = Corpus.generate ~seed:7L ~count:50 in
  let lines =
    List.map
      (fun item ->
        let system = item.Corpus.system in
        let config =
          { (Corpus.config item) with Scheduler.policy = Scheduler.Lookahead }
        in
        match Scheduler.run system config with
        | exception Scheduler.Unschedulable _ -> "unschedulable"
        | baseline -> (
            let topology = system.System.topology in
            let router =
              Topology.of_index topology
                (item.Corpus.index mod Topology.router_count topology)
            in
            let faults = Fault.Detour.fault_set ~routers:[ router ] () in
            let at = baseline.Schedule.makespan / 2 in
            match
              Fault.Recover.after ~policy:Scheduler.Lookahead
                ~power_limit:config.Scheduler.power_limit
                ~reuse:config.Scheduler.reuse ~at ~faults system baseline
            with
            | exception Scheduler.Unschedulable _ -> "replan unschedulable"
            | o ->
                Fmt.str "%s %d %a" (digest baseline) o.Fault.Recover.makespan
                  Fmt.(list ~sep:comma int)
                  o.Fault.Recover.abandoned
                ^ " "
                ^ digest (Schedule.of_entries o.Fault.Recover.replanned)))
      items
  in
  Alcotest.(check string) "recovery replans digest"
    "935a007903000545dcc98178a8a31b72" (digest_lines lines)

(* A chain of seeded adjacent swaps, each applied to the previous
   trace's order and run through one workspace, on every reuse level
   of p22810_leon with and without the binding power limit. *)
let test_swap_chain () =
  let system = Experiments.p22810_leon () in
  let access = Test_access.table system in
  let ws = Scheduler.workspace () in
  let rng = Random.State.make [| 27 |] in
  let lines = ref [] in
  List.iter
    (fun pct ->
      let power_limit =
        Option.map (fun pct -> System.power_limit_of_pct system ~pct) pct
      in
      for reuse = 0 to List.length system.System.processors do
        let config =
          Scheduler.config ~policy:Scheduler.Lookahead ~power_limit ~reuse ()
        in
        let trace = ref (Scheduler.run_traced ~workspace:ws ~access system config) in
        for _ = 1 to 12 do
          let order = Scheduler.trace_order !trace in
          let p = Random.State.int rng (Array.length order - 1) in
          let x = order.(p) in
          order.(p) <- order.(p + 1);
          order.(p + 1) <- x;
          trace :=
            Scheduler.run_traced ~workspace:ws ~access system
              { config with Scheduler.order = Some (Array.to_list order) };
          lines := digest (Scheduler.trace_schedule !trace) :: !lines
        done
      done)
    [ None; Some 25.0 ];
  Alcotest.(check string) "workspace swap chain digest"
    "2c0b36785846c83de9d204e503967e79"
    (digest_lines (List.rev !lines))

let suite =
  [
    Alcotest.test_case "gated lookahead digests" `Quick test_gated;
    Alcotest.test_case "lookahead recovery replans digest" `Quick test_recover;
    Alcotest.test_case "lookahead workspace swap chain digest" `Quick
      test_swap_chain;
  ]
