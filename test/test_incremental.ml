(* Incremental evaluation: the evaluation cache and the workspace must
   be invisible to results, and multi-chain annealing with [chains = 1]
   must reproduce the historical sequential annealer exactly. *)

open Util
module Core = Nocplan_core
module Rng = Nocplan_itc02.Data_gen.Rng
module Scheduler = Core.Scheduler
module Schedule = Core.Schedule
module Annealing = Core.Annealing
module Eval_cache = Core.Eval_cache
module Proc = Nocplan_proc

let render sched = Fmt.str "%a" Schedule.pp sched

let paper_systems () =
  [
    ("d695_leon", Core.Experiments.d695_leon ());
    ("p22810_leon", Core.Experiments.p22810_leon ());
    ("p93791_leon", Core.Experiments.p93791_leon ());
  ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let swap_random rng a =
  let n = Array.length a in
  let i = Rng.int rng ~bound:n and j = Rng.int rng ~bound:n in
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

(* The search drivers' evaluation path: for random orders and random
   swaps, [Eval_cache.schedule] through the cache's shared workspace
   equals a from-scratch run, byte for byte, across the paper systems,
   both policies, and a binding power limit.  Re-evaluating an order
   seen before must return the identical schedule. *)
let test_eval_cache_equals_scratch () =
  let rng = Rng.create 0xA51CEL in
  List.iter
    (fun (name, sys) ->
      let reuse = List.length sys.Core.System.processors in
      let limited = Some (Core.System.power_limit_of_pct sys ~pct:25.0) in
      List.iter
        (fun (policy, power_limit) ->
          let config = Scheduler.config ~policy ~power_limit ~reuse () in
          let cache = Eval_cache.create sys config in
          let order = Array.of_list (Core.Priority.order sys ~reuse) in
          for trial = 1 to 4 do
            shuffle rng order;
            let before = render (Eval_cache.schedule cache order) in
            let swapped = Array.copy order in
            swap_random rng swapped;
            let scratch =
              Scheduler.run sys
                { config with Scheduler.order = Some (Array.to_list swapped) }
            in
            Alcotest.(check string)
              (Fmt.str "%s %a trial %d byte-identical" name
                 Scheduler.pp_policy policy trial)
              (render scratch)
              (render (Eval_cache.schedule cache swapped));
            Alcotest.(check string)
              (Fmt.str "%s %a trial %d revisit" name Scheduler.pp_policy
                 policy trial)
              before
              (render (Eval_cache.schedule cache order))
          done)
        [
          (Scheduler.Greedy, None);
          (Scheduler.Greedy, limited);
          (Scheduler.Lookahead, None);
        ])
    (paper_systems ())

(* A chain of swaps through one cache, as the annealer makes them:
   every other move is rejected and reverted, so the revert is an
   exact hit on a retained trace.  The chain's final order still
   matches scratch evaluation, and the counters account for every
   evaluation. *)
let test_eval_cache_swap_chain () =
  let rng = Rng.create 0xC0FFEEL in
  let sys = Core.Experiments.d695_leon () in
  let reuse = List.length sys.Core.System.processors in
  let config = Scheduler.config ~reuse () in
  let cache = Eval_cache.create sys config in
  let order = Array.of_list (Core.Priority.order sys ~reuse) in
  ignore (Eval_cache.evaluate cache order);
  for step = 1 to 12 do
    let previous = Array.copy order in
    swap_random rng order;
    ignore (Eval_cache.evaluate cache order);
    if step mod 2 = 0 then begin
      Array.blit previous 0 order 0 (Array.length order);
      let tr = Eval_cache.evaluate cache order in
      Alcotest.(check (array int)) "revert returns the previous order's trace"
        previous (Scheduler.trace_order tr)
    end
  done;
  let scratch =
    Scheduler.run sys
      { config with Scheduler.order = Some (Array.to_list order) }
  in
  Alcotest.(check string) "chain end matches scratch" (render scratch)
    (render (Eval_cache.schedule cache order));
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "evaluations" (1 + 12 + 6 + 1) s.Eval_cache.evaluations;
  Alcotest.(check int) "every evaluation is a hit or a full run"
    s.Eval_cache.evaluations
    (s.Eval_cache.exact_hits + s.Eval_cache.full_runs);
  (* The six reverts and the final lookup are hits by construction;
     this seed's swaps revisit one retained order besides. *)
  Alcotest.(check int) "exact hits (pinned)" 8 s.Eval_cache.exact_hits

(* A workspace run refuses any order that is not a permutation of the
   scheduled modules — an unknown id, a duplicate, a missing module —
   and the refused runs leave the workspace fit for the next one. *)
let test_workspace_run_validates_order () =
  let sys = small_system () in
  let config = Scheduler.config ~reuse:1 () in
  let ws = Scheduler.workspace () in
  let trace = Scheduler.run_traced ~workspace:ws sys config in
  let order = Array.to_list (Scheduler.trace_order trace) in
  let refuse label bad =
    match
      Scheduler.run_traced ~workspace:ws sys
        { config with Scheduler.order = Some bad }
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  (match order with
  | first :: rest ->
      refuse "unknown id" (99_999 :: rest);
      refuse "duplicate" (first :: first :: rest);
      refuse "missing module" rest
  | [] -> Alcotest.fail "empty priority order");
  let after =
    Scheduler.run_traced ~workspace:ws sys
      { config with Scheduler.order = Some (List.rev order) }
  in
  Alcotest.(check string) "workspace still equals a plain run"
    (render
       (Scheduler.run sys
          { config with Scheduler.order = Some (List.rev order) }))
    (render (Scheduler.trace_schedule after))

let test_eval_cache_counters () =
  let sys = Core.Experiments.d695_leon () in
  let reuse = List.length sys.Core.System.processors in
  let cache = Eval_cache.create sys (Scheduler.config ~reuse ()) in
  let order = Array.of_list (Core.Priority.order sys ~reuse) in
  let a = Eval_cache.schedule cache order in
  let b = Eval_cache.schedule cache order in
  Alcotest.(check string) "hit returns the same schedule" (render a) (render b);
  let swapped = Array.copy order in
  let tmp = swapped.(2) in
  swapped.(2) <- swapped.(3);
  swapped.(3) <- tmp;
  let c = Eval_cache.schedule cache swapped in
  let scratch =
    Scheduler.run sys
      (Scheduler.config ~order:(Array.to_list swapped) ~reuse ())
  in
  Alcotest.(check string) "cached run equals scratch" (render scratch)
    (render c);
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "evaluations" 3 s.Eval_cache.evaluations;
  Alcotest.(check int) "full runs" 2 s.Eval_cache.full_runs;
  Alcotest.(check int) "exact hits" 1 s.Eval_cache.exact_hits;
  Alcotest.(check int) "resumed" 0 s.Eval_cache.resumed;
  (* A non-permutation is refused on the full-run path, caching
     nothing: both good orders are still exact hits afterwards. *)
  let bogus = Array.copy order in
  bogus.(0) <- 99_999;
  (match Eval_cache.evaluate cache bogus with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-permutation accepted");
  let refused = Eval_cache.stats cache in
  ignore (Eval_cache.evaluate cache order);
  ignore (Eval_cache.evaluate cache swapped);
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "both good orders hit"
    (refused.Eval_cache.exact_hits + 2)
    s.Eval_cache.exact_hits;
  Alcotest.(check int) "no new full run" refused.Eval_cache.full_runs
    s.Eval_cache.full_runs

(* [n] distinct orders of [sys]: the priority order with its first
   element swapped into positions 0 .. n-1. *)
let distinct_orders sys ~reuse n =
  let base = Array.of_list (Core.Priority.order sys ~reuse) in
  List.init n (fun i ->
      let o = Array.copy base in
      o.(0) <- base.(i);
      o.(i) <- base.(0);
      o)

(* The cache retains exactly the four most recently used traces: after
   five distinct orders the last four are exact hits and the first,
   evicted, is a full run again. *)
let test_eval_cache_keeps_four () =
  let sys = Core.Experiments.d695_leon () in
  let reuse = List.length sys.Core.System.processors in
  let cache = Eval_cache.create sys (Scheduler.config ~reuse ()) in
  let orders = distinct_orders sys ~reuse 5 in
  List.iter (fun o -> ignore (Eval_cache.evaluate cache o)) orders;
  let before = Eval_cache.stats cache in
  Alcotest.(check int) "five full runs" 5 before.Eval_cache.full_runs;
  List.iter (fun o -> ignore (Eval_cache.evaluate cache o)) (List.tl orders);
  let hits = Eval_cache.stats cache in
  Alcotest.(check int) "last four are exact hits"
    (before.Eval_cache.exact_hits + 4)
    hits.Eval_cache.exact_hits;
  ignore (Eval_cache.evaluate cache (List.hd orders));
  Alcotest.(check int) "the first was evicted"
    (hits.Eval_cache.full_runs + 1)
    (Eval_cache.stats cache).Eval_cache.full_runs

(* A trace copies the order it was evaluated with: mutating the
   caller's array afterwards changes neither the trace nor what later
   counts as an exact hit. *)
let test_eval_cache_copies_order () =
  let sys = Core.Experiments.d695_leon () in
  let reuse = List.length sys.Core.System.processors in
  let cache = Eval_cache.create sys (Scheduler.config ~reuse ()) in
  let order, other =
    match distinct_orders sys ~reuse 2 with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let kept = Array.copy order in
  let tr = Eval_cache.evaluate cache order in
  Array.blit other 0 order 0 (Array.length other);
  Alcotest.(check (array int)) "trace keeps the evaluated order" kept
    (Scheduler.trace_order tr);
  Alcotest.(check bool) "has its own order" true
    (Scheduler.trace_has_order tr kept);
  Alcotest.(check bool) "not the mutated one" false
    (Scheduler.trace_has_order tr order);
  Alcotest.(check bool) "not a prefix of it" false
    (Scheduler.trace_has_order tr
       (Array.sub kept 0 (Array.length kept - 1)));
  Alcotest.(check bool) "re-evaluating the original hits" true
    (Eval_cache.evaluate cache kept == tr);
  let s = Eval_cache.stats cache in
  ignore (Eval_cache.evaluate cache order);
  Alcotest.(check int) "the mutated order is a full run"
    (s.Eval_cache.full_runs + 1)
    (Eval_cache.stats cache).Eval_cache.full_runs

(* Every retained trace belongs to the cache's key: [seed] refuses a
   trace of another configuration, [merge] imports another cache's
   traces and best as exact hits, and [rebase] onto another system
   drops them all. *)
let test_eval_cache_key () =
  let sys = Core.Experiments.d695_leon () in
  let reuse = List.length sys.Core.System.processors in
  let cfg = Scheduler.config ~reuse () in
  let cache = Eval_cache.create sys cfg in
  let order, other =
    match distinct_orders sys ~reuse 2 with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let foreign =
    Scheduler.run_traced sys
      (Scheduler.config ~policy:Scheduler.Lookahead ~reuse ())
  in
  (match Eval_cache.seed cache foreign with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "trace of another configuration seeded");
  let donor = Eval_cache.create ~access:(Eval_cache.access cache) sys cfg in
  let tr = Eval_cache.evaluate donor other in
  Eval_cache.offer donor tr;
  Eval_cache.merge ~into:cache donor;
  Alcotest.(check bool) "merge carries the best trace" true
    (Option.get (Eval_cache.best cache) == tr);
  Alcotest.(check bool) "merged trace is an exact hit" true
    (Eval_cache.evaluate cache other == tr);
  ignore (Eval_cache.evaluate cache order);
  (* [order] is the priority order, so the adopted trace answers for
     it; [other] was only ever evaluated under the old key. *)
  let moved = Core.Experiments.d695_leon () in
  let adopted = Scheduler.run_traced moved cfg in
  Eval_cache.rebase cache adopted;
  Alcotest.(check bool) "rebase moves the key" true
    (Eval_cache.system cache == moved
     && Option.is_none (Eval_cache.best cache));
  Alcotest.(check bool) "adopted trace is an exact hit" true
    (Eval_cache.evaluate cache order == adopted);
  let s = Eval_cache.stats cache in
  ignore (Eval_cache.evaluate cache other);
  Alcotest.(check int) "old traces dropped"
    (s.Eval_cache.full_runs + 1)
    (Eval_cache.stats cache).Eval_cache.full_runs

(* The pinned sequential goldens: captured from the pre-incremental
   annealer (commit ad7ec0f) on the three paper systems.  [chains = 1]
   must keep reproducing them exactly — same best makespan, same
   evaluation and acceptance counts — because the single-chain path
   consumes the generator identically and cached evaluation is
   result-identical. *)
let sequential_goldens =
  [
    (* system, iterations, seed, initial, best, evaluations, accepted *)
    ("d695_leon", 250, 0x5AL, 360724, 360724, 235, 68);
    ("d695_leon", 60, 7L, 360724, 360700, 57, 28);
    ("p22810_leon", 250, 0x5AL, 1177753, 897682, 247, 105);
    ("p22810_leon", 60, 7L, 1177753, 910545, 59, 31);
    ("p93791_leon", 250, 0x5AL, 1315925, 1315925, 246, 97);
    ("p93791_leon", 60, 7L, 1315925, 1315925, 60, 28);
  ]

let test_single_chain_reproduces_goldens () =
  let systems = paper_systems () in
  List.iter
    (fun (name, iterations, seed, initial, best, evaluations, accepted) ->
      let sys = List.assoc name systems in
      let reuse = List.length sys.Core.System.processors in
      let r = Annealing.schedule ~iterations ~seed ~chains:1 ~reuse sys in
      Alcotest.(check int)
        (name ^ " initial") initial r.Annealing.initial_makespan;
      Alcotest.(check int)
        (name ^ " best") best r.Annealing.schedule.Schedule.makespan;
      Alcotest.(check int)
        (name ^ " evaluations") evaluations r.Annealing.evaluations;
      Alcotest.(check int) (name ^ " accepted") accepted r.Annealing.accepted;
      Alcotest.(check int) (name ^ " chains") 1 r.Annealing.chains;
      Alcotest.(check int) (name ^ " exchanges") 0 r.Annealing.exchanges)
    sequential_goldens

let test_tempering_deterministic_and_valid () =
  let sys = Core.Experiments.p22810_leon () in
  let reuse = List.length sys.Core.System.processors in
  let run () =
    Annealing.schedule ~iterations:80 ~chains:3 ~exchange_period:20 ~reuse sys
  in
  let a = run () and b = run () in
  Alcotest.(check string) "machine-independent result"
    (render a.Annealing.schedule)
    (render b.Annealing.schedule);
  Alcotest.(check int) "same evaluations" a.Annealing.evaluations
    b.Annealing.evaluations;
  Alcotest.(check int) "same exchanges" a.Annealing.exchanges
    b.Annealing.exchanges;
  Alcotest.(check int) "chains recorded" 3 a.Annealing.chains;
  Alcotest.(check bool) "never worse than greedy" true
    (a.Annealing.schedule.Schedule.makespan <= a.Annealing.initial_makespan);
  Alcotest.(check bool) "chains multiply evaluations" true
    (a.Annealing.evaluations > 80);
  match
    Schedule.validate sys ~application:Proc.Processor.Bist ~power_limit:None
      ~reuse a.Annealing.schedule
  with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid: %a" (Fmt.list Schedule.pp_violation) vs

let test_tempering_not_worse_than_single_chain () =
  let sys = Core.Experiments.p22810_leon () in
  let reuse = List.length sys.Core.System.processors in
  let single = Annealing.schedule ~iterations:120 ~chains:1 ~reuse sys in
  let multi =
    Annealing.schedule ~iterations:120 ~chains:4 ~exchange_period:30 ~reuse sys
  in
  Alcotest.(check bool) "tempering at least matches the single chain" true
    (multi.Annealing.schedule.Schedule.makespan
    <= single.Annealing.schedule.Schedule.makespan)

let test_chain_parameter_validation () =
  let sys = small_system () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Annealing.schedule ~chains:0 ~reuse:1 sys);
  expect_invalid (fun () ->
      Annealing.schedule ~exchange_period:0 ~reuse:1 sys)

(* The evaluation arena must be invisible to results: runs of the
   priority order and of swapped orders through one shared workspace —
   including a policy switch that forces the arena to rebuild
   mid-life — match workspace-free evaluation byte for byte. *)
let test_workspace_invisible () =
  let sys = Core.Experiments.p22810_leon () in
  let reuse = List.length sys.Core.System.processors in
  let ws = Scheduler.workspace () in
  let rng = Rng.create 0xAEAL in
  let check policy =
    let config = Scheduler.config ~policy ~reuse () in
    let trace = Scheduler.run_traced ~workspace:ws sys config in
    let plain = Scheduler.run_traced sys config in
    Alcotest.(check string) "workspace run equals plain run"
      (render (Scheduler.trace_schedule plain))
      (render (Scheduler.trace_schedule trace));
    let order = Scheduler.trace_order trace in
    let n = Array.length order in
    for _ = 1 to 5 do
      let swapped = Array.copy order in
      let i = Rng.int rng ~bound:n and j = Rng.int rng ~bound:n in
      let tmp = swapped.(i) in
      swapped.(i) <- swapped.(j);
      swapped.(j) <- tmp;
      let config =
        Scheduler.config ~policy ~order:(Array.to_list swapped) ~reuse ()
      in
      let through = Scheduler.run_traced ~workspace:ws sys config in
      Alcotest.(check string) "workspace swap run equals scratch"
        (render (Scheduler.run sys config))
        (render (Scheduler.trace_schedule through))
    done
  in
  check Scheduler.Greedy;
  check Scheduler.Lookahead

let suite =
  [
    Alcotest.test_case "eval cache equals scratch (systems x policies x power)"
      `Slow test_eval_cache_equals_scratch;
    Alcotest.test_case "eval cache swap chain with reverts" `Quick
      test_eval_cache_swap_chain;
    Alcotest.test_case "workspace run validates the order" `Quick
      test_workspace_run_validates_order;
    Alcotest.test_case "eval cache counters and equivalence" `Quick
      test_eval_cache_counters;
    Alcotest.test_case "eval cache keeps the four most recent traces" `Quick
      test_eval_cache_keeps_four;
    Alcotest.test_case "eval cache copies the evaluated order" `Quick
      test_eval_cache_copies_order;
    Alcotest.test_case "eval cache traces belong to its key" `Quick
      test_eval_cache_key;
    Alcotest.test_case "chains=1 reproduces sequential goldens" `Slow
      test_single_chain_reproduces_goldens;
    Alcotest.test_case "tempering deterministic and valid" `Slow
      test_tempering_deterministic_and_valid;
    Alcotest.test_case "tempering not worse than single chain" `Slow
      test_tempering_not_worse_than_single_chain;
    Alcotest.test_case "chain parameter validation" `Quick
      test_chain_parameter_validation;
    Alcotest.test_case "workspace invisible to results" `Quick
      test_workspace_invisible;
  ]
