module Rng = Nocplan_itc02.Data_gen.Rng
module Trace = Nocplan_obs.Trace

type result = {
  schedule : Schedule.t;
  system : System.t;
  best_trace : Scheduler.trace;
  initial_makespan : int;
  warm_started : bool;
  evaluations : int;
  accepted : int;
  placement_evals : int;
  placement_accepted : int;
  chains : int;
  exchanges : int;
}

let improvement_pct r =
  if r.initial_makespan = 0 then 0.0
  else
    100.0
    *. (1.0
       -. float_of_int r.schedule.Schedule.makespan
          /. float_of_int r.initial_makespan)

(* One tempering chain: its own generator, temperature, order buffer
   and evaluation cache; traces flow between chains read-only.  The
   chain's current *system* (its placement) lives in its current
   trace; [swappable] — the non-pinned module ids eligible for tile
   swaps — is placement-invariant and shared by every chain. *)
type chain = {
  index : int;  (** position in the temperature ladder, for tracing *)
  rng : Rng.t;
  ratio : float;  (** probability that a move is a placement swap *)
  swappable : int array;
  config : Scheduler.config;  (** shared by every chain; order unset *)
  order : int array;
  cache : Eval_cache.t;
  mutable current : Scheduler.trace;
  mutable best : Scheduler.trace;
  mutable temperature : float;
  mutable evaluations : int;
  mutable accepted : int;
  mutable placement_evals : int;
  mutable placement_accepted : int;
}

let makespan trace = (Scheduler.trace_schedule trace).Schedule.makespan

(* Deterministic per-chain seed: chain 0 keeps the base seed (so a
   single chain reproduces the historical sequential results exactly);
   higher chains offset it by multiples of the splitmix64 golden-ratio
   increment, decorrelating the streams without any cross-chain
   coordination. *)
let chain_seed base c =
  if c = 0 then base
  else Int64.add base (Int64.mul (Int64.of_int c) 0x9E3779B97F4A7C15L)

(* The Metropolis rule, shared by both move classes.  Consumes one
   [Rng.float] draw only on an uphill candidate at positive
   temperature — the same consumption pattern as the historical
   order-only annealer. *)
let metropolis ch candidate =
  let delta = float_of_int (makespan candidate - makespan ch.current) in
  delta <= 0.0
  || ch.temperature > 0.0 && Rng.float ch.rng < exp (-.delta /. ch.temperature)

(* One placement move: swap the tiles of two random non-pinned
   modules, rebuild only their access-table rows, and run the current
   order on the mutated system from scratch.  The run gets no
   workspace: the chain's evaluation arena belongs to its current
   placement, and a run on another system would evict it.  Nothing is
   mutated until acceptance — [System.swap_tiles] and
   [Test_access.table_rebuild] are functional — so a rejection simply
   drops the candidate. *)
let placement_move ch =
  let ns = Array.length ch.swappable in
  let a = ch.swappable.(Rng.int ch.rng ~bound:ns) in
  let b = ch.swappable.(Rng.int ch.rng ~bound:ns) in
  if a <> b then begin
    let sys = System.swap_tiles (Scheduler.trace_system ch.current) a b in
    let access =
      Test_access.table_rebuild
        (Scheduler.trace_access ch.current)
        ~system:sys ~affected:[ a; b ]
    in
    let order = Array.to_list (Scheduler.trace_order ch.current) in
    match
      Scheduler.run_traced ~access sys
        { ch.config with Scheduler.order = Some order }
    with
    | exception Scheduler.Unschedulable _ -> ()
    | candidate ->
        ch.evaluations <- ch.evaluations + 1;
        ch.placement_evals <- ch.placement_evals + 1;
        let accept = metropolis ch candidate in
        if Trace.enabled () then
          Trace.instant "anneal.move"
            ~attrs:
              [
                ("move", Trace.String "placement");
                ("chain", Trace.Int ch.index);
                ("accepted", Trace.Bool accept);
                ("makespan", Trace.Int (makespan candidate));
              ];
        if accept then begin
          ch.accepted <- ch.accepted + 1;
          ch.placement_accepted <- ch.placement_accepted + 1;
          ch.current <- candidate;
          (* The candidate trace carries the mutated system and its
             rebuilt table; rebasing keeps the cache's key — and every
             later order move — on the chain's current placement. *)
          Eval_cache.rebase ch.cache candidate;
          if makespan candidate < makespan ch.best then ch.best <- candidate
        end
  end

(* [iterations] annealing moves on one chain.  For a single chain with
   [ratio = 0] this is, move for move, the historical sequential
   annealer: same generator consumption (the ratio gate draws nothing
   when the ratio is zero), same Metropolis rule, same cooling — only
   the evaluation goes through the prefix cache, which is
   result-identical to a from-scratch run. *)
let run_segment ~cooling ch iterations =
  Trace.span "anneal.segment"
    ~attrs:
      [ ("chain", Trace.Int ch.index); ("iterations", Trace.Int iterations) ]
  @@ fun () ->
  let n = Array.length ch.order in
  let ns = Array.length ch.swappable in
  if n >= 2 || (ch.ratio > 0.0 && ns >= 2) then
    for _ = 1 to iterations do
      let placement =
        ch.ratio > 0.0 && ns >= 2 && Rng.float ch.rng < ch.ratio
      in
      if placement then placement_move ch
      else if n >= 2 then begin
        let i = Rng.int ch.rng ~bound:n in
        let j = Rng.int ch.rng ~bound:n in
        if i <> j then begin
          let swap () =
            let tmp = ch.order.(i) in
            ch.order.(i) <- ch.order.(j);
            ch.order.(j) <- tmp
          in
          swap ();
          match Eval_cache.evaluate ch.cache ch.order with
          | exception Scheduler.Unschedulable _ -> swap () (* revert *)
          | candidate ->
              ch.evaluations <- ch.evaluations + 1;
              let accept = metropolis ch candidate in
              if accept then begin
                ch.accepted <- ch.accepted + 1;
                ch.current <- candidate;
                if makespan candidate < makespan ch.best then
                  ch.best <- candidate
              end
              else swap () (* revert *)
        end
      end;
      ch.temperature <- ch.temperature *. cooling
    done

let schedule ?(policy = Scheduler.Greedy)
    ?(application = Nocplan_proc.Processor.Bist) ?(power_limit = None)
    ?(iterations = 400) ?initial_temperature ?(cooling = 0.99)
    ?(seed = 0x5AL) ?(chains = 1) ?(exchange_period = 50)
    ?(placement_moves = 0.0) ?access ?warm_start ?eval_cache ~reuse system =
  if iterations < 1 then invalid_arg "Annealing.schedule: iterations < 1";
  if cooling <= 0.0 || cooling > 1.0 then
    invalid_arg "Annealing.schedule: cooling must be in (0, 1]";
  if chains < 1 then invalid_arg "Annealing.schedule: chains < 1";
  if exchange_period < 1 then
    invalid_arg "Annealing.schedule: exchange_period < 1";
  if placement_moves < 0.0 || placement_moves > 1.0 then
    invalid_arg "Annealing.schedule: placement_moves must be within [0, 1]";
  (* One access table for all engine evaluations across every chain:
     the cost model does not depend on the test order being searched,
     and the table is immutable, so the Domain fan-out can share it. *)
  let access =
    match access with
    | Some tbl when Test_access.table_for tbl ~system ~application -> tbl
    | Some _ | None -> Test_access.table ~application system
  in
  let base_config =
    Scheduler.config ~policy ~application ~power_limit ~reuse ()
  in
  (* Cross-request warm start: a best trace from an earlier search of
     the same system and configuration is adopted as the shared
     initial evaluation — the walk starts from the best-known point
     (so the result can never be worse than it) and the initial
     engine run is skipped entirely.  A trace for a different system
     or configuration is ignored, like a mismatched [access]. *)
  let warm =
    match warm_start with
    | Some t when Scheduler.trace_matches t ~system base_config -> Some t
    | Some _ | None -> None
  in
  let initial_order =
    match warm with
    | Some t -> Scheduler.trace_order t
    | None -> Array.of_list (Priority.order system ~reuse)
  in
  let n = Array.length initial_order in
  (* One shared initial evaluation seeds every chain's cache. *)
  let initial =
    match warm with
    | Some t -> t
    | None ->
        Scheduler.run_traced ~access system
          {
            base_config with
            Scheduler.order = Some (Array.to_list initial_order);
          }
  in
  let initial_makespan = makespan initial in
  let temperature0 =
    match initial_temperature with
    | Some t ->
        if t < 0.0 then invalid_arg "Annealing.schedule: negative temperature";
        t
    | None -> 0.02 *. float_of_int initial_makespan
  in
  (* Tile-swap candidates: every scheduled module that is not a pinned
     processor.  Placement-invariant (swapping never changes the set),
     so one sorted array serves every chain and every move. *)
  let swappable =
    Array.of_list
      (List.filter
         (fun id -> not (System.is_processor_module system id))
         (System.module_ids system))
  in
  (* Cross-request cache sharing: a caller-owned cache for the same
     system and configuration is adopted as chain 0's evaluation cache,
     so this search resumes the prefix traces earlier searches left
     behind (and leaves its own for the next one).  Like [access] and
     [warm_start], a mismatched cache is ignored.  Results are
     unaffected either way: every evaluation through the cache is
     byte-identical to a from-scratch run. *)
  let adopted =
    match eval_cache with
    | Some c when Eval_cache.matches c ~system base_config -> Some c
    | Some _ | None -> None
  in
  let make_chain c =
    let cache =
      match adopted with
      | Some cache when c = 0 -> cache
      | _ -> Eval_cache.create ~access system base_config
    in
    Eval_cache.seed cache initial;
    {
      index = c;
      rng = Rng.create (chain_seed seed c);
      (* Chain 0 of a multi-chain run stays a pure order annealer: the
         coldest rung of the ladder then reproduces the order-only
         trajectory bit for bit, which makes the joint result provably
         no worse than order-only annealing under the same seed — and
         gives the exchange a placement-free reference walk.  A single
         chain applies the full ratio. *)
      ratio = (if chains > 1 && c = 0 then 0.0 else placement_moves);
      swappable;
      config = base_config;
      order = Array.copy initial_order;
      cache;
      current = initial;
      best = initial;
      (* Temperature ladder: chain c starts 2^c hotter, so higher
         chains explore while chain 0 refines. *)
      temperature = temperature0 *. (2.0 ** float_of_int c);
      evaluations = 0;
      accepted = 0;
      placement_evals = 0;
      placement_accepted = 0;
    }
  in
  let all_chains = List.init chains make_chain in
  let exchanges = ref 0 in
  Trace.span "anneal.run"
    ~attrs:
      [
        ("chains", Trace.Int chains);
        ("iterations", Trace.Int iterations);
        ("initial_makespan", Trace.Int initial_makespan);
        ("warm_start", Trace.Bool (Option.is_some warm));
      ]
  @@ fun () ->
  if chains = 1 then run_segment ~cooling (List.hd all_chains) iterations
  else begin
    (* Chains are batched round-robin over at most the recommended
       domain count; the outcome depends only on the chain states at
       the exchange barriers, never on how they were batched, so the
       result is identical on any machine. *)
    let workers = Domains.clamp chains in
    let remaining = ref iterations in
    while !remaining > 0 do
      let span = min exchange_period !remaining in
      remaining := !remaining - span;
      if workers = 1 then
        List.iter (fun ch -> run_segment ~cooling ch span) all_chains
      else
        List.init workers (fun d ->
            let slice =
              List.filteri (fun c _ -> c mod workers = d) all_chains
            in
            Domain.spawn (fun () ->
                List.iter (fun ch -> run_segment ~cooling ch span) slice))
        |> List.iter Domain.join;
      (* Best-exchange: every chain strictly worse than the global
         best restarts its walk there (keeping its own temperature —
         the tempering part). *)
      let global_best =
        List.fold_left
          (fun acc ch -> if makespan ch.best < makespan acc then ch.best else acc)
          (List.hd all_chains).best (List.tl all_chains)
      in
      if !remaining > 0 then begin
        let adopted = ref 0 in
        List.iter
          (fun ch ->
            if makespan ch.current > makespan global_best then begin
              incr exchanges;
              incr adopted;
              ch.current <- global_best;
              Array.blit (Scheduler.trace_order global_best) 0 ch.order 0 n;
              (* The global best may carry another chain's placement;
                 [rebase] adopts system and table along with the trace
                 (and is exactly [seed] when the system is shared). *)
              Eval_cache.rebase ch.cache global_best
            end)
          all_chains;
        if Trace.enabled () then
          Trace.instant "anneal.exchange"
            ~attrs:
              [
                ("best", Trace.Int (makespan global_best));
                ("adopted", Trace.Int !adopted);
                ("remaining", Trace.Int !remaining);
              ]
      end
    done
  end;
  let best =
    List.fold_left
      (fun acc ch -> if makespan ch.best < makespan acc then ch.best else acc)
      (List.hd all_chains).best (List.tl all_chains)
  in
  {
    schedule = Scheduler.trace_schedule best;
    system = Scheduler.trace_system best;
    best_trace = best;
    initial_makespan;
    warm_started = Option.is_some warm;
    evaluations =
      (* The shared initial evaluation counts as one engine run —
         except under a warm start, where it is reused, not run. *)
      List.fold_left
        (fun acc ch -> acc + ch.evaluations)
        (if Option.is_some warm then 0 else 1)
        all_chains;
    accepted = List.fold_left (fun acc ch -> acc + ch.accepted) 0 all_chains;
    placement_evals =
      List.fold_left (fun acc ch -> acc + ch.placement_evals) 0 all_chains;
    placement_accepted =
      List.fold_left
        (fun acc ch -> acc + ch.placement_accepted)
        0 all_chains;
    chains;
    exchanges = !exchanges;
  }
