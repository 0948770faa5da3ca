type snapshot = {
  evaluations : int;
  full_runs : int;
  resumed : int;
  exact_hits : int;
}

type t = {
  (* [system]/[access] are the cache's key; mutable because a placement
     move rebases the whole cache onto the mutated system ({!rebase}) —
     every retained trace always belongs to the current key. *)
  mutable system : System.t;
  cfg : Scheduler.config;
  mutable access : Test_access.table;
  (* One arena per cache: a cache already serves exactly one search
     chain (it is not domain-safe), which is the ownership contract
     [Scheduler.workspace] asks for. *)
  workspace : Scheduler.workspace;
  capacity : int;
  mutable traces : Scheduler.trace list;  (* most recently used first *)
  mutable best : Scheduler.trace option;  (* lowest makespan offered *)
  mutable evaluations : int;
  mutable full_runs : int;
  mutable resumed : int;
  mutable exact_hits : int;
}

let create ?(capacity = 4) ?access system cfg =
  if capacity < 1 then invalid_arg "Eval_cache.create: capacity must be >= 1";
  let application = cfg.Scheduler.application in
  let access =
    match access with
    | Some tbl when Test_access.table_for tbl ~system ~application -> tbl
    | Some _ | None -> Test_access.table ~application system
  in
  {
    system;
    cfg = { cfg with Scheduler.order = None };
    access;
    workspace = Scheduler.workspace ();
    capacity;
    traces = [];
    best = None;
    evaluations = 0;
    full_runs = 0;
    resumed = 0;
    exact_hits = 0;
  }

let access t = t.access
let traces t = t.traces
let system t = t.system
let best t = t.best

let matches t ~system cfg =
  t.system == system && t.cfg = { cfg with Scheduler.order = None }

let stats t =
  {
    evaluations = t.evaluations;
    full_runs = t.full_runs;
    resumed = t.resumed;
    exact_hits = t.exact_hits;
  }

(* Keep [trace] at the front; drop the least recently used entry
   beyond the capacity. *)
let remember t trace =
  let rest = List.filter (fun tr -> tr != trace) t.traces in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | tr :: rest -> tr :: take (n - 1) rest
  in
  t.traces <- trace :: take (t.capacity - 1) rest

let seed t trace =
  if not (Scheduler.trace_matches trace ~system:t.system t.cfg) then
    invalid_arg
      "Eval_cache.seed: trace was produced for another system or \
       configuration";
  remember t trace

let rebase t trace =
  let system = Scheduler.trace_system trace in
  (* Against the trace's own system this reduces to the configuration
     check (a trace's access table always matches its system). *)
  if not (Scheduler.trace_matches trace ~system t.cfg) then
    invalid_arg "Eval_cache.rebase: trace was produced under another \
                 configuration";
  let access = Scheduler.trace_access trace in
  if system == t.system && access == t.access then remember t trace
  else begin
    (* The key changed: every retained trace belongs to the old
       placement and must not be resumed under the new one. *)
    t.system <- system;
    t.access <- access;
    t.traces <- [ trace ];
    t.best <- None
  end

let makespan tr = (Scheduler.trace_schedule tr).Schedule.makespan

let offer t trace =
  if Scheduler.trace_matches trace ~system:t.system t.cfg then
    match t.best with
    | Some b when makespan b <= makespan trace -> ()
    | Some _ | None -> t.best <- Some trace

let evaluate t order =
  t.evaluations <- t.evaluations + 1;
  (* Rank entries by how many commits [resume] would replay verbatim,
     not by shared-prefix length: a trace with a shorter prefix but a
     narrower changed window can be far cheaper to resume from.  Ties
     keep the most recently used entry. *)
  let best =
    List.fold_left
      (fun acc tr ->
        let g = Scheduler.resume_gain tr order in
        match acc with
        | Some (_, best_g) when best_g >= g -> acc
        | _ -> Some (tr, g))
      None t.traces
  in
  let module Trace = Nocplan_obs.Trace in
  match best with
  | Some (tr, g) when g = max_int ->
      t.exact_hits <- t.exact_hits + 1;
      if Trace.enabled () then Trace.instant "eval.hit";
      remember t tr;
      tr
  | Some (tr, g) ->
      t.resumed <- t.resumed + 1;
      if Trace.enabled () then
        Trace.instant "eval.resume"
          ~attrs:
            [
              ("gain", Trace.Int g);
              ("modules", Trace.Int (Array.length order));
            ];
      let tr' = Scheduler.resume ~workspace:t.workspace tr order in
      remember t tr';
      tr'
  | None ->
      t.full_runs <- t.full_runs + 1;
      if Trace.enabled () then Trace.instant "eval.full";
      let tr =
        Scheduler.run_traced ~workspace:t.workspace ~access:t.access t.system
          { t.cfg with Scheduler.order = Some (Array.to_list order) }
      in
      remember t tr;
      tr

let schedule t order = Scheduler.trace_schedule (evaluate t order)

let seed_matching t trace =
  if Scheduler.trace_matches trace ~system:t.system t.cfg then remember t trace

module Shared = struct
  type cache = t

  type entry = { key : string; cache : cache }

  type registry = {
    capacity : int;
    mutex : Mutex.t;
    mutable entries : entry list;  (* most recently used first *)
    mutable hits : int;
    mutable misses : int;
  }

  let registry ?(capacity = 8) () =
    if capacity < 1 then
      invalid_arg "Eval_cache.Shared.registry: capacity must be >= 1";
    { capacity; mutex = Mutex.create (); entries = []; hits = 0; misses = 0 }

  let locked r f =
    Mutex.lock r.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.mutex) f

  let checkout r ~key ?cache_capacity ?access system cfg =
    locked r (fun () ->
        let resident, rest =
          List.partition (fun e -> String.equal e.key key) r.entries
        in
        r.entries <- rest;
        match resident with
        | { cache; _ } :: _ when matches cache ~system cfg ->
            r.hits <- r.hits + 1;
            (cache, true)
        | _ ->
            (* Either absent or keyed to a stale system instance (the
               table cache rebuilt the system after an eviction): the
               retained traces must not be resumed against the new
               instance, so start fresh. *)
            r.misses <- r.misses + 1;
            (create ?capacity:cache_capacity ?access system cfg, false))

  let checkin r ~key cache =
    locked r (fun () ->
        match List.find_opt (fun e -> String.equal e.key key) r.entries with
        | Some { cache = resident; _ } ->
            (* Another worker checked a cache in under this key while we
               held ours.  Keep the resident (later arrivals see it) and
               merge our traces into it, oldest first so its recency
               order ends with our most recent work, and the better of
               the two best traces. *)
            if resident != cache then begin
              List.iter (seed_matching resident) (List.rev cache.traces);
              Option.iter (offer resident) cache.best
            end
        | None ->
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | e :: rest -> e :: take (n - 1) rest
            in
            r.entries <- { key; cache } :: take (r.capacity - 1) r.entries)

  let hits r = locked r (fun () -> r.hits)
  let misses r = locked r (fun () -> r.misses)
  let length r = locked r (fun () -> List.length r.entries)
end
