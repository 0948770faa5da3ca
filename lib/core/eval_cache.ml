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

(* Traces of another key are skipped: a cache rebased by a placement
   move shares nothing resumable with [into]. *)
let merge ~into t =
  if into != t then begin
    (* Oldest first, so [into]'s recency order ends with [t]'s most
       recent work. *)
    List.iter
      (fun tr ->
        if Scheduler.trace_matches tr ~system:into.system into.cfg then
          remember into tr)
      (List.rev t.traces);
    Option.iter (offer into) t.best
  end
