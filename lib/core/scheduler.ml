module Reservation = Nocplan_noc.Reservation
module Processor = Nocplan_proc.Processor
module Trace = Nocplan_obs.Trace

let log_src =
  Logs.Src.create "nocplan.scheduler" ~doc:"Test scheduler decisions"

module Log = (val Logs.src_log log_src)

type policy = Greedy | Lookahead

type config = {
  policy : policy;
  application : Processor.application;
  reuse : int;
  power_limit : float option;
  order : int list option;
  start_time : int;
  modules : int list option;
  pretested : int list;
  link_ready : (Nocplan_noc.Link.t * int) list;
}

let config ?(policy = Greedy) ?(application = Processor.Bist)
    ?(power_limit = None) ?order ?(start_time = 0) ?modules
    ?(pretested = []) ?(link_ready = []) ~reuse () =
  if start_time < 0 then invalid_arg "Scheduler.config: negative start_time";
  List.iter
    (fun (_, t) ->
      if t < 0 then invalid_arg "Scheduler.config: negative link_ready time")
    link_ready;
  { policy; application; reuse; power_limit; order; start_time; modules;
    pretested; link_ready }

exception Unschedulable of string

let pp_policy ppf = function
  | Greedy -> Fmt.string ppf "greedy"
  | Lookahead -> Fmt.string ppf "lookahead"

(* Endpoint availability: [not_pooled] marks an endpoint that is not
   in the pool yet (a processor whose own test has not been
   scheduled); otherwise the slot holds the time it is (or will be)
   idle from.  It is negative, as {!Pair_walk.walk} expects. *)
let not_pooled = -1

(* ------------------------------------------------------------------ *)
(* Commit traces                                                      *)

(* One committed test, with enough context to replay it without a
   candidate search or an [is_free] revalidation: the slot indices it
   occupied, the position of its module in the evaluated order, and
   the channel ids it booked (built at commit, never mutated). *)
type commit = {
  c_entry : Schedule.entry;
  c_src : int;
  c_snk : int;
  c_pos : int;
  c_channels : int array;
}

type trace = {
  t_system : System.t;
  t_access : Test_access.table;
  t_config : config;  (* with [order = None]; the order lives in [t_order] *)
  t_order : int array;
  t_commits : commit array;  (* chronological: starts are nondecreasing *)
  t_schedule : Schedule.t;
  (* Final power ledger, kept so [resume] can restore any commit-prefix
     snapshot by truncation (never mutated once the trace is built). *)
  t_monitor : Power_monitor.t;
}

let trace_schedule t = t.t_schedule
let trace_order t = Array.copy t.t_order
let trace_length t = Array.length t.t_order
let trace_system t = t.t_system
let trace_access t = t.t_access

let trace_matches t ~system cfg =
  Test_access.table_for t.t_access ~system ~application:cfg.application
  && t.t_config = { cfg with order = None }

let trace_lcp t order =
  let n = min (Array.length t.t_order) (Array.length order) in
  let i = ref 0 in
  while !i < n && t.t_order.(!i) = order.(!i) do incr i done;
  !i

(* Last position at which [order] still differs from the traced order;
   -1 when they agree everywhere (callers only use it when they
   don't). *)
let trace_last_diff t order =
  let i = ref (min (Array.length t.t_order) (Array.length order) - 1) in
  while !i >= 0 && t.t_order.(!i) = order.(!i) do decr i done;
  !i

(* Index of the first traced commit whose order position falls in the
   changed window [[p, hi]] — the earliest point at which a run of the
   new order can diverge from the traced one (see the exactness note
   above [resume]).  -1 if no commit does (only possible when the
   window is empty). *)
let divergence_stop t ~p ~hi =
  let stop = ref (-1) in
  (try
     Array.iteri
       (fun k c ->
         if c.c_pos >= p && c.c_pos <= hi then begin
           stop := k;
           raise Exit
         end)
       t.t_commits
   with Exit -> ());
  !stop

(* Largest finish over the commits shared by every order agreeing with
   the traced one on its first [prefix_len] positions.  Commits logged
   before the first commit of a module at position >= [prefix_len]
   replay identically in all such runs (attempts proceed in order
   position, and failed attempts are side-effect-free), so their
   maximal finish lower-bounds every makespan in the subtree — the
   pruning rule of the order-space branch-and-bound. *)
let prefix_bound t ~prefix_len =
  let bound = ref t.t_config.start_time in
  (try
     Array.iter
       (fun c ->
         if c.c_pos >= prefix_len then raise Exit;
         if c.c_entry.Schedule.finish > !bound then
           bound := c.c_entry.Schedule.finish)
       t.t_commits
   with Exit -> ());
  !bound

(* ------------------------------------------------------------------ *)
(* Engine state                                                       *)

(* One greedy attempt's candidate (source, sink) slot pairs as
   parallel int arrays sized n², so an attempt allocates nothing:
   candidate q sits at index q, in source-major slot order, and
   [b_ready] (when both ends are idle) is greedy's preference, lower
   first.  [b_order] and [b_tmp] sort candidate indices on the rare
   path where the first choice does not commit. *)
type cands = {
  b_src : int array;
  b_snk : int array;
  b_ready : int array;
  b_order : int array;
  b_tmp : int array;
}

(* The full mutable state of one evaluation, snapshotted implicitly by
   the commit log: every field below is a pure function of the commit
   prefix applied so far, which is what makes [resume] possible. *)
type engine = {
  e_system : System.t;
  e_table : Test_access.table;
  e_config : config;
  e_order : int array;
  e_endpoints : Resource.endpoint array;
  e_n : int;
  e_tix : int array;  (* slot index -> table endpoint index *)
  e_proc_slot : (int, int) Hashtbl.t;
  e_pos : (int, int) Hashtbl.t;  (* module id -> position in e_order *)
  e_avail : int array;
  e_releases : Min_heap.t;
  e_calendar : Reservation.t;
  e_monitor : Power_monitor.t;
  (* Link health gates: a channel is unusable before its ready time
     (its router self-test has not passed yet).  Empty in the common
     case; the gate times also sit in [e_releases] as sentinel events
     (value [e_n], outside the slot range) so the loop advances to a
     gate opening even when no endpoint releases. *)
  e_gates : (Nocplan_noc.Link.t, int) Hashtbl.t;
  e_cands : cands;
  e_walks : Pair_walk.t option array;  (* per table row, built on first use *)
  mutable e_now : int;
  mutable e_committed : Schedule.entry list;
  mutable e_commits : commit list;  (* reversed chronological log *)
  (* Work counters, reported on the [scheduler.run] span: attempts
     made, attempts skipped because no idle pair existed, and slot
     pairs visited by the attempts made. *)
  mutable e_attempts : int;
  mutable e_skipped : int;
  mutable e_scanned : int;
}

let resolve_table ?access ~application system =
  match access with
  | Some t ->
      if not (Test_access.table_for t ~system ~application) then
        invalid_arg
          "Scheduler.run: access table was built for another system or \
           application";
      t
  | None -> Test_access.table ~application system

let wanted_modules system config =
  match config.modules with
  | None -> System.module_ids system
  | Some ids ->
      List.iter
        (fun id ->
          if not (Nocplan_itc02.Soc.mem system.System.soc id) then
            invalid_arg
              (Printf.sprintf "Scheduler.run: unknown module %d" id))
        ids;
      List.sort_uniq Int.compare ids

(* Membership check instead of sort-and-compare: O(n) and
   allocation-light, which matters because search drivers validate an
   order on every single evaluation. *)
let check_permutation ~wanted order =
  let remaining = Hashtbl.create (max 1 (List.length wanted)) in
  List.iter (fun id -> Hashtbl.replace remaining id ()) wanted;
  let consumed =
    List.for_all
      (fun id ->
        Hashtbl.mem remaining id
        && begin
             Hashtbl.remove remaining id;
             true
           end)
      order
  in
  if not (consumed && Hashtbl.length remaining = 0) then
    invalid_arg
      "Scheduler.run: order must be a permutation of the scheduled module ids"

(* The evaluation arena: every engine part that does not depend on the
   evaluated order, reusable across evaluations of one (system, table,
   config) triple.  Search drivers evaluate thousands of orders
   against a single configuration, and rebuilding the endpoint
   resolution, availability array, release heap and — above all — the
   reservation calendar per evaluation dominated the cost of short
   incremental runs.  The lookahead pair orders ([a_walks]) depend only
   on the table and the slot set, so they too outlive an evaluation. *)
type arena = {
  a_system : System.t;
  a_table : Test_access.table;
  a_config : config;  (* with [order = None], like [e_config] *)
  a_endpoints : Resource.endpoint array;
  a_n : int;
  a_tix : int array;
  a_proc_slot : (int, int) Hashtbl.t;
  a_avail0 : int array;  (* availability at [config.start_time] *)
  a_avail : int array;
  a_pos : (int, int) Hashtbl.t;
  a_releases : Min_heap.t;
  a_calendar : Reservation.t;
  a_cands : cands;
  a_walks : Pair_walk.t option array;
}

(* A workspace owns at most one arena (the last configuration it
   served).  Engines borrow the arena's mutable state, so a workspace
   must never serve two live engines at once — one workspace per
   search chain, never shared across domains. *)
type workspace = { mutable w_arena : arena option }

let workspace () = { w_arena = None }

let build_arena ~table system config =
  let endpoints =
    Array.of_list (Resource.all_endpoints system ~reuse:config.reuse)
  in
  let n = Array.length endpoints in
  let tix = Array.map (Test_access.endpoint_id table) endpoints in
  (* Only greedy attempts fill the candidate buffer. *)
  let size = match config.policy with Greedy -> max 1 (n * n) | Lookahead -> 0 in
  let buffer () = Array.make size 0 in
  let pretested = Hashtbl.create (max 1 (List.length config.pretested)) in
  List.iter (fun id -> Hashtbl.replace pretested id ()) config.pretested;
  let avail0 = Array.make (max 1 n) not_pooled in
  Array.iteri
    (fun i endpoint ->
      match endpoint with
      | Resource.External_in _ | Resource.External_out _ ->
          avail0.(i) <- config.start_time
      | Resource.Processor id ->
          if Hashtbl.mem pretested id then avail0.(i) <- config.start_time)
    endpoints;
  let proc_slot = Hashtbl.create (max 1 n) in
  Array.iteri
    (fun i endpoint ->
      match endpoint with
      | Resource.Processor id -> Hashtbl.replace proc_slot id i
      | Resource.External_in _ | Resource.External_out _ -> ())
    endpoints;
  {
    a_system = system;
    a_table = table;
    a_config = { config with order = None };
    a_endpoints = endpoints;
    a_n = n;
    a_tix = tix;
    a_proc_slot = proc_slot;
    a_avail0 = avail0;
    a_avail = Array.copy avail0;
    a_pos = Hashtbl.create 32;
    a_releases = Min_heap.create ();
    a_calendar = Reservation.create ();
    a_cands =
      { b_src = buffer (); b_snk = buffer (); b_ready = buffer ();
        b_order = buffer (); b_tmp = buffer () };
    a_walks = Array.make (Test_access.row_count table) None;
  }

let make_engine ?workspace ~table system config order =
  let cfg = { config with order = None } in
  let arena =
    match workspace with
    | Some { w_arena = Some a }
      when a.a_table == table && a.a_system == system && a.a_config = cfg ->
        (* Reset in place: capacities (calendar storage, heap arrays)
           stay warm from the previous evaluation. *)
        Array.blit a.a_avail0 0 a.a_avail 0 (Array.length a.a_avail0);
        Min_heap.clear a.a_releases;
        Reservation.clear a.a_calendar;
        Hashtbl.reset a.a_pos;
        a
    | Some w ->
        let a = build_arena ~table system config in
        w.w_arena <- Some a;
        a
    | None -> build_arena ~table system config
  in
  Array.iteri (fun p id -> Hashtbl.replace arena.a_pos id p) order;
  let gates = Hashtbl.create (max 1 (List.length cfg.link_ready)) in
  List.iter
    (fun (l, t) ->
      match Hashtbl.find_opt gates l with
      | Some t' when t' >= t -> ()
      | _ -> Hashtbl.replace gates l t)
    cfg.link_ready;
  let e =
    {
      e_system = system;
      e_table = table;
      e_config = cfg;
      e_order = order;
      e_endpoints = arena.a_endpoints;
      e_n = arena.a_n;
      e_tix = arena.a_tix;
      e_proc_slot = arena.a_proc_slot;
      e_pos = arena.a_pos;
      e_avail = arena.a_avail;
      e_releases = arena.a_releases;
      e_calendar = arena.a_calendar;
      e_monitor = Power_monitor.create ~limit:config.power_limit;
      e_now = config.start_time;
      e_committed = [];
      e_commits = [];
      e_gates = gates;
      e_cands = arena.a_cands;
      e_walks = arena.a_walks;
      e_attempts = 0;
      e_skipped = 0;
      e_scanned = 0;
    }
  in
  (* Sentinel wake-ups at every gate opening still ahead of the start
     time; [value = e_n] marks them as non-slot events for the
     staleness filter. *)
  Hashtbl.iter
    (fun _ t -> if t > e.e_now then Min_heap.push e.e_releases ~key:t ~value:e.e_n)
    gates;
  e

let set_avail e i time =
  e.e_avail.(i) <- time;
  if time > e.e_now then Min_heap.push e.e_releases ~key:time ~value:i

(* Whether every channel of the candidate's path has passed its
   self-test by [now].  Gate times are static, so a closed gate only
   delays the pair — the sentinel events keep the loop advancing. *)
let gates_open e ~now ~row ~src ~snk =
  Test_access.fold_path_ix e.e_table ~row ~src ~snk
    (fun ok l _ ->
      ok
      &&
      match Hashtbl.find_opt e.e_gates l with
      | Some ready -> ready <= now
      | None -> true)
    true

(* The probe reads the cell's scalars and its two legs' channel arrays:
   the path is free iff both legs are, so the union is built only when
   the pair commits.  Power is read only under a limit, so an
   unconstrained probe boxes no float. *)
let try_commit e ~now module_id row i j =
  let t = e.e_table in
  let src = e.e_tix.(i) and snk = e.e_tix.(j) in
  let finish = now + Test_access.duration_ix t ~row ~src ~snk in
  if
    (Hashtbl.length e.e_gates = 0 || gates_open e ~now ~row ~src ~snk)
    && Reservation.is_free e.e_calendar
         (Test_access.source_channels_ix t ~row ~src)
         ~start:now ~finish
    && Reservation.is_free e.e_calendar
         (Test_access.sink_channels_ix t ~row ~snk)
         ~start:now ~finish
    && (Option.is_none (Power_monitor.limit e.e_monitor)
       || Power_monitor.fits e.e_monitor ~start:now ~finish
            ~power:(Test_access.power_ix t ~row ~src ~snk))
  then begin
    let power = Test_access.power_ix t ~row ~src ~snk in
    let links, channels = Test_access.path_ix t ~row ~src ~snk in
    Reservation.reserve e.e_calendar ~owner:module_id channels ~start:now
      ~finish;
    Power_monitor.add e.e_monitor ~start:now ~finish ~power;
    set_avail e i finish;
    set_avail e j finish;
    let entry =
      {
        Schedule.module_id;
        source = e.e_endpoints.(i);
        sink = e.e_endpoints.(j);
        start = now;
        finish;
        power;
        links;
      }
    in
    e.e_committed <- entry :: e.e_committed;
    e.e_commits <-
      { c_entry = entry; c_src = i; c_snk = j;
        c_pos = Hashtbl.find e.e_pos module_id; c_channels = channels }
      :: e.e_commits;
    Log.debug (fun m ->
        m "t=%d: start module %d on %a -> %a (finish %d, power %.1f)" now
          module_id Resource.pp e.e_endpoints.(i) Resource.pp e.e_endpoints.(j)
          finish power);
    if Trace.enabled () then
      Trace.instant "scheduler.commit"
        ~attrs:
          [
            ("module", Trace.Int module_id);
            ("source", Trace.String (Fmt.str "%a" Resource.pp e.e_endpoints.(i)));
            ("sink", Trace.String (Fmt.str "%a" Resource.pp e.e_endpoints.(j)));
            ("start", Trace.Int now);
            ("finish", Trace.Int finish);
            ("power", Trace.Float power);
          ];
    (* A freshly tested reusable processor joins the pool when its
       test completes. *)
    (match System.processor_of_module e.e_system module_id with
    | Some _ -> (
        match Hashtbl.find_opt e.e_proc_slot module_id with
        | Some k -> set_avail e k finish
        | None -> (* beyond the reuse horizon: tested but not reused *) ())
    | None -> ());
    true
  end
  else false

(* Fill the candidate buffer for one greedy attempt with the (source,
   sink) pairs among the idle slots [slots.(0 .. k-1)] (ascending slot
   order), source-major, each with the time both ends are idle: greedy
   "forces it to select the first test interface available".  Pairs
   rejected by the admission table (role compatibility, faulty links
   on the XY paths, decompression memory) are dropped here.  Returns
   the candidate count. *)
let fill_candidates e ~row slots k =
  let b = e.e_cands and avail = e.e_avail and tix = e.e_tix in
  let m = ref 0 in
  for a = 0 to k - 1 do
    let i = slots.(a) in
    for c = 0 to k - 1 do
      let j = slots.(c) in
      if Test_access.feasible_ix e.e_table ~row ~src:tix.(i) ~snk:tix.(j)
      then begin
        b.b_src.(!m) <- i;
        b.b_snk.(!m) <- j;
        b.b_ready.(!m) <- max avail.(i) avail.(j);
        incr m
      end
    done
  done;
  e.e_scanned <- e.e_scanned + (k * k);
  !m

(* Stable sort of the candidate indices [order.(0 .. len-1)] by key,
   in place through [tmp]: insertion-sorted runs of 8, then bottom-up
   merges.  Returns whichever of the two arrays holds the result. *)
let sort_by_key key order tmp len =
  let run = 8 in
  let lo = ref 0 in
  while !lo < len do
    let hi = min (!lo + run) len in
    for a = !lo + 1 to hi - 1 do
      let q = order.(a) in
      let b = ref (a - 1) in
      while !b >= !lo && key.(order.(!b)) > key.(q) do
        order.(!b + 1) <- order.(!b);
        decr b
      done;
      order.(!b + 1) <- q
    done;
    lo := hi
  done;
  let src = ref order and dst = ref tmp and width = ref run in
  while !width < len do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < len do
      let mid = min (!lo + !width) len and hi = min (!lo + (2 * !width)) len in
      let i = ref !lo and j = ref mid in
      for o = !lo to hi - 1 do
        if !i < mid && (!j >= hi || key.(s.(!i)) <= key.(s.(!j))) then begin
          d.(o) <- s.(!i);
          incr i
        end
        else begin
          d.(o) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

(* Offer greedy candidate [q] to [try_commit]. *)
let offer e ~now module_id row q =
  try_commit e ~now module_id row e.e_cands.b_src.(q) e.e_cands.b_snk.(q)

(* Offer the [m] buffered greedy candidates in (ready, index) order —
   the order a stable sort of the source-major pairs by ready time
   visits them — until one commits.  The first comes from one
   min-scan, and most attempts end with it.  Only when it is rejected
   are the rest sorted, so an attempt that rejects every candidate
   stays O(m log m).  Returns whether one committed. *)
let select e ~now module_id row m =
  let b = e.e_cands in
  if m = 0 then false
  else begin
    let first = ref 0 in
    for q = 1 to m - 1 do
      if b.b_ready.(q) < b.b_ready.(!first) then first := q
    done;
    offer e ~now module_id row !first
    || begin
         let len = ref 0 in
         for q = 0 to m - 1 do
           if q <> !first then begin
             b.b_order.(!len) <- q;
             incr len
           end
         done;
         let order = sort_by_key b.b_ready b.b_order b.b_tmp !len in
         let won = ref false and p = ref 0 in
         while (not !won) && !p < !len do
           won := offer e ~now module_id row order.(!p);
           incr p
         done;
         !won
       end
  end

(* One lookahead attempt: walk the row's pairs in lookahead order
   ({!Pair_walk}), offering idle ones to [try_commit].  Pair
   feasibility and duration are fixed per (table, slot set), so the
   arena sorts each row's pairs once, the first time a lookahead
   attempt needs them.  Returns whether a pair committed. *)
let walk e ~now module_id row =
  let w =
    match e.e_walks.(row) with
    | Some w -> w
    | None ->
        let tix = e.e_tix in
        let w =
          Pair_walk.create ~n:e.e_n (fun ~src ~snk ->
              let src = tix.(src) and snk = tix.(snk) in
              if Test_access.feasible_ix e.e_table ~row ~src ~snk then
                Test_access.duration_ix e.e_table ~row ~src ~snk
              else -1)
        in
        e.e_walks.(row) <- Some w;
        w
  in
  let before = e.e_commits in
  e.e_scanned <-
    e.e_scanned
    + Pair_walk.walk w ~now ~avail:e.e_avail (fun i j ->
          try_commit e ~now module_id row i j);
  e.e_commits != before

(* ------------------------------------------------------------------ *)
(* Decision log                                                       *)

let is_processor = function
  | Resource.Processor _ -> true
  | Resource.External_in _ | Resource.External_out _ -> false

(* One decision-log candidate: a feasible pooled pair, busy or not.
   Captured {e before} the winning commit mutates the availability
   array, so every ready time is the one the policy actually saw. *)
type cand = { d_i : int; d_j : int; d_ready : int; d_dur : int }

(* Every feasible pair over the pooled slots — not just the subset the
   greedy policy admits (idle right now).  The paper's anomaly is
   precisely a faster external pair that was busy at commit time, so
   the decision log must record what the policy refused to look at.
   Only built at the [Decisions] trace level. *)
let all_candidates e ~row =
  let acc = ref [] in
  for i = e.e_n - 1 downto 0 do
    if e.e_avail.(i) <> not_pooled then
      for j = e.e_n - 1 downto 0 do
        if
          e.e_avail.(j) <> not_pooled
          && Test_access.feasible_ix e.e_table ~row ~src:e.e_tix.(i)
               ~snk:e.e_tix.(j)
        then
          acc :=
            {
              d_i = i;
              d_j = j;
              d_ready = max e.e_avail.(i) e.e_avail.(j);
              d_dur =
                Test_access.duration_ix e.e_table ~row ~src:e.e_tix.(i)
                  ~snk:e.e_tix.(j);
            }
            :: !acc
      done
  done;
  !acc

let emit_decision e ~now module_id ~policy cands ~winner:(wi, wj) =
  Trace.instant "scheduler.decision"
    ~attrs:
      [
        ("module", Trace.Int module_id);
        ("t", Trace.Int now);
        ("policy", Trace.String policy);
        ("candidates", Trace.Int (List.length cands));
      ];
  List.iter
    (fun c ->
      let src = e.e_endpoints.(c.d_i) and snk = e.e_endpoints.(c.d_j) in
      Trace.instant "scheduler.candidate"
        ~attrs:
          [
            ("module", Trace.Int module_id);
            ("source", Trace.String (Fmt.str "%a" Resource.pp src));
            ("sink", Trace.String (Fmt.str "%a" Resource.pp snk));
            ("source_processor", Trace.Bool (is_processor src));
            ("sink_processor", Trace.Bool (is_processor snk));
            ("ready", Trace.Int c.d_ready);
            ("duration", Trace.Int c.d_dur);
            ("est_finish", Trace.Int (max now c.d_ready + c.d_dur));
            ("eligible", Trace.Bool (c.d_ready <= now));
            ("chosen", Trace.Bool (c.d_i = wi && c.d_j = wj));
          ])
    cands

(* One scheduling attempt for one core at time [now]: greedy picks
   among the pairs of idle slots [slots.(0 .. k-1)], lookahead walks
   its row order.  Returns true if the core was started. *)
let attempt e ~slots ~k ~now module_id =
  let row = Test_access.module_row e.e_table module_id in
  (* The decision log needs the pre-commit availability picture. *)
  let shadow = if Trace.decisions () then Some (all_candidates e ~row) else None in
  let committed =
    match e.e_config.policy with
    | Greedy -> select e ~now module_id row (fill_candidates e ~row slots k)
    | Lookahead -> walk e ~now module_id row
  in
  (match (shadow, e.e_commits) with
  | Some all, c :: _ when committed ->
      emit_decision e ~now module_id
        ~policy:(Fmt.str "%a" pp_policy e.e_config.policy)
        all ~winner:(c.c_src, c.c_snk)
  | _ -> ());
  committed

let event_loop e pending0 =
  (* The idle-slot set is a function of the availability array and the
     current time, both of which change only on a commit or an event
     advance — so it is computed once per quiescent stretch and shared
     by every pending module's attempt, instead of rescanning all slots
     (most attempts fail) per attempt.  Without an idle source-capable
     and an idle sink-capable slot no attempt can commit under either
     policy, so none is made.  Skipping them is exact: a failed attempt
     has no side effects, and the set is re-derived after every
     commit. *)
  let slots = Array.make (max 1 e.e_n) 0 in
  let k = ref 0 in
  let idle_pair = ref false in
  let stale = ref true in
  let refresh () =
    k := 0;
    let src = ref false and snk = ref false in
    for i = 0 to e.e_n - 1 do
      let a = e.e_avail.(i) in
      if a <> not_pooled && a <= e.e_now then begin
        slots.(!k) <- i;
        incr k;
        if Resource.can_source e.e_endpoints.(i) then src := true;
        if Resource.can_sink e.e_endpoints.(i) then snk := true
      end
    done;
    idle_pair := !src && !snk;
    stale := false
  in
  let start ~now id =
    if !stale then refresh ();
    if not !idle_pair then begin
      e.e_skipped <- e.e_skipped + 1;
      false
    end
    else begin
      e.e_attempts <- e.e_attempts + 1;
      let committed = attempt e ~slots ~k:!k ~now id in
      if committed then stale := true;
      committed
    end
  in
  let pending = ref pending0 in
  let guard = ref 0 in
  while !pending <> [] do
    incr guard;
    if !guard > 10_000_000 then
      raise (Unschedulable "scheduler did not converge");
    if !stale then refresh ();
    if !idle_pair then
      pending := List.filter (fun id -> not (start ~now:e.e_now id)) !pending
    else e.e_skipped <- e.e_skipped + List.length !pending;
    if !pending <> [] then begin
      (* Advance to the next endpoint-release event: pop until a pair
         that still matches its slot's availability (later bookings
         overwrite earlier release times, leaving stale entries). *)
      let rec next_event () =
        match Min_heap.pop e.e_releases with
        | None -> None
        | Some (time, i) ->
            (* Sentinel gate events ([i = e_n]) carry no slot to
               cross-check; slot events must still match their slot's
               availability (later bookings overwrite earlier release
               times, leaving stale entries). *)
            if time > e.e_now && (i >= e.e_n || e.e_avail.(i) = time) then
              Some time
            else next_event ()
      in
      match next_event () with
      | Some t ->
          e.e_now <- t;
          if Trace.decisions () then
            Trace.instant "scheduler.advance" ~attrs:[ ("t", Trace.Int t) ];
          stale := true
      | None ->
          raise
            (Unschedulable
               (Printf.sprintf
                  "no progress at t=%d with %d cores pending (power limit too \
                   tight or no resources)"
                  e.e_now
                  (List.length !pending)))
    end
  done

let finish_trace e =
  {
    t_system = e.e_system;
    t_access = e.e_table;
    t_config = e.e_config;
    t_order = e.e_order;
    t_commits = Array.of_list (List.rev e.e_commits);
    t_schedule = Schedule.of_entries e.e_committed;
    t_monitor = e.e_monitor;
  }

let run_traced ?workspace ?access system config =
  let go () =
    let table = resolve_table ?access ~application:config.application system in
    let wanted = wanted_modules system config in
    let initial_order =
      match config.order with
      | None ->
          let wanted_set = Hashtbl.create (max 1 (List.length wanted)) in
          List.iter (fun id -> Hashtbl.replace wanted_set id ()) wanted;
          List.filter
            (fun id -> Hashtbl.mem wanted_set id)
            (Priority.order system ~reuse:config.reuse)
      | Some order ->
          check_permutation ~wanted order;
          order
    in
    let e =
      make_engine ?workspace ~table system config (Array.of_list initial_order)
    in
    event_loop e initial_order;
    e
  in
  if not (Trace.enabled ()) then finish_trace (go ())
  else begin
    Trace.begin_span "scheduler.run"
      ~attrs:
        [
          ("policy", Trace.String (Fmt.str "%a" pp_policy config.policy));
          ("reuse", Trace.Int config.reuse);
        ];
    match go () with
    | e ->
        let tr = finish_trace e in
        Trace.end_span "scheduler.run"
          ~attrs:
            [
              ("makespan", Trace.Int tr.t_schedule.Schedule.makespan);
              ("commits", Trace.Int (Array.length tr.t_commits));
              ("attempts", Trace.Int e.e_attempts);
              ("skipped", Trace.Int e.e_skipped);
              ("pairs_scanned", Trace.Int e.e_scanned);
            ];
        tr
    | exception exn ->
        Trace.end_span "scheduler.run" ~attrs:[ ("raised", Trace.Bool true) ];
        raise exn
  end

let run ?access system config = (run_traced ?access system config).t_schedule

(* ------------------------------------------------------------------ *)
(* Prefix resume                                                      *)

(* Re-apply a traced commit's effects.  The calendar booking goes
   through the unchecked [Reservation.restore] (the trace proves the
   window free), and the power ledger is not touched here: [resume]
   restores it wholesale with [Power_monitor.copy_truncated], because
   the kept entries are exactly those of the replayed commits (commits
   apply in nondecreasing start order, and the cut is at a start
   time).  Direct array writes instead of [set_avail]: the release
   heap is rebuilt in one pass after the replay. *)
let replay_commit e c =
  let entry = c.c_entry in
  Reservation.restore e.e_calendar ~owner:entry.Schedule.module_id
    c.c_channels ~start:entry.Schedule.start ~finish:entry.Schedule.finish;
  e.e_avail.(c.c_src) <- entry.Schedule.finish;
  e.e_avail.(c.c_snk) <- entry.Schedule.finish;
  (match System.processor_of_module e.e_system entry.Schedule.module_id with
  | Some _ -> (
      match Hashtbl.find_opt e.e_proc_slot entry.Schedule.module_id with
      | Some k -> e.e_avail.(k) <- entry.Schedule.finish
      | None -> ())
  | None -> ());
  e.e_committed <- entry :: e.e_committed;
  e.e_commits <-
    { c with c_pos = Hashtbl.find e.e_pos entry.Schedule.module_id }
    :: e.e_commits

(* Why this is exact (and not just approximate): let [[p, hi]] be the
   smallest position window containing every position where the new
   order differs from the traced one.  Outside the window the two
   orders place the same module at the same position, so any two
   modules not both inside the window keep their relative order.
   Within every event, modules are attempted in order position and a
   failed attempt leaves no state behind, so the two runs evolve
   commit for commit identically as long as every committing module
   sits outside the window: such a commit is seen (or not seen) by any
   later attempt identically in both runs, because position
   comparisons against a position < p or > hi do not depend on how the
   window itself is arranged.  The first place the runs can diverge is
   therefore the event at which the first module at a position inside
   [[p, hi]] commits.  Replaying the commits that start strictly
   before that event, restoring the calendar and power ledger by
   truncation, jumping to the divergence event and re-entering the
   normal loop reproduces the from-scratch run byte for byte — the
   "incremental evaluation" property test pins this across systems,
   policies and power limits. *)

let resume ?workspace trace order =
  let order = Array.copy order in
  check_permutation
    ~wanted:(Array.to_list trace.t_order)
    (Array.to_list order);
  let p = trace_lcp trace order in
  if p = Array.length order then trace
  else begin
    let go () =
      (* First traced commit of a module inside the changed window; one
         exists because every position commits exactly once. *)
      let hi = trace_last_diff trace order in
      let s = divergence_stop trace ~p ~hi in
      assert (s >= 0);
      let t_star = trace.t_commits.(s).c_entry.Schedule.start in
      let e0 =
        make_engine ?workspace ~table:trace.t_access trace.t_system
          trace.t_config order
      in
      (* Restore the shared-prefix power ledger by truncating the
         trace's final one: the entries starting before [t_star] are
         exactly those of the commits replayed below (which rebuild the
         calendar side themselves through [Reservation.restore]). *)
      let mon = Power_monitor.copy_truncated trace.t_monitor ~before:t_star in
      let e = { e0 with e_monitor = mon } in
      let committed = Hashtbl.create (max 1 s) in
      let k = ref 0 in
      while !k < s && trace.t_commits.(!k).c_entry.Schedule.start < t_star do
        let c = trace.t_commits.(!k) in
        replay_commit e c;
        Hashtbl.replace committed c.c_entry.Schedule.module_id ();
        incr k
      done;
      if Trace.enabled () then
        Trace.instant "scheduler.replay"
          ~attrs:
            [ ("commits", Trace.Int !k); ("divergence_t", Trace.Int t_star) ];
      e.e_now <- t_star;
      for i = 0 to e.e_n - 1 do
        if e.e_avail.(i) > t_star then
          Min_heap.push e.e_releases ~key:e.e_avail.(i) ~value:i
      done;
      let pending =
        List.filter
          (fun id -> not (Hashtbl.mem committed id))
          (Array.to_list order)
      in
      event_loop e pending;
      finish_trace e
    in
    if not (Trace.enabled ()) then go ()
    else begin
      Trace.begin_span "scheduler.resume"
        ~attrs:[ ("modules", Trace.Int (Array.length order)) ];
      match go () with
      | tr ->
          Trace.end_span "scheduler.resume"
            ~attrs:
              [ ("makespan", Trace.Int tr.t_schedule.Schedule.makespan) ];
          tr
      | exception exn ->
          Trace.end_span "scheduler.resume"
            ~attrs:[ ("raised", Trace.Bool true) ];
          raise exn
    end
  end

let resume_gain trace order =
  let p = trace_lcp trace order in
  if p = Array.length order && p = Array.length trace.t_order then max_int
  else begin
    let hi = trace_last_diff trace order in
    let s = divergence_stop trace ~p ~hi in
    if s < 0 then 0
    else begin
      let t_star = trace.t_commits.(s).c_entry.Schedule.start in
      let g = ref 0 in
      while
        !g < s && trace.t_commits.(!g).c_entry.Schedule.start < t_star
      do
        incr g
      done;
      !g
    end
  end
