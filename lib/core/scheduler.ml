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

type trace = {
  t_system : System.t;
  t_access : Test_access.table;
  t_config : config;  (* with [order = None]; the order lives in [t_order] *)
  t_order : int array;
  (* The commit log, chronological (starts are nondecreasing): each
     committed test's finish and its module's position in [t_order] —
     all [prefix_bound] reads. *)
  t_finish : int array;
  t_pos : int array;
  t_schedule : Schedule.t;
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

(* Largest finish over the commits shared by every order agreeing with
   the traced one on its first [prefix_len] positions.  Commits logged
   before the first commit of a module at position >= [prefix_len]
   happen identically in all such runs (attempts proceed in order
   position, and failed attempts are side-effect-free), so their
   maximal finish lower-bounds every makespan in the subtree — the
   pruning rule of the order-space branch-and-bound. *)
let prefix_bound t ~prefix_len =
  let bound = ref t.t_config.start_time and k = ref 0 in
  while !k < Array.length t.t_pos && t.t_pos.(!k) < prefix_len do
    bound := max !bound t.t_finish.(!k);
    incr k
  done;
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

(* The preemptive session chunks of one module ({!run_sessions}). *)
type chunk = {
  k_patterns : int;  (* the module's whole pattern set *)
  mutable k_left : int list;  (* pattern counts of the chunks still to run *)
  mutable k_ready : int;  (* finish of the last committed chunk *)
  mutable k_done : (Schedule.entry * int) list;  (* with pattern counts *)
}

(* The full mutable state of one evaluation. *)
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
  e_chunks : (int, chunk) Hashtbl.t option;  (* by module; [None]: plain run *)
  mutable e_now : int;
  mutable e_committed : Schedule.entry list;  (* reversed chronological *)
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

let make_engine ?workspace ?chunks ~table system config order =
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
      e_gates = gates;
      e_cands = arena.a_cands;
      e_walks = arena.a_walks;
      e_chunks = chunks;
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

(* A test's duration on the pair: the cell's, or that of its module's
   next session chunk of [p] patterns, which pays setup, fills and
   drain in full and [p] of the cell's patterns.  [try_commit] and the
   decision log both read it here. *)
let duration e module_id ~row ~src ~snk =
  let d = Test_access.duration_ix e.e_table ~row ~src ~snk in
  match e.e_chunks with
  | None -> d
  | Some chunks ->
      let c = Hashtbl.find chunks module_id in
      let cut = c.k_patterns - List.hd c.k_left in
      d - (cut * Test_access.per_pattern_ix e.e_table ~row ~src ~snk)

(* Log a commit as its module's next session chunk; whether the
   module's test is now complete (always on a plain run). *)
let chunk_committed e module_id entry =
  match e.e_chunks with
  | None -> true
  | Some chunks ->
      let c = Hashtbl.find chunks module_id in
      c.k_done <- (entry, List.hd c.k_left) :: c.k_done;
      c.k_left <- List.tl c.k_left;
      c.k_ready <- entry.Schedule.finish;
      c.k_left = []

(* The probe reads the cell's scalars and its two legs' channel arrays:
   the path is free iff both legs are, so the union is built only when
   the pair commits.  Power is read only under a limit, so an
   unconstrained probe boxes no float. *)
let try_commit e ~now module_id row i j =
  let t = e.e_table in
  let src = e.e_tix.(i) and snk = e.e_tix.(j) in
  let finish = now + duration e module_id ~row ~src ~snk in
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
       test (its last session chunk) completes. *)
    let tested = chunk_committed e module_id entry in
    (match System.processor_of_module e.e_system module_id with
    | Some _ when tested -> (
        match Hashtbl.find_opt e.e_proc_slot module_id with
        | Some k -> set_avail e k finish
        | None -> (* beyond the reuse horizon: tested but not reused *) ())
    | Some _ | None -> ());
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
        b.b_ready.(!m) <- Int.max avail.(i) avail.(j);
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
  let before = e.e_committed in
  e.e_scanned <-
    e.e_scanned
    + Pair_walk.walk w ~now ~avail:e.e_avail (fun i j ->
          try_commit e ~now module_id row i j);
  e.e_committed != before

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
let all_candidates e module_id ~row =
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
                duration e module_id ~row ~src:e.e_tix.(i) ~snk:e.e_tix.(j);
            }
            :: !acc
      done
  done;
  !acc

(* [winner] is the committed entry: its endpoints are the slot array's
   own values, so physical equality names the chosen slots. *)
let emit_decision e ~now module_id ~policy cands ~(winner : Schedule.entry) =
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
            ( "chosen",
              Trace.Bool
                (e.e_endpoints.(c.d_i) == winner.Schedule.source
                && e.e_endpoints.(c.d_j) == winner.Schedule.sink) );
          ])
    cands

(* One scheduling attempt for one core at time [now]: greedy picks
   among the pairs of idle slots [slots.(0 .. k-1)], lookahead walks
   its row order.  Returns true if the core was started. *)
let attempt e ~slots ~k ~now module_id =
  let row = Test_access.module_row e.e_table module_id in
  (* The decision log needs the pre-commit availability picture. *)
  let shadow =
    if Trace.decisions () then Some (all_candidates e module_id ~row) else None
  in
  let committed =
    match e.e_config.policy with
    | Greedy -> select e ~now module_id row (fill_candidates e ~row slots k)
    | Lookahead -> walk e ~now module_id row
  in
  (match (shadow, e.e_committed) with
  | Some all, winner :: _ when committed ->
      emit_decision e ~now module_id
        ~policy:(Fmt.str "%a" pp_policy e.e_config.policy)
        all ~winner
  | _ -> ());
  committed

let event_loop e pending0 =
  (* The idle-slot set is a function of the availability array and the
     current time, both of which change only on a commit or an event
     advance — so it is computed once per quiescent stretch and shared
     by every pending module's attempt, instead of rescanning all slots
     (most attempts fail) per attempt.  Without two idle slots, one
     source-capable and one sink-capable, no attempt can commit under
     either policy, so none is made: a pair needs two distinct slots
     (a lone idle processor can both source and sink, but not test
     through itself).  Skipping them is exact: a failed attempt has no
     side effects, and the set is re-derived after every commit. *)
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
    idle_pair := !k >= 2 && !src && !snk;
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
  (* A module stays pending until its last session chunk commits, and
     no chunk is tried before the previous one's finish: the release
     time of the previous chunk's slots, already in the heap. *)
  let tested ~now id =
    match e.e_chunks with
    | None -> start ~now id
    | Some chunks ->
        let c = Hashtbl.find chunks id in
        c.k_ready <= now && start ~now id && c.k_left = []
  in
  let pending = ref pending0 in
  let guard = ref 0 in
  while !pending <> [] do
    incr guard;
    if !guard > 10_000_000 then
      raise (Unschedulable "scheduler did not converge");
    if !stale then refresh ();
    if !idle_pair then
      pending := List.filter (fun id -> not (tested ~now:e.e_now id)) !pending
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
  let n = List.length e.e_committed in
  let finish = Array.make n 0 and pos = Array.make n 0 in
  List.iteri
    (fun k c ->
      finish.(n - 1 - k) <- c.Schedule.finish;
      pos.(n - 1 - k) <- Hashtbl.find e.e_pos c.Schedule.module_id)
    e.e_committed;
  {
    t_system = e.e_system;
    t_access = e.e_table;
    t_config = e.e_config;
    t_order = e.e_order;
    t_finish = finish;
    t_pos = pos;
    t_schedule = Schedule.of_entries e.e_committed;
  }

(* One engine run from scratch, under the [scheduler.run] span. *)
let run_engine ?workspace ?access ?chunks system config =
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
      make_engine ?workspace ?chunks ~table system config
        (Array.of_list initial_order)
    in
    event_loop e initial_order;
    e
  in
  if not (Trace.enabled ()) then go ()
  else begin
    Trace.begin_span "scheduler.run"
      ~attrs:
        [
          ("policy", Trace.String (Fmt.str "%a" pp_policy config.policy));
          ("reuse", Trace.Int config.reuse);
        ];
    match go () with
    | e ->
        let makespan =
          List.fold_left (fun m c -> max m c.Schedule.finish) 0 e.e_committed
        in
        Trace.end_span "scheduler.run"
          ~attrs:
            [
              ("makespan", Trace.Int makespan);
              ("commits", Trace.Int (List.length e.e_committed));
              ("attempts", Trace.Int e.e_attempts);
              ("skipped", Trace.Int e.e_skipped);
              ("pairs_scanned", Trace.Int e.e_scanned);
            ];
        e
    | exception exn ->
        Trace.end_span "scheduler.run" ~attrs:[ ("raised", Trace.Bool true) ];
        raise exn
  end

let run_traced ?workspace ?access system config =
  finish_trace (run_engine ?workspace ?access system config)

let run ?access system config =
  Schedule.of_entries (run_engine ?access system config).e_committed

let run_sessions ?access system ~application ~power_limit ~reuse ~max_sessions =
  if max_sessions < 1 then
    invalid_arg "Scheduler.run_sessions: max_sessions must be >= 1";
  let chunks = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let m = Nocplan_itc02.Soc.find system.System.soc id in
      let patterns = m.Nocplan_itc02.Module_def.patterns in
      (* Near-equal chunks of at least one pattern each. *)
      let n = min max_sessions patterns in
      let size i = (patterns / n) + if i < patterns mod n then 1 else 0 in
      Hashtbl.replace chunks id
        { k_patterns = patterns; k_left = List.init n size; k_ready = 0;
          k_done = [] })
    (System.module_ids system);
  let config = config ~application ~power_limit ~reuse () in
  ignore (run_engine ?access ~chunks system config);
  Hashtbl.fold (fun _ c acc -> List.rev_append c.k_done acc) chunks []
