module Link = Nocplan_noc.Link
module Soc = Nocplan_itc02.Soc

type entry = {
  module_id : int;
  source : Resource.endpoint;
  sink : Resource.endpoint;
  start : int;
  finish : int;
  power : float;
  links : Link.t list;
}

type t = { entries : entry list; makespan : int }

let of_entries entries =
  List.iter
    (fun e ->
      if e.start < 0 || e.finish < e.start then
        invalid_arg
          (Printf.sprintf "Schedule.of_entries: malformed interval on module %d"
             e.module_id))
    entries;
  let entries =
    List.sort
      (fun a b ->
        let c = Int.compare a.start b.start in
        if c <> 0 then c else Int.compare a.module_id b.module_id)
      entries
  in
  let makespan = List.fold_left (fun acc e -> max acc e.finish) 0 entries in
  { entries; makespan }

let entries_for t id = List.filter (fun e -> e.module_id = id) t.entries

type violation =
  | Unknown_module of int
  | Module_outside_plan of int
  | Module_not_tested of int
  | Module_tested_twice of int
  | Patterns_not_covered of { module_id : int; applied : int; required : int }
  | Invalid_pair of entry
  | Endpoint_overlap of Resource.endpoint * entry * entry
  | Link_overlap of Link.t * entry * entry
  | Module_overlap of entry * entry
  | Power_exceeded of { time : int; total : float; limit : float }
  | Processor_not_reusable of entry
  | Processor_used_before_tested of { user : entry; processor_id : int }
  | Wrong_cost of { entry : entry; expected_duration : int }
  | Wrong_links of entry
  | Insufficient_memory of entry
  | Uses_failed_link of entry
  | Before_start_time of { entry : entry; start_time : int }
  | Link_not_ready of { entry : entry; link : Link.t; ready : int }
  | Unfinished_at_start_time of { entry : entry; start_time : int }

(* The cost model the per-interval checks consult.  A caller's XY table
   is a pure cache: a lookup it cannot answer (module or endpoint
   outside the table) falls back to the direct computation, so the
   verdict is the same with and without it.  A table built for a custom
   route is the only model there is — the direct computation assumes XY
   routes — so its failed lookups are violations. *)
type model = {
  system : System.t;
  application : Nocplan_proc.Processor.application;
  table : Test_access.table option;
}

let via m lookup direct =
  match m.table with
  | None -> direct ()
  | Some tbl -> (
      match lookup tbl with
      | v -> v
      | exception Invalid_argument _ when not (Test_access.table_routed tbl)
        ->
          direct ())

(* A session is priced directly for its own pattern count; a full test
   through the model. *)
let cost_of m e = function
  | Some patterns ->
      Test_access.cost ~patterns m.system ~application:m.application
        ~module_id:e.module_id ~source:e.source ~sink:e.sink
  | None ->
      via m
        (fun tbl ->
          Test_access.table_cost tbl ~module_id:e.module_id ~source:e.source
            ~sink:e.sink)
        (fun () ->
          Test_access.cost m.system ~application:m.application
            ~module_id:e.module_id ~source:e.source ~sink:e.sink)

(* Planners copy the model's link list, so physical equality settles
   almost every entry. *)
let same_links a b =
  a == b
  || List.equal Link.equal a b
  || Link.Set.equal (Link.Set.of_list a) (Link.Set.of_list b)

(* Every module of the plan is tested exactly once, or — for sessions —
   by intervals whose pattern counts sum to the module's; nothing
   outside the plan is tested. *)
let check_coverage add system ~planned intervals =
  let soc = system.System.soc in
  let required = Hashtbl.create 64 in
  List.iter
    (fun (m : Nocplan_itc02.Module_def.t) ->
      Hashtbl.replace required m.id m.patterns)
    soc.Soc.modules;
  let in_plan = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_plan id ()) planned;
  let applied = Hashtbl.create 64 in
  Array.iter
    (fun (e, patterns) ->
      match Hashtbl.find_opt required e.module_id with
      | None -> add (Unknown_module e.module_id)
      | Some _ when not (Hashtbl.mem in_plan e.module_id) ->
          add (Module_outside_plan e.module_id)
      | Some full ->
          let sum =
            Option.value (Hashtbl.find_opt applied e.module_id) ~default:0
          in
          Hashtbl.replace applied e.module_id
            (sum + Option.value patterns ~default:full))
    intervals;
  List.iter
    (fun id ->
      match (Hashtbl.find_opt required id, Hashtbl.find_opt applied id) with
      | None, _ -> add (Unknown_module id)
      | Some _, None -> add (Module_not_tested id)
      | Some full, Some sum ->
          if sum > full then add (Module_tested_twice id)
          else if sum < full then
            add
              (Patterns_not_covered
                 { module_id = id; applied = sum; required = full }))
    planned

(* The checks of one interval on its own: the frontier, the cost model
   and the processor endpoints it draws on. *)
let check_interval add m ~start_time ~gates ~reusable ~ready (e, patterns) =
  if e.start < start_time then
    add (Before_start_time { entry = e; start_time });
  if Hashtbl.length gates > 0 then
    List.iter
      (fun l ->
        match Hashtbl.find_opt gates l with
        | Some ready when e.start < ready ->
            add (Link_not_ready { entry = e; link = l; ready })
        | Some _ | None -> ())
      e.links;
  (match cost_of m e patterns with
  | c ->
      if
        e.finish - e.start <> c.Test_access.duration
        || not (Float.equal e.power c.Test_access.power)
      then
        add
          (Wrong_cost
             { entry = e; expected_duration = c.Test_access.duration });
      if not (same_links e.links c.Test_access.links) then add (Wrong_links e)
  | exception Invalid_argument _ -> add (Invalid_pair e));
  (match
     via m
       (fun tbl ->
         Test_access.table_memory_feasible tbl ~module_id:e.module_id
           ~source:e.source)
       (fun () ->
         Test_access.memory_feasible m.system ~application:m.application
           ~module_id:e.module_id ~source:e.source)
   with
  | true -> ()
  | false -> add (Insufficient_memory e)
  | exception Invalid_argument _ -> add (Unknown_module e.module_id));
  (match
     via m
       (fun tbl ->
         Test_access.table_route_feasible tbl ~module_id:e.module_id
           ~source:e.source ~sink:e.sink)
       (fun () ->
         Test_access.route_feasible m.system ~module_id:e.module_id
           ~source:e.source ~sink:e.sink)
   with
  | true -> ()
  | false -> add (Uses_failed_link e)
  | exception Invalid_argument _ -> add (Unknown_module e.module_id));
  let check_endpoint = function
    | Resource.Processor id -> (
        if not (List.mem id reusable) then add (Processor_not_reusable e);
        match Hashtbl.find_opt ready id with
        | Some t when t <= e.start -> ()
        | Some _ | None ->
            add (Processor_used_before_tested { user = e; processor_id = id }))
    | Resource.External_in _ | Resource.External_out _ -> ()
  in
  check_endpoint e.source;
  check_endpoint e.sink

(* Pairwise exclusivity over intervals sorted by start: the intervals
   overlapping [a.(i)] from the right are exactly those after it that
   start before it finishes. *)
let check_overlaps add a =
  let n = Array.length a in
  let links = Array.map (fun (e, _) -> lazy (Link.Set.of_list e.links)) a in
  for i = 0 to n - 1 do
    let x, _ = a.(i) in
    let j = ref (i + 1) in
    while !j < n && (fst a.(!j)).start < x.finish do
      let y, _ = a.(!j) in
      if x.start < y.finish then begin
        if x.module_id = y.module_id then add (Module_overlap (x, y));
        List.iter
          (fun (ex, ey) ->
            if Resource.equal ex ey then add (Endpoint_overlap (ex, x, y)))
          [ (x.source, y.source); (x.source, y.sink); (x.sink, y.source);
            (x.sink, y.sink) ];
        let ys = Lazy.force links.(!j) in
        List.iter
          (fun l -> if Link.Set.mem l ys then add (Link_overlap (l, x, y)))
          x.links
      end;
      incr j
    done
  done

(* Instantaneous power peaks at some interval's start; the intervals
   active then are among the sorted prefix starting no later. *)
let check_power add ~power_limit a =
  match power_limit with
  | None -> ()
  | Some limit ->
      let n = Array.length a in
      Array.iter
        (fun (x, _) ->
          let time = x.start in
          let total = ref 0.0 and j = ref 0 in
          while !j < n && (fst a.(!j)).start <= time do
            let y, _ = a.(!j) in
            if time < y.finish then total := !total +. y.power;
            incr j
          done;
          if !total > limit +. 1e-9 then
            add (Power_exceeded { time; total = !total; limit }))
        a

let by_start (a, _) (b, _) =
  let c = Int.compare a.start b.start in
  if c <> 0 then c else Int.compare a.module_id b.module_id

let check ?access ?(start_time = 0) ?modules ?(pretested = [])
    ?(link_ready = []) system ~application ~power_limit ~reuse intervals =
  let table =
    match access with
    | Some tbl when Test_access.table_for tbl ~system ~application -> Some tbl
    | Some _ | None -> None
  in
  let m = { system; application; table } in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let planned =
    match modules with
    | None -> System.module_ids system
    | Some ids -> List.sort_uniq Int.compare ids
  in
  check_coverage add system ~planned intervals;
  let reusable =
    List.filteri (fun i _ -> i < reuse) system.System.processors
    |> List.map (fun p -> p.System.module_id)
  in
  (* A processor is ready when its last interval ends, or at the
     frontier if it was tested before it. *)
  let ready = Hashtbl.create 16 in
  Array.iter
    (fun (e, _) ->
      match Hashtbl.find_opt ready e.module_id with
      | Some t when t >= e.finish -> ()
      | Some _ | None -> Hashtbl.replace ready e.module_id e.finish)
    intervals;
  List.iter (fun id -> Hashtbl.replace ready id start_time) pretested;
  let gates = Hashtbl.create (max 1 (List.length link_ready)) in
  List.iter
    (fun (l, t) ->
      match Hashtbl.find_opt gates l with
      | Some t' when t' >= t -> ()
      | Some _ | None -> Hashtbl.replace gates l t)
    link_ready;
  Array.iter
    (check_interval add m ~start_time ~gates ~reusable ~ready)
    intervals;
  check_overlaps add intervals;
  check_power add ~power_limit intervals;
  List.rev !violations

let result = function [] -> Ok () | vs -> Error vs

(* Intervals in any order, sorted for the overlap and power sweeps. *)
let sorted intervals =
  let a = Array.of_list intervals in
  Array.stable_sort by_start a;
  a

let validate ?access ?start_time ?modules ?pretested ?link_ready system
    ~application ~power_limit ~reuse t =
  result
    (check ?access ?start_time ?modules ?pretested ?link_ready system
       ~application ~power_limit ~reuse
       (Array.of_list (List.map (fun e -> (e, None)) t.entries)))

(* The kept tests themselves: each finished by the event, kept once and
   not abandoned.  Their modules leave the plan and their processors
   are pretested, so a kept entry still running at [at] would let the
   replan use a processor before its test ends. *)
let validate_replan ?access ?(abandoned = []) system ~application
    ~power_limit ~reuse ~at ~kept replanned =
  let done_ = Hashtbl.create 64 in
  let kept_violations =
    List.concat_map
      (fun e ->
        let twice = Hashtbl.mem done_ e.module_id in
        Hashtbl.replace done_ e.module_id ();
        List.filter_map Fun.id
          [
            (if twice then Some (Module_tested_twice e.module_id) else None);
            (if List.mem e.module_id abandoned then
               Some (Module_outside_plan e.module_id)
             else None);
            (if e.finish > at then
               Some (Unfinished_at_start_time { entry = e; start_time = at })
             else None);
          ])
      kept
  in
  let modules =
    List.filter
      (fun id -> not (Hashtbl.mem done_ id || List.mem id abandoned))
      (System.module_ids system)
  in
  let pretested =
    List.filter (System.is_processor_module system)
      (List.of_seq (Hashtbl.to_seq_keys done_))
  in
  result
    (kept_violations
    @ check ?access ~start_time:at ~modules ~pretested system ~application
        ~power_limit ~reuse
        (sorted (List.map (fun e -> (e, None)) replanned)))

let validate_sessions system ~application ~power_limit ~reuse sessions =
  result
    (check system ~application ~power_limit ~reuse
       (sorted (List.map (fun (e, patterns) -> (e, Some patterns)) sessions)))

let pp_entry ppf e =
  Fmt.pf ppf "@[<h>[%d,%d) module %d: %a -> %a, power %.1f@]" e.start e.finish
    e.module_id Resource.pp e.source Resource.pp e.sink e.power

let pp_violation ppf = function
  | Unknown_module id -> Fmt.pf ppf "unknown module %d" id
  | Module_outside_plan id ->
      Fmt.pf ppf "module %d tested but not among the planned modules" id
  | Module_not_tested id -> Fmt.pf ppf "module %d never tested" id
  | Module_tested_twice id -> Fmt.pf ppf "module %d tested more than once" id
  | Patterns_not_covered { module_id; applied; required } ->
      Fmt.pf ppf "module %d: %d of %d patterns applied" module_id applied
        required
  | Invalid_pair e -> Fmt.pf ppf "invalid source/sink pair: %a" pp_entry e
  | Endpoint_overlap (r, a, b) ->
      Fmt.pf ppf "endpoint %a double-booked:@ %a@ vs %a" Resource.pp r pp_entry
        a pp_entry b
  | Link_overlap (l, a, b) ->
      Fmt.pf ppf "link %a double-booked:@ %a@ vs %a" Link.pp l pp_entry a
        pp_entry b
  | Module_overlap (a, b) ->
      Fmt.pf ppf "module %d tested twice at once:@ %a@ vs %a" a.module_id
        pp_entry a pp_entry b
  | Power_exceeded { time; total; limit } ->
      Fmt.pf ppf "power %.1f over limit %.1f at t=%d" total limit time
  | Processor_not_reusable e ->
      Fmt.pf ppf "non-reusable processor used: %a" pp_entry e
  | Processor_used_before_tested { user; processor_id } ->
      Fmt.pf ppf "processor %d used before tested: %a" processor_id pp_entry
        user
  | Wrong_cost { entry; expected_duration } ->
      Fmt.pf ppf "entry duration %d != cost model %d: %a"
        (entry.finish - entry.start)
        expected_duration pp_entry entry
  | Wrong_links e ->
      Fmt.pf ppf "entry links differ from the cost model's channels: %a"
        pp_entry e
  | Insufficient_memory e ->
      Fmt.pf ppf "source memory too small for the test data: %a" pp_entry e
  | Uses_failed_link e ->
      Fmt.pf ppf "test path crosses a failed link: %a" pp_entry e
  | Before_start_time { entry; start_time } ->
      Fmt.pf ppf "entry starts before the plan's start time %d: %a" start_time
        pp_entry entry
  | Link_not_ready { entry; link; ready } ->
      Fmt.pf ppf "link %a used before its self-test passes at %d: %a" Link.pp
        link ready pp_entry entry
  | Unfinished_at_start_time { entry; start_time } ->
      Fmt.pf ppf "kept entry still running at the plan's start time %d: %a"
        start_time pp_entry entry

let pp ppf t =
  Fmt.pf ppf "@[<v>schedule (makespan %d):@,%a@]" t.makespan
    (Fmt.list ~sep:Fmt.cut pp_entry)
    t.entries

let resource_busy_time t endpoint =
  List.fold_left
    (fun acc e ->
      if Resource.equal e.source endpoint || Resource.equal e.sink endpoint
      then acc + (e.finish - e.start)
      else acc)
    0 t.entries
