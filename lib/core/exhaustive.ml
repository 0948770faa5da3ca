module Processor = Nocplan_proc.Processor

type result = { schedule : Schedule.t; exact : bool; nodes : int }

type order_result = {
  schedule : Schedule.t;
  exact : bool;
  evaluations : int;
  pruned : int;
}

(* ------------------------------------------------------------------ *)
(* Order-space search                                                 *)

(* Depth-first over permutations of the module order, in lexicographic
   order relative to the priority heuristic, so consecutive leaves
   share long prefixes; every leaf is one full engine run through the
   shared {!Eval_cache}.  Subtrees are cut with
   {!Scheduler.prefix_bound}: the commits a cached trace logged before
   its first commit at a changed position are shared by every order in
   the subtree, so their largest finish lower-bounds all of its
   makespans. *)
let order_search ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?(power_limit = None) ?(max_evals = 20_000) ~reuse system =
  if max_evals < 1 then
    invalid_arg "Exhaustive.order_search: max_evals must be >= 1";
  let cfg = Scheduler.config ~policy ~application ~power_limit ~reuse () in
  let cache = Eval_cache.create ~capacity:8 system cfg in
  let modules = Priority.order system ~reuse in
  let n = List.length modules in
  let makespan tr = (Scheduler.trace_schedule tr).Schedule.makespan in
  let best = ref None in
  let best_makespan () =
    match !best with None -> max_int | Some tr -> makespan tr
  in
  let evaluations = ref 0 in
  let pruned = ref 0 in
  let exact = ref true in
  let buf = Array.make (max 1 n) 0 in
  let rec go depth remaining =
    if !exact then
      match remaining with
      | [] ->
          if !evaluations >= max_evals then exact := false
          else begin
            incr evaluations;
            match Eval_cache.evaluate cache (Array.sub buf 0 n) with
            | exception Scheduler.Unschedulable _ -> ()
            | tr -> if makespan tr < best_makespan () then best := Some tr
          end
      | _ ->
          List.iter
            (fun id ->
              if !exact then begin
                buf.(depth) <- id;
                let incumbent = best_makespan () in
                let prefix = Array.sub buf 0 (depth + 1) in
                let cut =
                  incumbent < max_int
                  && List.exists
                       (fun tr ->
                         let l = Scheduler.trace_lcp tr prefix in
                         Scheduler.prefix_bound tr ~prefix_len:l >= incumbent)
                       (Eval_cache.traces cache)
                in
                if cut then incr pruned
                else
                  go (depth + 1)
                    (List.filter (fun other -> other <> id) remaining)
              end)
            remaining
  in
  go 0 modules;
  match !best with
  | None ->
      raise (Scheduler.Unschedulable "no order admits a complete schedule")
  | Some tr ->
      {
        schedule = Scheduler.trace_schedule tr;
        exact = !exact;
        evaluations = !evaluations;
        pruned = !pruned;
      }

(* Endpoint availability in a search node: [None] means not yet in the
   pool (untested processor).  [ix] is the endpoint's table index. *)
type slot = { endpoint : Resource.endpoint; ix : int; avail : int option }

(* A committed test and the channel ids its path books. *)
type placed = { entry : Schedule.entry; chans : int array }

type node = {
  time : int;
  committed : placed list;
  committed_makespan : int;
  pending : int list;
  slots : slot list;
}

let overlapping (a : Schedule.entry) ~start ~finish =
  a.Schedule.start < finish && start < a.Schedule.finish

(* No committed test overlapping the window books a channel of the
   candidate, whose channels are those marked [stamp]. *)
let links_free committed ~marks ~stamp ~start ~finish =
  List.for_all
    (fun p ->
      (not (overlapping p.entry ~start ~finish))
      || Array.for_all (fun c -> marks.(c) <> stamp) p.chans)
    committed

let power_fits committed ~limit ~start ~finish ~power =
  match limit with
  | None -> true
  | Some limit ->
      (* The instantaneous sum changes only at entry starts. *)
      let at time =
        List.fold_left
          (fun acc { entry = e; _ } ->
            if e.Schedule.start <= time && time < e.Schedule.finish then
              acc +. e.Schedule.power
            else acc)
          0.0 committed
      in
      let candidates =
        start
        :: List.filter_map
             (fun { entry = e; _ } ->
               if e.Schedule.start > start && e.Schedule.start < finish then
                 Some e.Schedule.start
               else None)
             committed
      in
      List.for_all (fun t -> at t +. power <= limit +. 1e-9) candidates

let schedule ?(application = Processor.Bist) ?(power_limit = None)
    ?(max_nodes = 300_000) ~reuse system =
  let endpoints = Resource.all_endpoints system ~reuse in
  (* One precomputed access table serves every node of the search (and
     the greedy incumbent seed below). *)
  let access = Test_access.table ~application system in
  (* Cheapest possible duration of each module over all valid pairs:
     the lower-bound ingredient. *)
  let ids = List.map (Test_access.endpoint_id access) endpoints in
  let best_duration_cache = Hashtbl.create 32 in
  let best_duration module_id =
    match Hashtbl.find_opt best_duration_cache module_id with
    | Some d -> d
    | None ->
        let row = Test_access.module_row access module_id in
        let d =
          List.fold_left
            (fun acc src ->
              List.fold_left
                (fun acc snk ->
                  let d = Test_access.duration_ix access ~row ~src ~snk in
                  if d >= 0 then min acc d else acc)
                acc ids)
            max_int ids
        in
        Hashtbl.add best_duration_cache module_id d;
        d
  in
  (* Channel marks of the candidate being probed: [links_free] compares
     channel ids, never links. *)
  let marks = Array.make (Test_access.channel_count access) (-1) in
  let stamp = ref (-1) in
  let mark chans = Array.iter (fun c -> marks.(c) <- !stamp) chans in
  (* Seed the incumbent with the greedy solution. *)
  let incumbent =
    ref
      (Scheduler.run ~access system
         (Scheduler.config ~policy:Scheduler.Greedy ~application ~power_limit
            ~reuse ()))
  in
  let nodes = ref 0 in
  let exact = ref true in
  let lower_bound node =
    List.fold_left
      (fun acc id -> max acc (node.time + best_duration id))
      node.committed_makespan node.pending
  in
  let update_slots_for_commit slots entry finish =
    List.map
      (fun s ->
        let used =
          Resource.equal s.endpoint entry.Schedule.source
          || Resource.equal s.endpoint entry.Schedule.sink
        in
        let tested_processor =
          match s.endpoint with
          | Resource.Processor id -> id = entry.Schedule.module_id
          | Resource.External_in _ | Resource.External_out _ -> false
        in
        if used || tested_processor then { s with avail = Some finish } else s)
      slots
  in
  let rec explore node =
    incr nodes;
    if !nodes > max_nodes then exact := false
    else if node.pending = [] then begin
      if node.committed_makespan < !incumbent.Schedule.makespan then
        incumbent :=
          Schedule.of_entries (List.map (fun p -> p.entry) node.committed)
    end
    else if lower_bound node < !incumbent.Schedule.makespan then begin
      (* Moves: start any pending core on any feasible idle pair now. *)
      let idle =
        List.filter
          (fun s -> match s.avail with Some a -> a <= node.time | None -> false)
          node.slots
      in
      let moves =
        List.concat_map
          (fun module_id ->
            let row = Test_access.module_row access module_id in
            List.concat_map
              (fun src ->
                List.filter_map
                  (fun snk ->
                    let i = src.ix and j = snk.ix in
                    if not (Test_access.feasible_ix access ~row ~src:i ~snk:j)
                    then None
                    else
                      let finish =
                        node.time
                        + Test_access.duration_ix access ~row ~src:i ~snk:j
                      in
                      let power = Test_access.power_ix access ~row ~src:i ~snk:j in
                      incr stamp;
                      mark (Test_access.source_channels_ix access ~row ~src:i);
                      mark (Test_access.sink_channels_ix access ~row ~snk:j);
                      if
                        links_free node.committed ~marks ~stamp:!stamp
                          ~start:node.time ~finish
                        && power_fits node.committed ~limit:power_limit
                             ~start:node.time ~finish ~power
                      then
                        let links, chans =
                          Test_access.path_ix access ~row ~src:i ~snk:j
                        in
                        Some
                          {
                            entry =
                              {
                                Schedule.module_id;
                                source = src.endpoint;
                                sink = snk.endpoint;
                                start = node.time;
                                finish;
                                power;
                                links;
                              };
                            chans;
                          }
                      else None)
                  idle)
              idle)
          node.pending
      in
      (* Explore promising moves first: shortest completion. *)
      let moves =
        List.sort
          (fun a b -> Int.compare a.entry.Schedule.finish b.entry.Schedule.finish)
          moves
      in
      List.iter
        (fun p ->
          let entry = p.entry in
          let child =
            {
              time = node.time;
              committed = p :: node.committed;
              committed_makespan =
                max node.committed_makespan entry.Schedule.finish;
              pending =
                List.filter (fun id -> id <> entry.Schedule.module_id)
                  node.pending;
              slots = update_slots_for_commit node.slots entry entry.Schedule.finish;
            }
          in
          explore child)
        moves;
      (* Waiting branch: deliberately advance to the next release even
         though moves may exist (covers delay schedules). *)
      let next_event =
        List.fold_left
          (fun acc s ->
            match s.avail with
            | Some a when a > node.time -> (
                match acc with Some m -> Some (min m a) | None -> Some a)
            | Some _ | None -> acc)
          None node.slots
      in
      match next_event with
      | Some t -> explore { node with time = t }
      | None -> ()
    end
  in
  let initial_slots =
    List.map2
      (fun endpoint ix ->
        match endpoint with
        | Resource.External_in _ | Resource.External_out _ ->
            { endpoint; ix; avail = Some 0 }
        | Resource.Processor _ -> { endpoint; ix; avail = None })
      endpoints ids
  in
  explore
    {
      time = 0;
      committed = [];
      committed_makespan = 0;
      pending = System.module_ids system;
      slots = initial_slots;
    };
  { schedule = !incumbent; exact = !exact; nodes = !nodes }
