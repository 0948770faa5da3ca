module Trace = Nocplan_obs.Trace

let log_src =
  Logs.Src.create "nocplan.binpack" ~doc:"Bin-packing scheduler decisions"

module Log = (val Logs.src_log log_src)

let ensure_table ?access system ~application =
  match access with
  | Some t ->
      if not (Test_access.table_for t ~system ~application) then
        invalid_arg
          "Binpack.schedule: access table built for a different system or \
           application";
      t
  | None -> Test_access.table ~application system

(* The latest opening time among the gated channels of the cell's
   path, or the shelf start when none are gated: the first shelf
   instant this rectangle may occupy. *)
let gate_ready gates table ~row ~src ~snk ~start =
  Test_access.fold_path_ix table ~row ~src ~snk
    (fun acc l _ ->
      match Hashtbl.find_opt gates l with
      | Some t -> max acc t
      | None -> acc)
    start

let pack ?access system (config : Scheduler.config) =
  let application = config.application and reuse = config.reuse in
  if reuse < 0 || reuse > List.length system.System.processors then
    invalid_arg "Binpack.schedule: reuse out of range";
  let table = ensure_table ?access system ~application in
  let endpoints = Array.of_list (Resource.all_endpoints system ~reuse) in
  let n_ep = Array.length endpoints in
  let tix = Array.map (Test_access.endpoint_id table) endpoints in
  (* Self-test gates: a channel may not carry test traffic before its
     ready time.  Duplicate listings keep the latest time, matching
     the event-driven engine's conservative reading. *)
  let gates = Hashtbl.create 16 in
  List.iter
    (fun (l, t) ->
      match Hashtbl.find_opt gates l with
      | Some t' when t' >= t -> ()
      | _ -> Hashtbl.replace gates l t)
    config.link_ready;
  (* Processor readiness: module id -> instant its endpoint may serve.
     Pretested processors are ready from the start; the rest become
     ready when their own test is packed. *)
  let proc_ready = Hashtbl.create 8 in
  List.iter
    (fun id -> Hashtbl.replace proc_ready id config.start_time)
    config.pretested;
  let endpoint_ready ep ~now =
    match ep with
    | Resource.External_in _ | Resource.External_out _ -> true
    | Resource.Processor id -> (
        match Hashtbl.find_opt proc_ready id with
        | Some t -> t <= now
        | None -> false)
  in
  let modules =
    match config.modules with
    | Some l -> l
    | None -> System.module_ids system
  in
  (* Rectangle height for the decreasing sort: the cheapest duration
     achievable over any feasible pair.  A module with no feasible
     pair at all can never be packed, whatever the shelf. *)
  let min_duration id =
    let row = Test_access.module_row table id in
    let best = ref max_int in
    for i = 0 to n_ep - 1 do
      for j = 0 to n_ep - 1 do
        if
          Resource.valid_pair ~source:endpoints.(i) ~sink:endpoints.(j)
          && Test_access.feasible_ix table ~row ~src:tix.(i) ~snk:tix.(j)
        then
          best :=
            min !best
              (Test_access.duration_ix table ~row ~src:tix.(i) ~snk:tix.(j))
      done
    done;
    if !best = max_int then
      raise
        (Scheduler.Unschedulable
           (Fmt.str "binpack: module %d has no feasible (source, sink) pair"
              id));
    !best
  in
  let sorted =
    (* Best-fit decreasing: tallest rectangles first, ids break ties
       so the packing is deterministic. *)
    List.sort
      (fun (_, da) (_, db) -> if da <> db then compare db da else 0)
      (List.map (fun id -> (id, min_duration id)) modules)
    |> List.map fst
  in
  let entries = ref [] in
  let remaining = ref sorted in
  let now = ref config.start_time in
  let shelves = ref 0 in
  while !remaining <> [] do
    (* One shelf: every test starts at [!now] on pairwise-disjoint
       endpoints and channels, under the running power sum. *)
    let used_ep = Array.make n_ep false in
    let used_chans = Array.make (Test_access.channel_count table) false in
    let free chans = Array.for_all (fun c -> not used_chans.(c)) chans in
    let power_used = ref 0.0 in
    let placed = ref [] in
    let rest = ref [] in
    List.iter
      (fun id ->
        let row = Test_access.module_row table id in
        (* Best-fit within the shelf: the admissible pair minimizing
           the rectangle height, then the narrowest footprint, then
           endpoint indices for determinism. *)
        let best_i = ref (-1) and best_j = ref (-1) in
        let best_duration = ref max_int and best_width = ref max_int in
        for i = 0 to n_ep - 1 do
          for j = 0 to n_ep - 1 do
            if not (used_ep.(i) || used_ep.(j)) then begin
              let source = endpoints.(i) and sink = endpoints.(j) in
              let src = tix.(i) and snk = tix.(j) in
              if
                Resource.valid_pair ~source ~sink
                && endpoint_ready source ~now:!now
                && endpoint_ready sink ~now:!now
                && Test_access.feasible_ix table ~row ~src ~snk
                && (match config.power_limit with
                   | None -> true
                   | Some limit ->
                       !power_used +. Test_access.power_ix table ~row ~src ~snk
                       <= limit)
                && free (Test_access.source_channels_ix table ~row ~src)
                && free (Test_access.sink_channels_ix table ~row ~snk)
                && (Hashtbl.length gates = 0
                   || gate_ready gates table ~row ~src ~snk ~start:!now <= !now)
              then begin
                let duration = Test_access.duration_ix table ~row ~src ~snk in
                let width = Test_access.link_count_ix table ~row ~src ~snk in
                if
                  duration < !best_duration
                  || (duration = !best_duration && width < !best_width)
                then begin
                  best_i := i;
                  best_j := j;
                  best_duration := duration;
                  best_width := width
                end
              end
            end
          done
        done;
        if !best_i < 0 then rest := id :: !rest
        else begin
          let i = !best_i and j = !best_j in
          let source = endpoints.(i) and sink = endpoints.(j) in
          let src = tix.(i) and snk = tix.(j) in
          let links, chans = Test_access.path_ix table ~row ~src ~snk in
          let power = Test_access.power_ix table ~row ~src ~snk in
          used_ep.(i) <- true;
          used_ep.(j) <- true;
          Array.iter (fun c -> used_chans.(c) <- true) chans;
          power_used := !power_used +. power;
          let finish = !now + !best_duration in
          let entry =
            {
              Schedule.module_id = id;
              source;
              sink;
              start = !now;
              finish;
              power;
              links;
            }
          in
          entries := entry :: !entries;
          placed := entry :: !placed;
          (* A packed processor self-test releases its endpoint to
             every shelf opening at or after its finish. *)
          if System.processor_of_module system id <> None then
            Hashtbl.replace proc_ready id finish;
          Log.debug (fun m ->
              m "shelf %d (t=%d): module %d on %a -> %a (finish %d)"
                !shelves !now id Resource.pp source Resource.pp sink finish)
        end)
      !remaining;
    (match !placed with
    | [] ->
        (* Nothing fit at this instant.  The only state that changes
           without a placement is a self-test gate opening later —
           advance to the next opening, or give up. *)
        let next_gate =
          Hashtbl.fold
            (fun _ t acc -> if t > !now && t < acc then t else acc)
            gates max_int
        in
        if next_gate = max_int then
          raise
            (Scheduler.Unschedulable
               (Fmt.str
                  "binpack: no module packable at t=%d (power limit %a, %d \
                   modules left)"
                  !now
                  Fmt.(option ~none:(any "none") float)
                  config.power_limit
                  (List.length !remaining)))
        else now := next_gate
    | placed ->
        incr shelves;
        let shelf_end =
          List.fold_left (fun acc e -> max acc e.Schedule.finish) !now placed
        in
        if Trace.enabled () then
          Trace.instant "binpack.shelf"
            ~attrs:
              [
                ("shelf", Trace.Int (!shelves - 1));
                ("start", Trace.Int !now);
                ("finish", Trace.Int shelf_end);
                ("packed", Trace.Int (List.length placed));
              ];
        now := shelf_end);
    remaining := List.rev !rest
  done;
  (Schedule.of_entries (List.rev !entries), !shelves)

let schedule ?access system config = fst (pack ?access system config)
let shelf_count system config = snd (pack system config)
