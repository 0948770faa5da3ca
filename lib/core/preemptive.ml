module Link = Nocplan_noc.Link
module Soc = Nocplan_itc02.Soc
module Module_def = Nocplan_itc02.Module_def
module Processor = Nocplan_proc.Processor
module Reservation = Nocplan_noc.Reservation

type session = {
  module_id : int;
  source : Resource.endpoint;
  sink : Resource.endpoint;
  start : int;
  finish : int;
  patterns : int;
  power : float;
  links : Link.t list;
}

type plan = { sessions : session list; makespan : int }

let plan_of_sessions sessions =
  List.iter
    (fun s ->
      if s.start < 0 || s.finish < s.start then
        invalid_arg "Preemptive.plan_of_sessions: malformed interval";
      if s.patterns < 1 then
        invalid_arg "Preemptive.plan_of_sessions: patterns must be >= 1")
    sessions;
  let sessions =
    List.sort
      (fun a b ->
        let c = Int.compare a.start b.start in
        if c <> 0 then c else Int.compare a.module_id b.module_id)
      sessions
  in
  let makespan = List.fold_left (fun acc s -> max acc s.finish) 0 sessions in
  { sessions; makespan }

type config = {
  application : Processor.application;
  reuse : int;
  power_limit : float option;
  max_sessions : int;
}

let config ?(application = Processor.Bist) ?(power_limit = None)
    ?(max_sessions = 3) ~reuse () =
  if max_sessions < 1 then
    invalid_arg "Preemptive.config: max_sessions must be >= 1";
  { application; reuse; power_limit; max_sessions }

(* Near-equal chunk sizes: [patterns] split into at most [n] chunks of
   at least one pattern each. *)
let chunk_sizes ~patterns ~n =
  let n = min n patterns in
  let base = patterns / n and extra = patterns mod n in
  List.init n (fun i -> base + if i < extra then 1 else 0)

(* A pending chunk job. *)
type job = {
  job_module : int;
  chunk_index : int;
  chunk_patterns : int;
  total_chunks : int;
}

type slot = { endpoint : Resource.endpoint; mutable avail : int option }

let schedule system config =
  let endpoints = Resource.all_endpoints system ~reuse:config.reuse in
  let slots =
    List.map
      (fun endpoint ->
        match endpoint with
        | Resource.External_in _ | Resource.External_out _ ->
            { endpoint; avail = Some 0 }
        | Resource.Processor _ -> { endpoint; avail = None })
      endpoints
  in
  let calendar = Reservation.create () in
  let monitor = Power_monitor.create ~limit:config.power_limit in
  let committed = ref [] in
  (* chunk availability: chunk k+1 of a module unlocks when chunk k
     finishes. [unlocked.(module) = (next chunk index, available from)] *)
  let next_chunk : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
  let jobs =
    List.concat_map
      (fun id ->
        let m = Soc.find system.System.soc id in
        let sizes =
          chunk_sizes ~patterns:m.Module_def.patterns ~n:config.max_sessions
        in
        Hashtbl.replace next_chunk id (0, 0);
        List.mapi
          (fun i patterns ->
            {
              job_module = id;
              chunk_index = i;
              chunk_patterns = patterns;
              total_chunks = List.length sizes;
            })
          sizes)
      (Priority.order system ~reuse:config.reuse)
  in
  let pending = ref jobs in
  let cost_cache = Hashtbl.create 128 in
  (* The chunked costs are computed on the fly rather than read from
     an access table, so the calendar's channel ids are interned
     here. *)
  let channel_ids : (Link.t, int) Hashtbl.t = Hashtbl.create 64 in
  let channels_of links =
    Array.of_list
      (List.map
         (fun l ->
           match Hashtbl.find_opt channel_ids l with
           | Some c -> c
           | None ->
               let c = Hashtbl.length channel_ids in
               Hashtbl.add channel_ids l c;
               c)
         links)
  in
  let cost ~patterns module_id source sink =
    let key = (patterns, module_id, source, sink) in
    match Hashtbl.find_opt cost_cache key with
    | Some c -> c
    | None ->
        let c =
          Test_access.cost ~patterns system ~application:config.application
            ~module_id ~source ~sink
        in
        let c = (c, channels_of c.Test_access.links) in
        Hashtbl.add cost_cache key c;
        c
  in
  let job_ready now job =
    match Hashtbl.find_opt next_chunk job.job_module with
    | Some (next_index, from) -> job.chunk_index = next_index && from <= now
    | None -> false
  in
  let try_job now job =
    if not (job_ready now job) then false
    else begin
      let idle =
        List.filter
          (fun s -> match s.avail with Some a -> a <= now | None -> false)
          slots
      in
      let candidates =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun snk ->
                if
                  Test_access.feasible system
                    ~application:config.application
                    ~module_id:job.job_module ~source:src.endpoint
                    ~sink:snk.endpoint
                then
                  match (src.avail, snk.avail) with
                  | Some a, Some b -> Some (src, snk, max a b)
                  | (None | Some _), _ -> None
                else None)
              idle)
          idle
        |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare a b)
      in
      let commit (src, snk, _) =
        let c, channels =
          cost ~patterns:job.chunk_patterns job.job_module src.endpoint
            snk.endpoint
        in
        let finish = now + c.Test_access.duration in
        if
          Reservation.is_free calendar channels ~start:now ~finish
          && Power_monitor.fits monitor ~start:now ~finish
               ~power:c.Test_access.power
        then begin
          Reservation.reserve calendar ~owner:job.job_module channels
            ~start:now ~finish;
          Power_monitor.add monitor ~start:now ~finish
            ~power:c.Test_access.power;
          src.avail <- Some finish;
          snk.avail <- Some finish;
          committed :=
            {
              module_id = job.job_module;
              source = src.endpoint;
              sink = snk.endpoint;
              start = now;
              finish;
              patterns = job.chunk_patterns;
              power = c.Test_access.power;
              links = c.Test_access.links;
            }
            :: !committed;
          Hashtbl.replace next_chunk job.job_module
            (job.chunk_index + 1, finish);
          (* The whole processor becomes reusable only when its LAST
             chunk completes. *)
          if
            job.chunk_index = job.total_chunks - 1
            && System.is_processor_module system job.job_module
          then
            List.iter
              (fun s ->
                if
                  Resource.equal s.endpoint
                    (Resource.Processor job.job_module)
                then s.avail <- Some finish)
              slots;
          true
        end
        else false
      in
      List.exists commit candidates
    end
  in
  let now = ref 0 in
  let guard = ref 0 in
  while !pending <> [] do
    incr guard;
    if !guard > 10_000_000 then
      raise (Scheduler.Unschedulable "preemptive scheduler did not converge");
    let scheduled, still =
      List.partition (fun job -> try_job !now job) !pending
    in
    ignore scheduled;
    pending := still;
    if !pending <> [] then begin
      let next =
        List.fold_left
          (fun acc s ->
            match s.avail with
            | Some a when a > !now -> (
                match acc with Some m -> Some (min m a) | None -> Some a)
            | Some _ | None -> acc)
          None slots
      in
      let next =
        Hashtbl.fold
          (fun _ (_, from) acc ->
            if from > !now then
              match acc with Some m -> Some (min m from) | None -> Some from
            else acc)
          next_chunk next
      in
      match next with
      | Some t -> now := t
      | None ->
          raise
            (Scheduler.Unschedulable
               (Printf.sprintf
                  "preemptive: no progress at t=%d with %d chunks pending"
                  !now (List.length !pending)))
    end
  done;
  plan_of_sessions !committed

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)

let validate system ~application ~power_limit ~reuse plan =
  Schedule.validate_sessions system ~application ~power_limit ~reuse
    (List.map
       (fun s ->
         ( {
             Schedule.module_id = s.module_id;
             source = s.source;
             sink = s.sink;
             start = s.start;
             finish = s.finish;
             power = s.power;
             links = s.links;
           },
           s.patterns ))
       plan.sessions)

let pp_session ppf s =
  Fmt.pf ppf "@[<h>[%d,%d) module %d (%d patterns): %a -> %a@]" s.start
    s.finish s.module_id s.patterns Resource.pp s.source Resource.pp s.sink

let pp_plan ppf plan =
  Fmt.pf ppf "@[<v>preemptive plan (makespan %d):@,%a@]" plan.makespan
    (Fmt.list ~sep:Fmt.cut pp_session)
    plan.sessions
