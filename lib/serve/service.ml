module Core = Nocplan_core
module Noc = Nocplan_noc
module Fault = Nocplan_fault
module Trace = Nocplan_obs.Trace
module Prom = Nocplan_obs.Prometheus

let log_src =
  Logs.Src.create "nocplan.serve" ~doc:"Planning service requests"

module Log = (val Logs.src_log log_src)

exception Expired
(* Raised by the cooperative deadline checks below; never escapes
   [run_job]. *)

type job = {
  req : Protocol.request;
  respond : string list -> unit;
  enqueued_at : float;
  deadline : float option;  (* absolute, Unix.gettimeofday clock *)
  coalesce_key : string option;  (* None: this job never coalesces *)
  batch_key : string option;  (* None: this job never batches *)
}

type t = {
  queue : job Job_queue.t;
  cache : Table_cache.t;
  warm : Warm_start.t;
  inflight : job Inflight.t;
  coalescing : bool;
  batch_limit : int;  (* max jobs per batch pass; 1 disables batching *)
  shared : Core.Eval_cache.Shared.registry option;
  stats : Stats.t;
  created_at : float;
  (* Per-worker utilization, indexed by worker; written lock-free from
     the worker domains, read by the prometheus exposition. *)
  worker_busy_us : int Atomic.t array;
  worker_jobs : int Atomic.t array;
  mutable workers : unit Domain.t list;
  (* Requests admitted but not yet responded to, for [drain]. *)
  pending_mutex : Mutex.t;
  pending_cond : Condition.t;
  mutable pending : int;
  mutable stopped : bool;
}

(* ------------------------------------------------------------------ *)
(* Request execution                                                  *)

let snapshot t =
  let shared_cache_hits, shared_cache_misses =
    match t.shared with
    | None -> (0, 0)
    | Some r -> (Core.Eval_cache.Shared.hits r, Core.Eval_cache.Shared.misses r)
  in
  Stats.snapshot t.stats ~cache_hits:(Table_cache.hits t.cache)
    ~cache_misses:(Table_cache.misses t.cache)
    ~warm_hits:(Warm_start.hits t.warm)
    ~warm_misses:(Warm_start.misses t.warm) ~shared_cache_hits
    ~shared_cache_misses
    ~queue_depth:(Job_queue.depth t.queue)
    ~queue_capacity:(Job_queue.capacity t.queue)
    ~workers:(List.length t.workers)

(* Prometheus text exposition (format 0.0.4) over the same snapshot
   the [metrics] op serves.  When the latency reservoir is empty the
   summary carries no quantile samples — only [_count] — instead of
   fabricating zeros (see {!Stats.record_inline}). *)
let prometheus_text t =
  let s = snapshot t in
  let outcome label v = Prom.sample ~labels:[ ("outcome", label) ] v in
  let per_worker arr =
    Array.to_list
      (Array.mapi
         (fun i (a : int Atomic.t) ->
           ( i,
             Prom.sample
               ~labels:[ ("worker", string_of_int i) ]
               (float_of_int (Atomic.get a)) ))
         arr)
    |> List.map snd
  in
  let latency =
    let count =
      match s.Stats.latency with None -> 0 | Some q -> q.Stats.count
    in
    (match s.Stats.latency with
    | None -> []
    | Some q ->
        [
          Prom.sample ~labels:[ ("quantile", "0.5") ] q.Stats.p50_ms;
          Prom.sample ~labels:[ ("quantile", "0.9") ] q.Stats.p90_ms;
          Prom.sample ~labels:[ ("quantile", "0.99") ] q.Stats.p99_ms;
          Prom.sample ~labels:[ ("quantile", "1") ] q.Stats.max_ms;
        ])
    @ [ Prom.sample ~suffix:"_count" (float_of_int count) ]
  in
  Prom.render
    [
      Prom.metric ~help:"Requests by outcome." Prom.Counter
        ~name:"nocplan_requests_total"
        [
          outcome "served" (float_of_int s.Stats.served);
          outcome "failed" (float_of_int s.Stats.failed);
          outcome "rejected" (float_of_int s.Stats.rejected);
          outcome "timeout" (float_of_int s.Stats.timeouts);
        ];
      Prom.metric ~help:"Access-table cache hits." Prom.Counter
        ~name:"nocplan_cache_hits_total"
        [ Prom.sample (float_of_int s.Stats.cache_hits) ];
      Prom.metric ~help:"Access-table cache misses." Prom.Counter
        ~name:"nocplan_cache_misses_total"
        [ Prom.sample (float_of_int s.Stats.cache_misses) ];
      Prom.metric
        ~help:"Requests served by another request's in-flight solve."
        Prom.Counter ~name:"nocplan_coalesced_total"
        (List.map
           (fun (op, n) ->
             Prom.sample ~labels:[ ("op", op) ] (float_of_int n))
           s.Stats.coalesced);
      Prom.metric ~help:"Fault targets handled by replan requests."
        Prom.Counter ~name:"nocplan_fault_events_total"
        [ Prom.sample (float_of_int s.Stats.fault_events) ];
      Prom.metric ~help:"Replan requests that reached fault recovery."
        Prom.Counter ~name:"nocplan_fault_replans_total"
        [ Prom.sample (float_of_int s.Stats.fault_replans) ];
      Prom.metric
        ~help:"Modules left without a test path by replan requests."
        Prom.Counter ~name:"nocplan_fault_abandoned_total"
        [ Prom.sample (float_of_int s.Stats.fault_abandoned) ];
      Prom.metric ~help:"Planning-backend solve attempts (race: one per racer)."
        Prom.Counter ~name:"nocplan_backend_solves_total"
        (List.map
           (fun (b, n) ->
             Prom.sample ~labels:[ ("backend", b) ] (float_of_int n))
           s.Stats.backend_solves);
      Prom.metric
        ~help:"Plans returned to clients, by producing backend (race: winner)."
        Prom.Counter ~name:"nocplan_backend_wins_total"
        (List.map
           (fun (b, n) ->
             Prom.sample ~labels:[ ("backend", b) ] (float_of_int n))
           s.Stats.backend_wins);
      Prom.metric
        ~help:"Total planning-backend solve wall-clock, milliseconds."
        Prom.Counter ~name:"nocplan_backend_latency_ms_total"
        (List.map
           (fun (b, ms) -> Prom.sample ~labels:[ ("backend", b) ] ms)
           s.Stats.backend_latency_ms);
      Prom.metric ~help:"Anneal searches seeded from the warm-start cache."
        Prom.Counter ~name:"nocplan_warm_hits_total"
        [ Prom.sample (float_of_int s.Stats.warm_hits) ];
      Prom.metric ~help:"Anneal searches started cold." Prom.Counter
        ~name:"nocplan_warm_misses_total"
        [ Prom.sample (float_of_int s.Stats.warm_misses) ];
      Prom.metric ~help:"Requests served through shared batch passes."
        Prom.Counter ~name:"nocplan_batched_total"
        [ Prom.sample (float_of_int s.Stats.batched) ];
      Prom.metric
        ~help:"Solves that resumed a resident shared evaluation cache."
        Prom.Counter ~name:"nocplan_shared_cache_hits_total"
        [ Prom.sample (float_of_int s.Stats.shared_cache_hits) ];
      Prom.metric ~help:"Jobs waiting in the admission queue." Prom.Gauge
        ~name:"nocplan_queue_depth"
        [ Prom.sample (float_of_int s.Stats.queue_depth) ];
      Prom.metric
        ~help:"Admission queue bound; depth/capacity is queue pressure."
        Prom.Gauge ~name:"nocplan_queue_capacity"
        [ Prom.sample (float_of_int s.Stats.queue_capacity) ];
      Prom.metric ~help:"Planning worker domains." Prom.Gauge
        ~name:"nocplan_workers"
        [ Prom.sample (float_of_int s.Stats.workers) ];
      Prom.metric ~help:"Seconds since the service started." Prom.Gauge
        ~name:"nocplan_uptime_seconds"
        [ Prom.sample (Unix.gettimeofday () -. t.created_at) ];
      Prom.metric ~help:"Jobs completed, per worker." Prom.Counter
        ~name:"nocplan_worker_jobs_total" (per_worker t.worker_jobs);
      Prom.metric
        ~help:"Microseconds spent executing jobs, per worker." Prom.Counter
        ~name:"nocplan_worker_busy_microseconds_total"
        (per_worker t.worker_busy_us);
      Prom.metric
        ~help:
          "End-to-end latency of queued planning requests (enqueue to \
           response)." Prom.Summary ~name:"nocplan_request_latency_ms" latency;
    ]

(* The per-instance key covers exactly what cross-request solver state
   (warm-start traces, shared evaluation caches) depends on: the
   physical system (via the table-cache key — a cache hit hands back
   the one shared instance) and the configuration fields
   [Scheduler.trace_matches] compares.  Search-shape parameters
   (iterations, seed, chains) are deliberately absent: any search of
   the same instance can resume from any other's work. *)
let instance_key system ~application ~policy ~power_pct ~reuse =
  Printf.sprintf "%s|%s|%s|%d"
    (Table_cache.key system ~application)
    (match policy with
    | Core.Scheduler.Greedy -> "greedy"
    | Core.Scheduler.Lookahead -> "lookahead")
    (match power_pct with
    | None -> "-"
    | Some pct -> Printf.sprintf "%h" pct)
    reuse

(* Run one solve with exclusive ownership of the shared evaluation
   cache registered under [key] (a fresh one on a miss), returning the
   cache to the registry afterwards — also on Unschedulable/Expired,
   which leave the cache valid.  A cache rebased onto a
   placement-mutated system (an accepted anneal placement move) is
   dropped instead: no later request resolves to that instance. *)
let with_shared_cache t ~key ~access system config f =
  match t.shared with
  | None -> f None
  | Some registry ->
      let cache, hit =
        Core.Eval_cache.Shared.checkout registry ~key ~access system config
      in
      if hit && Trace.enabled () then Trace.instant "cache.shared_hit";
      Fun.protect
        ~finally:(fun () ->
          if Core.Eval_cache.system cache == system then
            Core.Eval_cache.Shared.checkin registry ~key cache)
        (fun () -> f (Some cache))

(* One engine run on the configured (heuristic) order, through the
   shared cache when the registry is on.  [Eval_cache.evaluate] is
   byte-identical to [Scheduler.run] — with no explicit order the
   scheduler visits [Priority.order] — so repeats of a configuration
   across requests become exact cache hits that skip the run
   entirely, at no observable difference in the response. *)
let heuristic_schedule t ~key ~access system config ~reuse =
  with_shared_cache t ~key ~access system config (function
    | None -> Core.Scheduler.run ~access system config
    | Some cache ->
        let order = Array.of_list (Core.Priority.order system ~reuse) in
        Core.Eval_cache.schedule cache order)

(* Dispatch one plan/validate solve to the requested backend and name
   the solver that produced the plan.  The default (greedy) path keeps
   going through the shared evaluation cache — exact repeats skip the
   engine — while "binpack" solves directly and "race" runs every
   registered backend on its own domain and keeps the best valid plan.
   Every attempt is recorded per backend (a race records one per
   racer); the win counter tracks whose plan clients actually get. *)
let backend_schedule t ~key ~access system config ~reuse backend =
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let sched = f () in
    Stats.record_backend t.stats ~backend:name
      ~latency_ms:((Unix.gettimeofday () -. t0) *. 1e3);
    sched
  in
  match backend with
  | None | Some "greedy" ->
      let sched =
        timed "greedy" (fun () ->
            heuristic_schedule t ~key ~access system config ~reuse)
      in
      Stats.record_backend_win t.stats ~backend:"greedy";
      (sched, "greedy")
  | Some "race" ->
      let outcome =
        Core.Backend.race ~clock:Unix.gettimeofday ~access system config
      in
      List.iter
        (fun (a : Core.Backend.attempt) ->
          Stats.record_backend t.stats ~backend:a.Core.Backend.backend
            ~latency_ms:(a.Core.Backend.latency_s *. 1e3))
        outcome.Core.Backend.attempts;
      Stats.record_backend_win t.stats
        ~backend:outcome.Core.Backend.winner;
      (outcome.Core.Backend.schedule, outcome.Core.Backend.winner)
  | Some name -> (
      (* Parse already refused unknown names; a registry change
         between parse and execution surfaces as a parse error. *)
      match Core.Backend.find name with
      | None -> invalid_arg (Printf.sprintf "unknown backend %S" name)
      | Some b ->
          let sched =
            timed name (fun () -> Core.Backend.solve b ~access system config)
          in
          Stats.record_backend_win t.stats ~backend:name;
          (sched, name))

(* [execute] answers [Ok (result, cache, backend)]: the payload, the
   access-table cache verdict, and — for plan/validate — the name of
   the planning backend that produced the plan, threaded all the way
   into the response envelope (batched and coalesced deliveries
   included). *)
let execute t (req : Protocol.request) ~check =
  match req.op with
  | Protocol.Metrics -> Ok (Stats.snapshot_json (snapshot t), `None, None)
  | Protocol.Prometheus -> Ok (Json.String (prometheus_text t), `None, None)
  | Protocol.Plan | Protocol.Validate | Protocol.Sweep | Protocol.Anneal
  | Protocol.Replan | Protocol.Preempt -> (
      let spec =
        match req.spec with
        | Some s -> s
        | None -> invalid_arg "Service.execute: planning request without spec"
      in
      check ();
      match Trace.span "serve.build" (fun () -> Sysbuild.build spec) with
      | Error msg -> Error (Protocol.Parse, msg)
      | Ok system -> (
          check ();
          let system, access, hit =
            Trace.span "serve.table" (fun () ->
                Table_cache.find_or_build t.cache system
                  ~application:req.application)
          in
          let cache = if hit then `Hit else `Miss in
          if Trace.enabled () then
            Trace.instant "serve.cache"
              ~attrs:[ ("hit", Trace.Bool hit) ];
          check ();
          let power_limit =
            Option.map
              (fun pct -> Core.System.power_limit_of_pct system ~pct)
              req.power_pct
          in
          let all = List.length system.Core.System.processors in
          let policy = req.policy and application = req.application in
          Trace.span "serve.solve"
            ~attrs:[ ("op", Trace.String (Protocol.op_label req.op)) ]
          @@ fun () ->
          match req.op with
          | Protocol.Metrics | Protocol.Prometheus -> assert false
          | Protocol.Plan ->
              let reuse = Option.value req.reuse ~default:all in
              let config =
                Core.Scheduler.config ~policy ~application ~power_limit ~reuse
                  ()
              in
              let key =
                instance_key system ~application ~policy
                  ~power_pct:req.power_pct ~reuse
              in
              let sched, backend =
                backend_schedule t ~key ~access system config ~reuse
                  req.backend
              in
              (* Export documents end in a newline; the protocol is
                 one line per response, so splice them trimmed. *)
              Ok
                ( Json.Raw (String.trim (Core.Export.schedule_json system sched)),
                  cache,
                  Some backend )
          | Protocol.Validate ->
              let reuse = Option.value req.reuse ~default:all in
              let config =
                Core.Scheduler.config ~policy ~application ~power_limit ~reuse
                  ()
              in
              let key =
                instance_key system ~application ~policy
                  ~power_pct:req.power_pct ~reuse
              in
              let sched, backend =
                backend_schedule t ~key ~access system config ~reuse
                  req.backend
              in
              check ();
              let valid, violations =
                match
                  Core.Schedule.validate ~access system ~application
                    ~power_limit ~reuse sched
                with
                | Ok () -> (true, [])
                | Error vs ->
                    ( false,
                      List.map
                        (fun v ->
                          Json.String
                            (Fmt.str "%a" Core.Schedule.pp_violation v))
                        vs )
              in
              Ok
                ( Json.Obj
                    [
                      ("valid", Json.Bool valid);
                      ("makespan", Json.Int sched.Core.Schedule.makespan);
                      ("violations", Json.List violations);
                    ],
                  cache,
                  Some backend )
          | Protocol.Anneal ->
              let reuse = Option.value req.reuse ~default:all in
              let iterations = Option.value req.iterations ~default:400 in
              let seed =
                Int64.of_int (Option.value req.seed ~default:0x5A)
              in
              let chains = Option.value req.chains ~default:1 in
              let placement_moves =
                Option.value req.placement_moves ~default:0.0
              in
              let warm_key =
                instance_key system ~application ~policy
                  ~power_pct:req.power_pct ~reuse
              in
              (* "warm": false searches cold on request — the server's
                 warm-start LRU is skipped (the result is still noted
                 below, so later warm requests benefit). *)
              let warm_start =
                if Option.value req.warm ~default:true then
                  Warm_start.find t.warm ~key:warm_key
                else None
              in
              let config =
                Core.Scheduler.config ~policy ~application ~power_limit ~reuse
                  ()
              in
              let r =
                (* Chain 0 borrows the shared cache for the search:
                   prefix traces left by earlier requests on this
                   instance serve its evaluations, and this search's
                   traces stay behind for the next one.  Results are
                   unaffected (cached evaluation is byte-identical). *)
                with_shared_cache t ~key:warm_key ~access system config
                  (fun eval_cache ->
                    Core.Annealing.schedule ~policy ~application ~power_limit
                      ~iterations ~seed ~chains ~placement_moves ~access
                      ?warm_start ?eval_cache ~reuse system)
              in
              (* A placement-mutated winner belongs to a system no
                 later request will hold physically — only traces of
                 the cached instance are worth remembering. *)
              if r.Core.Annealing.system == system then
                Warm_start.note t.warm ~key:warm_key
                  r.Core.Annealing.best_trace;
              Ok
                ( Json.Obj
                    [
                      ( "makespan",
                        Json.Int
                          r.Core.Annealing.schedule.Core.Schedule.makespan );
                      ( "initial_makespan",
                        Json.Int r.Core.Annealing.initial_makespan );
                      ( "improvement_pct",
                        Json.Float
                          (Float.round
                             (Core.Annealing.improvement_pct r *. 100.)
                          /. 100.) );
                      ( "warm_start",
                        Json.Bool r.Core.Annealing.warm_started );
                      ("evaluations", Json.Int r.Core.Annealing.evaluations);
                      ("accepted", Json.Int r.Core.Annealing.accepted);
                      ( "placement_evals",
                        Json.Int r.Core.Annealing.placement_evals );
                      ( "placement_accepted",
                        Json.Int r.Core.Annealing.placement_accepted );
                      ("chains", Json.Int r.Core.Annealing.chains);
                      ("exchanges", Json.Int r.Core.Annealing.exchanges);
                    ],
                  cache,
                  None )
          | Protocol.Preempt -> (
              let reuse = Option.value req.reuse ~default:all in
              let max_sessions = Option.value req.max_sessions ~default:3 in
              let pconfig =
                Core.Preemptive.config ~application ~power_limit ~max_sessions
                  ~reuse ()
              in
              match Core.Preemptive.schedule system pconfig with
              | plan ->
                  check ();
                  let valid =
                    match
                      Core.Preemptive.validate system ~application ~power_limit
                        ~reuse plan
                    with
                    | Ok () -> true
                    | Error _ -> false
                  in
                  Ok
                    ( Json.Obj
                        [
                          ( "makespan",
                            Json.Int plan.Core.Preemptive.makespan );
                          ( "sessions",
                            Json.Int
                              (List.length plan.Core.Preemptive.sessions) );
                          ( "modules",
                            Json.Int
                              (List.length (Core.System.module_ids system)) );
                          ("max_sessions", Json.Int max_sessions);
                          ("valid", Json.Bool valid);
                        ],
                      cache,
                      None )
              | exception Invalid_argument msg ->
                  Error (Protocol.Invalid, msg))
          | Protocol.Replan -> (
              let reuse = Option.value req.reuse ~default:all in
              let at = Option.value req.at ~default:0 in
              let topology = system.Core.System.topology in
              let router_ob =
                List.find_opt
                  (fun c -> not (Noc.Topology.in_bounds topology c))
                  req.fault_routers
              in
              let link_ob =
                List.find_opt
                  (fun l ->
                    List.exists
                      (fun c -> not (Noc.Topology.in_bounds topology c))
                      (Noc.Link.routers l))
                  req.fault_links
              in
              match (router_ob, link_ob) with
              | Some c, _ ->
                  Error
                    ( Protocol.Invalid,
                      Fmt.str "failed router %a is outside the mesh"
                        Noc.Coord.pp c )
              | None, Some l ->
                  Error
                    ( Protocol.Invalid,
                      Fmt.str "failed link %a is outside the mesh" Noc.Link.pp
                        l )
              | None, None ->
                  let config =
                    Core.Scheduler.config ~policy ~application ~power_limit
                      ~reuse ()
                  in
                  let baseline = Core.Scheduler.run ~access system config in
                  check ();
                  let faults =
                    Fault.Detour.fault_set ~routers:req.fault_routers
                      ~links:req.fault_links ()
                  in
                  let outcome =
                    Fault.Recover.after ~policy ~application ~power_limit
                      ~reuse ~at ~faults system baseline
                  in
                  Stats.record_fault t.stats
                    ~events:(Fault.Detour.fault_count faults)
                    ~abandoned:(List.length outcome.Fault.Recover.abandoned);
                  check ();
                  let valid =
                    match
                      Fault.Recover.validate ~application ~power_limit ~reuse
                        ~at ~faults system outcome
                    with
                    | Ok () -> true
                    | Error _ -> false
                  in
                  Ok
                    ( Json.Obj
                        [
                          ( "baseline_makespan",
                            Json.Int baseline.Core.Schedule.makespan );
                          ("makespan", Json.Int outcome.Fault.Recover.makespan);
                          ( "kept",
                            Json.Int (List.length outcome.Fault.Recover.kept)
                          );
                          ( "voided",
                            Json.Int
                              (List.length outcome.Fault.Recover.voided) );
                          ( "replanned",
                            Json.Int
                              (List.length outcome.Fault.Recover.replanned) );
                          ( "abandoned",
                            Json.List
                              (List.map
                                 (fun id -> Json.Int id)
                                 outcome.Fault.Recover.abandoned) );
                          ( "availability",
                            Json.Float outcome.Fault.Recover.availability );
                          ("valid", Json.Bool valid);
                        ],
                      cache,
                      None ))
          | Protocol.Sweep ->
              let max_reuse =
                min all (Option.value req.max_reuse ~default:all)
              in
              let points =
                List.init (max_reuse + 1) (fun reuse ->
                    check ();
                    fst
                      (Core.Planner.run_point ~access system ~policy
                         ~application ~power_limit ~reuse))
              in
              let sweep =
                {
                  Core.Planner.system_name =
                    system.Core.System.soc.Nocplan_itc02.Soc.name;
                  policy;
                  power_limit_pct = req.power_pct;
                  points;
                }
              in
              Ok
                ( Json.Raw (String.trim (Core.Export.sweep_json sweep)),
                  cache,
                  None )))

(* ------------------------------------------------------------------ *)
(* Workers                                                            *)

let finish_pending t =
  Mutex.lock t.pending_mutex;
  t.pending <- t.pending - 1;
  Condition.broadcast t.pending_cond;
  Mutex.unlock t.pending_mutex

(* Render the shared verdict into one job's own envelope (its [id],
   its [elapsed_ms], its [coalesced] marker), record its outcome and
   answer it.  Called once for the job that ran the solve and once per
   request that coalesced onto it. *)
let deliver t ~coalesced ?batch_size job verdict =
  let req = job.req in
  let outcome, response =
    match verdict with
    | `Good (result, cache, backend) ->
        let elapsed_ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1e3 in
        ( Stats.Served,
          Protocol.ok_response ~id:req.id ~op:req.op ~cache ~coalesced
            ?backend ?batch_size ~elapsed_ms result )
    | `Bad (kind, msg) ->
        let outcome =
          match kind with
          | Protocol.Timeout -> Stats.Timed_out
          | _ -> Stats.Failed
        in
        (outcome, [ Protocol.error_response ~id:req.id kind msg ])
  in
  let latency_ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1e3 in
  Stats.record t.stats outcome ~latency_ms;
  if coalesced then
    Stats.record_coalesced t.stats ~op:(Protocol.op_label req.op);
  Log.info (fun m ->
      m "%s %s%s in %.1f ms" (Protocol.op_label req.op)
        (match outcome with
        | Stats.Served -> "served"
        | Stats.Failed -> "failed"
        | Stats.Rejected -> "rejected"
        | Stats.Timed_out -> "timed out")
        (if coalesced then " (coalesced)" else "")
        latency_ms);
  (try job.respond response
   with exn ->
     Log.warn (fun m ->
         m "dropping response (client gone?): %s" (Printexc.to_string exn)));
  finish_pending t

let run_job t ~worker ?batch_size job =
  let req = job.req in
  let started_at = Unix.gettimeofday () in
  let check () =
    match job.deadline with
    | Some d when Unix.gettimeofday () > d -> raise Expired
    | _ -> ()
  in
  if Trace.enabled () then
    Trace.begin_span "serve.request"
      ~attrs:
        [
          ("op", Trace.String (Protocol.op_label req.op));
          ("worker", Trace.Int worker);
          ("queue_wait_ms", Trace.Float ((started_at -. job.enqueued_at) *. 1e3));
        ];
  let verdict =
    match execute t req ~check with
    | Ok (result, cache, backend) -> `Good (result, cache, backend)
    | Error (kind, msg) -> `Bad (kind, msg)
    | exception Expired -> `Bad (Protocol.Timeout, "deadline exceeded")
    | exception Core.Scheduler.Unschedulable msg ->
        `Bad (Protocol.Unschedulable, msg)
    | exception Invalid_argument msg -> `Bad (Protocol.Parse, msg)
    | exception exn -> `Bad (Protocol.Internal, Printexc.to_string exn)
  in
  let now = Unix.gettimeofday () in
  Atomic.fetch_and_add t.worker_busy_us.(worker)
    (int_of_float ((now -. started_at) *. 1e6))
  |> ignore;
  Atomic.incr t.worker_jobs.(worker);
  if Trace.enabled () then
    Trace.end_span "serve.request"
      ~attrs:
        [
          ( "outcome",
            Trace.String
              (match verdict with
              | `Good _ -> "served"
              | `Bad (Protocol.Timeout, _) -> "timeout"
              | `Bad _ -> "failed") );
        ];
  (* Release the key BEFORE answering anyone: once a client has seen
     this verdict it may immediately send the same request again, and
     that request must become a fresh solve (with a now-warm cache),
     not attach to a flight that already finished. *)
  let waiters =
    match job.coalesce_key with
    | None -> []
    | Some key -> Inflight.release t.inflight ~key
  in
  deliver t ~coalesced:false ?batch_size job verdict;
  List.iter (fun waiter -> deliver t ~coalesced:true waiter verdict) waiters

(* After popping a job, pull every queued request compatible with it
   (same {!Batch.key}) onto this worker's pass and run them back to
   back, each answered under its own envelope.  Consecutive execution
   on one worker keeps the instance's shared state — access table,
   shared evaluation cache, warm-start entries — checked out once per
   pass in the common case instead of bouncing between workers. *)
let worker_loop t worker () =
  let rec loop () =
    match Job_queue.pop t.queue with
    | None -> ()
    | Some job ->
        (match job.batch_key with
        | Some key when t.batch_limit > 1 -> (
            let followers =
              Job_queue.drain_matching ~limit:(t.batch_limit - 1) t.queue
                (fun j ->
                  match j.batch_key with
                  | Some k -> String.equal k key
                  | None -> false)
            in
            match followers with
            | [] -> run_job t ~worker job
            | _ :: _ ->
                let group = job :: followers in
                let size = List.length group in
                Stats.record_batch t.stats ~size;
                Trace.span "serve.batch"
                  ~attrs:
                    [ ("size", Trace.Int size); ("worker", Trace.Int worker) ]
                  (fun () ->
                    List.iter
                      (fun j -> run_job t ~worker ~batch_size:size j)
                      group))
        | _ -> run_job t ~worker job);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)

let create ?workers ?(queue_capacity = 64) ?(cache_capacity = 8)
    ?(warm_capacity = 32) ?(coalescing = true) ?(batching = true)
    ?(batch_limit = 16) ?(shared_capacity = 8) () =
  if batch_limit < 2 then
    invalid_arg "Service.create: batch_limit must be >= 2";
  if shared_capacity < 0 then
    invalid_arg "Service.create: shared_capacity must be >= 0";
  let batch_limit = if batching then batch_limit else 1 in
  let recommended = Domain.recommended_domain_count () in
  let workers =
    match workers with
    | None -> max 1 (recommended - 1)
    | Some w ->
        if w < 1 then invalid_arg "Service.create: workers must be >= 1";
        (* Same rationale as Planner's domain clamp: oversubscribing
           domains only adds contention. *)
        max 1 (min w recommended)
  in
  let t =
    {
      queue = Job_queue.create ~capacity:queue_capacity;
      cache = Table_cache.create ~capacity:cache_capacity;
      warm = Warm_start.create ~capacity:warm_capacity;
      inflight = Inflight.create ();
      coalescing;
      batch_limit;
      shared =
        (if shared_capacity = 0 then None
         else Some (Core.Eval_cache.Shared.registry ~capacity:shared_capacity ()));
      stats = Stats.create ();
      created_at = Unix.gettimeofday ();
      worker_busy_us = Array.init workers (fun _ -> Atomic.make 0);
      worker_jobs = Array.init workers (fun _ -> Atomic.make 0);
      workers = [];
      pending_mutex = Mutex.create ();
      pending_cond = Condition.create ();
      pending = 0;
      stopped = false;
    }
  in
  t.workers <- List.init workers (fun i -> Domain.spawn (worker_loop t i));
  Log.info (fun m ->
      m "service up: %d workers, queue %d, cache %d" workers queue_capacity
        cache_capacity);
  t

let handle_line ?(read_only = false) t line respond =
  let now = Unix.gettimeofday () in
  match Protocol.parse_request line with
  | Error (kind, msg) ->
      Stats.record t.stats Stats.Failed ~latency_ms:0.0;
      Log.warn (fun m -> m "bad request: %s" msg);
      respond [ Protocol.error_response ~id:Json.Null kind msg ]
  | Ok req -> (
      if Trace.enabled () then
        Trace.instant "serve.admit"
          ~attrs:
            [
              ("op", Trace.String (Protocol.op_label req.Protocol.op));
              ("queue_depth", Trace.Int (Job_queue.depth t.queue));
            ];
      match req.Protocol.op with
      | (Protocol.Metrics | Protocol.Prometheus) as op ->
          (* Served inline so observability survives planner overload
             — and read-only listeners: scraping never needs write
             access.  Recorded first so the snapshot being rendered
             already counts this request. *)
          Stats.record_inline t.stats
            ~latency_ms:((Unix.gettimeofday () -. now) *. 1e3);
          let result =
            match op with
            | Protocol.Metrics -> Stats.snapshot_json (snapshot t)
            | _ -> Json.String (prometheus_text t)
          in
          let elapsed_ms = (Unix.gettimeofday () -. now) *. 1e3 in
          respond
            (Protocol.ok_response ~id:req.Protocol.id ~op ~cache:`None
               ~elapsed_ms result)
      | _ when read_only ->
          Stats.record t.stats Stats.Rejected ~latency_ms:0.0;
          Log.warn (fun m ->
              m "rejecting %s: read-only listener"
                (Protocol.op_label req.Protocol.op));
          respond
            [
              Protocol.error_response ~id:req.Protocol.id Protocol.Readonly
                "read-only listener: planning ops are not accepted here";
            ]
      | _ -> (
          let deadline =
            Option.map (fun ms -> now +. (ms /. 1e3)) req.Protocol.deadline_ms
          in
          let coalesce_key =
            if t.coalescing then Protocol.coalesce_key req else None
          in
          let batch_key = if t.batch_limit > 1 then Batch.key req else None in
          let job =
            { req; respond; enqueued_at = now; deadline; coalesce_key; batch_key }
          in
          Mutex.lock t.pending_mutex;
          t.pending <- t.pending + 1;
          Mutex.unlock t.pending_mutex;
          let admit_leader () =
            if not (Job_queue.push t.queue job) then begin
              (* The key (if any) dies with its rejected leader:
                 whoever attached in the meantime is bounced too,
                 each under its own envelope. *)
              let bounced =
                match coalesce_key with
                | None -> [ job ]
                | Some key -> job :: Inflight.release t.inflight ~key
              in
              Log.warn (fun m ->
                  m "rejecting %s: queue full (depth %d, %d bounced)"
                    (Protocol.op_label req.Protocol.op)
                    (Job_queue.depth t.queue)
                    (List.length bounced));
              List.iter
                (fun j ->
                  Stats.record t.stats Stats.Rejected ~latency_ms:0.0;
                  (try
                     j.respond
                       [
                         Protocol.error_response ~id:j.req.Protocol.id
                           Protocol.Overload "queue full, retry later";
                       ]
                   with exn ->
                     Log.warn (fun m ->
                         m "dropping rejection (client gone?): %s"
                           (Printexc.to_string exn)));
                  finish_pending t)
                bounced
            end
          in
          match coalesce_key with
          | None -> admit_leader ()
          | Some key -> (
              match Inflight.claim t.inflight ~key job with
              | `Leader -> admit_leader ()
              | `Attached ->
                  (* Parked on the identical in-flight request; the
                     leader's worker will answer us. *)
                  if Trace.enabled () then
                    Trace.instant "serve.coalesce"
                      ~attrs:
                        [
                          ( "op",
                            Trace.String (Protocol.op_label req.Protocol.op) );
                        ])))

let request ?read_only t line =
  let result = ref None in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  handle_line ?read_only t line (fun chunks ->
      Mutex.lock mutex;
      result := Some (String.concat "" chunks);
      Condition.signal cond;
      Mutex.unlock mutex);
  Mutex.lock mutex;
  while !result = None do
    Condition.wait cond mutex
  done;
  let response = Option.get !result in
  Mutex.unlock mutex;
  response

let stats t = snapshot t
let worker_count t = List.length t.workers

let drain t =
  Mutex.lock t.pending_mutex;
  while t.pending > 0 do
    Condition.wait t.pending_cond t.pending_mutex
  done;
  Mutex.unlock t.pending_mutex

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    drain t;
    Job_queue.close t.queue;
    List.iter Domain.join t.workers;
    Log.info (fun m -> m "service stopped")
  end
