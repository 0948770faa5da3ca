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
  id : Json.t;
  label : string;  (* the op, for responses, logs and stats *)
  planning : Protocol.planning;
  respond : string list -> unit;
  enqueued_at : float;
  deadline : float option;  (* absolute, Unix.gettimeofday clock *)
  coalesce_key : string option;  (* None: this job never coalesces *)
}

type t = {
  queue : job Job_queue.t;
  cache : Table_cache.t;
  inflight : job Inflight.t;
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
  Stats.snapshot t.stats ~cache_hits:(Table_cache.hits t.cache)
    ~cache_misses:(Table_cache.misses t.cache)
    ~shared_cache_hits:(Table_cache.eval_hits t.cache)
    ~shared_cache_misses:(Table_cache.eval_misses t.cache)
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
      Prom.metric ~help:"Anneal searches that adopted a warm trace."
        Prom.Counter ~name:"nocplan_warm_hits_total"
        [ Prom.sample (float_of_int s.Stats.warm_hits) ];
      Prom.metric ~help:"Anneal searches started cold." Prom.Counter
        ~name:"nocplan_warm_misses_total"
        [ Prom.sample (float_of_int s.Stats.warm_misses) ];
      Prom.metric
        ~help:"Solves that reused a resident evaluation cache."
        Prom.Counter ~name:"nocplan_shared_cache_hits_total"
        [ Prom.sample (float_of_int s.Stats.shared_cache_hits) ];
      Prom.metric ~help:"Solves that started a fresh evaluation cache."
        Prom.Counter ~name:"nocplan_shared_cache_misses_total"
        [ Prom.sample (float_of_int s.Stats.shared_cache_misses) ];
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

(* Run one solve with exclusive ownership of the table entry's
   evaluation cache for [config] (a fresh one on a miss), returning it
   to the entry afterwards — also on Unschedulable/Expired, which leave
   the cache valid.  Search-shape parameters (iterations, seed, chains)
   are not part of the configuration: any search of the same instance
   can reuse any other's work. *)
let with_eval_cache t entry config f =
  let cache, hit = Table_cache.checkout t.cache entry config in
  if hit && Trace.enabled () then Trace.instant "cache.shared_hit";
  Fun.protect
    ~finally:(fun () -> Table_cache.checkin entry config cache)
    (fun () -> f cache)

(* One engine run on the configured (heuristic) order, through the
   entry's evaluation cache.  [Eval_cache.evaluate] is byte-identical
   to [Scheduler.run] — with no explicit order the scheduler visits
   [Priority.order] — so repeats of a configuration across requests
   become exact cache hits that skip the run entirely, at no
   observable difference in the response. *)
let heuristic_schedule t entry config =
  with_eval_cache t entry config (fun cache ->
      let order =
        Array.of_list
          (Core.Priority.order (Table_cache.system entry)
             ~reuse:config.Core.Scheduler.reuse)
      in
      Core.Eval_cache.schedule cache order)

(* Dispatch one plan/validate solve to the requested backend and name
   the solver that produced the plan.  The default (greedy) path keeps
   going through the evaluation cache — exact repeats skip the
   engine — while "binpack" solves directly and "race" runs both
   builtin backends in sequence on this worker's domain, on the entry's
   table, and keeps the best valid plan.
   Every attempt is recorded per backend (a race records one per
   racer); the win counter tracks whose plan clients actually get. *)
let backend_schedule t entry config backend =
  let system = Table_cache.system entry
  and access = Table_cache.table entry in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let sched = f () in
    Stats.record_backend t.stats ~backend:name
      ~latency_ms:((Unix.gettimeofday () -. t0) *. 1e3);
    sched
  in
  match (backend : Protocol.backend) with
  | Solo { Core.Backend.name = "greedy"; _ } ->
      let sched =
        timed "greedy" (fun () -> heuristic_schedule t entry config)
      in
      Stats.record_backend_win t.stats ~backend:"greedy";
      (sched, "greedy")
  | Race ->
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
  | Solo b ->
      let name = b.Core.Backend.name in
      let sched =
        timed name (fun () -> Core.Backend.solve b ~access system config)
      in
      Stats.record_backend_win t.stats ~backend:name;
      (sched, name)

(* [execute] answers [Ok (result, cache, backend)]: the payload, the
   access-table cache verdict, and — for plan/validate — the name of
   the planning backend that produced the plan, threaded all the way
   into the response envelope (coalesced deliveries included). *)
let execute t (p : Protocol.planning) ~check =
  check ();
  match Trace.span "serve.build" (fun () -> Sysbuild.resolve p.spec) with
  | Error (Sysbuild.Unresolved msg) -> Error (Protocol.Parse, msg)
  | Error (Sysbuild.Too_large msg) -> Error (Protocol.Invalid, msg)
  | Ok system -> (
      check ();
      let entry, hit =
        Trace.span "serve.table" (fun () ->
            Table_cache.find_or_build t.cache system
              ~application:p.application)
      in
      let system = Table_cache.system entry
      and access = Table_cache.table entry in
      let cache = if hit then `Hit else `Miss in
      if Trace.enabled () then
        Trace.instant "serve.cache" ~attrs:[ ("hit", Trace.Bool hit) ];
      check ();
      let power_limit =
        Option.map
          (fun pct -> Core.System.power_limit_of_pct system ~pct)
          p.power_pct
      in
      let all = List.length system.Core.System.processors in
      let policy = p.policy and application = p.application in
      let solve f =
        Trace.span "serve.solve"
          ~attrs:
            [ ("op", Trace.String (Protocol.op_label (Protocol.Planning p))) ]
          f
      in
      match p.work with
      | Protocol.Sweep max_reuse ->
          solve @@ fun () ->
          let max_reuse = min all (Option.value max_reuse ~default:all) in
          let points =
            List.init (max_reuse + 1) (fun reuse ->
                check ();
                fst
                  (Core.Planner.run_point ~access system ~policy ~application
                     ~power_limit ~reuse))
          in
          let sweep =
            {
              Core.Planner.system_name =
                system.Core.System.soc.Nocplan_itc02.Soc.name;
              policy;
              power_limit_pct = p.power_pct;
              points;
            }
          in
          Ok
            ( Json.Raw (String.trim (Core.Export.sweep_json sweep)),
              cache,
              None )
      | Protocol.Run (reuse, run) -> (
          let reuse = Option.value reuse ~default:all in
          if reuse > all then
            Error
              ( Protocol.Invalid,
                Printf.sprintf
                  "field \"reuse\" (%d) is out of range: %s has %d processors"
                  reuse system.Core.System.soc.Nocplan_itc02.Soc.name all )
          else
            let config =
              Core.Scheduler.config ~policy ~application ~power_limit ~reuse ()
            in
            solve @@ fun () ->
            match run with
            | Protocol.Plan backend ->
                let sched, backend = backend_schedule t entry config backend in
                (* Export documents end in a newline; the protocol is
                   one line per response, so splice them trimmed. *)
                Ok
                  ( Json.Raw
                      (String.trim (Core.Export.schedule_json system sched)),
                    cache,
                    Some backend )
            | Protocol.Validate backend ->
                let sched, backend = backend_schedule t entry config backend in
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
            | Protocol.Anneal a ->
                let r =
                  (* Chain 0 borrows the evaluation cache for the
                     search: prefix traces left by earlier requests on
                     this instance serve its evaluations, and this
                     search's traces stay behind for the next one.
                     Results are unaffected (cached evaluation is
                     byte-identical).  The cache's best trace is the
                     warm start, skipped on "warm": false; the result is
                     offered back either way.  A placement-mutated
                     winner is ignored by [offer] or dropped with its
                     rebased cache: no later request holds that system
                     physically. *)
                  with_eval_cache t entry config (fun eval_cache ->
                      let warm_start =
                        if a.warm then Core.Eval_cache.best eval_cache
                        else None
                      in
                      let r =
                        Core.Annealing.schedule ~policy ~application
                          ~power_limit ~iterations:a.iterations
                          ~seed:(Int64.of_int a.seed) ~chains:a.chains
                          ~placement_moves:a.placement_moves ~access
                          ?warm_start ~eval_cache ~reuse system
                      in
                      Core.Eval_cache.offer eval_cache
                        r.Core.Annealing.best_trace;
                      r)
                in
                if a.warm then
                  Stats.record_warm t.stats ~hit:r.Core.Annealing.warm_started;
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
                        ("warm_start", Json.Bool r.Core.Annealing.warm_started);
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
            | Protocol.Preempt max_sessions ->
                let plan =
                  Core.Preemptive.schedule ~access system
                    (Core.Preemptive.config ~application ~power_limit
                       ~max_sessions ~reuse ())
                in
                check ();
                let valid =
                  Result.is_ok
                    (Core.Preemptive.validate ~access system ~application
                       ~power_limit ~reuse plan)
                in
                Ok
                  ( Json.Obj
                      [
                        ("makespan", Json.Int plan.Core.Preemptive.makespan);
                        ( "sessions",
                          Json.Int (List.length plan.Core.Preemptive.sessions)
                        );
                        ( "modules",
                          Json.Int
                            (List.length (Core.System.module_ids system)) );
                        ("max_sessions", Json.Int max_sessions);
                        ("valid", Json.Bool valid);
                      ],
                    cache,
                    None )
            | Protocol.Replan f -> (
                let topology = system.Core.System.topology in
                let outside c = not (Noc.Topology.in_bounds topology c) in
                match
                  ( List.find_opt outside f.failed_routers,
                    List.find_opt
                      (fun l -> List.exists outside (Noc.Link.routers l))
                      f.failed_links )
                with
                | Some c, _ ->
                    Error
                      ( Protocol.Invalid,
                        Fmt.str
                          "field \"failed_routers\": %a is outside the mesh"
                          Noc.Coord.pp c )
                | None, Some l ->
                    Error
                      ( Protocol.Invalid,
                        Fmt.str "field \"failed_links\": %a is outside the mesh"
                          Noc.Link.pp l )
                | None, None ->
                    let baseline = Core.Scheduler.run ~access system config in
                    check ();
                    let faults =
                      Fault.Detour.fault_set ~routers:f.failed_routers
                        ~links:f.failed_links ()
                    in
                    let outcome =
                      Fault.Recover.after ~policy ~application ~power_limit
                        ~access ~reuse ~at:f.at ~faults system baseline
                    in
                    Stats.record_fault t.stats
                      ~events:(Fault.Detour.fault_count faults)
                      ~abandoned:(List.length outcome.Fault.Recover.abandoned);
                    check ();
                    let valid =
                      Result.is_ok
                        (Fault.Recover.validate ~application ~power_limit
                           ~reuse ~at:f.at ~faults system outcome)
                    in
                    Ok
                      ( Json.Obj
                          [
                            ( "baseline_makespan",
                              Json.Int baseline.Core.Schedule.makespan );
                            ( "makespan",
                              Json.Int outcome.Fault.Recover.makespan );
                            ( "kept",
                              Json.Int
                                (List.length outcome.Fault.Recover.kept) );
                            ( "voided",
                              Json.Int
                                (List.length outcome.Fault.Recover.voided) );
                            ( "replanned",
                              Json.Int
                                (List.length outcome.Fault.Recover.replanned)
                            );
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
                        None ))))

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
let deliver t ~coalesced job verdict =
  let outcome, response =
    match verdict with
    | `Good (result, cache, backend) ->
        let elapsed_ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1e3 in
        ( Stats.Served,
          Protocol.ok_response ~id:job.id ~op:job.label ~cache ~coalesced
            ?backend ~elapsed_ms result )
    | `Bad (kind, msg) ->
        let outcome =
          match kind with
          | Protocol.Timeout -> Stats.Timed_out
          | _ -> Stats.Failed
        in
        (outcome, [ Protocol.error_response ~id:job.id kind msg ])
  in
  let latency_ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1e3 in
  Stats.record t.stats outcome ~latency_ms;
  if coalesced then
    Stats.record_coalesced t.stats ~op:job.label;
  Log.info (fun m ->
      m "%s %s%s in %.1f ms" job.label
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

let run_job t ~worker job =
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
          ("op", Trace.String job.label);
          ("worker", Trace.Int worker);
          ("queue_wait_ms", Trace.Float ((started_at -. job.enqueued_at) *. 1e3));
        ];
  let verdict =
    match execute t job.planning ~check with
    | Ok (result, cache, backend) -> `Good (result, cache, backend)
    | Error (kind, msg) -> `Bad (kind, msg)
    | exception Expired -> `Bad (Protocol.Timeout, "deadline exceeded")
    | exception Core.Scheduler.Unschedulable msg ->
        `Bad (Protocol.Unschedulable, msg)
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
  deliver t ~coalesced:false job verdict;
  List.iter (fun waiter -> deliver t ~coalesced:true waiter verdict) waiters

let worker_loop t worker () =
  let rec loop () =
    match Job_queue.pop t.queue with
    | None -> ()
    | Some job ->
        run_job t ~worker job;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)

let create ?workers ?(queue_capacity = 64) ?(cache_capacity = 8) () =
  let recommended = Domain.recommended_domain_count () in
  let workers =
    match workers with
    | None -> max 1 (recommended - 1)
    | Some w ->
        if w < 1 then invalid_arg "Service.create: workers must be >= 1";
        (* Same rationale as [Domains.clamp]: oversubscribing domains
           only adds contention. *)
        max 1 (min w recommended)
  in
  let t =
    {
      queue = Job_queue.create ~capacity:queue_capacity;
      cache = Table_cache.create ~capacity:cache_capacity;
      inflight = Inflight.create ();
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
  | Error ((id, kind), msg) ->
      Stats.record t.stats Stats.Failed ~latency_ms:0.0;
      Log.warn (fun m -> m "bad request: %s" msg);
      respond [ Protocol.error_response ~id kind msg ]
  | Ok req -> (
      let label = Protocol.op_label req.op in
      if Trace.enabled () then
        Trace.instant "serve.admit"
          ~attrs:
            [
              ("op", Trace.String label);
              ("queue_depth", Trace.Int (Job_queue.depth t.queue));
            ];
      (* Observability is served inline so it survives planner overload
         — and read-only listeners: scraping never needs write access.
         Recorded first so the snapshot being rendered already counts
         this request. *)
      let inline render =
        Stats.record_inline t.stats
          ~latency_ms:((Unix.gettimeofday () -. now) *. 1e3);
        let result = render () in
        let elapsed_ms = (Unix.gettimeofday () -. now) *. 1e3 in
        respond
          (Protocol.ok_response ~id:req.id ~op:label ~cache:`None ~elapsed_ms
             result)
      in
      match req.op with
      | Protocol.Metrics -> inline (fun () -> Stats.snapshot_json (snapshot t))
      | Protocol.Prometheus -> inline (fun () -> Json.String (prometheus_text t))
      | Protocol.Planning _ when read_only ->
          Stats.record t.stats Stats.Rejected ~latency_ms:0.0;
          Log.warn (fun m -> m "rejecting %s: read-only listener" label);
          respond
            [
              Protocol.error_response ~id:req.id Protocol.Readonly
                "read-only listener: planning ops are not accepted here";
            ]
      | Protocol.Planning planning -> (
          let deadline =
            Option.map (fun ms -> now +. (ms /. 1e3)) req.deadline_ms
          in
          let coalesce_key = Protocol.coalesce_key req in
          let job =
            {
              id = req.id;
              label;
              planning;
              respond;
              enqueued_at = now;
              deadline;
              coalesce_key;
            }
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
                  m "rejecting %s: queue full (depth %d, %d bounced)" label
                    (Job_queue.depth t.queue)
                    (List.length bounced));
              List.iter
                (fun j ->
                  Stats.record t.stats Stats.Rejected ~latency_ms:0.0;
                  (try
                     j.respond
                       [
                         Protocol.error_response ~id:j.id Protocol.Overload
                           "queue full, retry later";
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
                      ~attrs:[ ("op", Trace.String label) ])))

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
