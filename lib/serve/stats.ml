(* Reservoir size: enough for stable tail quantiles over a smoke run
   without unbounded growth on a long-lived server. *)
let reservoir_size = 4096

type t = {
  mutex : Mutex.t;
  mutable served : int;
  mutable failed : int;
  mutable rejected : int;
  mutable timeouts : int;
  coalesced : (string, int) Hashtbl.t;  (* op label -> attached requests *)
  backend_solves : (string, int) Hashtbl.t;  (* backend -> solve attempts *)
  backend_wins : (string, int) Hashtbl.t;  (* backend -> plans returned *)
  backend_latency : (string, float) Hashtbl.t;  (* backend -> total ms *)
  mutable fault_events : int;  (* fault targets handled by replan ops *)
  mutable fault_replans : int;  (* replan ops that reached recovery *)
  mutable fault_abandoned : int;  (* modules given up across them *)
  mutable warm_hits : int;  (* anneals that adopted a warm trace *)
  mutable warm_misses : int;  (* warm-enabled anneals that started cold *)
  latencies : float array;  (* circular buffer of recent served latencies *)
  mutable filled : int;  (* entries in use, <= reservoir_size *)
  mutable next : int;  (* next write position *)
}

type outcome = Served | Failed | Rejected | Timed_out

let create () =
  {
    mutex = Mutex.create ();
    served = 0;
    failed = 0;
    rejected = 0;
    timeouts = 0;
    coalesced = Hashtbl.create 7;
    backend_solves = Hashtbl.create 7;
    backend_wins = Hashtbl.create 7;
    backend_latency = Hashtbl.create 7;
    fault_events = 0;
    fault_replans = 0;
    fault_abandoned = 0;
    warm_hits = 0;
    warm_misses = 0;
    latencies = Array.make reservoir_size 0.0;
    filled = 0;
    next = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push_latency t latency_ms =
  t.latencies.(t.next) <- latency_ms;
  t.next <- (t.next + 1) mod reservoir_size;
  t.filled <- min (t.filled + 1) reservoir_size

(* Inline-served observability requests ([metrics], [prometheus])
   feed the same reservoir as queued work: the quantiles describe
   everything the server answered, so a scrape-heavy deployment sees
   its real (bimodal) latency profile instead of a planner-only
   one. *)
let record_inline t ~latency_ms =
  locked t (fun () ->
      t.served <- t.served + 1;
      push_latency t latency_ms)

let record t outcome ~latency_ms =
  locked t (fun () ->
      match outcome with
      | Served ->
          t.served <- t.served + 1;
          push_latency t latency_ms
      | Failed -> t.failed <- t.failed + 1
      | Rejected -> t.rejected <- t.rejected + 1
      | Timed_out -> t.timeouts <- t.timeouts + 1)

let record_coalesced t ~op =
  locked t (fun () ->
      let n = Option.value (Hashtbl.find_opt t.coalesced op) ~default:0 in
      Hashtbl.replace t.coalesced op (n + 1))

let bump tbl key n =
  Hashtbl.replace tbl key (Option.value (Hashtbl.find_opt tbl key) ~default:0 + n)

let record_backend t ~backend ~latency_ms =
  locked t (fun () ->
      bump t.backend_solves backend 1;
      let total =
        Option.value (Hashtbl.find_opt t.backend_latency backend) ~default:0.0
      in
      Hashtbl.replace t.backend_latency backend (total +. latency_ms))

let record_backend_win t ~backend =
  locked t (fun () -> bump t.backend_wins backend 1)

let record_fault t ~events ~abandoned =
  locked t (fun () ->
      t.fault_events <- t.fault_events + events;
      t.fault_replans <- t.fault_replans + 1;
      t.fault_abandoned <- t.fault_abandoned + abandoned)

let record_warm t ~hit =
  locked t (fun () ->
      if hit then t.warm_hits <- t.warm_hits + 1
      else t.warm_misses <- t.warm_misses + 1)

type quantiles = {
  count : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

type snapshot = {
  served : int;
  failed : int;
  rejected : int;
  timeouts : int;
  coalesced : (string * int) list;
  backend_solves : (string * int) list;
  backend_wins : (string * int) list;
  backend_latency_ms : (string * float) list;
  fault_events : int;
  fault_replans : int;
  fault_abandoned : int;
  cache_hits : int;
  cache_misses : int;
  warm_hits : int;
  warm_misses : int;
  shared_cache_hits : int;
  shared_cache_misses : int;
  queue_depth : int;
  queue_capacity : int;
  workers : int;
  latency : quantiles option;
}

let quantiles_of sorted =
  let n = Array.length sorted in
  let at q =
    (* Nearest-rank quantile on the sorted sample. *)
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))
  in
  {
    count = n;
    p50_ms = at 0.50;
    p90_ms = at 0.90;
    p99_ms = at 0.99;
    max_ms = sorted.(n - 1);
  }

let snapshot t ~cache_hits ~cache_misses ~shared_cache_hits ~shared_cache_misses ~queue_depth ~queue_capacity
    ~workers =
  locked t (fun () ->
      let latency =
        if t.filled = 0 then None
        else begin
          let sample = Array.sub t.latencies 0 t.filled in
          Array.sort compare sample;
          Some (quantiles_of sample)
        end
      in
      let sorted_bindings tbl =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort compare
      in
      let coalesced = sorted_bindings t.coalesced in
      {
        served = t.served;
        failed = t.failed;
        rejected = t.rejected;
        timeouts = t.timeouts;
        coalesced;
        backend_solves = sorted_bindings t.backend_solves;
        backend_wins = sorted_bindings t.backend_wins;
        backend_latency_ms = sorted_bindings t.backend_latency;
        fault_events = t.fault_events;
        fault_replans = t.fault_replans;
        fault_abandoned = t.fault_abandoned;
        cache_hits;
        cache_misses;
        warm_hits = t.warm_hits;
        warm_misses = t.warm_misses;
        shared_cache_hits;
        shared_cache_misses;
        queue_depth;
        queue_capacity;
        workers;
        latency;
      })

let snapshot_json s =
  let base =
    [
      ("served", Json.Int s.served);
      ("failed", Json.Int s.failed);
      ("rejected", Json.Int s.rejected);
      ("timeouts", Json.Int s.timeouts);
      ( "coalesced",
        Json.Obj (List.map (fun (op, n) -> (op, Json.Int n)) s.coalesced) );
      ( "backend_solves",
        Json.Obj (List.map (fun (b, n) -> (b, Json.Int n)) s.backend_solves) );
      ( "backend_wins",
        Json.Obj (List.map (fun (b, n) -> (b, Json.Int n)) s.backend_wins) );
      ( "backend_latency_ms",
        Json.Obj
          (List.map
             (fun (b, ms) ->
               (b, Json.Float (Float.round (ms *. 1000.) /. 1000.)))
             s.backend_latency_ms) );
      ("fault_events", Json.Int s.fault_events);
      ("fault_replans", Json.Int s.fault_replans);
      ("fault_abandoned", Json.Int s.fault_abandoned);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("warm_hits", Json.Int s.warm_hits);
      ("warm_misses", Json.Int s.warm_misses);
      ("shared_cache_hits", Json.Int s.shared_cache_hits);
      ("shared_cache_misses", Json.Int s.shared_cache_misses);
      ("queue_depth", Json.Int s.queue_depth);
      ("queue_capacity", Json.Int s.queue_capacity);
      ("workers", Json.Int s.workers);
    ]
  in
  let latency =
    match s.latency with
    | None -> [ ("latency_ms", Json.Null) ]
    | Some q ->
        [
          ( "latency_ms",
            Json.Obj
              [
                ("count", Json.Int q.count);
                ("p50", Json.Float q.p50_ms);
                ("p90", Json.Float q.p90_ms);
                ("p99", Json.Float q.p99_ms);
                ("max", Json.Float q.max_ms);
              ] );
        ]
  in
  Json.Obj (base @ latency)
