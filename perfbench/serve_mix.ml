(* serve-mix: the socket path tools hit.

   A real [nocplan serve --tcp] process with its default workers,
   driven from this process (no client thread lives in the server)
   over [connections] TCP connections by one select loop, with the
   seeded {!Gen} request stream.  A run plays [segments] pieces of the
   stream [replays] times each, every play on a fresh server; connect
   cost and a short warm-up stay outside each play's timed windows,
   which are:

   - Open-loop phase: bursty arrivals at a fixed mean [rate]; each
     request is timed from its scheduled send to its full response
     line, so a stall also charges the requests queued behind it.
   - Saturation phase: a closed loop in which both connections keep
     [depth] requests in flight; ok responses per second is the
     capacity.

   A response is correct when it is [ok], carries its request's [id],
   and its payload matches an in-process computation on the same spec:
   plan, validate and sweep makespans equal [Scheduler.run] /
   [Backend.solve] / [Planner.reuse_sweep]; an anneal is never worse than the
   heuristic it starts from; replan and preempt plans validate. *)

module Core = Nocplan_core
module Json = Nocplan_serve.Json
module Sysbuild = Nocplan_serve.Sysbuild
module Protocol = Nocplan_serve.Protocol
open Perfbench

(* Mean offered rate of the open-loop phase: about a sixth of the
   measured capacity (243-404 ok responses/s over twenty runs, one
   worker domain, 2-core Xeon).  At 100/s the median request already queued
   behind anneals and replans (p50 8-15 ms), so the median no longer
   showed the front end. *)
let rate = 50.0

(* Latency limit for goodput: just under the open-loop p99 (41-51 ms
   over twenty runs, same host), so the 1-5% of requests that queue or
   stall past it show as lost goodput. *)
let limit_ms = 40.0

let connections = 2
let depth = 8
let warmup = 40
let setup_trials = 30

(* An end-to-end run cuts [segments] consecutive pieces from the
   request stream and plays each [replays] times, every play on a fresh
   server; of each play the open loop takes [open_share] of its time,
   then [sat_count] requests saturate it. *)
let segments = 5
let replays = 2
let open_share = 0.7
let sat_count = 200

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)

type server = { pid : int; port : int }

let free_port () =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  Unix.close s;
  port

let spawn ~nocplan ?trace () =
  let port = free_port () in
  let args =
    [ nocplan; "serve"; "--tcp"; Printf.sprintf "127.0.0.1:%d" port ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process nocplan (Array.of_list args) devnull Unix.stderr Unix.stderr in
  Unix.close devnull;
  { pid; port }

(* SIGTERM, then wait: the server must exit 0. *)
let stop server =
  Unix.kill server.pid Sys.sigterm;
  match Unix.waitpid [] server.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; mutable inflight : int }

type sent = {
  req : Gen.request;
  due : float;  (** scheduled send time *)
  at : float;  (** actual send time *)
  mutable back : float;  (** full response line received; nan until then *)
  mutable resp : Json.t option Lazy.t;  (** parsed after the timed windows *)
}

type client = {
  conns : conn array;
  table : (string, sent) Hashtbl.t;
  mutable log : sent list;  (** every request sent, newest first *)
  chunk : Bytes.t;
}

(* Connect, retrying every 0.1 ms (for up to 20 s) while the server
   is not listening yet, so that the wait adds little to the set-up
   time it is part of. *)
let connect port =
  let rec go tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.0001;
        go (tries - 1)
  in
  go 200_000

let client fds =
  {
    conns = Array.map (fun fd -> { fd; pending = Buffer.create 65536; inflight = 0 }) fds;
    table = Hashtbl.create 4096;
    log = [];
    chunk = Bytes.create 65536;
  }

let close_client c = Array.iter (fun conn -> Unix.close conn.fd) c.conns

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send c i (r : Gen.request) ~due =
  let conn = c.conns.(i) in
  let line = r.Gen.line ^ "\n" in
  let s = { req = r; due; at = Util.now (); back = Float.nan; resp = lazy None } in
  write_all conn.fd line 0 (String.length line);
  Hashtbl.replace c.table r.Gen.id s;
  c.log <- s :: c.log;
  conn.inflight <- conn.inflight + 1;
  s

let find_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec at i = if i + n > m then None else if String.sub s i n = sub then Some i else at (i + 1) in
  at 0

let contains s sub = find_sub s sub <> None

(* The [id] of a response line, without parsing the rest: the client
   keeps up with the server by deferring full parses past the timed
   windows. *)
let id_of_line line =
  let key = "\"id\":" in
  Option.bind (find_sub line key) (fun i ->
      Option.bind (String.index_from_opt line (i + String.length key) '"') (fun j ->
          Option.map
            (fun k -> String.sub line (j + 1) (k - j - 1))
            (String.index_from_opt line (j + 1) '"')))

(* Wait up to [timeout] seconds for responses; returns the requests
   completed, with the connection each arrived on. *)
let poll c ~timeout =
  let fds = Array.to_list (Array.map (fun conn -> conn.fd) c.conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | readable, _, _ ->
      List.concat_map
        (fun fd ->
          let i = ref 0 in
          Array.iteri (fun k conn -> if conn.fd = fd then i := k) c.conns;
          let conn = c.conns.(!i) in
          let n = Unix.read fd c.chunk 0 (Bytes.length c.chunk) in
          if n = 0 then failwith "serve-mix: server closed the connection";
          let now = Util.now () in
          Buffer.add_subbytes conn.pending c.chunk 0 n;
          let data = Buffer.contents conn.pending in
          let lines = String.split_on_char '\n' data in
          let rec complete acc = function
            | [ rest ] ->
                Buffer.clear conn.pending;
                Buffer.add_string conn.pending rest;
                List.rev acc
            | line :: more ->
                let acc =
                  match Option.bind (id_of_line line) (Hashtbl.find_opt c.table) with
                  | Some s when Float.is_nan s.back ->
                      s.back <- now;
                      s.resp <- lazy (Result.to_option (Json.parse line));
                      conn.inflight <- conn.inflight - 1;
                      (!i, s) :: acc
                  | _ -> acc
                in
                complete acc more
            | [] -> List.rev acc
          in
          complete [] lines)
        readable

let inflight c = Array.fold_left (fun n conn -> n + conn.inflight) 0 c.conns

let drain c ~limit =
  let t_end = Util.now () +. limit in
  while inflight c > 0 && Util.now () < t_end do
    ignore (poll c ~timeout:0.05)
  done

(* One request and its answer, closed loop. *)
let roundtrip c r =
  let s = send c 0 r ~due:(Util.now ()) in
  while Float.is_nan s.back do
    ignore (poll c ~timeout:1.0)
  done;
  s

let metrics_request id = Gen.metrics ~id

(* Server spawn until it answers [metrics] on a fresh connection. *)
let start ~nocplan ?trace () =
  let t0 = Util.now () in
  let server = spawn ~nocplan ?trace () in
  let c = client [| connect server.port |] in
  ignore (roundtrip c (metrics_request "ready"));
  let setup_s = Util.now () -. t0 in
  close_client c;
  (server, setup_s)

(* The traffic of one server lifetime, cut from the stream before the
   server starts so that it can be played again exactly: the warm-up
   requests, the open-loop requests with their scheduled send times (s
   from the phase's start) and the closed-loop requests. *)
type segment = {
  warm_reqs : Gen.request list;
  arrivals : (float * Gen.request) list;
  closed : Gen.request list;
}

let segment gen ~open_s ~count =
  let warm_reqs = List.init warmup (fun _ -> Gen.next gen) in
  let rec arrive t acc =
    let t = t +. Gen.next_gap gen ~rate in
    if t >= open_s then List.rev acc else arrive t ((t, Gen.next gen) :: acc)
  in
  let arrivals = arrive 0.0 [] in
  let closed = List.init count (fun _ -> Gen.next gen) in
  { warm_reqs; arrivals; closed }

(* Open loop: send on the segment's schedule whatever the server does,
   round-robin over the connections. *)
let open_loop c arrivals =
  let t0 = Util.now () in
  let rec go k acc = function
    | [] -> List.rev acc
    | (offset, r) :: rest as pending ->
        let due = t0 +. offset in
        let now = Util.now () in
        if now >= due then go (k + 1) (send c (k mod connections) r ~due :: acc) rest
        else begin
          ignore (poll c ~timeout:(due -. now));
          go k acc pending
        end
  in
  let sent = go 0 [] arrivals in
  drain c ~limit:30.0;
  sent

(* Closed loop: every connection keeps [depth] requests in flight
   until [reqs] are all sent. *)
let closed_loop c reqs =
  let left = ref reqs and sent = ref [] in
  let send_on i =
    match !left with
    | [] -> ()
    | r :: rest ->
        left := rest;
        sent := send c i r ~due:(Util.now ()) :: !sent
  in
  for i = 0 to connections - 1 do
    for _ = 1 to depth do send_on i done
  done;
  while !left <> [] do
    List.iter (fun (i, _) -> send_on i) (poll c ~timeout:0.05)
  done;
  drain c ~limit:30.0;
  List.rev !sent

(* ------------------------------------------------------------------ *)
(* Oracle                                                               *)

let policy_of = function "lookahead" -> Core.Scheduler.Lookahead | _ -> Core.Scheduler.Greedy

let spec_of (g : Gen.spec) =
  Sysbuild.spec ?soc_text:g.Gen.soc_text ?width:g.Gen.width ?height:g.Gen.height
    ~leons:g.Gen.leons ~plasmas:g.Gen.plasmas g.Gen.system

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

type oracle = {
  systems : (Gen.spec, Core.System.t) Hashtbl.t;
  plans : (Gen.spec * string * float option * int option * string option, int) Hashtbl.t;
  sweeps : (Gen.spec * string * float option, int list) Hashtbl.t;
}

let oracle () =
  { systems = Hashtbl.create 64; plans = Hashtbl.create 256; sweeps = Hashtbl.create 64 }

let system o spec =
  memo o.systems spec (fun () ->
      match Sysbuild.build (spec_of spec) with
      | Ok s -> s
      | Error msg -> failwith ("serve-mix oracle: " ^ msg))

let limit sys = Option.map (fun pct -> Core.System.power_limit_of_pct sys ~pct)

(* The makespan a direct in-process call gives for a plan request. *)
let plan_makespan o (r : Gen.request) ~backend =
  let spec = Option.get r.Gen.spec in
  memo o.plans (spec, r.Gen.policy, r.Gen.power_pct, r.Gen.reuse, backend) (fun () ->
      let sys = system o spec in
      let reuse = Option.value r.Gen.reuse ~default:(List.length sys.Core.System.processors) in
      let config =
        Core.Scheduler.config ~policy:(policy_of r.Gen.policy)
          ~power_limit:(limit sys r.Gen.power_pct) ~reuse ()
      in
      let sched =
        match backend with
        | None | Some "greedy" -> Core.Scheduler.run sys config
        | Some name -> Core.Backend.solve (Option.get (Core.Backend.find name)) sys config
      in
      sched.Core.Schedule.makespan)

let sweep_makespans o (r : Gen.request) =
  let spec = Option.get r.Gen.spec in
  memo o.sweeps (spec, r.Gen.policy, r.Gen.power_pct) (fun () ->
      let sys = system o spec in
      let sweep =
        Core.Planner.reuse_sweep ~policy:(policy_of r.Gen.policy)
          ?power_limit_pct:r.Gen.power_pct sys
      in
      List.map (fun p -> p.Core.Planner.makespan) sweep.Core.Planner.points)

let correct o (s : sent) =
  let r = s.req in
  match Lazy.force s.resp with
  | None -> false
  | Some j -> (
      let result = Json.member "result" j in
      let int_of name = Option.bind result (Json.int_field name) in
      let valid () = Option.bind result (Json.member "valid") = Some (Json.Bool true) in
      Json.member "ok" j = Some (Json.Bool true)
      && Json.str_field "id" j = Some r.Gen.id
      &&
      match r.Gen.op with
      | "plan" -> int_of "makespan" = Some (plan_makespan o r ~backend:r.Gen.backend)
      | "validate" ->
          valid () && int_of "makespan" = Some (plan_makespan o r ~backend:r.Gen.backend)
      | "anneal" -> (
          match int_of "makespan" with
          | Some m -> m <= plan_makespan o r ~backend:None
          | None -> false)
      | "sweep" -> (
          match Option.bind result (Json.member "points") with
          | Some (Json.List points) ->
              List.for_all (fun p -> Json.member "validated" p = Some (Json.Bool true)) points
              && List.map (fun p -> Option.value (Json.int_field "makespan" p) ~default:(-1)) points
                 = sweep_makespans o r
          | _ -> false)
      | "replan" | "preempt" -> valid ()
      | "metrics" -> result <> None
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)

let latency_ms s = (s.back -. s.due) *. 1e3

(* The first few wrong answers, on stderr. *)
let report_failures failed =
  List.iteri
    (fun i s ->
      if i < 5 then
        Printf.eprintf "serve-mix: wrong answer to %s: %s\n" s.req.Gen.line
          (match Lazy.force s.resp with
          | Some j ->
              let txt = Json.to_string j in
              if String.length txt > 300 then String.sub txt 0 300 else txt
          | None -> "no response"))
    failed

let share reqs p =
  Util.ratio (List.length (List.filter p reqs)) (List.length reqs)

(* The traffic a run actually sent: the share of hot, unique and
   inline-description requests and of each op, so a claim tied to one
   traffic property can cite it. *)
let print_mix (reqs : Gen.request list) =
  let line name v = Printf.printf "serve-mix: mix.%s_share %.4f\n" name v in
  List.iter
    (fun k -> line (Gen.kind_label k) (share reqs (fun r -> r.Gen.kind = k)))
    [ Gen.Hot; Gen.Unique; Gen.Inline ];
  List.iter (fun op -> line op (share reqs (fun r -> r.Gen.op = op))) Gen.ops

(* Spawn the server [n] times, timing each until it answers, and stop
   it again. *)
let setup_times ~nocplan n =
  List.init n (fun _ ->
      let server, dt = start ~nocplan () in
      if not (stop server) then failwith "serve-mix: server did not exit 0";
      dt)

let connect_all server =
  let fds, dt =
    Util.time (fun () -> Array.init connections (fun _ -> connect server.port))
  in
  (client fds, dt)

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)

(* One event of a Chrome trace file as [Chrome.stream] writes it: one
   event per line, between the document's preamble and epilogue. *)
let event_of_line line =
  let strip_prefix p s =
    let n = String.length p in
    if String.length s >= n && String.sub s 0 n = p then String.sub s n (String.length s - n)
    else s
  in
  let strip_suffix p s =
    let n = String.length p and m = String.length s in
    if m >= n && String.sub s (m - n) n = p then String.sub s 0 (m - n) else s
  in
  line |> String.trim
  |> strip_prefix "{\"traceEvents\":["
  |> strip_suffix "],\"displayTimeUnit\":\"ms\"}"
  |> strip_suffix ","
  |> Json.parse |> Result.to_option

(* Fold a [serve --trace] Chrome file: spans into a ledger (per domain
   id), queue waits from the [serve.request] begin events, and a count
   of [scheduler.commit] instants. *)
let fold_trace path =
  let ledger = Ledger.create () in
  let waits = ref [] and commits = ref 0 in
  let on_event ev =
    let name = Option.value (Json.str_field "name" ev) ~default:"" in
    let ts = Option.value (Json.float_field "ts" ev) ~default:0.0 /. 1e6 in
    let tid = Option.value (Json.int_field "tid" ev) ~default:0 in
    match Json.str_field "ph" ev with
    | Some "B" ->
        if name = "serve.request" then
          Option.iter
            (fun w -> waits := w :: !waits)
            (Option.bind (Json.member "args" ev) (Json.float_field "queue_wait_ms"));
        Ledger.enter ledger ~tid name ts
    | Some "E" -> Ledger.leave ledger ~tid ts
    | _ -> ()
  in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (* Instants are only counted: parsing them all would cost
               more than the rest of the fold. *)
            if contains line "\"ph\":\"i\"" then begin
              if contains line "\"name\":\"scheduler.commit\"" then incr commits
            end
            else Option.iter on_event (event_of_line line);
            loop ()
      in
      loop ());
  (ledger, !waits, !commits)

(* Metrics from the server's own [metrics] op. *)
let service_metrics c =
  let s = roundtrip c (metrics_request "final") in
  let res = Option.bind (Lazy.force s.resp) (Json.member "result") in
  let int name = Option.value (Option.bind res (Json.int_field name)) ~default:0 in
  let sum_obj name =
    match Option.bind res (Json.member name) with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (_, v) ->
            acc +. match v with Json.Int n -> float_of_int n | Json.Float f -> f | _ -> 0.0)
          0.0 kvs
    | _ -> 0.0
  in
  let hit_ratio h m = Util.ratio (int h) (int h + int m) in
  [
    Util.metric "table_cache.hit_ratio" "ratio" (hit_ratio "cache_hits" "cache_misses");
    Util.metric "shared_cache.hit_ratio" "ratio" (hit_ratio "shared_cache_hits" "shared_cache_misses");
    Util.metric "warm_start.hit_ratio" "ratio" (hit_ratio "warm_hits" "warm_misses");
    Util.metric "inflight.coalesced_share" "ratio"
      (sum_obj "coalesced" /. float_of_int (max 1 (int "served")));
    Util.metric "batch.batched_share" "ratio" (Util.ratio (int "batched") (int "served"));
    Util.metric "batch.mean_size" "count" (Util.ratio (int "batched") (int "batches"));
    Util.metric "backend.solve_ms" "ms"
      (let n = sum_obj "backend_solves" in
       if n = 0.0 then 0.0 else sum_obj "backend_latency_ms" /. n);
  ]

(* In-process replay of the mix's anneal requests, each instance with
   a caller-owned evaluation cache. *)
let anneal_replay (reqs : Gen.request list) =
  let o = oracle () in
  let caches = Hashtbl.create 16 in
  let evals = ref 0 and exact = ref 0 and resumed = ref 0 and lookups = ref 0 in
  let (), dt =
    Util.time (fun () ->
        List.iter
          (fun (r : Gen.request) ->
            if r.Gen.op = "anneal" then begin
              let spec = Option.get r.Gen.spec in
              let sys = system o spec in
              let policy = policy_of r.Gen.policy in
              let power_limit = limit sys r.Gen.power_pct in
              let reuse = Option.get r.Gen.reuse in
              let key = (spec, r.Gen.policy, r.Gen.power_pct, reuse) in
              let cache =
                memo caches key (fun () ->
                    Core.Eval_cache.create sys
                      (Core.Scheduler.config ~policy ~power_limit ~reuse ()))
              in
              let res =
                Core.Annealing.schedule ~policy ~power_limit ~iterations:r.Gen.iterations
                  ~seed:(Int64.of_int r.Gen.anneal_seed) ~eval_cache:cache ~reuse sys
              in
              evals := !evals + res.Core.Annealing.evaluations
            end)
          reqs)
  in
  Hashtbl.iter
    (fun _ cache ->
      let st = Core.Eval_cache.stats cache in
      exact := !exact + st.Core.Eval_cache.exact_hits;
      resumed := !resumed + st.Core.Eval_cache.resumed;
      lookups := !lookups + st.Core.Eval_cache.evaluations)
    caches;
  [
    Util.metric "annealing.evals_per_s" "1/s" (if dt > 0.0 then float_of_int !evals /. dt else 0.0);
    Util.metric "eval_cache.exact_hit_ratio" "ratio" (Util.ratio !exact !lookups);
    Util.metric "eval_cache.resumed_ratio" "ratio" (Util.ratio !resumed !lookups);
  ]

(* Mean wall time of [f] over [xs], in ms. *)
let mean_call_ms f xs =
  let (), dt = Util.time (fun () -> List.iter (fun x -> ignore (f x)) xs) in
  if xs = [] then 0.0 else dt *. 1e3 /. float_of_int (List.length xs)

(* One server lifetime playing [seg]: warm-up, open loop, closed loop. *)
type session = {
  log : sent list;  (** every request sent, in order *)
  opened : sent list;  (** the open-loop requests, in the segment's order *)
  saturated : sent list;  (** the closed-loop requests *)
  sat_wall : float;  (** closed-loop wall time, s *)
  service : Util.metric list;  (** the server's own counters *)
  connect_s : float;
  rss : float;  (** server peak RSS, MiB *)
  exited : bool;  (** the server exited 0 on SIGTERM *)
}

let session ~nocplan ?trace seg =
  let server, _ = start ~nocplan ?trace () in
  let c, connect_s = connect_all server in
  List.iter (fun r -> ignore (roundtrip c r)) seg.warm_reqs;
  let opened = open_loop c seg.arrivals in
  let saturated, sat_wall = Util.time (fun () -> closed_loop c seg.closed) in
  let service = service_metrics c in
  let rss = Util.peak_rss_mb (string_of_int server.pid) in
  close_client c;
  let exited = stop server in
  { log = List.rev c.log; opened; saturated; sat_wall; service; connect_s; rss; exited }

(* The host slows a whole play by up to half again in some spells (see
   {!Util.undisturbed}), so every segment is played [replays] times, the
   plays of one segment far apart in time, and the figures are taken at
   the host's undisturbed speed.  One server worker answers in about
   arrival order, so a faster host answers nearly every request of the
   same schedule sooner: a request's undisturbed latency is its least
   over the plays.  The open-loop quantiles are over these latencies of every
   segment's requests together; goodput is the offered [rate] times the
   share of them within [limit_ms] and answered ok in every play.  A
   segment's capacity is its best play's; throughput is their median. *)
let end_to_end ~nocplan ~seed ~seconds =
  let plays = segments * replays in
  let open_s = open_share *. seconds /. float_of_int plays in
  let gen = Gen.create ~seed in
  let segs = List.init segments (fun _ -> segment gen ~open_s ~count:sat_count) in
  (* The plays take turns over the segments; the set-up trials are
     spread over the run, a few before each play, so their median does
     not hang on one spell. *)
  let rounds =
    List.init replays (fun _ ->
        List.map
          (fun seg ->
            let times = setup_times ~nocplan (setup_trials / plays) in
            (session ~nocplan seg, times))
          segs)
  in
  let setup_s = Util.median (List.concat_map (List.concat_map snd) rounds) in
  let runs = List.concat_map (List.map fst) rounds in
  let o = oracle () in
  let all = List.concat_map (fun r -> r.log) runs in
  let failed = List.filter (fun s -> not (correct o s)) all in
  report_failures failed;
  let ok s = not (List.memq s failed) in
  let capacity r = float_of_int (List.length (List.filter ok r.saturated)) /. r.sat_wall in
  let played k = List.map (fun round -> fst (List.nth round k)) rounds in
  (* Per segment, each open-loop request's least latency over the
     plays, and whether every play answered it ok. *)
  let undisturbed k =
    match List.map (fun r -> List.map (fun s -> (latency_ms s, ok s)) r.opened) (played k) with
    | [] -> []
    | first :: rest ->
        List.fold_left
          (List.map2 (fun (l, g) (l', g') -> (Float.min l l', g && g')))
          first rest
  in
  let opened = List.concat (List.init segments undisturbed) in
  let lat = List.map fst opened in
  let good = List.filter (fun (l, g) -> g && l <= limit_ms) opened in
  let good_share = Util.ratio (List.length good) (List.length opened) in
  let best k = List.fold_left (fun m r -> Float.max m (capacity r)) 0.0 (played k) in
  let show f l = String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" (f r)) l) in
  let as_run = List.concat_map (fun r -> List.map latency_ms r.opened) runs in
  Printf.printf
    "serve-mix: %d segments played %d times each: open loop at %.0f/s for %.2f s, then saturation by %d requests\n"
    segments replays rate open_s sat_count;
  Printf.printf "serve-mix: capacity per play %s /s; open-loop p50 per play %s ms\n"
    (show capacity runs)
    (show (fun r -> Util.quantile 0.5 (List.map latency_ms r.opened)) runs);
  Printf.printf
    "serve-mix: %d open-loop latency samples; p50 %.3f ms, p99 %.3f ms as run; %.4f ok within the %.0f ms goodput limit\n"
    (List.length lat) (Util.quantile 0.5 as_run) (Util.quantile 0.99 as_run) good_share limit_ms;
  print_mix (List.map (fun s -> s.req) all);
  let metrics =
    [
      Util.metric "setup_s" "s" setup_s;
      Util.metric "peak_rss_mb" "MB" (Util.median (List.map (fun r -> r.rss) runs));
      Util.metric "throughput_per_s" "1/s" (Util.median (List.init segments best));
      Util.metric "p50_ms" "ms" (Util.quantile 0.5 lat);
      Util.metric "p99_ms" "ms" (Util.quantile 0.99 lat);
      Util.metric "goodput_per_s" "1/s" (rate *. good_share);
    ]
  in
  (List.for_all (fun r -> r.exited) runs, List.length all, List.length failed, metrics)

(* The traced run plays one segment twice, untraced and then traced. *)
let per_layer ~nocplan ~seed ~seconds ~scratch =
  let seg =
    segment (Gen.create ~seed) ~open_s:(0.25 *. seconds)
      ~count:(int_of_float (rate *. 0.25 *. seconds))
  in
  let u = session ~nocplan seg in
  let trace = Filename.concat scratch "serve-trace.json" in
  let t = session ~nocplan ~trace seg in
  let all_u = u.log and opened = u.opened and all_t = t.log in
  let ledger, waits, commits = fold_trace trace in
  let o = oracle () in
  let all = all_u @ all_t in
  let failed = List.length (List.filter (fun s -> not (correct o s)) all) in
  let requests = Ledger.calls ledger "serve.request" in
  let per_request name = Ledger.incl ledger name *. 1e3 /. float_of_int (max 1 requests) in
  let runs = Ledger.calls ledger "scheduler.run" in
  let client_ms = List.fold_left (fun acc s -> acc +. ((s.back -. s.at) *. 1e3)) 0.0 all_t in
  let covered = Ledger.incl ledger "serve.request" *. 1e3 +. List.fold_left ( +. ) 0.0 waits in
  let reqs = List.map (fun s -> s.req) all_u in
  let lines = List.map (fun r -> r.Gen.line) reqs in
  let specs = List.filter_map (fun r -> r.Gen.spec) reqs in
  let transport =
    List.filter_map
      (fun s ->
        Option.map
          (fun e -> ((s.back -. s.at) *. 1e3) -. e)
          (Option.bind (Lazy.force s.resp) (Json.float_field "elapsed_ms")))
      opened
  in
  print_mix reqs;
  let metrics =
    [
      Util.metric "client.connect_ms" "ms" (u.connect_s *. 1e3 /. float_of_int connections);
      Util.metric "client.lag_p99_ms" "ms"
        (Util.quantile 0.99 (List.map (fun s -> (s.at -. s.due) *. 1e3) opened));
      Util.metric "transport.overhead_p50_ms" "ms" (Util.quantile 0.5 transport);
      Util.metric "protocol.parse_ms" "ms" (mean_call_ms Protocol.parse_request lines);
      Util.metric "sysbuild.build_ms" "ms" (mean_call_ms (fun s -> Sysbuild.build (spec_of s)) specs);
      Util.metric "service.queue_wait_p50_ms" "ms" (Util.quantile 0.5 waits);
      Util.metric "service.queue_wait_p99_ms" "ms" (Util.quantile 0.99 waits);
      Util.metric "service.build_ms" "ms" (per_request "serve.build");
      Util.metric "service.table_ms" "ms" (per_request "serve.table");
      Util.metric "service.solve_ms" "ms" (per_request "serve.solve");
      Util.metric "scheduler.run_ms" "ms" (per_request "scheduler.run");
      Util.metric "scheduler.runs" "count" (Util.ratio runs requests);
      Util.metric "scheduler.commits_per_run" "count" (Util.ratio commits runs);
      Util.metric "serve.open_loop_samples" "count" (float_of_int (List.length opened));
    ]
    @ u.service @ anneal_replay reqs
    @ [
        Util.metric "unattributed_share" "ratio"
          (if client_ms > 0.0 then Float.max 0.0 (1.0 -. (covered /. client_ms)) else 0.0);
        Util.metric "trace.overhead_pct" "%" (100.0 *. ((t.sat_wall /. u.sat_wall) -. 1.0));
      ]
  in
  (u.exited && t.exited, List.length all, failed, metrics)
