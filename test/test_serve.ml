(* The concurrent planning service: protocol, cache, queue, and the
   socket transport end to end. *)

module Serve = Nocplan_serve
module Core = Nocplan_core
module Proc = Nocplan_proc
module Json = Serve.Json

let d695 () = Option.get (Serve.Sysbuild.builtin_system "d695_leon")

(* --- json ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1, -2, 3.5, \"x\"]";
      "{\"a\": 1, \"b\": {\"c\": [true, false, null]}}";
      "\"quote \\\" backslash \\\\ newline \\n unicode \\u00e9\"";
      "{\"makespan\":412391,\"entries\":[]}";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
          let printed = Json.to_string v in
          match Json.parse printed with
          | Error e -> Alcotest.failf "reparse %s: %s" printed e
          | Ok v2 ->
              Alcotest.(check string)
                "print is a fixpoint" printed (Json.to_string v2)))
    cases

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated"; "{\"a\" 1}" ]

(* --- system fingerprint -------------------------------------------- *)

let test_fingerprint_stability () =
  let a = Util.small_system () and b = Util.small_system () in
  Alcotest.(check string)
    "same construction, same digest" (Core.System.fingerprint a)
    (Core.System.fingerprint b);
  let c =
    Util.small_system ~processors:[ Proc.Processor.plasma ~id:1 ] ()
  in
  Alcotest.(check bool)
    "different processors, different digest" false
    (String.equal (Core.System.fingerprint a) (Core.System.fingerprint c));
  Alcotest.(check bool)
    "distinct from the builtin system" false
    (String.equal (Core.System.fingerprint a) (Core.System.fingerprint (d695 ())))

(* --- access-table cache -------------------------------------------- *)

let test_cache_hit_returns_cached_instance () =
  let cache = Serve.Table_cache.create ~capacity:2 in
  let first = Util.small_system () in
  let sys1, tbl1, hit1 =
    Serve.Table_cache.find_or_build cache first ~application:Proc.Processor.Bist
  in
  Alcotest.(check bool) "first lookup misses" false hit1;
  Alcotest.(check bool) "miss returns the given system" true (sys1 == first);
  (* A structurally identical system built elsewhere must map to the
     SAME cached table and the system it was built for, because the
     schedulers demand physical equality between the two. *)
  let twin = Util.small_system () in
  let sys2, tbl2, hit2 =
    Serve.Table_cache.find_or_build cache twin ~application:Proc.Processor.Bist
  in
  Alcotest.(check bool) "second lookup hits" true hit2;
  Alcotest.(check bool) "same table instance" true (tbl1 == tbl2);
  Alcotest.(check bool) "cached system, not the probe" true (sys2 == sys1);
  Alcotest.(check bool) "table legal for cached system" true
    (Core.Test_access.table_for tbl2 ~system:sys2
       ~application:Proc.Processor.Bist);
  Alcotest.(check int) "one hit" 1 (Serve.Table_cache.hits cache);
  Alcotest.(check int) "one miss" 1 (Serve.Table_cache.misses cache)

let test_cache_applications_distinct () =
  let cache = Serve.Table_cache.create ~capacity:4 in
  let sys = Util.small_system () in
  let _, _, _ =
    Serve.Table_cache.find_or_build cache sys ~application:Proc.Processor.Bist
  in
  let _, _, hit =
    Serve.Table_cache.find_or_build cache sys
      ~application:Proc.Processor.Decompression
  in
  Alcotest.(check bool) "other application misses" false hit;
  Alcotest.(check int) "two entries" 2 (Serve.Table_cache.length cache)

let test_cache_evicts_lru () =
  let cache = Serve.Table_cache.create ~capacity:2 in
  let a = Util.small_system () in
  let b = Util.small_system ~processors:[ Proc.Processor.plasma ~id:1 ] () in
  let c =
    Util.small_system
      ~processors:[ Proc.Processor.leon ~id:1; Proc.Processor.plasma ~id:1 ]
      ()
  in
  let touch sys =
    let _, _, hit =
      Serve.Table_cache.find_or_build cache sys
        ~application:Proc.Processor.Bist
    in
    hit
  in
  Alcotest.(check bool) "a misses" false (touch a);
  Alcotest.(check bool) "b misses" false (touch b);
  Alcotest.(check bool) "a still cached" true (touch a);
  (* c evicts b (least recently used), not a. *)
  Alcotest.(check bool) "c misses" false (touch c);
  Alcotest.(check int) "capacity bound" 2 (Serve.Table_cache.length cache);
  Alcotest.(check bool) "a survived" true (touch a);
  Alcotest.(check bool) "b was evicted" false (touch b)

let test_cached_schedule_identical () =
  (* Planning through the cache twice must give byte-identical JSON to
     planning directly, miss and hit alike — the cache must never
     change results. *)
  let direct_sys = d695 () in
  let direct =
    Core.Export.schedule_json direct_sys
      (Core.Planner.schedule ~reuse:3 direct_sys)
  in
  let cache = Serve.Table_cache.create ~capacity:2 in
  let via_cache () =
    let sys, access, _ =
      Serve.Table_cache.find_or_build cache (d695 ())
        ~application:Proc.Processor.Bist
    in
    let sched =
      Core.Scheduler.run ~access sys (Core.Scheduler.config ~reuse:3 ())
    in
    Core.Export.schedule_json sys sched
  in
  Alcotest.(check string) "uncached equals direct" direct (via_cache ());
  Alcotest.(check string) "cached equals direct" direct (via_cache ());
  Alcotest.(check int) "second run hit" 1 (Serve.Table_cache.hits cache)

(* --- job queue ------------------------------------------------------ *)

let test_queue_fifo_and_bound () =
  let q = Serve.Job_queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Serve.Job_queue.push q 1);
  Alcotest.(check bool) "push 2" true (Serve.Job_queue.push q 2);
  Alcotest.(check bool) "push 3 bounces" false (Serve.Job_queue.push q 3);
  Alcotest.(check int) "depth" 2 (Serve.Job_queue.depth q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Serve.Job_queue.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Serve.Job_queue.pop q);
  Serve.Job_queue.close q;
  Alcotest.(check (option int)) "closed pop" None (Serve.Job_queue.pop q);
  Alcotest.(check bool) "closed push" false (Serve.Job_queue.push q 4)

let test_queue_drains_after_close () =
  let q = Serve.Job_queue.create ~capacity:4 in
  ignore (Serve.Job_queue.push q "a");
  ignore (Serve.Job_queue.push q "b");
  Serve.Job_queue.close q;
  Alcotest.(check (option string)) "drain a" (Some "a") (Serve.Job_queue.pop q);
  Alcotest.(check (option string)) "drain b" (Some "b") (Serve.Job_queue.pop q);
  Alcotest.(check (option string)) "then closed" None (Serve.Job_queue.pop q)

(* --- protocol ------------------------------------------------------- *)

let parse_err line =
  match Serve.Protocol.parse_request line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "accepted %S" line

let test_protocol_validation () =
  ignore (parse_err "nonsense");
  ignore (parse_err "[]");
  ignore (parse_err "{\"op\": \"fly\"}");
  ignore (parse_err "{\"op\": \"plan\"}");
  ignore (parse_err "{\"v\": 2, \"op\": \"metrics\"}");
  ignore (parse_err "{\"op\": \"plan\", \"system\": \"d695_leon\", \"reuse\": \"three\"}");
  match
    Serve.Protocol.parse_request
      "{\"id\": \"r1\", \"op\": \"plan\", \"system\": \"d695_leon\", \
       \"reuse\": 2, \"power_pct\": 25, \"deadline_ms\": 100}"
  with
  | Error (_, msg) -> Alcotest.failf "rejected valid request: %s" msg
  | Ok req ->
      Alcotest.(check string) "op" "plan" (Serve.Protocol.op_label req.Serve.Protocol.op);
      Alcotest.(check (option int)) "reuse" (Some 2) req.Serve.Protocol.reuse;
      Alcotest.(check (option (float 1e-9))) "power_pct (int accepted)"
        (Some 25.0) req.Serve.Protocol.power_pct;
      Alcotest.(check (option (float 1e-9))) "deadline" (Some 100.0)
        req.Serve.Protocol.deadline_ms

let test_protocol_fault_fields () =
  (* Structural breakage is [parse]; well-formed requests carrying
     out-of-domain values are [invalid]. *)
  let kind line =
    match Serve.Protocol.parse_request line with
    | Error (k, _) -> k
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  Alcotest.(check bool) "max_sessions 0 is invalid" true
    (kind "{\"op\": \"preempt\", \"system\": \"x\", \"max_sessions\": 0}"
    = Serve.Protocol.Invalid);
  Alcotest.(check bool) "negative at is invalid" true
    (kind "{\"op\": \"replan\", \"system\": \"x\", \"at\": -1}"
    = Serve.Protocol.Invalid);
  Alcotest.(check bool) "malformed link is invalid" true
    (kind
       "{\"op\": \"replan\", \"system\": \"x\", \"failed_links\": \
        [\"1,0-2,0\"]}"
    = Serve.Protocol.Invalid);
  Alcotest.(check bool) "self-loop channel is invalid" true
    (kind
       "{\"op\": \"replan\", \"system\": \"x\", \"failed_links\": \
        [\"1,0>1,0\"]}"
    = Serve.Protocol.Invalid);
  Alcotest.(check bool) "non-numeric coordinate is invalid" true
    (kind
       "{\"op\": \"replan\", \"system\": \"x\", \"failed_routers\": \
        [\"a,b\"]}"
    = Serve.Protocol.Invalid);
  match
    Serve.Protocol.parse_request
      "{\"op\": \"replan\", \"system\": \"d695_leon\", \"reuse\": 2, \"at\": \
       500, \"failed_routers\": [\"1,1\"], \"failed_links\": [\"1,0>2,0\", \
       \"inject:0,0\", \"eject:3,3\"]}"
  with
  | Error (_, msg) -> Alcotest.failf "rejected valid replan: %s" msg
  | Ok req ->
      Alcotest.(check string) "op" "replan"
        (Serve.Protocol.op_label req.Serve.Protocol.op);
      Alcotest.(check (option int)) "at" (Some 500) req.Serve.Protocol.at;
      Alcotest.(check int) "one failed router" 1
        (List.length req.Serve.Protocol.fault_routers);
      Alcotest.(check int) "three failed links" 3
        (List.length req.Serve.Protocol.fault_links)

(* --- service (in-process) ------------------------------------------ *)

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %s: %s" name (Json.to_string json)

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad response %s: %s" line e

let test_service_overload () =
  (* Capacity 0: deterministic backpressure — every planning request
     bounces, metrics stays inline and alive. *)
  let service = Serve.Service.create ~workers:1 ~queue_capacity:0 () in
  let resp =
    parse_response
      (Serve.Service.request service
         "{\"id\": 7, \"op\": \"plan\", \"system\": \"d695_leon\"}")
  in
  Alcotest.(check bool) "not ok" true (field "ok" resp = Json.Bool false);
  Alcotest.(check bool) "overload kind" true
    (field "kind" (field "error" resp) = Json.String "overload");
  let metrics =
    parse_response (Serve.Service.request service "{\"op\": \"metrics\"}")
  in
  let result = field "result" metrics in
  Alcotest.(check bool) "rejection counted" true
    (field "rejected" result = Json.Int 1);
  Serve.Service.shutdown service

let test_service_unschedulable_kind () =
  let service = Serve.Service.create ~workers:1 () in
  let resp =
    parse_response
      (Serve.Service.request service
         "{\"op\": \"plan\", \"system\": \"d695_leon\", \"power_pct\": 0.001}")
  in
  Alcotest.(check bool) "unschedulable kind" true
    (field "kind" (field "error" resp) = Json.String "unschedulable");
  Serve.Service.shutdown service

let test_service_anneal_matches_direct () =
  (* The anneal op is deterministic for fixed parameters, so the served
     numbers must equal a direct in-process run. *)
  let system = d695 () in
  let expected =
    Core.Annealing.schedule ~iterations:30 ~seed:7L ~chains:2 ~reuse:2 system
  in
  let service = Serve.Service.create ~workers:1 () in
  let resp =
    parse_response
      (Serve.Service.request service
         "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 2, \
          \"iterations\": 30, \"seed\": 7, \"chains\": 2}")
  in
  Alcotest.(check bool) "ok" true (field "ok" resp = Json.Bool true);
  let result = field "result" resp in
  Alcotest.(check bool) "makespan matches direct" true
    (field "makespan" result
    = Json.Int expected.Core.Annealing.schedule.Core.Schedule.makespan);
  Alcotest.(check bool) "initial makespan matches direct" true
    (field "initial_makespan" result
    = Json.Int expected.Core.Annealing.initial_makespan);
  Alcotest.(check bool) "evaluations match direct" true
    (field "evaluations" result = Json.Int expected.Core.Annealing.evaluations);
  Alcotest.(check bool) "chains echoed" true
    (field "chains" result = Json.Int expected.Core.Annealing.chains);
  Alcotest.(check bool) "exchanges match direct" true
    (field "exchanges" result = Json.Int expected.Core.Annealing.exchanges);
  Serve.Service.shutdown service

(* --- socket transport, end to end ---------------------------------- *)

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nocplan-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(workers = 1) f =
  let service = Serve.Service.create ~workers ~queue_capacity:32 () in
  let path = socket_path () in
  let listener = Serve.Server.listen service ~path in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop listener;
      Serve.Server.wait listener;
      Serve.Service.shutdown service)
    (fun () -> f path)

let with_client path f =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f ic oc)

let roundtrip ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  parse_response (input_line ic)

let result_string resp = Json.to_string (field "result" resp)

let test_socket_concurrent_clients_match_direct () =
  (* Three clients plan the same builtin system at different reuse
     counts concurrently; every response must be byte-identical to the
     direct single-shot computation, and by the end the access table
     must have been built exactly once (metrics cache counters). *)
  let system = d695 () in
  let expected reuse =
    let sched = Core.Planner.schedule ~reuse system in
    Json.to_string
      (Result.get_ok (Json.parse (Core.Export.schedule_json system sched)))
  in
  with_server (fun path ->
      let results = Array.make 3 "" in
      let client reuse =
        with_client path (fun ic oc ->
            let resp =
              roundtrip ic oc
                (Printf.sprintf
                   "{\"id\": %d, \"op\": \"plan\", \"system\": \
                    \"d695_leon\", \"reuse\": %d}"
                   reuse reuse)
            in
            Alcotest.(check bool)
              (Printf.sprintf "reuse %d ok" reuse)
              true
              (field "ok" resp = Json.Bool true);
            results.(reuse) <- result_string resp)
      in
      let threads = List.init 3 (fun r -> Thread.create client r) in
      List.iter Thread.join threads;
      for reuse = 0 to 2 do
        Alcotest.(check string)
          (Printf.sprintf "reuse %d matches direct" reuse)
          (expected reuse) results.(reuse)
      done;
      with_client path (fun ic oc ->
          let metrics = roundtrip ic oc "{\"op\": \"metrics\"}" in
          let result = field "result" metrics in
          Alcotest.(check bool) "one table build" true
            (field "cache_misses" result = Json.Int 1);
          Alcotest.(check bool) "table shared by later requests" true
            (field "cache_hits" result = Json.Int 2);
          Alcotest.(check bool) "all three served" true
            (field "served" result = Json.Int 4 (* 3 plans + this *))))

let test_socket_sweep_and_validate_match_direct () =
  let system = d695 () in
  let expected_sweep =
    Json.to_string
      (Result.get_ok
         (Json.parse
            (Core.Export.sweep_json
               (Core.Planner.reuse_sweep ~max_reuse:2 system))))
  in
  with_server (fun path ->
      with_client path (fun ic oc ->
          let sweep =
            roundtrip ic oc
              "{\"op\": \"sweep\", \"system\": \"d695_leon\", \"max_reuse\": 2}"
          in
          Alcotest.(check string) "sweep matches direct" expected_sweep
            (result_string sweep);
          let cached =
            roundtrip ic oc
              "{\"op\": \"sweep\", \"system\": \"d695_leon\", \"max_reuse\": 2}"
          in
          Alcotest.(check bool) "second sweep from cache" true
            (field "cache" cached = Json.String "hit");
          Alcotest.(check string) "cached sweep byte-identical" expected_sweep
            (result_string cached);
          let validate =
            roundtrip ic oc
              "{\"op\": \"validate\", \"system\": \"d695_leon\", \"reuse\": 2}"
          in
          let result = field "result" validate in
          Alcotest.(check bool) "schedule valid" true
            (field "valid" result = Json.Bool true);
          Alcotest.(check bool) "no violations" true
            (field "violations" result = Json.List [])))

let test_socket_deadline_does_not_kill_server () =
  with_server (fun path ->
      with_client path (fun ic oc ->
          let expired =
            roundtrip ic oc
              "{\"id\": \"t\", \"op\": \"sweep\", \"system\": \
               \"p93791_leon\", \"deadline_ms\": 0}"
          in
          Alcotest.(check bool) "timeout kind" true
            (field "kind" (field "error" expired) = Json.String "timeout");
          (* The worker and the connection both survive. *)
          let after =
            roundtrip ic oc
              "{\"id\": \"u\", \"op\": \"plan\", \"system\": \"d695_leon\", \
               \"reuse\": 1}"
          in
          Alcotest.(check bool) "next request served" true
            (field "ok" after = Json.Bool true);
          let metrics = roundtrip ic oc "{\"op\": \"metrics\"}" in
          Alcotest.(check bool) "timeout counted" true
            (field "timeouts" (field "result" metrics) = Json.Int 1)))

let test_service_preempt_and_replan () =
  let service = Serve.Service.create ~workers:1 ~queue_capacity:8 () in
  let resp =
    parse_response
      (Serve.Service.request service
         "{\"id\": 1, \"op\": \"preempt\", \"system\": \"d695_leon\", \
          \"reuse\": 2, \"max_sessions\": 2}")
  in
  Alcotest.(check bool) "preempt ok" true (field "ok" resp = Json.Bool true);
  let result = field "result" resp in
  Alcotest.(check bool) "preemptive plan validates" true
    (field "valid" result = Json.Bool true);
  (* max_sessions caps the split per core: the total session count
     lies between one per module and max_sessions per module. *)
  (match (field "sessions" result, field "modules" result) with
  | Json.Int sessions, Json.Int modules ->
      Alcotest.(check bool) "session count within per-core cap" true
        (sessions >= modules && sessions <= modules * 2)
  | _ -> Alcotest.fail "sessions/modules not ints");
  let replan =
    parse_response
      (Serve.Service.request service
         "{\"id\": 2, \"op\": \"replan\", \"system\": \"d695_leon\", \
          \"reuse\": 3, \"at\": 50000, \"failed_links\": [\"1,0>2,0\"]}")
  in
  Alcotest.(check bool) "replan ok" true (field "ok" replan = Json.Bool true);
  let r = field "result" replan in
  Alcotest.(check bool) "recovery validates" true
    (field "valid" r = Json.Bool true);
  (match field "availability" r with
  | Json.Float a ->
      Alcotest.(check bool) "availability in range" true (a >= 0.0 && a <= 1.0)
  | _ -> Alcotest.fail "availability not a float");
  let oob =
    parse_response
      (Serve.Service.request service
         "{\"id\": 3, \"op\": \"replan\", \"system\": \"d695_leon\", \
          \"failed_routers\": [\"9,9\"]}")
  in
  Alcotest.(check bool) "out-of-bounds router refused" true
    (field "kind" (field "error" oob) = Json.String "invalid");
  (* The fault counters flowed into the stats snapshot. *)
  let metrics =
    parse_response (Serve.Service.request service "{\"op\": \"metrics\"}")
  in
  Alcotest.(check bool) "fault replans counted" true
    (field "fault_replans" (field "result" metrics) = Json.Int 1);
  Serve.Service.shutdown service

(* --- coalescing ----------------------------------------------------- *)

let parse_req line = Result.get_ok (Serve.Protocol.parse_request line)

let test_coalesce_key_semantics () =
  let key line = Serve.Protocol.coalesce_key (parse_req line) in
  let base = {|{"id": 1, "op": "anneal", "system": "d695_leon", "reuse": 2}|} in
  (* The id is not part of the identity: two clients asking the same
     question share a key. *)
  Alcotest.(check bool) "id excluded" true
    (key base
    = key {|{"id": "other", "op": "anneal", "system": "d695_leon", "reuse": 2}|});
  (* Every result-shaping field is. *)
  List.iter
    (fun variant ->
      Alcotest.(check bool) ("distinct: " ^ variant) false
        (key base = key variant))
    [
      {|{"op": "anneal", "system": "d695_leon", "reuse": 3}|};
      {|{"op": "anneal", "system": "p22810_leon", "reuse": 2}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "seed": 7}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "policy": "lookahead"}|};
      {|{"op": "plan", "system": "d695_leon", "reuse": 2}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "max_sessions": 2}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "at": 500}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "failed_links": ["1,0>2,0"]}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "failed_routers": ["1,1"]}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "iterations": 500}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "chains": 3}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "placement_moves": 0.4}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "warm": false}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "power_pct": 50}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "application": "decompress"}|};
      {|{"op": "anneal", "system": "d695", "leons": 2, "reuse": 2}|};
      {|{"op": "anneal", "system": "d695", "leons": 2, "width": 5, "reuse": 2}|};
    ];
  (* Deadlines opt out: a leader's timeout must never fail followers. *)
  Alcotest.(check bool) "deadline exempt" true
    (key {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "deadline_ms": 50}|}
    = None);
  Alcotest.(check bool) "observability ops exempt" true
    (key {|{"op": "metrics"}|} = None)

let test_inflight_registry () =
  let r = Serve.Inflight.create () in
  Alcotest.(check bool) "first claim leads" true
    (Serve.Inflight.claim r ~key:"k" 1 = `Leader);
  Alcotest.(check bool) "second attaches" true
    (Serve.Inflight.claim r ~key:"k" 2 = `Attached);
  Alcotest.(check bool) "third attaches" true
    (Serve.Inflight.claim r ~key:"k" 3 = `Attached);
  Alcotest.(check bool) "other key leads" true
    (Serve.Inflight.claim r ~key:"k2" 9 = `Leader);
  Alcotest.(check int) "two keys in flight" 2 (Serve.Inflight.keys r);
  Alcotest.(check int) "two waiters parked" 2 (Serve.Inflight.waiting r);
  Alcotest.(check (list int)) "release returns arrival order" [ 2; 3 ]
    (Serve.Inflight.release r ~key:"k");
  Alcotest.(check (list int)) "released key is free" []
    (Serve.Inflight.release r ~key:"k");
  Alcotest.(check bool) "and can be claimed again" true
    (Serve.Inflight.claim r ~key:"k" 4 = `Leader)

let test_socket_coalesced_identical_requests () =
  (* N identical anneal requests down one connection, workers = 1: the
     first becomes the (queued) leader and solves; the rest must attach
     to it, not solve.  Exactly one response lacks the coalesced
     marker, all results are byte-identical, and the stats counters
     agree. *)
  let n = 6 in
  with_server (fun path ->
      with_client path (fun ic oc ->
          for i = 0 to n - 1 do
            output_string oc
              (Printf.sprintf
                 "{\"id\": %d, \"op\": \"anneal\", \"system\": \
                  \"d695_leon\", \"reuse\": 2, \"iterations\": 150}\n"
                 i)
          done;
          flush oc;
          let responses = List.init n (fun _ -> parse_response (input_line ic)) in
          List.iter
            (fun r ->
              Alcotest.(check bool) "ok" true (field "ok" r = Json.Bool true))
            responses;
          let leaders, followers =
            List.partition
              (fun r -> Json.member "coalesced" r = None)
              responses
          in
          Alcotest.(check int) "exactly one solve ran" 1 (List.length leaders);
          Alcotest.(check int) "rest coalesced" (n - 1) (List.length followers);
          List.iter
            (fun r ->
              Alcotest.(check bool) "coalesced marker" true
                (field "coalesced" r = Json.Bool true))
            followers;
          (* One solve, one verdict: every response carries the same
             result bytes (and the leader's cache marker). *)
          let expected = result_string (List.hd leaders) in
          List.iter
            (fun r ->
              Alcotest.(check string) "results byte-identical" expected
                (result_string r))
            responses;
          let metrics = roundtrip ic oc "{\"op\": \"metrics\"}" in
          let result = field "result" metrics in
          Alcotest.(check bool) "coalesce counter" true
            (field "anneal" (field "coalesced" result) = Json.Int (n - 1));
          Alcotest.(check bool) "one table build" true
            (field "cache_misses" result = Json.Int 1)))

(* --- batching -------------------------------------------------------- *)

let test_batch_key_semantics () =
  let key line = Serve.Batch.key (parse_req line) in
  let base = {|{"id": 1, "op": "plan", "system": "d695_leon", "reuse": 2}|} in
  (* Search parameters stay out of the compatibility key: distinct
     questions about the same (system, configuration) pair share one
     batch pass. *)
  List.iter
    (fun variant ->
      Alcotest.(check bool) ("compatible: " ^ variant) true
        (key base <> None && key base = key variant))
    [
      {|{"id": 2, "op": "plan", "system": "d695_leon", "reuse": 2}|};
      {|{"op": "validate", "system": "d695_leon", "reuse": 2}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "seed": 9}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "iterations": 60, "chains": 2}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "warm": false}|};
      {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "placement_moves": 0.3}|};
    ];
  (* Everything that picks a different (system, configuration) key
     must land in a different group. *)
  List.iter
    (fun variant ->
      Alcotest.(check bool) ("incompatible: " ^ variant) false
        (key base = key variant))
    [
      {|{"op": "plan", "system": "d695_leon", "reuse": 3}|};
      {|{"op": "plan", "system": "p22810_leon", "reuse": 2}|};
      {|{"op": "plan", "system": "d695_leon", "reuse": 2, "policy": "lookahead"}|};
      {|{"op": "plan", "system": "d695_leon", "reuse": 2, "power_pct": 50}|};
      {|{"op": "plan", "system": "d695_leon", "reuse": 2, "application": "decompress"}|};
      {|{"op": "plan", "system": "d695", "leons": 2, "reuse": 2}|};
    ];
  (* Deadline requests must not be reordered behind a batch, and the
     stateful / observability ops never batch. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) ("exempt: " ^ line) true (key line = None))
    [
      {|{"op": "plan", "system": "d695_leon", "reuse": 2, "deadline_ms": 50}|};
      {|{"op": "sweep", "system": "d695_leon", "max_reuse": 2}|};
      {|{"op": "replan", "system": "d695_leon", "at": 100, "failed_links": ["1,0>2,0"]}|};
      {|{"op": "preempt", "system": "d695_leon", "max_sessions": 2}|};
      {|{"op": "metrics"}|};
    ];
  Alcotest.(check bool) "compatible helper agrees" true
    (Serve.Batch.compatible (parse_req base)
       (parse_req {|{"op": "validate", "system": "d695_leon", "reuse": 2}|}));
  Alcotest.(check bool) "exempt never compatible with itself" false
    (let m = parse_req {|{"op": "metrics"}|} in
     Serve.Batch.compatible m m)

let test_job_queue_drain_matching () =
  let q = Serve.Job_queue.create ~capacity:8 in
  List.iter (fun i -> ignore (Serve.Job_queue.push q i)) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list int)) "takes matches in order, bounded" [ 2; 4 ]
    (Serve.Job_queue.drain_matching ~limit:2 q (fun i -> i mod 2 = 0));
  Alcotest.(check (list int)) "no match, no change" []
    (Serve.Job_queue.drain_matching q (fun i -> i > 100));
  (* The survivors keep their relative order. *)
  Alcotest.(check (option int)) "pop 1" (Some 1) (Serve.Job_queue.pop q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Serve.Job_queue.pop q);
  Alcotest.(check (list int)) "drain the rest" [ 5; 6 ]
    (Serve.Job_queue.drain_matching q (fun _ -> true));
  Alcotest.(check int) "empty" 0 (Serve.Job_queue.depth q)

(* --- shared evaluation-cache registry -------------------------------- *)

let test_shared_registry_checkout_checkin () =
  let system = Util.small_system () in
  let cfg = Core.Scheduler.config ~reuse:1 () in
  let r = Core.Eval_cache.Shared.registry ~capacity:2 () in
  let cache, hit = Core.Eval_cache.Shared.checkout r ~key:"k" system cfg in
  Alcotest.(check bool) "first checkout misses" false hit;
  let order = Array.of_list (Core.Priority.order system ~reuse:1) in
  let direct = Core.Scheduler.run system { cfg with Core.Scheduler.order = None } in
  let via = Core.Eval_cache.schedule cache order in
  Alcotest.(check int) "cache evaluation byte-identical" direct.Core.Schedule.makespan
    via.Core.Schedule.makespan;
  Core.Eval_cache.Shared.checkin r ~key:"k" cache;
  let cache2, hit2 = Core.Eval_cache.Shared.checkout r ~key:"k" system cfg in
  Alcotest.(check bool) "second checkout hits" true hit2;
  Alcotest.(check bool) "same cache instance back" true (cache2 == cache);
  (* The resident trace makes the next evaluation an exact hit. *)
  ignore (Core.Eval_cache.schedule cache2 order);
  Alcotest.(check bool) "trace survived the round trip" true
    ((Core.Eval_cache.stats cache2).Core.Eval_cache.exact_hits >= 1);
  Core.Eval_cache.Shared.checkin r ~key:"k" cache2;
  (* A stale key — same string, different physical system instance —
     must start fresh: resuming another instance's traces is unsound. *)
  let twin = Util.small_system () in
  let cache3, hit3 = Core.Eval_cache.Shared.checkout r ~key:"k" twin cfg in
  Alcotest.(check bool) "stale instance misses" false hit3;
  Alcotest.(check bool) "fresh cache for the new instance" true
    (cache3 != cache);
  Alcotest.(check int) "hits counted" 1 (Core.Eval_cache.Shared.hits r);
  Alcotest.(check int) "misses counted" 2 (Core.Eval_cache.Shared.misses r)

let test_shared_registry_concurrent_checkout_merges () =
  let system = Util.small_system () in
  let cfg = Core.Scheduler.config ~reuse:1 () in
  let r = Core.Eval_cache.Shared.registry ~capacity:2 () in
  (* Two workers want the same key at once: each gets its own cache
     (exclusive ownership), and the second check-in folds its traces
     into the resident instead of clobbering it. *)
  let a, _ = Core.Eval_cache.Shared.checkout r ~key:"k" system cfg in
  let b, hit_b = Core.Eval_cache.Shared.checkout r ~key:"k" system cfg in
  Alcotest.(check bool) "concurrent checkout gets a fresh cache" false hit_b;
  let order = Array.of_list (Core.Priority.order system ~reuse:1) in
  ignore (Core.Eval_cache.schedule b order);
  Core.Eval_cache.Shared.checkin r ~key:"k" a;
  Core.Eval_cache.Shared.checkin r ~key:"k" b;
  Alcotest.(check int) "one resident per key" 1
    (Core.Eval_cache.Shared.length r);
  (* The resident (a) inherited b's trace: its next evaluation of the
     same order is an exact hit, not a run. *)
  let c, hit_c = Core.Eval_cache.Shared.checkout r ~key:"k" system cfg in
  Alcotest.(check bool) "resident survives" true (hit_c && c == a);
  ignore (Core.Eval_cache.schedule c order);
  Alcotest.(check bool) "merged trace hits exactly" true
    ((Core.Eval_cache.stats c).Core.Eval_cache.exact_hits >= 1)

let test_shared_registry_eviction () =
  let system = Util.small_system () in
  let cfg = Core.Scheduler.config ~reuse:1 () in
  let r = Core.Eval_cache.Shared.registry ~capacity:2 () in
  List.iter
    (fun key ->
      let cache, _ = Core.Eval_cache.Shared.checkout r ~key system cfg in
      Core.Eval_cache.Shared.checkin r ~key cache)
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "capacity bounds residents" 2
    (Core.Eval_cache.Shared.length r);
  (* "a" was the least recently used: it is the one gone. *)
  let _, hit_b = Core.Eval_cache.Shared.checkout r ~key:"b" system cfg in
  Alcotest.(check bool) "recent key resident" true hit_b;
  let _, hit_a = Core.Eval_cache.Shared.checkout r ~key:"a" system cfg in
  Alcotest.(check bool) "oldest key evicted" false hit_a

let test_annealing_adopts_matching_cache () =
  let system = d695 () in
  let run ?eval_cache () =
    Core.Annealing.schedule ~iterations:40 ~seed:11L ?eval_cache ~reuse:2
      system
  in
  let plain = run () in
  (* A matching cache changes nothing observable: every evaluation
     through it is byte-identical to a from-scratch run. *)
  let cfg = Core.Scheduler.config ~reuse:2 () in
  let warmed = Core.Eval_cache.create system cfg in
  ignore
    (Core.Eval_cache.schedule warmed
       (Array.of_list (Core.Priority.order system ~reuse:2)));
  let through = run ~eval_cache:warmed () in
  Alcotest.(check int) "same makespan"
    plain.Core.Annealing.schedule.Core.Schedule.makespan
    through.Core.Annealing.schedule.Core.Schedule.makespan;
  Alcotest.(check int) "same initial makespan"
    plain.Core.Annealing.initial_makespan
    through.Core.Annealing.initial_makespan;
  Alcotest.(check int) "same evaluation count" plain.Core.Annealing.evaluations
    through.Core.Annealing.evaluations;
  (* A cache for another configuration is ignored, not adopted. *)
  let mismatched =
    Core.Eval_cache.create system (Core.Scheduler.config ~reuse:1 ())
  in
  let ignored = run ~eval_cache:mismatched () in
  Alcotest.(check int) "mismatched cache ignored"
    plain.Core.Annealing.schedule.Core.Schedule.makespan
    ignored.Core.Annealing.schedule.Core.Schedule.makespan;
  Alcotest.(check int) "mismatched cache left empty" 0
    (List.length (Core.Eval_cache.traces mismatched))

let test_socket_batched_compatible_requests () =
  (* One slow anneal occupies the single worker while four compatible
     plans (distinct seeds, so coalescing cannot merge them) pile up
     behind it: the next pop drains them as one batch.  Every response
     stays byte-identical to the sequential answer, and the envelope
     carries the batch markers. *)
  with_server (fun path ->
      with_client path (fun ic oc ->
          output_string oc
            "{\"id\": 0, \"op\": \"anneal\", \"system\": \"d695_leon\", \
             \"reuse\": 3, \"iterations\": 2000}\n";
          for i = 1 to 4 do
            output_string oc
              (Printf.sprintf
                 "{\"id\": %d, \"op\": \"plan\", \"system\": \"d695_leon\", \
                  \"reuse\": 2, \"seed\": %d}\n"
                 i i)
          done;
          flush oc;
          let responses = List.init 5 (fun _ -> parse_response (input_line ic)) in
          List.iter
            (fun r ->
              Alcotest.(check bool) "ok" true (field "ok" r = Json.Bool true))
            responses;
          let plans =
            List.filter (fun r -> field "op" r = Json.String "plan") responses
          in
          Alcotest.(check int) "four plans answered" 4 (List.length plans);
          let expected = result_string (List.hd plans) in
          List.iter
            (fun r ->
              Alcotest.(check string) "plans byte-identical" expected
                (result_string r))
            plans;
          let batched =
            List.filter (fun r -> Json.member "batched" r = Some (Json.Bool true))
              plans
          in
          Alcotest.(check int) "all four share one batch pass" 4
            (List.length batched);
          List.iter
            (fun r ->
              Alcotest.(check bool) "batch size marker" true
                (field "batch_size" r = Json.Int 4))
            batched;
          let metrics = roundtrip ic oc "{\"op\": \"metrics\"}" in
          let result = field "result" metrics in
          Alcotest.(check bool) "batched counter" true
            (field "batched" result = Json.Int 4);
          Alcotest.(check bool) "batches counter" true
            (field "batches" result = Json.Int 1);
          (match field "shared_cache_hits" result with
          | Json.Int n -> Alcotest.(check bool) "shared cache carried" true (n >= 3)
          | _ -> Alcotest.fail "shared_cache_hits not an int")))

let test_service_warm_false_disables_warm_start () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let anneal extra =
    let resp =
      parse_response
        (Serve.Service.request service
           (Printf.sprintf
              "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 2, \
               \"iterations\": 60, \"seed\": 4%s}"
              extra))
    in
    Alcotest.(check bool) "ok" true (field "ok" resp = Json.Bool true);
    result_string resp
  in
  let cold = anneal "" in
  (* The repeat opts out of the warm LRU: same cold trajectory, and no
     warm hit is counted. *)
  Alcotest.(check string) "warm:false repeats the cold run" cold
    (anneal ", \"warm\": false");
  let metrics =
    parse_response (Serve.Service.request service "{\"op\": \"metrics\"}")
  in
  Alcotest.(check bool) "no warm hits" true
    (field "warm_hits" (field "result" metrics) = Json.Int 0)

(* --- warm starts across requests ------------------------------------ *)

let test_service_warm_start_across_requests () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let anneal seed =
    let resp =
      parse_response
        (Serve.Service.request service
           (Printf.sprintf
              "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 2, \
               \"iterations\": 100, \"seed\": %d}"
              seed))
    in
    let result = field "result" resp in
    ( field "warm_start" result,
      match field "makespan" result with
      | Json.Int m -> m
      | _ -> Alcotest.fail "makespan not an int" )
  in
  let warm1, m1 = anneal 1 in
  Alcotest.(check bool) "first run is cold" true (warm1 = Json.Bool false);
  (* A different seed is a different search of the same instance: it
     must resume from the first run's best and never do worse. *)
  let warm2, m2 = anneal 2 in
  Alcotest.(check bool) "second run warm" true (warm2 = Json.Bool true);
  Alcotest.(check bool) "never worse than cached best" true (m2 <= m1);
  (* A different configuration is a different key: cold again. *)
  let resp =
    parse_response
      (Serve.Service.request service
         "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 3, \
          \"iterations\": 100}")
  in
  Alcotest.(check bool) "other reuse is cold" true
    (field "warm_start" (field "result" resp) = Json.Bool false);
  let metrics = parse_response (Serve.Service.request service "{\"op\": \"metrics\"}") in
  let result = field "result" metrics in
  Alcotest.(check bool) "one warm hit" true
    (field "warm_hits" result = Json.Int 1);
  Alcotest.(check bool) "two warm misses" true
    (field "warm_misses" result = Json.Int 2)

let test_warm_start_lru_monotone () =
  let sys = Util.small_system () in
  let trace_of_order order =
    Core.Scheduler.run_traced sys
      (Core.Scheduler.config ~reuse:1 ?order ())
  in
  let best = trace_of_order None in
  let lru = Serve.Warm_start.create ~capacity:2 in
  Alcotest.(check bool) "miss on empty" true
    (Serve.Warm_start.find lru ~key:"k" = None);
  Serve.Warm_start.note lru ~key:"k" best;
  (match Serve.Warm_start.find lru ~key:"k" with
  | Some t ->
      Alcotest.(check int) "stored trace" (* same schedule *)
        (Core.Scheduler.trace_schedule best).Core.Schedule.makespan
        (Core.Scheduler.trace_schedule t).Core.Schedule.makespan
  | None -> Alcotest.fail "note then find missed");
  Alcotest.(check int) "hits" 1 (Serve.Warm_start.hits lru);
  Alcotest.(check int) "misses" 1 (Serve.Warm_start.misses lru);
  (* Capacity 0 disables the cache entirely. *)
  let off = Serve.Warm_start.create ~capacity:0 in
  Serve.Warm_start.note off ~key:"k" best;
  Alcotest.(check bool) "disabled cache never stores" true
    (Serve.Warm_start.find off ~key:"k" = None);
  Alcotest.(check int) "disabled cache stays empty" 0
    (Serve.Warm_start.length off)

(* --- TCP and read-only listeners ------------------------------------ *)

let with_tcp_client port f =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f ic oc)

let test_tcp_and_read_only_listener () =
  let service = Serve.Service.create ~workers:1 () in
  let rw = Serve.Server.listen_tcp service ~host:"127.0.0.1" ~port:0 in
  let ro =
    Serve.Server.listen_tcp ~read_only:true service ~host:"127.0.0.1" ~port:0
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop rw;
      Serve.Server.stop ro;
      Serve.Server.wait rw;
      Serve.Server.wait ro;
      Serve.Service.shutdown service)
  @@ fun () ->
  let rw_port = Option.get (Serve.Server.port rw) in
  let ro_port = Option.get (Serve.Server.port ro) in
  Alcotest.(check bool) "kernel picked distinct ports" true
    (rw_port <> ro_port && rw_port > 0);
  Alcotest.(check bool) "read_only reported" true (Serve.Server.read_only ro);
  with_tcp_client rw_port (fun ic oc ->
      let plan =
        roundtrip ic oc
          "{\"id\": 1, \"op\": \"plan\", \"system\": \"d695_leon\", \
           \"reuse\": 1}"
      in
      Alcotest.(check bool) "plan over tcp served" true
        (field "ok" plan = Json.Bool true));
  with_tcp_client ro_port (fun ic oc ->
      let metrics = roundtrip ic oc "{\"id\": 2, \"op\": \"metrics\"}" in
      Alcotest.(check bool) "metrics on read-only listener" true
        (field "ok" metrics = Json.Bool true);
      let prom = roundtrip ic oc "{\"id\": 3, \"op\": \"prometheus\"}" in
      Alcotest.(check bool) "prometheus on read-only listener" true
        (field "ok" prom = Json.Bool true);
      let plan =
        roundtrip ic oc
          "{\"id\": 4, \"op\": \"plan\", \"system\": \"d695_leon\", \
           \"reuse\": 1}"
      in
      Alcotest.(check bool) "planning refused" true
        (field "ok" plan = Json.Bool false);
      Alcotest.(check bool) "read_only error kind" true
        (field "kind" (field "error" plan) = Json.String "read_only"));
  (* The refusal is counted as a rejection, visible over the
     read-write path. *)
  let metrics =
    parse_response (Serve.Service.request service "{\"op\": \"metrics\"}")
  in
  Alcotest.(check bool) "refusal counted as rejected" true
    (field "rejected" (field "result" metrics) = Json.Int 1)

let test_tcp_responses_not_held_by_nagle () =
  (* Two requests in one write get two response writes.  With Nagle
     on, the second waits for the client's delayed ACK of the first
     (about 40 ms on Linux), so 20 such bursts would take most of a
     second; with TCP_NODELAY they take a few milliseconds. *)
  let service = Serve.Service.create ~workers:1 () in
  let listener = Serve.Server.listen_tcp service ~host:"127.0.0.1" ~port:0 in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop listener;
      Serve.Server.wait listener;
      Serve.Service.shutdown service)
  @@ fun () ->
  with_tcp_client (Option.get (Serve.Server.port listener)) (fun ic oc ->
      let line = "{\"op\": \"metrics\"}\n" in
      let started = Unix.gettimeofday () in
      for _ = 1 to 20 do
        (* One buffered flush: both lines leave in a single write. *)
        output_string oc (line ^ line);
        flush oc;
        for _ = 1 to 2 do
          Alcotest.(check bool) "metrics served" true
            (field "ok" (parse_response (input_line ic)) = Json.Bool true)
        done
      done;
      let elapsed_ms = (Unix.gettimeofday () -. started) *. 1e3 in
      if elapsed_ms >= 400.0 then
        Alcotest.failf "20 two-request bursts took %.0f ms (limit 400)"
          elapsed_ms)

let test_connection_close_waits_only_for_own_work () =
  (* A client that has its answers must get EOF at once, not when
     some other connection's long job finishes. *)
  let service = Serve.Service.create ~workers:2 ~queue_capacity:32 () in
  let path = socket_path () in
  let listener = Serve.Server.listen service ~path in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop listener;
      Serve.Server.wait listener;
      Serve.Service.shutdown service)
  @@ fun () ->
  let connect () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX path);
    fd
  in
  let b = connect () in
  Fun.protect ~finally:(fun () -> Unix.close b) @@ fun () ->
  let b_oc = Unix.out_channel_of_descr b in
  (* About a second of annealing on one worker. *)
  output_string b_oc
    "{\"id\": \"b\", \"op\": \"anneal\", \"system\": \"p93791_leon\", \
     \"iterations\": 5000}\n";
  flush b_oc;
  (* Its table lookup proves the anneal is admitted and running. *)
  while (Serve.Service.stats service).Serve.Stats.cache_misses = 0 do
    Thread.delay 0.005
  done;
  (* With a single worker the plan would queue behind the anneal;
     an inline op still shows whose work the close waits for. *)
  let a_line =
    if Serve.Service.worker_count service >= 2 then
      "{\"id\": \"a\", \"op\": \"plan\", \"system\": \"d695_leon\", \
       \"reuse\": 1}\n"
    else "{\"id\": \"a\", \"op\": \"metrics\"}\n"
  in
  let a = connect () in
  let a_replies =
    Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
    let a_ic = Unix.in_channel_of_descr a in
    let a_oc = Unix.out_channel_of_descr a in
    output_string a_oc a_line;
    flush a_oc;
    Unix.shutdown a SHUTDOWN_SEND;
    let rec read_to_eof acc =
      match input_line a_ic with
      | l -> read_to_eof (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    read_to_eof []
  in
  (match a_replies with
  | [ reply ] ->
      Alcotest.(check bool) "A answered" true
        (field "ok" (parse_response reply) = Json.Bool true)
  | _ -> Alcotest.failf "A got %d replies" (List.length a_replies));
  let b_ready, _, _ = Unix.select [ b ] [] [] 0.0 in
  Alcotest.(check bool) "A's EOF arrives before B's anneal answers" true
    (b_ready = []);
  let b_reply = input_line (Unix.in_channel_of_descr b) in
  Alcotest.(check bool) "B answered" true
    (field "ok" (parse_response b_reply) = Json.Bool true)

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stability;
    Alcotest.test_case "cache hit returns cached instance" `Quick
      test_cache_hit_returns_cached_instance;
    Alcotest.test_case "cache keys include application" `Quick
      test_cache_applications_distinct;
    Alcotest.test_case "cache evicts least recently used" `Quick
      test_cache_evicts_lru;
    Alcotest.test_case "cached schedules byte-identical" `Quick
      test_cached_schedule_identical;
    Alcotest.test_case "job queue fifo and bound" `Quick
      test_queue_fifo_and_bound;
    Alcotest.test_case "job queue drains after close" `Quick
      test_queue_drains_after_close;
    Alcotest.test_case "protocol validation" `Quick test_protocol_validation;
    Alcotest.test_case "protocol fault fields" `Quick
      test_protocol_fault_fields;
    Alcotest.test_case "service preempt and replan" `Quick
      test_service_preempt_and_replan;
    Alcotest.test_case "service overload backpressure" `Quick
      test_service_overload;
    Alcotest.test_case "service reports unschedulable" `Quick
      test_service_unschedulable_kind;
    Alcotest.test_case "service anneal matches direct" `Quick
      test_service_anneal_matches_direct;
    Alcotest.test_case "socket: concurrent clients match direct" `Quick
      test_socket_concurrent_clients_match_direct;
    Alcotest.test_case "socket: sweep and validate match direct" `Quick
      test_socket_sweep_and_validate_match_direct;
    Alcotest.test_case "socket: deadline does not kill server" `Quick
      test_socket_deadline_does_not_kill_server;
    Alcotest.test_case "coalesce key semantics" `Quick
      test_coalesce_key_semantics;
    Alcotest.test_case "inflight registry" `Quick test_inflight_registry;
    Alcotest.test_case "batch key semantics" `Quick test_batch_key_semantics;
    Alcotest.test_case "job queue drain matching" `Quick
      test_job_queue_drain_matching;
    Alcotest.test_case "shared registry checkout and checkin" `Quick
      test_shared_registry_checkout_checkin;
    Alcotest.test_case "shared registry concurrent checkout merges" `Quick
      test_shared_registry_concurrent_checkout_merges;
    Alcotest.test_case "shared registry eviction" `Quick
      test_shared_registry_eviction;
    Alcotest.test_case "annealing adopts matching eval cache" `Quick
      test_annealing_adopts_matching_cache;
    Alcotest.test_case "socket: compatible requests batch to one pass" `Quick
      test_socket_batched_compatible_requests;
    Alcotest.test_case "warm:false disables the warm start" `Quick
      test_service_warm_false_disables_warm_start;
    Alcotest.test_case "socket: identical requests coalesce to one solve"
      `Quick test_socket_coalesced_identical_requests;
    Alcotest.test_case "warm start carries across requests" `Quick
      test_service_warm_start_across_requests;
    Alcotest.test_case "warm start lru monotone and bounded" `Quick
      test_warm_start_lru_monotone;
    Alcotest.test_case "tcp and read-only listeners" `Quick
      test_tcp_and_read_only_listener;
    Alcotest.test_case "tcp: responses not held by nagle" `Quick
      test_tcp_responses_not_held_by_nagle;
    Alcotest.test_case "socket: close waits only for own work" `Quick
      test_connection_close_waits_only_for_own_work;
  ]
