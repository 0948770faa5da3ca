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
  let lookup sys =
    let e, hit =
      Serve.Table_cache.find_or_build cache sys
        ~application:Proc.Processor.Bist
    in
    (Serve.Table_cache.system e, Serve.Table_cache.table e, hit)
  in
  let sys1, tbl1, hit1 = lookup first in
  Alcotest.(check bool) "first lookup misses" false hit1;
  Alcotest.(check bool) "miss returns the given system" true (sys1 == first);
  (* A structurally identical system built elsewhere must map to the
     SAME cached table and the system it was built for, because the
     schedulers demand physical equality between the two. *)
  let twin = Util.small_system () in
  let sys2, tbl2, hit2 = lookup twin in
  Alcotest.(check bool) "second lookup hits" true hit2;
  Alcotest.(check bool) "same table instance" true (tbl1 == tbl2);
  Alcotest.(check bool) "cached system, not the probe" true (sys2 == sys1);
  Alcotest.(check bool) "table legal for cached system" true
    (Core.Test_access.table_for tbl2 ~system:sys2
       ~application:Proc.Processor.Bist);
  Alcotest.(check int) "one hit" 1 (Serve.Table_cache.hits cache);
  Alcotest.(check int) "one miss" 1 (Serve.Table_cache.misses cache);
  (* The cached instance itself (what Sysbuild hands every request for
     a builtin) hits without a fingerprint, on the same entry. *)
  let sys3, tbl3, hit3 = lookup sys1 in
  Alcotest.(check bool) "cached instance hits" true hit3;
  Alcotest.(check bool) "same entry" true (sys3 == sys1 && tbl3 == tbl1);
  Alcotest.(check int) "two hits" 2 (Serve.Table_cache.hits cache);
  Alcotest.(check int) "still one miss" 1 (Serve.Table_cache.misses cache)

let test_cache_applications_distinct () =
  let cache = Serve.Table_cache.create ~capacity:4 in
  let sys = Util.small_system () in
  let _, _ =
    Serve.Table_cache.find_or_build cache sys ~application:Proc.Processor.Bist
  in
  let _, hit =
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
    let _, hit =
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
    let entry, _ =
      Serve.Table_cache.find_or_build cache (d695 ())
        ~application:Proc.Processor.Bist
    in
    let sys = Serve.Table_cache.system entry
    and access = Serve.Table_cache.table entry in
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
  (* A misspelt or repeated name is refused, not ignored. *)
  List.iter
    (fun (msg, line) ->
      match Serve.Protocol.parse_request line with
      | Error ((_, Serve.Protocol.Invalid), got) ->
          Alcotest.(check string) line msg got
      | _ -> Alcotest.failf "%S not refused as invalid" line)
    [
      ( {|unknown field "power"|},
        {|{"op": "plan", "system": "d695_leon", "power": 25}|} );
      ( {|duplicate field "op"|},
        {|{"op": "plan", "op": "sweep", "system": "d695_leon"}|} );
    ];
  match
    Serve.Protocol.parse_request
      "{\"id\": \"r1\", \"op\": \"plan\", \"system\": \"d695_leon\", \
       \"reuse\": 2, \"power_pct\": 25, \"deadline_ms\": 100}"
  with
  | Error (_, msg) -> Alcotest.failf "rejected valid request: %s" msg
  | Ok { Serve.Protocol.op = Planning p; deadline_ms; _ } ->
      Alcotest.(check string) "op" "plan"
        (Serve.Protocol.op_label (Planning p));
      (match p.work with
      | Run (reuse, Plan (Solo { Core.Backend.name; _ })) ->
          Alcotest.(check (option int)) "reuse" (Some 2) reuse;
          Alcotest.(check string) "default backend" "greedy" name
      | _ -> Alcotest.fail "not a greedy plan");
      Alcotest.(check (option (float 1e-9))) "power_pct (int accepted)"
        (Some 25.0) p.power_pct;
      Alcotest.(check (option (float 1e-9))) "deadline" (Some 100.0)
        deadline_ms
  | Ok _ -> Alcotest.fail "plan parsed as an observability op"

let test_protocol_fault_fields () =
  (* Structural breakage is [parse]; well-formed requests carrying
     out-of-domain values are [invalid]. *)
  let kind line =
    match Serve.Protocol.parse_request line with
    | Error ((_, k), _) -> k
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
  | Ok { Serve.Protocol.op = Planning { work = Run (Some 2, Replan f); _ }; _ }
    ->
      Alcotest.(check int) "at" 500 f.at;
      Alcotest.(check int) "one failed router" 1 (List.length f.failed_routers);
      Alcotest.(check int) "three failed links" 3 (List.length f.failed_links)
  | Ok _ -> Alcotest.fail "not a replan at reuse 2"

let test_protocol_string_fields () =
  (* A string field of another type is refused, naming the field, the
     way a wrong-typed integer field is — never read as absent. *)
  let refused msg line =
    match Serve.Protocol.parse_request line with
    | Error ((_, Serve.Protocol.Parse), got) ->
        Alcotest.(check string) line msg got
    | Error ((_, k), got) ->
        Alcotest.failf "%S answered %s (%s), not parse" line
          (Serve.Protocol.error_kind_label k) got
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  refused {|field "policy" must be a string|}
    {|{"op":"plan","system":"d695_leon","policy":5,"backend":7,"application":true}|};
  refused {|field "op" must be a string|} {|{"op":5,"system":"d695_leon"}|};
  refused {|field "backend" must be a string|}
    {|{"op":"plan","system":"d695_leon","backend":7}|};
  refused {|field "application" must be a string|}
    {|{"op":"plan","system":"d695_leon","application":true}|};
  refused {|field "system" must be a string|} {|{"op":"plan","system":17}|};
  refused {|field "soc" must be a string|} {|{"op":"plan","soc":[]}|};
  refused {|field "reuse" must be an integer|}
    {|{"op":"plan","system":"d695_leon","reuse":"2"}|};
  refused "missing op field" {|{"op":null,"system":"d695_leon"}|}

let test_protocol_mesh_fields () =
  (* Mesh dimensions and processor counts out of domain are refused at
     parse time, naming the field, instead of reaching Sysbuild; a mesh
     above the area bound is refused before anything is built.  The
     domain checks run first, so their messages win. *)
  let refused msg line =
    match Serve.Protocol.parse_request line with
    | Error ((_, Serve.Protocol.Invalid), got) ->
        Alcotest.(check string) line msg got
    | Error ((_, k), got) ->
        Alcotest.failf "%S answered %s (%s), not invalid" line
          (Serve.Protocol.error_kind_label k) got
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  let area = {|mesh "width" x "height" must be <= 4096 tiles|} in
  refused {|field "width" must be >= 1|}
    {|{"op": "plan", "system": "d695", "width": 0, "height": 4}|};
  refused {|field "height" must be >= 1|}
    {|{"op": "plan", "system": "d695", "width": 4, "height": 0}|};
  refused {|field "leons" must be >= 0|}
    {|{"op": "plan", "system": "d695", "leons": -1}|};
  refused {|field "plasmas" must be >= 0|}
    {|{"op": "plan", "system": "d695", "plasmas": -1}|};
  refused area
    {|{"op":"plan","system":"d695","width":1000000,"height":100000,"leons":1}|};
  refused area {|{"op": "plan", "system": "d695", "width": 1, "height": 4097}|};
  (* A mesh field nothing would read is refused too. *)
  refused {|field "width" requires "height"|}
    {|{"op": "plan", "system": "d695", "width": 5}|};
  refused {|field "height" requires "width"|}
    {|{"op": "plan", "system": "d695", "height": 5}|};
  refused {|field "leons" does not apply to builtin system d695_leon|}
    {|{"op": "plan", "system": "d695_leon", "leons": 3}|};
  refused {|field "width" does not apply to builtin system p22810_mixed|}
    {|{"op": "sweep", "system": "p22810_mixed", "width": 5, "height": 6}|};
  Alcotest.(check int) "bound" 4096 Serve.Protocol.max_mesh_tiles;
  match
    Serve.Protocol.parse_request
      {|{"op": "plan", "system": "d695", "width": 64, "height": 64}|}
  with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.failf "rejected a mesh at the bound: %s" msg

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

(* The library bounds behind the serve capacity flags: each
   out-of-range value is refused before any worker starts. *)
let test_service_rejects_bad_capacities () =
  List.iter
    (fun (name, create) ->
      match create () with
      | service ->
          Serve.Service.shutdown service;
          Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("cache_capacity 0", fun () -> Serve.Service.create ~cache_capacity:0 ());
      ("workers 0", fun () -> Serve.Service.create ~workers:0 ());
      ("queue_capacity -1", fun () -> Serve.Service.create ~queue_capacity:(-1) ());
      ("cache_capacity -1", fun () -> Serve.Service.create ~cache_capacity:(-1) ());
    ]

(* A processor count whose access table would exceed the cap answers
   [invalid] naming the field, before any processor or table is built;
   the largest counts under it still resolve. *)
let test_service_table_cap () =
  let service = Serve.Service.create ~workers:1 () in
  let refused line field_name =
    let resp = parse_response (Serve.Service.request service line) in
    let error = field "error" resp in
    Alcotest.(check bool) (line ^ " kind") true
      (field "kind" error = Json.String "invalid");
    match field "message" error with
    | Json.String msg ->
        if not (String.starts_with ~prefix:field_name msg) then
          Alcotest.failf "%s: message %S does not name %s" line msg field_name
    | _ -> Alcotest.fail "message is not a string"
  in
  refused {|{"op": "plan", "system": "d695", "leons": 1000000}|}
    {|field "leons"|};
  refused {|{"op": "sweep", "system": "d695", "plasmas": 96}|}
    {|field "plasmas"|};
  refused {|{"op": "plan", "system": "d695", "leons": 50, "plasmas": 46}|}
    {|fields "leons" and "plasmas"|};
  (* Counts whose sum or square would overflow are refused before any
     arithmetic on them. *)
  refused
    (Printf.sprintf {|{"op": "plan", "system": "d695", "leons": %d}|} max_int)
    {|field "leons"|};
  refused
    (Printf.sprintf
       {|{"op": "plan", "system": "d695", "leons": %d, "plasmas": %d}|}
       max_int max_int)
    {|fields "leons" and "plasmas"|};
  Serve.Service.shutdown service;
  Alcotest.(check int) "cap" 1_000_000 Serve.Protocol.max_table_cells;
  let resolves spec =
    match Serve.Sysbuild.resolve spec with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Serve.Sysbuild.error_message e)
  in
  (* d695 has 10 modules: 60 Leons need 70 x 62^2 = 269,080 cells, 95
     need 105 x 97^2 = 987,945 and 96 need 1,018,024. *)
  resolves (Serve.Sysbuild.spec ~width:12 ~height:12 ~leons:60 "d695");
  resolves (Serve.Sysbuild.spec ~leons:95 "d695");
  (match Serve.Sysbuild.resolve (Serve.Sysbuild.spec ~leons:96 "d695") with
  | Error (Serve.Sysbuild.Too_large _) -> ()
  | Error (Serve.Sysbuild.Unresolved msg) -> Alcotest.failf "unresolved: %s" msg
  | Ok _ -> Alcotest.fail "96 Leons on d695 accepted");
  (* Negative counts (the CLI passes them through unchecked) keep
     [assemble]'s error instead of reaching the size arithmetic. *)
  List.iter
    (fun spec ->
      match Serve.Sysbuild.resolve spec with
      | Error (Serve.Sysbuild.Unresolved msg) ->
          Alcotest.(check string)
            "message" "Sysbuild.assemble: negative processor count" msg
      | Error (Serve.Sysbuild.Too_large msg) ->
          Alcotest.failf "too large: %s" msg
      | Ok _ -> Alcotest.fail "negative count accepted")
    [
      Serve.Sysbuild.spec ~leons:(-2) "d695";
      Serve.Sysbuild.spec ~leons:(-3) "d695";
      Serve.Sysbuild.spec ~plasmas:(-1) "d695";
      Serve.Sysbuild.spec ~leons:max_int ~plasmas:(-1) "d695";
    ]

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

(* Out-of-domain values answer [invalid] under the request's own id,
   whether the parser refuses them or the system does (a reuse count
   above its processor count); only a line that is not a JSON object
   answers under a null id. *)
let test_service_invalid_keeps_id () =
  let service = Serve.Service.create ~workers:1 () in
  let error line =
    let resp = parse_response (Serve.Service.request service line) in
    (field "id" resp, field "kind" (field "error" resp))
  in
  List.iteri
    (fun i body ->
      let id = Printf.sprintf "bad-%d" i in
      let got_id, kind =
        error (Printf.sprintf "{\"id\": %S, %s}" id body)
      in
      if got_id <> Json.String id || kind <> Json.String "invalid" then
        Alcotest.failf "%s: answered id %s, kind %s" body
          (Json.to_string got_id) (Json.to_string kind))
    [
      {|"op": "preempt", "system": "d695_leon", "max_sessions": 0|};
      {|"op": "replan", "system": "d695_leon", "at": -1|};
      {|"op": "plan", "system": "d695_leon", "backend": "nope"|};
      {|"op": "anneal", "system": "d695_leon", "placement_moves": 3|};
      {|"op": "anneal", "system": "d695_leon", "iterations": 0|};
      {|"op": "anneal", "system": "d695_leon", "chains": 0|};
      {|"op": "plan", "system": "d695_leon", "reuse": -1|};
      {|"op": "sweep", "system": "d695_leon", "max_reuse": -3|};
      {|"op": "plan", "system": "d695_leon", "power_pct": 0|};
      {|"op": "plan", "system": "d695_leon", "reuse": 9|};
      {|"op": "preempt", "system": "d695_leon", "reuse": 9|};
      {|"op": "plan", "system": "d695", "width": 0, "height": 4, "leons": 1|};
      {|"op": "plan", "system": "d695", "width": 4, "height": -2, "leons": 1|};
      {|"op": "plan", "system": "d695", "leons": -1|};
      {|"op": "plan", "system": "d695", "plasmas": -1|};
      {|"op": "plan", "system": "d695", "width": 65, "height": 64, "leons": 1|};
      {|"op":"plan","system":"d695","width":1000000,"height":100000,"leons":1|};
    ];
  Alcotest.(check bool) "non-object answers under a null id" true
    (fst (error "[1]") = Json.Null);
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
      {|{"op": "anneal", "system": "d695", "leons": 2, "width": 5, "height": 5,
         "reuse": 2}|};
    ];
  (* Deadlines opt out: a leader's timeout must never fail followers. *)
  Alcotest.(check bool) "deadline exempt" true
    (key {|{"op": "anneal", "system": "d695_leon", "reuse": 2, "deadline_ms": 50}|}
    = None);
  Alcotest.(check bool) "observability ops exempt" true
    (key {|{"op": "metrics"}|} = None)

(* --- the request protocol, property-checked ------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Values for every field but [id], [op], [system] and [soc], in and
   out of its domain (wrong JSON types included), on d695_leon (4x4,
   six processors).  Anneal budgets stay small.  The mesh fields are
   refused on a builtin system whatever their value. *)
let field_values =
  let strs l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.
    [
      ("v", [ Int 1 ], []);
      ("width", [ Int 4 ], [ Int 0; Int 5000; String "4" ]);
      ("height", [ Int 4 ], [ Int (-1) ]);
      ("leons", [ Int 2 ], [ Int (-1) ]);
      ("plasmas", [ Int 0 ], [ Int (-3) ]);
      ( "policy",
        [ String "greedy"; String "lookahead" ],
        [ String "sideways" ] );
      ("application", [ String "bist"; String "decompress" ], [ String "x" ]);
      ( "backend",
        [ String "greedy"; String "binpack"; String "race" ],
        [ String "nope" ] );
      ( "power_pct",
        [ Float 50.0; Int 25 ],
        [ Float 0.0; Int (-5); String "low" ] );
      ("reuse", [ Int 0; Int 3; Int 6 ], [ Int 9; Int (-1); Float 1.5 ]);
      ("max_reuse", [ Int 2; Int 8 ], [ Int (-2) ]);
      ("iterations", [ Int 1; Int 20; Int 50 ], [ Int 0 ]);
      ("seed", [ Int 7; Int (-3) ], [ String "x" ]);
      ("chains", [ Int 1; Int 3 ], [ Int 0 ]);
      ("placement_moves", [ Float 0.0; Float 0.4; Int 1 ], [ Float 1.5 ]);
      ("warm", [ Bool true; Bool false ], [ Int 1 ]);
      ("max_sessions", [ Int 1; Int 4 ], [ Int 0 ]);
      ("at", [ Int 0; Int 200_000 ], [ Int (-1) ]);
      ( "failed_routers",
        [ strs [ "1,1" ]; strs [ "0,0"; "3,3" ] ],
        [ strs [ "9,9" ]; strs [ "a,b" ]; Int 3 ] );
      ( "failed_links",
        [ strs [ "1,0>2,0"; "inject:0,0" ]; strs [ "eject:3,3" ] ],
        [ strs [ "0,0>9,0" ]; strs [ "1-2" ] ] );
      ("deadline_ms", [ Float 60000.0 ], [ String "now" ]);
    ]

(* Floats print with every digit (and stay floats), so a one-ulp change
   survives the trip through text. *)
let rec render = function
  | Json.Float f ->
      let s = Printf.sprintf "%.17g" f in
      if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"
  | Json.List items -> "[" ^ String.concat ", " (List.map render items) ^ "]"
  | Json.Obj members ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> "\"" ^ Json.escape k ^ "\": " ^ render v)
             members)
      ^ "}"
  | v -> Json.to_string v

(* A planning request on d695_leon: a random subset of the known
   fields, sometimes an unknown name, sometimes a name sent twice, in
   random member order.  Returns the members and whether an unknown or
   repeated name is among them. *)
let request_gen =
  let open QCheck2.Gen in
  let* op =
    oneofl [ "plan"; "validate"; "sweep"; "anneal"; "replan"; "preempt" ]
  in
  let* id = int_bound 1000 in
  (* Half the requests draw only values that should answer ok. *)
  let* clean = bool in
  let applies name =
    match name with
    | "width" | "height" | "leons" | "plasmas" -> false
    | "backend" -> op = "plan" || op = "validate"
    | _ -> true
  in
  let* known =
    flatten_l
      (List.map
         (fun (name, good, bad) ->
           let values = if clean then good else good @ bad in
           if clean && not (applies name) then return None
           else
             frequency
               [
                 (2, return None);
                 (1, map (fun v -> Some (name, v)) (oneofl values));
               ])
         field_values)
  in
  let base =
    [ ("id", Json.Int id); ("op", Json.String op);
      ("system", Json.String "d695_leon") ]
    @ List.filter_map Fun.id known
  in
  let* unknown =
    if clean then return []
    else
      frequency
        [
          (4, return []);
          ( 1,
            map
              (fun name -> [ (name, Json.Int 1) ])
              (oneof
                 [
                   oneofl [ "power"; "iteration"; "failed_link"; "Reuse" ];
                   string_size ~gen:(char_range 'a' 'z') (int_range 1 12);
                 ]) );
        ]
  in
  let unknown =
    List.filter (fun (n, _) -> not (List.mem n Serve.Protocol.fields)) unknown
  in
  let* repeated =
    if clean then return []
    else frequency [ (4, return []); (1, map (fun m -> [ m ]) (oneofl base)) ]
  in
  let+ members = shuffle_l (base @ unknown @ repeated) in
  (members, unknown <> [] || repeated <> [])

(* The same member with a different value that is usually still in
   domain: the next integer or float, the other enum value, the list
   doubled. *)
let changed (name, v) =
  let v =
    match (name, v) with
    | "op", Json.String "plan" -> Json.String "validate"
    | "op", _ -> Json.String "plan"
    | "system", _ -> Json.String "p22810_leon"
    | "policy", Json.String "greedy" -> Json.String "lookahead"
    | "application", Json.String "bist" -> Json.String "decompress"
    | "backend", Json.String "greedy" -> Json.String "binpack"
    | _, Json.Int i -> Json.Int (i + 1)
    | _, Json.Float f -> Json.Float (Float.succ f)
    | _, Json.Bool b -> Json.Bool (not b)
    | _, Json.String s -> Json.String (s ^ "x")
    | _, Json.List [] -> Json.List [ Json.String "0,0" ]
    | _, Json.List items -> Json.List (items @ items)
    | _, v -> v
  in
  (name, v)

let prop_request service (members, refused) =
  let line = render (Json.Obj members) in
  let resp = parse_response (Serve.Service.request service line) in
  (match (field "ok" resp, Json.member "error" resp) with
  | Json.Bool true, _ ->
      if refused then
        QCheck2.Test.fail_reportf "unknown or repeated name accepted: %s" line
  | _, Some err ->
      let kind = Json.str_field "kind" err
      and msg = Option.value (Json.str_field "message" err) ~default:"" in
      if kind = Some "internal" then
        QCheck2.Test.fail_reportf "internal error on %s: %s" line msg;
      if refused && kind <> Some "invalid" then
        QCheck2.Test.fail_reportf "unknown or repeated name not invalid: %s"
          line;
      if
        not
          (List.exists
             (fun (name, _) -> contains msg ("\"" ^ name ^ "\""))
             members)
      then QCheck2.Test.fail_reportf "%S names no field of %s" msg line
  | _ -> QCheck2.Test.fail_reportf "odd response to %s" line);
  (* The coalesce key: blind to [id] and member order, and changed by
     any one member's value. *)
  let key members =
    match Serve.Protocol.parse_request (render (Json.Obj members)) with
    | Ok req -> Serve.Protocol.coalesce_key req
    | Error _ -> None
  in
  match key members with
  | None -> true
  | Some k ->
      let others = List.filter (fun (n, _) -> n <> "id") members in
      if key (List.rev (("id", Json.String "other") :: others)) <> Some k then
        QCheck2.Test.fail_reportf "id or member order changed the key of %s"
          line;
      List.iteri
        (fun i _ ->
          let variant =
            List.mapi (fun j m -> if i = j then changed m else m) others
          in
          match key variant with
          | Some k' when k' = k ->
              QCheck2.Test.fail_reportf "%s and %s share a key" line
                (render (Json.Obj variant))
          | _ -> ())
        others;
      true

let test_protocol_property () =
  (* Every known field is drawn (bar the four fixed ones), so a field
     added to the protocol must be added here too. *)
  Alcotest.(check (list string))
    "every field drawn"
    (List.sort compare Serve.Protocol.fields)
    (List.sort compare
       ([ "id"; "op"; "system"; "soc" ]
       @ List.map (fun (name, _, _) -> name) field_values));
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 22 |])
    (QCheck2.Test.make ~count:300 ~name:"protocol"
       ~print:(fun (members, _) -> render (Json.Obj members))
       request_gen (prop_request service))

(* README's "Request fields" table names exactly {!Protocol.fields}. *)
let test_readme_request_fields () =
  let path =
    if Sys.file_exists "../README.md" then "../README.md" else "README.md"
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let is_row = String.starts_with ~prefix:"|" in
  let rec from_heading = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:"Request fields" l then rest
        else from_heading rest
  in
  let rec to_table = function
    | l :: rest when not (is_row l) -> to_table rest
    | rows -> rows
  in
  let rec take_rows = function
    | l :: rest when is_row l -> l :: take_rows rest
    | _ -> []
  in
  let rows =
    match take_rows (to_table (from_heading lines)) with
    | _header :: _rule :: rows -> rows
    | _ -> Alcotest.fail "README has no \"Request fields\" table"
  in
  (* The backticked names in each row's first cell. *)
  let names =
    List.concat_map
      (fun row ->
        match String.split_on_char '|' row with
        | _ :: cell :: _ -> (
            match String.split_on_char '`' cell with
            | _ :: parts -> List.filteri (fun i _ -> i mod 2 = 0) parts
            | [] -> [])
        | _ -> [])
      rows
  in
  Alcotest.(check (list string))
    "README table = Protocol.fields"
    (List.sort compare Serve.Protocol.fields)
    (List.sort compare names)

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

(* --- evaluation caches in table-cache entries ------------------------ *)

let bist = Proc.Processor.Bist

(* A table cache holding [system] (or a structural twin) in its own
   entry; a miss stores the argument, so [system] itself is the
   entry's instance when the cache is fresh. *)
let entry_for ?(cache = Serve.Table_cache.create ~capacity:4) system =
  (cache, fst (Serve.Table_cache.find_or_build cache system ~application:bist))

(* [n] configurations that differ only in their power limit. *)
let configs n =
  List.init n (fun i ->
      Core.Scheduler.config ~power_limit:(Some (float_of_int (1000 * (i + 1))))
        ~reuse:1 ())

let resident tc entry cfg =
  let cache, hit = Serve.Table_cache.checkout tc entry cfg in
  Serve.Table_cache.checkin entry cfg cache;
  hit

let test_eval_checkout_checkin () =
  let tc, entry = entry_for (Util.small_system ()) in
  let system = Serve.Table_cache.system entry in
  let cfg = Core.Scheduler.config ~reuse:1 () in
  let cache, hit = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "first checkout misses" false hit;
  Alcotest.(check bool) "fresh cache evaluates on the entry's table" true
    (Core.Eval_cache.access cache == Serve.Table_cache.table entry);
  let order = Array.of_list (Core.Priority.order system ~reuse:1) in
  let direct = Core.Scheduler.run system { cfg with Core.Scheduler.order = None } in
  let via = Core.Eval_cache.schedule cache order in
  Alcotest.(check int) "cache evaluation byte-identical" direct.Core.Schedule.makespan
    via.Core.Schedule.makespan;
  Serve.Table_cache.checkin entry cfg cache;
  let cache2, hit2 = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "second checkout hits" true hit2;
  Alcotest.(check bool) "same cache instance back" true (cache2 == cache);
  (* The resident trace makes the next evaluation an exact hit. *)
  ignore (Core.Eval_cache.schedule cache2 order);
  Alcotest.(check bool) "trace survived the round trip" true
    ((Core.Eval_cache.stats cache2).Core.Eval_cache.exact_hits >= 1);
  Serve.Table_cache.checkin entry cfg cache2;
  (* Another configuration of the same system has a cache of its own. *)
  let other, hit3 =
    Serve.Table_cache.checkout tc entry (Core.Scheduler.config ~reuse:0 ())
  in
  Alcotest.(check bool) "other configuration misses" false hit3;
  Alcotest.(check bool) "fresh cache for the other configuration" true
    (other != cache);
  Alcotest.(check int) "hits counted" 1 (Serve.Table_cache.eval_hits tc);
  Alcotest.(check int) "misses counted" 2 (Serve.Table_cache.eval_misses tc)

let test_eval_concurrent_checkout_merges () =
  let tc, entry = entry_for (Util.small_system ()) in
  let system = Serve.Table_cache.system entry in
  let cfg = Core.Scheduler.config ~reuse:1 () in
  (* Two workers want the same configuration at once: each gets its own
     cache (exclusive ownership), and the second check-in folds its
     traces into the resident instead of clobbering it. *)
  let a, _ = Serve.Table_cache.checkout tc entry cfg in
  let b, hit_b = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "concurrent checkout gets a fresh cache" false hit_b;
  let order = Array.of_list (Core.Priority.order system ~reuse:1) in
  ignore (Core.Eval_cache.schedule b order);
  Serve.Table_cache.checkin entry cfg a;
  Serve.Table_cache.checkin entry cfg b;
  (* The resident (a) inherited b's trace: its next evaluation of the
     same order is an exact hit, not a run. *)
  let c, hit_c = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "resident survives" true (hit_c && c == a);
  ignore (Core.Eval_cache.schedule c order);
  Alcotest.(check bool) "merged trace hits exactly" true
    ((Core.Eval_cache.stats c).Core.Eval_cache.exact_hits >= 1);
  (* One resident per configuration: with [a] checked out, nothing
     else answers for it. *)
  let _, hit_d = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "b was merged, not kept" false hit_d

let test_eval_eviction_follows_recency () =
  let tc, entry = entry_for (Util.small_system ()) in
  let n = Serve.Table_cache.evals_per_entry in
  let cfgs = configs (n + 1) in
  List.iteri (fun i cfg -> if i < n then ignore (resident tc entry cfg)) cfgs;
  (* Touching the oldest makes it the most recent: the next newcomer
     evicts the second-oldest instead. *)
  Alcotest.(check bool) "oldest still resident" true
    (resident tc entry (List.nth cfgs 0));
  ignore (resident tc entry (List.nth cfgs n));
  Alcotest.(check bool) "touched configuration kept" true
    (resident tc entry (List.nth cfgs 0));
  Alcotest.(check bool) "least recently used evicted" false
    (resident tc entry (List.nth cfgs 1))

(* (b) the per-system bound: the 9th configuration of one system
   evicts that system's least recently used one, and only that one. *)
let test_eval_ninth_configuration_evicts_lru () =
  let tc, entry = entry_for (Util.small_system ()) in
  let n = Serve.Table_cache.evals_per_entry in
  Alcotest.(check int) "eight per system" 8 n;
  let cfgs = configs (n + 1) in
  List.iter (fun cfg -> ignore (resident tc entry cfg)) cfgs;
  (* The evicted one is probed last: checking its fresh cache in would
     evict another. *)
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "recent configuration resident" true
        (resident tc entry cfg))
    (List.rev (List.tl cfgs));
  Alcotest.(check bool) "first configuration evicted" false
    (resident tc entry (List.hd cfgs))

(* The warm trace lives with the configuration's evaluation cache: the
   best offered trace wins, whether offered to one cache in turn or
   merged from two concurrent check-ins. *)
let test_eval_keeps_best_trace () =
  let system = d695 () in
  let cfg = Core.Scheduler.config ~reuse:2 () in
  let trace order =
    Core.Scheduler.run_traced system
      { cfg with Core.Scheduler.order = Some order }
  in
  let makespan tr =
    (Core.Scheduler.trace_schedule tr).Core.Schedule.makespan
  in
  let heuristic = Core.Priority.order system ~reuse:2 in
  let good, bad =
    let a = trace heuristic and b = trace (List.rev heuristic) in
    if makespan a < makespan b then (a, b) else (b, a)
  in
  Alcotest.(check bool) "fixture: distinct makespans" true
    (makespan good < makespan bad);
  let best = Core.Eval_cache.best in
  let tc, entry = entry_for system in
  let cache, _ = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "fresh cache has no warm trace" true
    (Option.is_none (best cache));
  Core.Eval_cache.offer cache good;
  Core.Eval_cache.offer cache bad;
  Alcotest.(check bool) "worse offer never replaces a better one" true
    (Option.get (best cache) == good);
  Serve.Table_cache.checkin entry cfg cache;
  let back, hit = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "best trace survives the round trip" true
    (hit && Option.get (best back) == good);
  Serve.Table_cache.checkin entry cfg back;
  (* Two concurrent holders of a fresh entry's configuration: the
     second check-in merges, and the resident keeps the better trace
     either way round. *)
  let concurrent ~first ~second =
    let tc, entry = entry_for system in
    let a, _ = Serve.Table_cache.checkout tc entry cfg in
    let b, _ = Serve.Table_cache.checkout tc entry cfg in
    Core.Eval_cache.offer a first;
    Core.Eval_cache.offer b second;
    Serve.Table_cache.checkin entry cfg a;
    Serve.Table_cache.checkin entry cfg b;
    let c, hit = Serve.Table_cache.checkout tc entry cfg in
    Alcotest.(check bool) "resident back" true (hit && c == a);
    Alcotest.(check bool) "concurrent check-in keeps the better trace" true
      (Option.get (best c) == good)
  in
  concurrent ~first:bad ~second:good;
  concurrent ~first:good ~second:bad

(* (a) the bound is per system: a configuration's cache and its warm
   trace outlive check-ins of more configurations than one entry keeps,
   as long as those belong to other systems. *)
let test_eval_survives_other_systems () =
  let system = d695 () in
  let cfg = Core.Scheduler.config ~reuse:2 () in
  let tc, entry = entry_for system in
  let cache, _ = Serve.Table_cache.checkout tc entry cfg in
  let order = Array.of_list (Core.Priority.order system ~reuse:2) in
  Core.Eval_cache.offer cache (Core.Eval_cache.evaluate cache order);
  Serve.Table_cache.checkin entry cfg cache;
  let others =
    [
      Util.small_system ();
      Util.small_system ~processors:[ Proc.Processor.plasma ~id:1 ] ();
    ]
  in
  let cfgs = configs (Serve.Table_cache.evals_per_entry + 1) in
  List.iteri
    (fun i cfg ->
      let _, other =
        entry_for ~cache:tc (List.nth others (i mod List.length others))
      in
      ignore (resident tc other cfg))
    cfgs;
  let back, hit = Serve.Table_cache.checkout tc entry cfg in
  Alcotest.(check bool) "cache survives" true (hit && back == cache);
  Alcotest.(check bool) "warm trace survives" true
    (Option.is_some (Core.Eval_cache.best back))

(* (c) evaluation caches live and die with their system's entry: once
   the table is evicted, the rebuilt system starts with none. *)
let test_eval_dropped_with_table () =
  let tc = Serve.Table_cache.create ~capacity:1 in
  let cfg = Core.Scheduler.config ~reuse:1 () in
  let _, entry = entry_for ~cache:tc (Util.small_system ()) in
  ignore (resident tc entry cfg);
  Alcotest.(check bool) "resident while the table is" true
    (resident tc entry cfg);
  let _ =
    entry_for ~cache:tc
      (Util.small_system ~processors:[ Proc.Processor.plasma ~id:1 ] ())
  in
  let _, rebuilt = entry_for ~cache:tc (Util.small_system ()) in
  Alcotest.(check bool) "table rebuilt" true (rebuilt != entry);
  let cache, hit = Serve.Table_cache.checkout tc rebuilt cfg in
  Alcotest.(check bool) "first checkout after the rebuild misses" false hit;
  Alcotest.(check bool) "and brings no warm trace" true
    (Option.is_none (Core.Eval_cache.best cache))

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

(* Compatible plans that cannot coalesce (each carries a far-off
   deadline) resume one shared evaluation cache: every repeat of the
   configuration is a cache hit, and the answers stay byte-identical. *)
let test_service_compatible_requests_share_eval_cache () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let plans =
    List.init 4 (fun _ ->
        parse_response
          (Serve.Service.request service
             "{\"op\": \"plan\", \"system\": \"d695_leon\", \"reuse\": 2, \
              \"deadline_ms\": 3600000}"))
  in
  let expected = result_string (List.hd plans) in
  List.iter
    (fun r ->
      Alcotest.(check string) "plans byte-identical" expected (result_string r))
    plans;
  Alcotest.(check int) "repeats hit the shared cache" 3
    (Serve.Service.stats service).Serve.Stats.shared_cache_hits

let test_socket_queued_requests_run_in_order () =
  (* One slow anneal occupies the single worker while four compatible
     plans (each with a far-off deadline, so none coalesces) pile up
     behind it.  Each runs alone, in arrival order: the responses come
     back in request order with plain envelopes, byte-identical, and
     the repeats still hit the shared evaluation cache. *)
  with_server (fun path ->
      with_client path (fun ic oc ->
          output_string oc
            "{\"id\": 0, \"op\": \"anneal\", \"system\": \"d695_leon\", \
             \"reuse\": 3, \"iterations\": 2000}\n";
          for i = 1 to 4 do
            output_string oc
              (Printf.sprintf
                 "{\"id\": %d, \"op\": \"plan\", \"system\": \"d695_leon\", \
                  \"reuse\": 2, \"deadline_ms\": 3600000}\n"
                 i)
          done;
          flush oc;
          let responses = List.init 5 (fun _ -> parse_response (input_line ic)) in
          Alcotest.(check (list int)) "answered in arrival order" [ 0; 1; 2; 3; 4 ]
            (List.map
               (fun r ->
                 match field "id" r with
                 | Json.Int i -> i
                 | _ -> Alcotest.fail "id not an int")
               responses);
          List.iter
            (fun r ->
              Alcotest.(check bool) "ok" true (field "ok" r = Json.Bool true);
              Alcotest.(check bool) "no batch marker" true
                (Json.member "batched" r = None))
            responses;
          let plans = List.tl responses in
          let expected = result_string (List.hd plans) in
          List.iter
            (fun r ->
              Alcotest.(check string) "plans byte-identical" expected
                (result_string r))
            plans;
          let metrics = roundtrip ic oc "{\"op\": \"metrics\"}" in
          let result = field "result" metrics in
          Alcotest.(check bool) "no batch counters" true
            (Json.member "batched" result = None
            && Json.member "batches" result = None);
          match field "shared_cache_hits" result with
          | Json.Int n -> Alcotest.(check bool) "shared cache carried" true (n >= 3)
          | _ -> Alcotest.fail "shared_cache_hits not an int"))

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
  (* The repeat opts out of the warm start: same cold trajectory, and no
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

(* A warm hit is a warm start that happened.  With one table-cache
   slot, the p22810 request evicts d695, so the last d695 anneal runs
   against a rebuilt system: the trace kept for the old instance must
   not be handed out, nor counted as a hit. *)
let test_service_warm_hits_count_adopted_traces () =
  let service = Serve.Service.create ~workers:1 ~cache_capacity:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let anneal system =
    let resp =
      parse_response
        (Serve.Service.request service
           (Printf.sprintf
              "{\"op\": \"anneal\", \"system\": \"%s\", \"leons\": 2, \
               \"reuse\": 2, \"iterations\": 30}"
              system))
    in
    field "warm_start" (field "result" resp) = Json.Bool true
  in
  let warm = List.map anneal [ "d695"; "d695"; "p22810"; "d695" ] in
  Alcotest.(check (list bool)) "only the immediate repeat is warm"
    [ false; true; false; false ] warm;
  let metrics =
    field "result"
      (parse_response (Serve.Service.request service "{\"op\": \"metrics\"}"))
  in
  let adopted = List.length (List.filter Fun.id warm) in
  Alcotest.(check bool) "warm_hits counts adopted traces" true
    (field "warm_hits" metrics = Json.Int adopted);
  Alcotest.(check bool) "every other lookup is a miss" true
    (field "warm_misses" metrics = Json.Int (List.length warm - adopted))

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

let test_tcp_hundred_connections () =
  (* 100 connections open at once, one client thread each, 200 d695
     plans over the reuse counts: every request is answered ok. *)
  let clients = 100 and requests = 200 in
  let service = Serve.Service.create ~queue_capacity:requests () in
  let listener = Serve.Server.listen_tcp service ~host:"127.0.0.1" ~port:0 in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop listener;
      Serve.Server.wait listener;
      Serve.Service.shutdown service)
  @@ fun () ->
  let port = Option.get (Serve.Server.port listener) in
  let fds =
    List.init clients (fun _ ->
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
        fd)
  in
  Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
  let ok = Atomic.make 0 in
  let client (c, fd) =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    for k = 0 to (requests / clients) - 1 do
      let i = (c * requests / clients) + k in
      match
        roundtrip ic oc
          (Printf.sprintf
             "{\"id\": %d, \"op\": \"plan\", \"system\": \"d695_leon\", \
              \"reuse\": %d}"
             i (i mod 7))
      with
      | resp -> if field "ok" resp = Json.Bool true then Atomic.incr ok
      | exception End_of_file -> ()
    done
  in
  List.iter Thread.join
    (List.mapi (fun c fd -> Thread.create client (c, fd)) fds);
  Alcotest.(check int) "every request ok" requests (Atomic.get ok)

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
    Alcotest.test_case "protocol mesh fields" `Quick test_protocol_mesh_fields;
    Alcotest.test_case "service table cap" `Quick test_service_table_cap;
    Alcotest.test_case "protocol string fields" `Quick
      test_protocol_string_fields;
    Alcotest.test_case "protocol fault fields" `Quick
      test_protocol_fault_fields;
    Alcotest.test_case "service preempt and replan" `Quick
      test_service_preempt_and_replan;
    Alcotest.test_case "service overload backpressure" `Quick
      test_service_overload;
    Alcotest.test_case "service rejects bad capacities" `Quick
      test_service_rejects_bad_capacities;
    Alcotest.test_case "service reports unschedulable" `Quick
      test_service_unschedulable_kind;
    Alcotest.test_case "service: invalid values keep the request id" `Quick
      test_service_invalid_keeps_id;
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
    Alcotest.test_case "protocol property: fields, errors and keys" `Quick
      test_protocol_property;
    Alcotest.test_case "README request fields = Protocol.fields" `Quick
      test_readme_request_fields;
    Alcotest.test_case "inflight registry" `Quick test_inflight_registry;
    Alcotest.test_case "eval cache checkout and checkin" `Quick
      test_eval_checkout_checkin;
    Alcotest.test_case "eval cache concurrent checkout merges" `Quick
      test_eval_concurrent_checkout_merges;
    Alcotest.test_case "eval cache eviction follows recency" `Quick
      test_eval_eviction_follows_recency;
    Alcotest.test_case "eval cache: 9th configuration evicts lru" `Quick
      test_eval_ninth_configuration_evicts_lru;
    Alcotest.test_case "eval cache survives other systems" `Quick
      test_eval_survives_other_systems;
    Alcotest.test_case "eval caches dropped with their table" `Quick
      test_eval_dropped_with_table;
    Alcotest.test_case "annealing adopts matching eval cache" `Quick
      test_annealing_adopts_matching_cache;
    Alcotest.test_case "service: compatible requests share the eval cache"
      `Quick test_service_compatible_requests_share_eval_cache;
    Alcotest.test_case "socket: queued requests run alone in order" `Quick
      test_socket_queued_requests_run_in_order;
    Alcotest.test_case "warm:false disables the warm start" `Quick
      test_service_warm_false_disables_warm_start;
    Alcotest.test_case "socket: identical requests coalesce to one solve"
      `Quick test_socket_coalesced_identical_requests;
    Alcotest.test_case "warm start carries across requests" `Quick
      test_service_warm_start_across_requests;
    Alcotest.test_case "warm hits count adopted traces" `Quick
      test_service_warm_hits_count_adopted_traces;
    Alcotest.test_case "eval cache keeps the best trace" `Quick
      test_eval_keeps_best_trace;
    Alcotest.test_case "tcp and read-only listeners" `Quick
      test_tcp_and_read_only_listener;
    Alcotest.test_case "tcp: responses not held by nagle" `Quick
      test_tcp_responses_not_held_by_nagle;
    Alcotest.test_case "tcp: 100 concurrent connections" `Quick
      test_tcp_hundred_connections;
    Alcotest.test_case "socket: close waits only for own work" `Quick
      test_connection_close_waits_only_for_own_work;
  ]
