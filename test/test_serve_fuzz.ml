(* Fuzzing the planning service's JSON-lines transport: malformed,
   truncated and wrongly-typed requests must each produce exactly one
   error response line on a live socket — the server never crashes,
   never hangs, and keeps serving valid requests afterwards. *)

module Serve = Nocplan_serve
module Json = Serve.Json

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nocplan-fuzz-%d-%d.sock" (Unix.getpid ()) !n)

let with_server f =
  let service = Serve.Service.create ~workers:1 ~queue_capacity:32 () in
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
  input_line ic

(* Every server reply must be one parseable JSON object with the
   protocol's response shape. *)
let well_formed_error line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "unparseable response %S: %s" line e)
  | Ok json -> (
      match (Json.member "ok" json, Json.member "error" json) with
      | Some (Json.Bool false), Some (Json.Obj _) -> Ok ()
      | _ -> Error (Printf.sprintf "not an error response: %s" line))

(* Hand-written corpus: every field of the protocol with a wrong type,
   truncated JSON, protocol-version and op abuse, misspelt and repeated
   field names. *)
(* Blank lines are deliberately absent: the transport skips them
   without responding (keep-alive friendly), so they are not part of
   the one-request/one-response contract fuzzed here. *)
let corpus =
  [
    "garbage";
    "{";
    "}";
    "[]";
    "[1, 2";
    "{\"op\"";
    "{\"op\": \"plan\"";
    "{\"op\": \"plan\"}";
    "{\"op\": \"teleport\", \"system\": \"d695_leon\"}";
    "{\"v\": 99, \"op\": \"metrics\"}";
    "{\"v\": \"one\", \"op\": \"metrics\"}";
    "{\"op\": 4}";
    "{\"op\": null}";
    "{\"op\": \"plan\", \"system\": 17}";
    "{\"op\": \"plan\", \"system\": \"no_such_system\"}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"reuse\": \"three\"}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"reuse\": 3.5}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"power_pct\": \"low\"}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"iterations\": []}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"seed\": {}}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"chains\": false}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"placement_moves\": \
     \"abc\"}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"placement_moves\": \
     [0.5]}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"placement_moves\": 7}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"placement_moves\": \
     -0.25}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"deadline_ms\": \"now\"}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"iterations\": 0}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"chains\": -2}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"reuse\": -1}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"reuse\": 9}";
    "{\"op\": \"preempt\", \"system\": \"d695_leon\", \"reuse\": 99}";
    "{\"op\": \"sweep\", \"system\": \"d695_leon\", \"max_reuse\": -3}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"power_pct\": 0}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"power_pct\": -5.5}";
    "{\"op\": \"plan\", \"system\": \"d695\", \"width\": 0}";
    "{\"op\": \"plan\", \"system\": \"d695\", \"height\": -1}";
    "{\"op\": \"plan\", \"system\": \"d695\", \"leons\": -1}";
    "{\"op\": \"plan\", \"system\": \"d695\", \"plasmas\": -4}";
    "{\"op\": \"plan\", \"system\": \"d695\", \"width\": 1000000, \
     \"height\": 100000, \"leons\": 1}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"power\": 25}";
    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"iteration\": 5}";
    "{\"op\": \"replan\", \"system\": \"d695_leon\", \"failed_link\": \
     [\"1,0>2,0\"]}";
    "{\"op\": \"plan\", \"op\": \"sweep\", \"system\": \"d695_leon\"}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"leons\": 3}";
    "{\"op\": \"plan\", \"system\": \"d695\", \"width\": 5}";
    "{\"op\": \"plan\", \"soc\": 42}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"policy\": 5}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"backend\": 7}";
    "{\"op\": \"plan\", \"system\": \"d695_leon\", \"application\": \
     true}";
    "{\"op\": [\"plan\"], \"system\": \"d695_leon\"}";
    "{\"op\": \"plan\", \"soc\": \"not a soc description\"}";
  ]

let assert_alive ic oc =
  let resp = roundtrip ic oc "{\"op\": \"metrics\"}" in
  match Json.parse resp with
  | Ok json when Json.member "ok" json = Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "server no longer serves valid requests: %s" resp

let test_corpus_yields_errors () =
  with_server (fun path ->
      with_client path (fun ic oc ->
          List.iter
            (fun line ->
              match well_formed_error (roundtrip ic oc line) with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "request %S: %s" line msg)
            corpus;
          (* After the whole corpus, the same connection still works. *)
          assert_alive ic oc))

(* Random newline-free garbage: whatever arrives, the reply is exactly
   one line and the connection survives.  (Printable characters only —
   the transport is line-based text; framing of binary blobs is the
   JSON layer's rejection job, exercised above.) *)
let garbage_gen =
  QCheck2.Gen.(
    string_size ~gen:(char_range '\x20' '\x7e') (int_range 0 200)
    >|= fun s ->
    (* Whitespace-only lines are skipped by the transport without a
       response — make every probe demand one. *)
    if String.trim s = "" then "?" ^ s else s)

let test_random_garbage () =
  let garbage =
    QCheck2.Gen.generate ~n:200 ~rand:(Random.State.make [| 0x5A |])
      garbage_gen
  in
  with_server (fun path ->
      with_client path (fun ic oc ->
          List.iter
            (fun line ->
              let resp = roundtrip ic oc line in
              match Json.parse resp with
              | Ok json -> (
                  (* A random line that happens to parse as a valid
                     request is fine — but the reply must still be a
                     proper response object. *)
                  match Json.member "ok" json with
                  | Some (Json.Bool _) -> ()
                  | _ -> Alcotest.failf "odd response %s to %S" resp line)
              | Error e ->
                  Alcotest.failf "unparseable response %S to %S: %s" resp line
                    e)
            garbage;
          assert_alive ic oc))

(* A client that drops the connection mid-request must not take the
   server down with it. *)
let test_truncated_connection () =
  with_server (fun path ->
      with_client path (fun _ic oc ->
          output_string oc "{\"op\": \"plan\", \"system\": \"d6";
          flush oc);
      (* Connection closed with an unterminated line; a new client must
         still be served. *)
      with_client path (fun ic oc -> assert_alive ic oc))

let test_valid_after_fuzz_storm () =
  (* Interleave garbage and valid anneal requests on one connection:
     the valid ones must still succeed, error replies must not desync
     the request/response pairing. *)
  with_server (fun path ->
      with_client path (fun ic oc ->
          List.iteri
            (fun i line ->
              ignore (roundtrip ic oc line);
              if i mod 7 = 0 then begin
                let resp =
                  roundtrip ic oc
                    "{\"op\": \"anneal\", \"system\": \"d695_leon\", \
                     \"reuse\": 1, \"iterations\": 5, \"placement_moves\": \
                     0.5}"
                in
                match Json.parse resp with
                | Ok json when Json.member "ok" json = Some (Json.Bool true)
                  ->
                    ()
                | _ -> Alcotest.failf "valid anneal failed after fuzz: %s" resp
              end)
            corpus))

let suite =
  [
    Alcotest.test_case "malformed corpus yields error responses" `Quick
      test_corpus_yields_errors;
    Alcotest.test_case "random garbage never crashes the server" `Quick
      test_random_garbage;
    Alcotest.test_case "truncated connection tolerated" `Quick
      test_truncated_connection;
    Alcotest.test_case "valid requests survive a fuzz storm" `Quick
      test_valid_after_fuzz_storm;
  ]
