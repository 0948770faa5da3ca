(* The serve-side backend surface, over a live socket: the "backend"
   request field selects the solver (race included), every plan and
   validate response names the solver that produced its plan —
   coalesced responses included (the field is spliced in at delivery,
   the one path all of them share) — and out-of-domain
   backend values are refused as [invalid] without killing the
   connection. *)

module Serve = Nocplan_serve
module Json = Serve.Json
module Protocol = Serve.Protocol

let with_server = Test_serve_fuzz.with_server
let with_client = Test_serve_fuzz.with_client
let roundtrip = Test_serve_fuzz.roundtrip

let parse_ok line =
  match Json.parse line with
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e
  | Ok json ->
      if Json.member "ok" json <> Some (Json.Bool true) then
        Alcotest.failf "not a success response: %s" line;
      json

let backend_of json =
  match Json.str_field "backend" json with
  | Some b -> b
  | None -> Alcotest.failf "response lacks \"backend\": %s" (Json.to_string json)

let test_plan_backends () =
  with_server (fun path ->
      with_client path (fun ic oc ->
          let plan backend =
            parse_ok
              (roundtrip ic oc
                 (Printf.sprintf
                    "{\"op\": \"plan\", \"id\": \"p\", \"system\": \
                     \"d695_leon\", \"backend\": \"%s\"}"
                    backend))
          in
          Alcotest.(check string)
            "explicit greedy" "greedy"
            (backend_of (plan "greedy"));
          Alcotest.(check string)
            "binpack" "binpack"
            (backend_of (plan "binpack"));
          let race = backend_of (plan "race") in
          Alcotest.(check bool)
            "race winner is a builtin backend" true
            (Nocplan_core.Backend.find race <> None);
          (* Default path still reports its solver. *)
          let default =
            parse_ok
              (roundtrip ic oc
                 "{\"op\": \"plan\", \"id\": \"d\", \"system\": \"d695_leon\"}")
          in
          Alcotest.(check string) "default is greedy" "greedy"
            (backend_of default)))

let test_validate_backend () =
  with_server (fun path ->
      with_client path (fun ic oc ->
          let json =
            parse_ok
              (roundtrip ic oc
                 "{\"op\": \"validate\", \"id\": \"v\", \"system\": \
                  \"d695_leon\", \"backend\": \"binpack\"}")
          in
          Alcotest.(check string) "backend" "binpack" (backend_of json);
          match Json.member "result" json with
          | Some result ->
              Alcotest.(check bool)
                "binpack plan validates" true
                (Json.member "valid" result = Some (Json.Bool true))
          | None -> Alcotest.fail "validate response lacks result"))

let expect_invalid line ic oc =
  let resp = roundtrip ic oc line in
  match Json.parse resp with
  | Ok json -> (
      match Json.member "error" json with
      | Some err ->
          Alcotest.(check (option string))
            "error kind" (Some "invalid")
            (Json.str_field "kind" err)
      | None -> Alcotest.failf "expected an error response: %s" resp)
  | Error e -> Alcotest.failf "unparseable response %S: %s" resp e

let test_backend_errors () =
  with_server (fun path ->
      with_client path (fun ic oc ->
          expect_invalid
            "{\"op\": \"plan\", \"system\": \"d695_leon\", \"backend\": \
             \"simplex\"}"
            ic oc;
          expect_invalid
            "{\"op\": \"anneal\", \"system\": \"d695_leon\", \"backend\": \
             \"greedy\"}"
            ic oc;
          (* The connection survives and still plans. *)
          let json =
            parse_ok
              (roundtrip ic oc
                 "{\"op\": \"plan\", \"system\": \"d695_leon\", \"backend\": \
                  \"race\"}")
          in
          ignore (backend_of json)))

(* Pipeline a burst of identical backend-carrying plans: whatever mix
   of fresh and coalesced service the scheduler picks, every response
   must name its backend — the regression this guards is coalesced
   followers losing the field. *)
let test_burst_all_carry_backend () =
  let n = 24 in
  with_server (fun path ->
      with_client path (fun ic oc ->
          for i = 1 to n do
            Printf.fprintf oc
              "{\"op\": \"plan\", \"id\": %d, \"system\": \"d695_leon\", \
               \"backend\": \"binpack\"}\n"
              i
          done;
          flush oc;
          (* Whether any response coalesced is a scheduling race; the
             field contract is not. *)
          for _ = 1 to n do
            let json = parse_ok (input_line ic) in
            Alcotest.(check string)
              "every response names its solver" "binpack" (backend_of json)
          done))

let test_ok_response_rendering () =
  let line =
    String.concat ""
      (Protocol.ok_response ~id:(Json.String "x") ~op:"plan"
         ~cache:`Miss ~backend:"binpack" ~elapsed_ms:1.25
         (Json.Raw "{\"makespan\": 7}"))
  in
  match Json.parse line with
  | Error e -> Alcotest.failf "unparseable rendered response: %s" e
  | Ok json ->
      Alcotest.(check (option string))
        "backend" (Some "binpack")
        (Json.str_field "backend" json);
      Alcotest.(check (option int))
        "result spliced" (Some 7)
        (Option.bind (Json.member "result" json) (Json.int_field "makespan"))

let suite =
  [
    Alcotest.test_case "plan selects backends" `Quick test_plan_backends;
    Alcotest.test_case "validate carries backend" `Quick test_validate_backend;
    Alcotest.test_case "backend errors are invalid" `Quick test_backend_errors;
    Alcotest.test_case "burst responses all name a backend" `Quick
      test_burst_all_carry_backend;
    Alcotest.test_case "ok_response renders backend fields" `Quick
      test_ok_response_rendering;
  ]
