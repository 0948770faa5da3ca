(* Property: concurrency is invisible in the payload.  A burst of
   generated requests served concurrently (two workers, shared
   evaluation caches and coalescing on, one submitter thread per
   request) must produce, request for request, byte-identical verdicts
   to answering each request alone, on its own fresh one-worker
   service with nothing cached.
   Only the envelope's scheduling markers (elapsed_ms, cache,
   coalesced) may differ.

   Anneal requests carry [warm: false]: warm starts are the one
   deliberately order-sensitive piece of the service, and a concurrent
   burst has no defined arrival order to replay.  Everything else —
   plan, validate, anneal trajectories, unschedulable verdicts — must
   not care which worker ran what, or which cache it resumed. *)

module Serve = Nocplan_serve
module Itc02 = Nocplan_itc02
module Json = Serve.Json

open QCheck2.Gen

type shape = {
  op : string;
  reuse : int;
  policy : string;
  seed : int;
  iterations : int;
  power_pct : int option;
}

let shape_gen =
  let* op = oneofl [ "plan"; "validate"; "anneal" ] in
  let* reuse = int_range 1 2 in
  let* policy = oneofl [ "greedy"; "lookahead" ] in
  let* seed = int_range 0 3 in
  let* iterations = int_range 5 25 in
  let* power_pct = oneofl [ None; Some 100 ] in
  return { op; reuse; policy; seed; iterations; power_pct }

(* One generated SoC shared by the whole burst (so the shared caches
   engage), served inline so the burst never depends on builtins. *)
let burst_gen =
  let* soc = Generators.soc_gen in
  let* shapes = list_size (int_range 4 8) shape_gen in
  return (Itc02.Printer.to_string soc, shapes)

let request_line ~soc_text i s =
  let extras =
    (match s.power_pct with
    | Some p -> Printf.sprintf ", \"power_pct\": %d" p
    | None -> "")
    ^
    if s.op = "anneal" then
      Printf.sprintf
        ", \"seed\": %d, \"iterations\": %d, \"warm\": false" s.seed
        s.iterations
    else Printf.sprintf ", \"seed\": %d" s.seed
  in
  Printf.sprintf
    "{\"id\": %d, \"op\": \"%s\", \"soc\": %s, \"leons\": 2, \"reuse\": %d, \
     \"policy\": \"%s\"%s}"
    i s.op
    (Json.to_string (Json.String soc_text))
    s.reuse s.policy extras

(* The verdict is the ok flag plus the result or error payload; the
   envelope's timing and scheduling markers are the service's own
   business. *)
let verdict line =
  match Json.parse line with
  | Error e -> Printf.sprintf "unparseable %s: %s" line e
  | Ok json ->
      let part name =
        match Json.member name json with
        | Some v -> Json.to_string v
        | None -> "-"
      in
      String.concat "|" [ part "ok"; part "result"; part "error" ]

let id_of line =
  match Option.bind (Result.to_option (Json.parse line)) (Json.member "id") with
  | Some (Json.Int i) -> i
  | _ -> -1

let prop (soc_text, shapes) =
  let lines = List.mapi (request_line ~soc_text) shapes in
  let n = List.length lines in
  (* Sequential reference: every request on its own fresh service, so
     no request sees another's tables or evaluation caches. *)
  let sequential =
    List.map
      (fun line ->
        let service = Serve.Service.create ~workers:1 () in
        Fun.protect ~finally:(fun () -> Serve.Service.shutdown service)
        @@ fun () -> Serve.Service.request service line)
      lines
  in
  (* Concurrent burst: every request submitted at once from its own
     thread, so both workers and the shared caches are contended. *)
  let concurrent =
    let service = Serve.Service.create ~workers:2 ~queue_capacity:(2 * n) () in
    Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
    let responses = Array.make n "" in
    let submit i line = responses.(i) <- Serve.Service.request service line in
    let threads = List.mapi (fun i line -> Thread.create (submit i) line) lines in
    List.iter Thread.join threads;
    Array.to_list responses
  in
  List.iteri
    (fun i (seq : string) ->
      let conc = List.nth concurrent i in
      if id_of conc <> i then
        QCheck2.Test.fail_reportf "response %d echoes id %d" i (id_of conc);
      if verdict seq <> verdict conc then
        QCheck2.Test.fail_reportf
          "request %d diverged@.sequential: %s@.concurrent: %s"
          i (verdict seq) (verdict conc))
    sequential;
  true

let suite =
  [
    Util.qcheck ~count:8 "concurrent responses match sequential service"
      burst_gen prop;
  ]
