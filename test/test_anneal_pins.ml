(* Annealing outcome pins: the best schedule's digest and the search
   counters over a grid of systems, inner policies, chain counts,
   placement-move ratios and power limits, plus one serve anneal
   sequence (cold, warm, warm opt-out) on one service.  Any change to
   how a search evaluates its candidates must leave every search
   trajectory, and therefore every line here, unchanged. *)

module Core = Nocplan_core
open Core
module Serve = Nocplan_serve
module Json = Serve.Json

let digest sched = Digest.to_hex (Digest.string (Fmt.str "%a" Schedule.pp sched))

(* MD5 over one line per outcome. *)
let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" lines))

(* {Greedy, Lookahead} × chains {1, 2, 3} × placement moves {0, 0.3}
   × power {none, 30%}, at full reuse: one line per search with the
   best schedule's digest and every counter of the result. *)
let grid_digest ~iterations system =
  let access = Test_access.table system in
  let reuse = List.length system.System.processors in
  digest_lines
    (List.concat_map
       (fun policy ->
         List.concat_map
           (fun chains ->
             List.concat_map
               (fun placement_moves ->
                 List.map
                   (fun pct ->
                     let power_limit =
                       Option.map
                         (fun pct -> System.power_limit_of_pct system ~pct)
                         pct
                     in
                     let r =
                       Annealing.schedule ~policy ~power_limit ~iterations
                         ~chains ~exchange_period:5 ~placement_moves ~access
                         ~reuse system
                     in
                     Printf.sprintf "%s %d %d %d %d %d"
                       (digest r.Annealing.schedule)
                       r.Annealing.evaluations r.Annealing.accepted
                       r.Annealing.placement_evals
                       r.Annealing.placement_accepted r.Annealing.exchanges)
                   [ None; Some 30.0 ])
               [ 0.0; 0.3 ])
           [ 1; 2; 3 ])
       [ Scheduler.Greedy; Scheduler.Lookahead ])

let test_grid () =
  List.iter
    (fun (name, build, iterations, md5) ->
      Alcotest.(check string) (name ^ " anneal grid digest") md5
        (grid_digest ~iterations (build ())))
    [
      ("d695_leon", Experiments.d695_leon, 24,
       "aa55426f22e7b31757ebe67fa947a05f");
      ("p22810_leon", Experiments.p22810_leon, 12,
       "e395e7e5a55fe72e0717146ac22e6555");
      ("p93791_leon", Experiments.p93791_leon, 10,
       "1d922daba3c37b09675f86da85ea9305");
    ]

(* A response without its wall-clock field. *)
let strip_elapsed line =
  match Json.parse line with
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_ms") fields))
  | Ok _ | Error _ -> Alcotest.failf "bad response %s" line

(* One service answers the same anneal cold, then warm from its cached
   best, then cold again on request. *)
let test_serve_sequence () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let anneal body extra =
    strip_elapsed
      (Serve.Service.request service (Printf.sprintf "{%s%s}" body extra))
  in
  List.iter
    (fun (body, expected) ->
      Alcotest.(check (list string))
        body expected
        (List.map (anneal body) [ ""; ""; ", \"warm\": false" ]))
    [
      ( "\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 3, \
         \"iterations\": 40, \"seed\": 9",
        [
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"miss\", \
           \"result\": {\"makespan\": 407442, \"initial_makespan\": 410929, \"improvement_pct\": 0.85, \
           \"warm_start\": false, \"evaluations\": 38, \"accepted\": 20, \
           \"placement_evals\": 0, \"placement_accepted\": 0, \"chains\": 1, \"exchanges\": 0}}";
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 407442, \"initial_makespan\": 407442, \"improvement_pct\": 0.0, \
           \"warm_start\": true, \"evaluations\": 36, \"accepted\": 17, \
           \"placement_evals\": 0, \"placement_accepted\": 0, \"chains\": 1, \"exchanges\": 0}}";
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 407442, \"initial_makespan\": 410929, \"improvement_pct\": 0.85, \
           \"warm_start\": false, \"evaluations\": 38, \"accepted\": 20, \
           \"placement_evals\": 0, \"placement_accepted\": 0, \"chains\": 1, \"exchanges\": 0}}";
        ] );
      ( "\"op\": \"anneal\", \"system\": \"p22810_leon\", \"reuse\": 4, \
         \"iterations\": 60, \"chains\": 2, \"power_pct\": 30, \
         \"policy\": \"lookahead\"",
        [
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"miss\", \
           \"result\": {\"makespan\": 1087543, \"initial_makespan\": 1235194, \"improvement_pct\": 11.95, \
           \"warm_start\": false, \"evaluations\": 120, \"accepted\": 72, \
           \"placement_evals\": 0, \"placement_accepted\": 0, \"chains\": 2, \"exchanges\": 2}}";
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 1077832, \"initial_makespan\": 1087543, \"improvement_pct\": 0.89, \
           \"warm_start\": true, \"evaluations\": 119, \"accepted\": 53, \
           \"placement_evals\": 0, \"placement_accepted\": 0, \"chains\": 2, \"exchanges\": 2}}";
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 1087543, \"initial_makespan\": 1235194, \"improvement_pct\": 11.95, \
           \"warm_start\": false, \"evaluations\": 120, \"accepted\": 72, \
           \"placement_evals\": 0, \"placement_accepted\": 0, \"chains\": 2, \"exchanges\": 2}}";
        ] );
      ( "\"op\": \"anneal\", \"system\": \"d695_leon\", \"reuse\": 2, \
         \"iterations\": 60, \"chains\": 2, \"placement_moves\": 0.3",
        [
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 405408, \"initial_makespan\": 412391, \"improvement_pct\": 1.69, \
           \"warm_start\": false, \"evaluations\": 110, \"accepted\": 60, \
           \"placement_evals\": 18, \"placement_accepted\": 11, \"chains\": 2, \"exchanges\": 2}}";
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 402414, \"initial_makespan\": 405408, \"improvement_pct\": 0.74, \
           \"warm_start\": true, \"evaluations\": 105, \"accepted\": 66, \
           \"placement_evals\": 11, \"placement_accepted\": 9, \"chains\": 2, \"exchanges\": 1}}";
          "{\"v\": 1, \"id\": null, \"ok\": true, \"op\": \"anneal\", \"cache\": \"hit\", \
           \"result\": {\"makespan\": 405408, \"initial_makespan\": 412391, \"improvement_pct\": 1.69, \
           \"warm_start\": false, \"evaluations\": 110, \"accepted\": 60, \
           \"placement_evals\": 18, \"placement_accepted\": 11, \"chains\": 2, \"exchanges\": 2}}";
        ] );
    ]

let suite =
  [
    Alcotest.test_case "anneal grid digests" `Quick test_grid;
    Alcotest.test_case "serve anneal cold, warm, warm:false" `Quick
      test_serve_sequence;
  ]
