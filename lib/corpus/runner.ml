module Core = Nocplan_core
module Trace = Nocplan_obs.Trace
module Json = Nocplan_serve.Json

type point = {
  testpoint : string;
  desc : string;
  pass : int;
  fail : int;
  skip : int;
  failures : (string * string) list;
}

type report = {
  corpus : int;
  jobs : int;
  shard : (int * int) option;
  seconds : float;
  points : point list;
}

let coverage p = p.pass + p.fail

let ok report =
  report.points <> []
  && List.for_all (fun p -> p.fail = 0 && coverage p > 0) report.points

let shard ~k ~n items =
  if n < 1 then invalid_arg "Runner.shard: n must be >= 1";
  if k < 1 || k > n then invalid_arg "Runner.shard: k out of 1..n";
  List.filteri (fun i _ -> i mod n = k - 1) items

let max_failures_kept = 5

(* One item's outcomes against every (testpoint, suite) pair, on a copy
   whose table is built here and dropped with it: the caller's corpus
   keeps no tables (a 1000-item sweep would hold about 60 MB more). *)
let check_item (plan : (Testplan.testpoint * Suites.suite list) list)
    (item : Corpus.item) =
  let item = Corpus.fresh_table item in
  List.concat_map
    (fun ((tp : Testplan.testpoint), suites) ->
      List.map
        (fun (suite : Suites.suite) ->
          let outcome =
            try suite.Suites.check item
            with exn ->
              Suites.Fail
                (Printf.sprintf "%s raised %s" suite.Suites.name
                   (Printexc.to_string exn))
          in
          (tp.Testplan.name, item.Corpus.name, outcome))
        suites)
    plan

let run ?(jobs = 1) ?shard_of ?(clock = Sys.time) ~testplan items =
  let plan =
    List.map
      (fun (tp : Testplan.testpoint) ->
        ( tp,
          List.map
            (fun name ->
              match Suites.find name with
              | Some s -> s
              | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Runner.run: testpoint %S names unknown suite %S \
                        (lint the plan first)"
                       tp.Testplan.name name))
            tp.Testplan.suites ))
      testplan.Testplan.testpoints
  in
  let started = clock () in
  let outcomes =
    Trace.span "corpus.sweep"
      ~attrs:
        [
          ("plan", Trace.String testplan.Testplan.name);
          ("systems", Trace.Int (List.length items));
          ("jobs", Trace.Int jobs);
        ]
    @@ fun () ->
    List.concat (Core.Domains.map ~domains:jobs (check_item plan) items)
  in
  let seconds = clock () -. started in
  let points =
    List.map
      (fun ((tp : Testplan.testpoint), _) ->
        let mine =
          List.filter (fun (name, _, _) -> name = tp.Testplan.name) outcomes
        in
        let count f = List.length (List.filter f mine) in
        {
          testpoint = tp.Testplan.name;
          desc = tp.Testplan.desc;
          pass = count (fun (_, _, o) -> o = Suites.Pass);
          fail =
            count (fun (_, _, o) ->
                match o with Suites.Fail _ -> true | _ -> false);
          skip =
            count (fun (_, _, o) ->
                match o with Suites.Skip _ -> true | _ -> false);
          failures =
            List.filteri
              (fun i _ -> i < max_failures_kept)
              (List.filter_map
                 (fun (_, item, o) ->
                   match o with
                   | Suites.Fail msg -> Some (item, msg)
                   | _ -> None)
                 mine);
        })
      plan
  in
  let report =
    { corpus = List.length items; jobs; shard = shard_of; seconds; points }
  in
  if Trace.enabled () then begin
    let checks =
      List.fold_left (fun acc p -> acc + p.pass + p.fail + p.skip) 0 points
    in
    let failures = List.fold_left (fun acc p -> acc + p.fail) 0 points in
    Trace.counter "nocplan_corpus_systems_total"
      ~attrs:[ ("value", Trace.Int report.corpus) ];
    Trace.counter "nocplan_corpus_checks_total"
      ~attrs:[ ("value", Trace.Int checks) ];
    Trace.counter "nocplan_corpus_failures_total"
      ~attrs:[ ("value", Trace.Int failures) ]
  end;
  report

let pp_report ppf report =
  Fmt.pf ppf "%-24s %6s %6s %6s %9s@." "testpoint" "pass" "fail" "skip"
    "coverage";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-24s %6d %6d %6d %9d@." p.testpoint p.pass p.fail p.skip
        (coverage p))
    report.points;
  List.iter
    (fun p ->
      List.iter
        (fun (item, msg) ->
          Fmt.pf ppf "  FAIL %s/%s: %s@." p.testpoint item msg)
        p.failures)
    report.points;
  Fmt.pf ppf "%s: %d system%s%s, %d domain%s, %.2fs"
    (if ok report then "ok" else "FAILED")
    report.corpus
    (if report.corpus = 1 then "" else "s")
    (match report.shard with
    | None -> ""
    | Some (k, n) -> Printf.sprintf " (shard %d/%d)" k n)
    report.jobs
    (if report.jobs = 1 then "" else "s")
    report.seconds

let csv report =
  String.concat "\n"
    ("testpoint,pass,fail,skip,coverage"
    :: List.map
         (fun p ->
           Printf.sprintf "%s,%d,%d,%d,%d" p.testpoint p.pass p.fail p.skip
             (coverage p))
         report.points)

let to_json ?seed report =
  let point p =
    Json.Obj
      [
        ("testpoint", Json.String p.testpoint);
        ("desc", Json.String p.desc);
        ("pass", Json.Int p.pass);
        ("fail", Json.Int p.fail);
        ("skip", Json.Int p.skip);
        ("coverage", Json.Int (coverage p));
        ( "failures",
          Json.List
            (List.map
               (fun (item, msg) ->
                 Json.Obj
                   [
                     ("item", Json.String item); ("message", Json.String msg);
                   ])
               p.failures) );
      ]
  in
  Json.Obj
    (List.concat
       [
         [ ("schema", Json.String "nocplan_corpus_verify/1") ];
         (match seed with
         | None -> []
         | Some s -> [ ("seed", Json.String (Int64.to_string s)) ]);
         [
           ("corpus", Json.Int report.corpus);
           ( "shard",
             match report.shard with
             | None -> Json.Null
             | Some (k, n) ->
                 Json.Obj [ ("k", Json.Int k); ("n", Json.Int n) ] );
           ("jobs", Json.Int report.jobs);
           ("seconds", Json.Float report.seconds);
           ("points", Json.List (List.map point report.points));
           ("ok", Json.Bool (ok report));
         ];
       ])
