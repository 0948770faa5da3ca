(* The observability layer: trace spans, Chrome export, Prometheus
   exposition and decision explanations. *)

module Core = Nocplan_core
module Obs = Nocplan_obs
module Trace = Obs.Trace
module Serve = Nocplan_serve
module Json = Serve.Json

let skeleton events = List.map (Fmt.str "%a" Trace.pp_event) events

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  n = 0 || go 0

(* --- collector basics ---------------------------------------------- *)

let test_disabled_is_silent () =
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Trace.instant "nobody.listens";
  Trace.span "nobody.listens" (fun () -> ());
  let (), events = Trace.with_collector (fun () -> ()) in
  Alcotest.(check int) "own events only" 0 (List.length events)

let test_deterministic_clock_and_seq () =
  let (), events =
    Trace.with_collector (fun () ->
        Trace.instant "a";
        Trace.instant "b";
        Trace.instant "c")
  in
  Alcotest.(check (list int)) "seq" [ 0; 1; 2 ]
    (List.map (fun e -> e.Trace.seq) events);
  Alcotest.(check (list (float 0.0))) "ticks" [ 1.0; 2.0; 3.0 ]
    (List.map (fun e -> e.Trace.ts) events)

let test_span_marks_exceptions () =
  let exception Boom in
  let result =
    Trace.with_collector (fun () ->
        try Trace.span "s" (fun () -> raise Boom) with Boom -> ())
  in
  match snd result with
  | [ b; e ] ->
      Alcotest.(check string) "begin" "B s" (Fmt.str "%a" Trace.pp_event b);
      Alcotest.(check string) "end" "E s raised=true"
        (Fmt.str "%a" Trace.pp_event e)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_nested_collectors_restore () =
  let (), outer =
    Trace.with_collector (fun () ->
        Trace.instant "outer.before";
        let (), inner = Trace.with_collector (fun () -> Trace.instant "inner") in
        Alcotest.(check (list string)) "inner" [ "i inner" ] (skeleton inner);
        Trace.instant "outer.after")
  in
  Alcotest.(check (list string))
    "outer unpolluted"
    [ "i outer.before"; "i outer.after" ]
    (skeleton outer)

(* --- scheduler span structure (golden) ----------------------------- *)

(* The [Spans]-level skeleton of one scheduler run is pinned exactly:
   a [scheduler.run] span bracketing the access-table build and one
   commit instant per scheduled test.  Attribute coherence (makespan,
   commit count) is checked against the returned schedule, so the
   structure cannot drift from the data silently. *)
let test_run_span_structure () =
  let system = Util.small_system () in
  let config = Core.Scheduler.config ~reuse:1 () in
  let sched, events =
    Trace.with_collector (fun () -> Core.Scheduler.run system config)
  in
  let n = List.length sched.Core.Schedule.entries in
  let expected =
    [ "B scheduler.run"; "B access.table"; "E access.table" ]
    @ List.init n (fun _ -> "i scheduler.commit")
    @ [ "E scheduler.run" ]
  in
  let phase_name e = Fmt.str "%a %s" Trace.pp_phase e.Trace.phase e.Trace.name in
  Alcotest.(check (list string)) "skeleton" expected
    (List.map phase_name events);
  let first = List.hd events and last = List.nth events (List.length events - 1) in
  Alcotest.(check string) "begin attrs" "B scheduler.run policy=\"greedy\" reuse=1"
    (Fmt.str "%a" Trace.pp_event first);
  Alcotest.(check (option int)) "makespan attr"
    (Some sched.Core.Schedule.makespan)
    (Trace.attr_int last "makespan");
  Alcotest.(check (option int)) "commits attr" (Some n)
    (Trace.attr_int last "commits");
  (* Every commit instant names a scheduled entry. *)
  List.iter
    (fun e ->
      if e.Trace.name = "scheduler.commit" then
        let m = Option.get (Trace.attr_int e "module") in
        match Core.Schedule.entries_for sched m with
        | [ entry ] ->
            Alcotest.(check (option int)) "commit start"
              (Some entry.Core.Schedule.start)
              (Trace.attr_int e "start")
        | _ -> Alcotest.failf "commit for unscheduled module %d" m)
    events

let test_structure_identical_across_runs () =
  let system = Util.small_system () in
  let config = Core.Scheduler.config ~reuse:1 () in
  let run () =
    snd (Trace.with_collector (fun () -> Core.Scheduler.run system config))
  in
  Alcotest.(check (list string)) "deterministic skeleton" (skeleton (run ()))
    (skeleton (run ()))

(* The [scheduler.run] end event carries the engine's work counters
   under both policies.  p22810_leon at full reuse has instants with no
   idle pair, which the loop skips; the decision log rides on the same
   selection, so [Decisions] tracing reports the same counts. *)
let test_run_span_counters () =
  let system = Core.Experiments.p22810_leon () in
  let access = Core.Test_access.table system in
  let end_event level config =
    let sched, events =
      Trace.with_collector ~level (fun () ->
          Core.Scheduler.run ~access system config)
    in
    let e =
      List.find
        (fun e -> e.Trace.name = "scheduler.run" && e.Trace.phase = Trace.End)
        events
    in
    (sched, e)
  in
  List.iter
    (fun policy ->
      let name = Fmt.str "%a" Core.Scheduler.pp_policy policy in
      let config = Core.Scheduler.config ~policy ~reuse:8 () in
      let sched, e = end_event Trace.Spans config in
      let counter key =
        match Trace.attr_int e key with
        | Some v -> v
        | None -> Alcotest.failf "%s: no %s attribute" name key
      in
      let attempts = counter "attempts" and skipped = counter "skipped" in
      let scanned = counter "pairs_scanned" in
      Alcotest.(check bool)
        (name ^ ": commits <= attempts") true
        (List.length sched.Core.Schedule.entries <= attempts);
      Alcotest.(check bool) (name ^ ": some instants skipped") true (skipped > 0);
      Alcotest.(check bool) (name ^ ": pairs scanned") true (scanned >= attempts);
      let _, d = end_event Trace.Decisions config in
      List.iter
        (fun key ->
          Alcotest.(check (option int))
            (name ^ ": decisions-level " ^ key)
            (Trace.attr_int e key) (Trace.attr_int d key))
        [ "attempts"; "skipped"; "pairs_scanned" ])
    [ Core.Scheduler.Greedy; Core.Scheduler.Lookahead ]

(* --- chrome export -------------------------------------------------- *)

let test_chrome_export_is_valid_json () =
  let system = Util.small_system () in
  let sched, events =
    Trace.with_collector ~level:Trace.Decisions (fun () ->
        Core.Scheduler.run system (Core.Scheduler.config ~reuse:1 ()))
  in
  ignore sched;
  let doc = Obs.Chrome.to_string events in
  match Json.parse doc with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List rows) ->
          Alcotest.(check int) "one row per event" (List.length events)
            (List.length rows);
          List.iter
            (fun row ->
              Alcotest.(check bool) "has name" true
                (Option.is_some (Json.str_field "name" row));
              (match Json.str_field "ph" row with
              | Some ("B" | "E" | "i" | "C") -> ()
              | other ->
                  Alcotest.failf "bad ph %a" Fmt.(option string) other);
              Alcotest.(check (option string)) "category" (Some "nocplan")
                (Json.str_field "cat" row);
              Alcotest.(check bool) "has ts" true
                (Option.is_some (Json.float_field "ts" row)))
            rows
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_escapes_strings () =
  let (), events =
    Trace.with_collector (fun () ->
        Trace.instant "weird"
          ~attrs:[ ("s", Trace.String "a\"b\\c\nd\te") ])
  in
  match Json.parse (Obs.Chrome.to_string events) with
  | Error e -> Alcotest.failf "escaped export does not parse: %s" e
  | Ok _ -> ()

(* --- bounded collectors -------------------------------------------- *)

let with_installed c f =
  Trace.install c;
  Fun.protect ~finally:Trace.uninstall f

let test_ring_keeps_newest () =
  let c = Trace.collector ~capacity:3 () in
  with_installed c (fun () ->
      List.iter (fun n -> Trace.instant n) [ "a"; "b"; "c"; "d"; "e" ]);
  Alcotest.(check (list string)) "newest survive" [ "c"; "d"; "e" ]
    (List.map (fun (ev : Trace.event) -> ev.name) (Trace.events c));
  Alcotest.(check int) "oldest dropped" 2 (Trace.dropped c);
  Alcotest.(check int) "nothing flushed" 0 (Trace.flushed c);
  (* Sequence numbers keep counting across drops, so a reader can tell
     a gap from a quiet stretch. *)
  Alcotest.(check (list int)) "seq keeps counting" [ 2; 3; 4 ]
    (List.map (fun (ev : Trace.event) -> ev.seq) (Trace.events c))

let test_flush_sink_gets_everything () =
  let batches = ref [] in
  let c =
    Trace.collector ~capacity:2
      ~on_flush:(fun batch -> batches := batch :: !batches)
      ()
  in
  with_installed c (fun () ->
      List.iter (fun n -> Trace.instant n) [ "a"; "b"; "c"; "d"; "e" ]);
  Trace.flush c;
  let names =
    List.rev_map (List.map (fun (ev : Trace.event) -> ev.name)) !batches
  in
  Alcotest.(check (list (list string)))
    "two full batches plus the final partial"
    [ [ "a"; "b" ]; [ "c"; "d" ]; [ "e" ] ]
    names;
  Alcotest.(check int) "all five flushed" 5 (Trace.flushed c);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped c);
  Alcotest.(check (list string)) "buffer empty after flush" []
    (List.map (fun (ev : Trace.event) -> ev.name) (Trace.events c));
  (* Flushing an empty collector is a no-op, not an empty batch. *)
  Trace.flush c;
  Alcotest.(check int) "idempotent flush" 5 (Trace.flushed c)

let test_chrome_stream_matches_batch_export () =
  let path = Filename.temp_file "nocplan_stream" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let stream = Obs.Chrome.stream path in
  let c =
    Trace.collector ~capacity:2 ~on_flush:(Obs.Chrome.stream_events stream) ()
  in
  with_installed c (fun () ->
      List.iter (fun n -> Trace.instant n) [ "a"; "b"; "c"; "d"; "e" ]);
  Trace.flush c;
  let written = Obs.Chrome.close_stream stream in
  Alcotest.(check int) "writer counts every event" 5 written;
  let ic = open_in path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse doc with
  | Error e -> Alcotest.failf "streamed export does not parse: %s" e
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List rows) ->
          Alcotest.(check (list (option string))) "rows in emission order"
            [ Some "a"; Some "b"; Some "c"; Some "d"; Some "e" ]
            (List.map (Json.str_field "name") rows)
      | _ -> Alcotest.fail "no traceEvents array")

(* --- prometheus exposition ----------------------------------------- *)

let test_prometheus_render () =
  let text =
    Obs.Prometheus.render
      [
        Obs.Prometheus.metric ~help:"Total requests." Obs.Prometheus.Counter
          ~name:"up_requests_total"
          [
            Obs.Prometheus.sample ~labels:[ ("outcome", "served") ] 3.0;
            Obs.Prometheus.sample ~labels:[ ("outcome", "failed") ] 0.0;
          ];
        Obs.Prometheus.metric Obs.Prometheus.Gauge ~name:"up_depth"
          [ Obs.Prometheus.sample 2.0 ];
      ]
  in
  let expected_lines =
    [
      "# HELP up_requests_total Total requests.";
      "# TYPE up_requests_total counter";
      "up_requests_total{outcome=\"served\"} 3";
      "up_requests_total{outcome=\"failed\"} 0";
      "# TYPE up_depth gauge";
      "up_depth 2";
    ]
  in
  List.iter
    (fun line ->
      if not (List.mem line (String.split_on_char '\n' text)) then
        Alcotest.failf "missing line %S in:\n%s" line text)
    expected_lines

let test_prometheus_rejects_bad_names () =
  List.iter
    (fun name ->
      match Obs.Prometheus.metric Obs.Prometheus.Gauge ~name [] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted metric name %S" name)
    [ ""; "9starts_with_digit"; "has space"; "dash-ed" ];
  match
    Obs.Prometheus.metric Obs.Prometheus.Gauge ~name:"ok"
      [ Obs.Prometheus.sample ~labels:[ ("bad:label", "x") ] 1.0 ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a colon in a label name"

let test_prometheus_empty_summary_omits_quantiles () =
  let text =
    Obs.Prometheus.render
      [
        Obs.Prometheus.metric Obs.Prometheus.Summary ~name:"lat_ms"
          [ Obs.Prometheus.sample ~suffix:"_count" 0.0 ];
      ]
  in
  Alcotest.(check bool) "no quantile label" false
    (contains text "quantile");
  Alcotest.(check bool) "count present" true
    (contains text "lat_ms_count 0")

(* --- serve: prometheus op and the latency-reservoir fix ------------- *)

let response line service =
  match Json.parse (Serve.Service.request service line) with
  | Error e -> Alcotest.failf "unparseable response: %s" e
  | Ok json -> json

let prometheus_body service =
  let r = response {|{"id": 1, "op": "prometheus"}|} service in
  Alcotest.(check (option bool)) "ok" (Some true)
    (match Json.member "ok" r with Some (Json.Bool b) -> Some b | _ -> None);
  match Json.member "result" r with
  | Some (Json.String body) -> body
  | _ -> Alcotest.fail "prometheus result is not a string"

let served_total body =
  let prefix = "nocplan_requests_total{outcome=\"served\"} " in
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if String.length line > String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then
           int_of_string_opt
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)
  |> function
  | Some n -> n
  | None -> Alcotest.failf "no served counter in:\n%s" body

let test_serve_prometheus_monotonic () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let before = served_total (prometheus_body service) in
  ignore
    (response {|{"id": 2, "op": "plan", "system": "d695_leon", "reuse": 1}|}
       service);
  let after = served_total (prometheus_body service) in
  Alcotest.(check bool)
    (Fmt.str "served grows (%d -> %d)" before after)
    true (after >= before + 2);
  (* The exposition itself parses: every non-comment line is
     "name{labels} value". *)
  let body = prometheus_body service in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparseable sample line %S" line
        | Some i -> (
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some _ -> ()
            | None -> Alcotest.failf "bad sample value in %S" line))
    (String.split_on_char '\n' body);
  (* Both sides of the evaluation-cache reuse ratio are scraped; the
     first plan of a configuration is a miss. *)
  List.iter
    (fun sample ->
      Alcotest.(check bool) (sample ^ " exported") true (contains body sample))
    [ "nocplan_shared_cache_hits_total "; "nocplan_shared_cache_misses_total 1" ]

(* Inline observability requests feed the same latency reservoir as
   queued work: the very first scrape seeds the quantiles, and each
   inline response is its own sample (counted at record time, so a
   metrics response already includes itself). *)
let test_inline_ops_feed_latency () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let latency_of r =
    match Json.member "result" r with
    | Some result -> Json.member "latency_ms" result
    | None -> None
  in
  ignore (prometheus_body service);
  ignore (prometheus_body service);
  let metrics = response {|{"id": 3, "op": "metrics"}|} service in
  let count =
    match latency_of metrics with
    | Some (Json.Obj fields) -> (
        match List.assoc_opt "count" fields with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.fail "latency_ms without a count field")
    | other ->
        Alcotest.failf "latency still %s after inline ops"
          (match other with Some Json.Null -> "null" | _ -> "missing")
  in
  Alcotest.(check int) "three inline samples, self included" 3 count;
  Alcotest.(check bool) "quantiles exposed by inline traffic" true
    (contains (prometheus_body service) "quantile=\"0.5\"");
  ignore
    (response {|{"id": 4, "op": "plan", "system": "d695_leon", "reuse": 1}|}
       service);
  let metrics = response {|{"id": 5, "op": "metrics"}|} service in
  (match latency_of metrics with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "latency lost after a planning request")

(* A preempt solves on the engine over the request's cached access
   table: one [scheduler.run] span inside [serve.solve], and no table
   build once the table cache holds the system. *)
let test_serve_preempt_traced () =
  let service = Serve.Service.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  let preempt id =
    let r =
      response
        (Printf.sprintf
           {|{"id": %d, "op": "preempt", "system": "d695_leon", "reuse": 3, "max_sessions": 2}|}
           id)
        service
    in
    Alcotest.(check (option bool)) "preempt ok" (Some true)
      (match Json.member "ok" r with Some (Json.Bool b) -> Some b | _ -> None)
  in
  preempt 1;
  let c = Trace.collector ~capacity:100_000 () in
  with_installed c (fun () -> preempt 2);
  let events = Trace.events c in
  let named name phase =
    List.filter
      (fun (e : Trace.event) -> e.name = name && e.phase = phase)
      events
  in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped c);
  Alcotest.(check int) "one scheduler.run span" 1
    (List.length (named "scheduler.run" Trace.Begin));
  Alcotest.(check int) "no access.table span on a cache hit" 0
    (List.length (named "access.table" Trace.Begin));
  match
    ( named "serve.solve" Trace.Begin,
      named "scheduler.run" Trace.Begin,
      named "scheduler.run" Trace.End,
      named "serve.solve" Trace.End )
  with
  | [ sb ], [ rb ], [ re ], [ se ] ->
      Alcotest.(check bool) "scheduler.run inside serve.solve" true
        (sb.Trace.seq < rb.Trace.seq && re.Trace.seq < se.Trace.seq);
      Alcotest.(check string) "begin attrs"
        "B scheduler.run policy=\"greedy\" reuse=3"
        (Fmt.str "%a" Trace.pp_event rb);
      List.iter
        (fun attr ->
          Alcotest.(check bool) (attr ^ " attr") true
            (Trace.attr_int re attr <> None))
        [ "makespan"; "commits"; "attempts"; "skipped"; "pairs_scanned" ]
  | _ -> Alcotest.fail "expected one serve.solve and one scheduler.run span"

(* --- explain -------------------------------------------------------- *)

let test_explain_small_system () =
  let system = Util.small_system () in
  let sched, decisions = Core.Explain.plan ~reuse:1 system in
  Alcotest.(check int) "one decision per entry"
    (List.length sched.Core.Schedule.entries)
    (List.length decisions);
  List.iter
    (fun d ->
      match Core.Explain.chosen d with
      | None -> Alcotest.fail "decision without a chosen candidate"
      | Some c ->
          Alcotest.(check bool) "chosen is eligible" true c.Core.Explain.eligible;
          Alcotest.(check bool) "chosen is unique" true
            (List.length
               (List.filter
                  (fun c -> c.Core.Explain.chosen)
                  d.Core.Explain.candidates)
            = 1))
    decisions

(* The paper's Section 3 anomaly, reproduced on p22810 with four
   Leons: greedy commits a processor pair while a busy external pair
   would have finished earlier.  This is the acceptance gate for
   [plan p22810 --explain]. *)
let test_explain_finds_p22810_anomaly () =
  let system =
    Result.get_ok (Serve.Sysbuild.build (Serve.Sysbuild.spec ~leons:4 "p22810"))
  in
  let reuse = List.length system.Core.System.processors in
  let _sched, decisions = Core.Explain.plan ~reuse system in
  let anomalies =
    List.filter (fun d -> Core.Explain.anomaly d <> None) decisions
  in
  Alcotest.(check bool)
    (Fmt.str "%d anomalies" (List.length anomalies))
    true
    (List.length anomalies >= 1);
  List.iter
    (fun d ->
      match Core.Explain.anomaly d with
      | None -> ()
      | Some (winner, better) ->
          Alcotest.(check bool) "winner touches a processor" true
            (winner.Core.Explain.source_is_processor
            || winner.Core.Explain.sink_is_processor);
          Alcotest.(check bool) "better pair is external" true
            ((not better.Core.Explain.source_is_processor)
            && not better.Core.Explain.sink_is_processor);
          Alcotest.(check bool) "better pair was busy" true
            (better.Core.Explain.ready > d.Core.Explain.time);
          Alcotest.(check bool) "better pair finishes earlier" true
            (better.Core.Explain.est_finish < winner.Core.Explain.est_finish))
    decisions

(* Property: on arbitrary systems, every decision carries exactly one
   chosen candidate, the chosen candidate was eligible, and it matches
   the committed schedule entry (same window). *)
let prop_explain_chosen_matches_schedule =
  Util.qcheck ~count:30 "explain decisions match the schedule"
    Util.system_gen (fun system ->
      let reuse = List.length system.Core.System.processors in
      match Core.Explain.plan ~reuse system with
      | exception Core.Scheduler.Unschedulable _ -> true
      | sched, decisions ->
          List.for_all
            (fun d ->
              match Core.Explain.chosen d with
              | None -> false
              | Some c -> (
                  c.Core.Explain.eligible
                  && c.Core.Explain.ready <= d.Core.Explain.time
                  &&
                  match
                    Core.Schedule.entries_for sched d.Core.Explain.module_id
                  with
                  | [ entry ] ->
                      entry.Core.Schedule.start = d.Core.Explain.time
                      && entry.Core.Schedule.finish
                         = c.Core.Explain.est_finish
                  | _ -> false))
            decisions)

let suite =
  [
    Alcotest.test_case "disabled tracing is silent" `Quick
      test_disabled_is_silent;
    Alcotest.test_case "deterministic clock and seq" `Quick
      test_deterministic_clock_and_seq;
    Alcotest.test_case "span marks exceptions" `Quick
      test_span_marks_exceptions;
    Alcotest.test_case "nested collectors restore" `Quick
      test_nested_collectors_restore;
    Alcotest.test_case "scheduler.run span structure" `Quick
      test_run_span_structure;
    Alcotest.test_case "trace structure is deterministic" `Quick
      test_structure_identical_across_runs;
    Alcotest.test_case "scheduler.run work counters" `Quick
      test_run_span_counters;
    Alcotest.test_case "chrome export is valid trace-event JSON" `Quick
      test_chrome_export_is_valid_json;
    Alcotest.test_case "ring collector keeps newest events" `Quick
      test_ring_keeps_newest;
    Alcotest.test_case "flush collector hands sink everything" `Quick
      test_flush_sink_gets_everything;
    Alcotest.test_case "streamed chrome export matches batch" `Quick
      test_chrome_stream_matches_batch_export;
    Alcotest.test_case "chrome export escapes strings" `Quick
      test_chrome_escapes_strings;
    Alcotest.test_case "prometheus text exposition" `Quick
      test_prometheus_render;
    Alcotest.test_case "prometheus rejects invalid names" `Quick
      test_prometheus_rejects_bad_names;
    Alcotest.test_case "empty summary omits quantiles" `Quick
      test_prometheus_empty_summary_omits_quantiles;
    Alcotest.test_case "serve prometheus counters are monotonic" `Quick
      test_serve_prometheus_monotonic;
    Alcotest.test_case "inline ops feed the latency reservoir" `Quick
      test_inline_ops_feed_latency;
    Alcotest.test_case "serve preempt traces one engine run" `Quick
      test_serve_preempt_traced;
    Alcotest.test_case "explain on a small system" `Quick
      test_explain_small_system;
    Alcotest.test_case "explain finds the p22810 greedy anomaly" `Slow
      test_explain_finds_p22810_anomaly;
    prop_explain_chosen_matches_schedule;
  ]
