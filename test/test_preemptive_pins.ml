(* Preemptive plan digests, captured from the standalone session
   scheduler (its own slot list, candidate sort and event loop, every
   chunk priced by [Test_access.cost ~patterns]).  Session chunks now
   run on the greedy engine over the access table; it must reproduce
   them byte for byte. *)

module Core = Nocplan_core
open Core
module Corpus = Nocplan_corpus.Corpus
module Processor = Nocplan_proc.Processor

let plan_digest plan =
  Digest.to_hex (Digest.string (Fmt.str "%a" Preemptive.pp_plan plan))

(* MD5 over one line per outcome. *)
let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let outcome system config =
  match Preemptive.schedule system config with
  | plan -> plan_digest plan
  | exception Scheduler.Unschedulable _ -> "unschedulable"

(* Both applications × power {none, 50%, 30%} × max_sessions 1-4, at
   reuse 0 and full reuse. *)
let builtin_digest system =
  let all = List.length system.System.processors in
  digest_lines
    (List.concat_map
       (fun application ->
         List.concat_map
           (fun pct ->
             let power_limit =
               Option.map (fun pct -> System.power_limit_of_pct system ~pct) pct
             in
             List.concat_map
               (fun max_sessions ->
                 List.map
                   (fun reuse ->
                     outcome system
                       (Preemptive.config ~application ~power_limit
                          ~max_sessions ~reuse ()))
                   [ 0; all ])
               [ 1; 2; 3; 4 ])
           [ None; Some 50.0; Some 30.0 ])
       [ Processor.Bist; Processor.Decompression ])

let test_builtins () =
  List.iter
    (fun (name, build, md5) ->
      Alcotest.(check string) (name ^ " preemptive digest") md5
        (builtin_digest (build ())))
    [
      ("d695_leon", Experiments.d695_leon,
       "287e2a2fad39903874f3f39a9f0f6cc6");
      ("p22810_leon", Experiments.p22810_leon,
       "2c3bff1eb72f322708fb0cf47a5777ca");
      ("p93791_leon", Experiments.p93791_leon,
       "5fb5f852e5c514ba7f01913d677ab50e");
      ("d695_mixed", Experiments.d695_mixed,
       "85012dbd3dc80d3b96be53da76f40e95");
      ("p22810_mixed", Experiments.p22810_mixed,
       "84b36c35e452d8668cc41cf6b56bc60b");
      ("p93791_mixed", Experiments.p93791_mixed,
       "3558ae74087dc39f73b62f9dc216c908");
    ]

(* Corpus seed 7, items 0-49, two sessions per core under each item's
   power limit and full reuse. *)
let test_corpus () =
  let lines =
    List.map
      (fun item ->
        outcome item.Corpus.system
          (Preemptive.config ~power_limit:item.Corpus.power_limit
             ~max_sessions:2 ~reuse:item.Corpus.reuse ()))
      (Corpus.generate ~seed:7L ~count:50)
  in
  Alcotest.(check string) "corpus preemptive digest"
    "af9ffa6721815bf72e066f82e9e6dcc8"
    (digest_lines lines)

let suite =
  [
    Alcotest.test_case "builtin preemptive digests" `Quick test_builtins;
    Alcotest.test_case "corpus preemptive digest" `Quick test_corpus;
  ]
