(* Golden-equivalence suite: the event-driven scheduler core must
   reproduce, byte for byte, the schedules of the original quadratic
   implementation (the growth seed, commit b8727be).  The rows below
   were captured by running that implementation over the three paper
   systems, every reuse count, with and without the binding power
   limit, and digesting each schedule's printed form.

   The lookahead rows, the corpus digests and the many-endpoint digests
   below were captured from the list-based candidate selection (a
   fresh pair list per attempt, stable-sorted by policy key).  Greedy's
   candidate buffer and lookahead's per-row duration walk must offer
   pairs in exactly that (key, source-major index) order, ties
   included, and skipping an instant with no idle pair must change
   nothing.

   Any intentional change to scheduling behaviour must re-derive these
   tables and say so in the commit. *)

module Core = Nocplan_core
open Core
module Processor = Nocplan_proc.Processor
module Corpus = Nocplan_corpus.Corpus

(* (system, power pct, reuse, makespan, validated, MD5 of [Schedule.pp]) *)
let golden =
  [
    ("d695_leon", None, 0, 620313, true, "c472e3218027c28dd57d3007fc667b51");
    ("d695_leon", None, 1, 620313, true, "165adf1c7aa68a5dc738006f6e6bdead");
    ("d695_leon", None, 2, 412391, true, "4d485d19b9b9a6efb7b16deb7b5809a5");
    ("d695_leon", None, 3, 410929, true, "6882954504c7160b76ff8f2269f87b60");
    ("d695_leon", None, 4, 366065, true, "08ad2940526883b133fb8b8691605cc7");
    ("d695_leon", None, 5, 360724, true, "a42dce4a648ddee4ff1f7fb167217c52");
    ("d695_leon", None, 6, 360724, true, "a42dce4a648ddee4ff1f7fb167217c52");
    ("d695_leon", Some 25.0, 0, 620313, true, "c472e3218027c28dd57d3007fc667b51");
    ("d695_leon", Some 25.0, 1, 620313, true, "165adf1c7aa68a5dc738006f6e6bdead");
    ("d695_leon", Some 25.0, 2, 412391, true, "4d485d19b9b9a6efb7b16deb7b5809a5");
    ("d695_leon", Some 25.0, 3, 410929, true, "6882954504c7160b76ff8f2269f87b60");
    ("d695_leon", Some 25.0, 4, 391712, true, "b50701883fcddef1e3ea6d5ee0bb7b09");
    ("d695_leon", Some 25.0, 5, 384783, true, "9dfe8bcf4cea6c1cdbdd80d6f2511a32");
    ("d695_leon", Some 25.0, 6, 384620, true, "a623068462c9c88bd57dda00c48ceb9b");
    ("p22810_leon", None, 0, 2859044, true, "1b234ecbdb8d6ddc35bb01d9fbcf604a");
    ("p22810_leon", None, 1, 2859044, true, "c30c17cbb626ca06d30763ad9c05c62d");
    ("p22810_leon", None, 2, 1553422, true, "c6c67492c1126e8631f364ce661b0eb9");
    ("p22810_leon", None, 3, 1570963, true, "0d0cf50c9e8e9d2bacf9d0662ac8d55d");
    ("p22810_leon", None, 4, 1332840, true, "999353179f3e95069b9dbacb2e988787");
    ("p22810_leon", None, 5, 1310237, true, "aab61885ba313b6fb452cb0a53c0e201");
    ("p22810_leon", None, 6, 1078056, true, "4f91759565a4dfa3a080cc9e4261fa38");
    ("p22810_leon", None, 7, 1080374, true, "c4206a9c01cff4eaf61a79ca2b791bf9");
    ("p22810_leon", None, 8, 1177753, true, "322857a9c727e7c5bbd95699e943d08e");
    ("p22810_leon", Some 25.0, 0, 2859044, true, "1b234ecbdb8d6ddc35bb01d9fbcf604a");
    ("p22810_leon", Some 25.0, 1, 2859044, true, "c30c17cbb626ca06d30763ad9c05c62d");
    ("p22810_leon", Some 25.0, 2, 1553422, true, "c6c67492c1126e8631f364ce661b0eb9");
    ("p22810_leon", Some 25.0, 3, 1570963, true, "0d0cf50c9e8e9d2bacf9d0662ac8d55d");
    ("p22810_leon", Some 25.0, 4, 1332840, true, "999353179f3e95069b9dbacb2e988787");
    ("p22810_leon", Some 25.0, 5, 1310237, true, "aab61885ba313b6fb452cb0a53c0e201");
    ("p22810_leon", Some 25.0, 6, 1015756, true, "5fc47353260065aa61ef7469611f53a4");
    ("p22810_leon", Some 25.0, 7, 1073254, true, "ca49ea621b3b83f6ea45126b57346d07");
    ("p22810_leon", Some 25.0, 8, 1177859, true, "3307cf48bda7ab4d257a7002aa2efbbc");
    ("p93791_leon", None, 0, 5068000, true, "8c510d275aff6be024ceaa066509d371");
    ("p93791_leon", None, 1, 5068000, true, "5038c2fc37a05bde8d40fb0e57521a06");
    ("p93791_leon", None, 2, 2655267, true, "9644d6cef824fa1d6087884d1952b31b");
    ("p93791_leon", None, 3, 2712975, true, "ac222fd221a90a7834910ca4f4566d2f");
    ("p93791_leon", None, 4, 1922375, true, "09568fbcb0f7789898badadcad8149f3");
    ("p93791_leon", None, 5, 2039072, true, "caa7bd05d16d0edca04a3ba8b328aa58");
    ("p93791_leon", None, 6, 1713947, true, "ee489f00a1691ba7624be8588f9ef75d");
    ("p93791_leon", None, 7, 1634182, true, "ca93d7bd26de0c1cab89104d443720ba");
    ("p93791_leon", None, 8, 1315925, true, "4033219dca476c305a7db75abd72d217");
    ("p93791_leon", Some 25.0, 0, 5068000, true, "8c510d275aff6be024ceaa066509d371");
    ("p93791_leon", Some 25.0, 1, 5068000, true, "5038c2fc37a05bde8d40fb0e57521a06");
    ("p93791_leon", Some 25.0, 2, 2655267, true, "9644d6cef824fa1d6087884d1952b31b");
    ("p93791_leon", Some 25.0, 3, 2712975, true, "ac222fd221a90a7834910ca4f4566d2f");
    ("p93791_leon", Some 25.0, 4, 2027251, true, "630e023d98d096355ade52c66ff2c4f3");
    ("p93791_leon", Some 25.0, 5, 2086524, true, "fd01b721055acf384d3e0b89c7ce4cb0");
    ("p93791_leon", Some 25.0, 6, 1902098, true, "60ee08027e7695c4b98442eb4679b8a0");
    ("p93791_leon", Some 25.0, 7, 1710871, true, "5802c5e0e6cdc666a1dfaa78b4583645");
    ("p93791_leon", Some 25.0, 8, 1538953, true, "210de69daee8301e7b848c6237a60ed0");
  ]

(* The same rows under the lookahead policy, the paper's suggested fix
   for its greedy anomaly. *)
let golden_lookahead =
  [
    ("d695_leon", None, 0, 620313, true, "c472e3218027c28dd57d3007fc667b51");
    ("d695_leon", None, 1, 608612, true, "3628468b7f7f5ad932a9b2bcdf0ca23b");
    ("d695_leon", None, 2, 414312, true, "045d543c5ffd1758834a9d94170f732c");
    ("d695_leon", None, 3, 398995, true, "cfb9e4a72015ab90e6c7aab9c0a8003c");
    ("d695_leon", None, 4, 367985, true, "d235f9285804fba203940a01a1f2943d");
    ("d695_leon", None, 5, 365116, true, "04c39c41d8e189a972515273ac78fb01");
    ("d695_leon", None, 6, 367883, true, "3adeb8f03dd2e98a0a09f81682fe8e5f");
    ("d695_leon", Some 25.0, 0, 620313, true, "c472e3218027c28dd57d3007fc667b51");
    ("d695_leon", Some 25.0, 1, 608612, true, "3628468b7f7f5ad932a9b2bcdf0ca23b");
    ("d695_leon", Some 25.0, 2, 414312, true, "045d543c5ffd1758834a9d94170f732c");
    ("d695_leon", Some 25.0, 3, 418115, true, "9cc1360407ec9c83fa63484f4d6ca585");
    ("d695_leon", Some 25.0, 4, 388249, true, "31519401de819c2109890aad7e376a77");
    ("d695_leon", Some 25.0, 5, 392041, true, "0c214770eba2407a0adf0b6ec4c81285");
    ("d695_leon", Some 25.0, 6, 393218, true, "f3d22bd2d20fb53eece54764b2915c76");
    ("p22810_leon", None, 0, 2859044, true, "1b234ecbdb8d6ddc35bb01d9fbcf604a");
    ("p22810_leon", None, 1, 2441110, true, "ec577c97692f93ceac399ea02d54cee7");
    ("p22810_leon", None, 2, 1592256, true, "9536c79dbcf7c2ad7c4d5a3782cc9a82");
    ("p22810_leon", None, 3, 1359700, true, "b10251e1a74fd329e512a391e95d6864");
    ("p22810_leon", None, 4, 1235194, true, "9ae446a375db934f3fbc016069fc079d");
    ("p22810_leon", None, 5, 1059292, true, "32f2eacb873dbcf2d823a103647bfc83");
    ("p22810_leon", None, 6, 1053287, true, "6013869775b8d6d77e870fbbc3b7f28d");
    ("p22810_leon", None, 7, 932731, true, "8077b2314fe2f4986c6126414956996b");
    ("p22810_leon", None, 8, 850402, true, "e45afbbc93ef875c425532fadf248d21");
    ("p22810_leon", Some 25.0, 0, 2859044, true, "1b234ecbdb8d6ddc35bb01d9fbcf604a");
    ("p22810_leon", Some 25.0, 1, 2441110, true, "ec577c97692f93ceac399ea02d54cee7");
    ("p22810_leon", Some 25.0, 2, 1592256, true, "9536c79dbcf7c2ad7c4d5a3782cc9a82");
    ("p22810_leon", Some 25.0, 3, 1359700, true, "b10251e1a74fd329e512a391e95d6864");
    ("p22810_leon", Some 25.0, 4, 1235194, true, "9ae446a375db934f3fbc016069fc079d");
    ("p22810_leon", Some 25.0, 5, 1059292, true, "32f2eacb873dbcf2d823a103647bfc83");
    ("p22810_leon", Some 25.0, 6, 1025421, true, "2a1f55aaf381fac4b2347bc1adc34c15");
    ("p22810_leon", Some 25.0, 7, 878217, true, "cdab73d11f52a199de46e88c7e5ab7f3");
    ("p22810_leon", Some 25.0, 8, 854100, true, "fde71aed5fc8036f913cd273585faac1");
    ("p93791_leon", None, 0, 5068000, true, "8c510d275aff6be024ceaa066509d371");
    ("p93791_leon", None, 1, 4944774, true, "9a7c41a6e1650e55330628a26f84b1c3");
    ("p93791_leon", None, 2, 2672989, true, "68b0d4bafc77279ad09739491e05d0ac");
    ("p93791_leon", None, 3, 2689930, true, "73f2404ed69042b17b829cb758932802");
    ("p93791_leon", None, 4, 1987435, true, "0e02938ab9ac105d4b5ccf6780c737b2");
    ("p93791_leon", None, 5, 2076851, true, "985002977d1bccbd26cfe01d3e5c0eb2");
    ("p93791_leon", None, 6, 1725227, true, "c5c8248c7c59da7d636567ca36ac8c6f");
    ("p93791_leon", None, 7, 1622168, true, "1cbfba7cd4988f2f27b0e89bef41b17f");
    ("p93791_leon", None, 8, 1316842, true, "4b2a15f78338a1a2fe6c81a2e2624fbb");
    ("p93791_leon", Some 25.0, 0, 5068000, true, "8c510d275aff6be024ceaa066509d371");
    ("p93791_leon", Some 25.0, 1, 4944774, true, "9a7c41a6e1650e55330628a26f84b1c3");
    ("p93791_leon", Some 25.0, 2, 2672989, true, "68b0d4bafc77279ad09739491e05d0ac");
    ("p93791_leon", Some 25.0, 3, 2689930, true, "73f2404ed69042b17b829cb758932802");
    ("p93791_leon", Some 25.0, 4, 2011092, true, "6d5af889b41896185dbbbfe4870f23df");
    ("p93791_leon", Some 25.0, 5, 2079757, true, "eadcb93824a763cf5e60484439f01fd2");
    ("p93791_leon", Some 25.0, 6, 1894723, true, "3459c1196e3f248eca98abeb3a36d6c6");
    ("p93791_leon", Some 25.0, 7, 1608498, true, "5d3b2d70c3b7b7ad716b10899ff1ef02");
    ("p93791_leon", Some 25.0, 8, 1547259, true, "1f300584662b7bac6fee081a3859d716");
  ]

let digest sched = Digest.to_hex (Digest.string (Fmt.str "%a" Schedule.pp sched))

let systems =
  lazy
    [
      ("d695_leon", Experiments.d695_leon ());
      ("p22810_leon", Experiments.p22810_leon ());
      ("p93791_leon", Experiments.p93791_leon ());
    ]

(* One shared access table per system: the golden check then also
   exercises cross-run table sharing, the way Planner sweeps use it. *)
let tables =
  lazy
    (List.map
       (fun (name, system) -> (name, system, Test_access.table system))
       (Lazy.force systems))

let check_row policy (name, pct, reuse, makespan, validated, md5) () =
  let _, system, access =
    List.find (fun (n, _, _) -> n = name) (Lazy.force tables)
  in
  let power_limit =
    Option.map (fun pct -> System.power_limit_of_pct system ~pct) pct
  in
  let sched =
    Scheduler.run ~access system
      (Scheduler.config ~policy ~power_limit ~reuse ())
  in
  Alcotest.(check int) "makespan" makespan sched.Schedule.makespan;
  Alcotest.(check bool)
    "validated" validated
    (match
       Schedule.validate ~access system ~application:Processor.Bist
         ~power_limit ~reuse sched
     with
    | Ok () -> true
    | Error _ -> false);
  Alcotest.(check string) "schedule digest" md5 (digest sched)

(* The table is a pure cache: with and without it, the scheduler must
   produce identical schedules. *)
let test_table_is_pure_cache () =
  List.iter
    (fun (_, system, access) ->
      let reuse = List.length system.System.processors in
      let config = Scheduler.config ~reuse () in
      Alcotest.(check string)
        "with == without table"
        (digest (Scheduler.run system config))
        (digest (Scheduler.run ~access system config)))
    (Lazy.force tables)

(* MD5 over the digests of a series of runs, one line each; an
   unschedulable run contributes a fixed marker. *)
let digest_runs runs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (system, config) ->
      (match Scheduler.run system config with
      | sched -> Buffer.add_string b (digest sched)
      | exception Scheduler.Unschedulable _ ->
          Buffer.add_string b "unschedulable");
      Buffer.add_char b '\n')
    runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Corpus seed 7, items 0-99, under the suites' configuration (full
   reuse, the item's power limit) with each policy. *)
let test_corpus_digests () =
  let items = Corpus.generate ~seed:7L ~count:100 in
  List.iter
    (fun (policy, md5) ->
      Alcotest.(check string)
        (Fmt.str "%a corpus digest" Scheduler.pp_policy policy)
        md5
        (digest_runs
           (List.map
              (fun item ->
                (item.Corpus.system, { (Corpus.config item) with policy }))
              items)))
    [
      (Scheduler.Greedy, "cd7e0238f8576e9b69d03d58feafae32");
      (Scheduler.Lookahead, "21dad43558deb47a7e7ee0a71a613778");
    ]

(* Many endpoints under a binding power limit: d695 with 60 reusable
   Leons on a 12x12 mesh at 7% power (unconstrained, greedy finishes at
   1323958).  Attempts see up to 62^2 candidate pairs and many reject
   every one of them on power, which walks the whole (key, index)
   order. *)
let test_many_endpoint_digests () =
  let system =
    Result.get_ok
      (Nocplan_serve.Sysbuild.build
         (Nocplan_serve.Sysbuild.spec ~width:12 ~height:12 ~leons:60 "d695"))
  in
  let access = Test_access.table system in
  let power_limit = Some (System.power_limit_of_pct system ~pct:7.0) in
  List.iter
    (fun (policy, makespan, md5) ->
      let sched =
        Scheduler.run ~access system
          (Scheduler.config ~policy ~power_limit ~reuse:60 ())
      in
      let name = Fmt.str "%a" Scheduler.pp_policy policy in
      Alcotest.(check int) (name ^ " makespan") makespan
        sched.Schedule.makespan;
      Alcotest.(check string) (name ^ " digest") md5 (digest sched))
    [
      (Scheduler.Greedy, 2312302, "aad2f03e5cd0eeb0cae32ca1a5a6984e");
      (Scheduler.Lookahead, 2021466, "335db83c9cb737ddc2e683389909c097");
    ]

let row_case policy ((name, pct, reuse, _, _, _) as row) =
  Alcotest.test_case
    (Printf.sprintf "%s%s reuse %d%s" name
       (match policy with
       | Scheduler.Greedy -> ""
       | Scheduler.Lookahead -> " lookahead")
       reuse
       (match pct with None -> "" | Some p -> Printf.sprintf " power %.0f%%" p))
    `Quick (check_row policy row)

let suite =
  Alcotest.test_case "scheduler run with/without table identical" `Quick
    test_table_is_pure_cache
  :: Alcotest.test_case "corpus seed 7 digests, both policies" `Quick
       test_corpus_digests
  :: Alcotest.test_case "many-endpoint power-bound digests" `Slow
       test_many_endpoint_digests
  :: List.map (row_case Scheduler.Greedy) golden
  @ List.map (row_case Scheduler.Lookahead) golden_lookahead
