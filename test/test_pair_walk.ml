(* The lookahead pair walk against the rule it implements: sort every
   pooled feasible pair by (estimated finish, source-major index), offer
   idle pairs in that order until one is accepted, stop at the first
   busy one.  Small durations and times make ties between idle and
   busy keys common, the case where the walk's stop rule and tie
   order matter. *)

open Util
module Pair_walk = Nocplan_core.Pair_walk

(* One walk instance: [n] slots, a duration per (src, snk) pair (-1 when
   infeasible), availability per slot (-1 when not pooled), the current
   time, and the answers [offer] gives in call order. *)
type case = {
  n : int;
  durations : int array;
  avail : int array;
  now : int;
  answers : bool list;
}

let gen_case =
  QCheck2.Gen.(
    int_range 0 6 >>= fun n ->
    oneofl [ 2; 6 ] >>= fun span ->
    let cells = n * n in
    array_size (return cells)
      (frequency [ (1, return (-1)); (4, int_range 0 span) ])
    >>= fun durations ->
    array_size (return n)
      (frequency [ (1, return (-1)); (4, int_range 0 span) ])
    >>= fun avail ->
    int_range 0 span >>= fun now ->
    list_size (return (cells + 1)) (frequency [ (3, return false); (1, return true) ])
    >|= fun answers -> { n; durations; avail; now; answers })

let print_case c =
  Fmt.str "n=%d now=%d durations=[%a] avail=[%a] answers=[%a]" c.n c.now
    Fmt.(array ~sep:semi int) c.durations
    Fmt.(array ~sep:semi int) c.avail
    Fmt.(list ~sep:semi bool) c.answers

(* [offer] that records its calls and answers from [c.answers]. *)
let recorder c =
  let calls = ref [] and answers = ref c.answers in
  let offer i j =
    calls := (i, j) :: !calls;
    match !answers with
    | a :: rest ->
        answers := rest;
        a
    | [] -> false
  in
  (offer, fun () -> List.rev !calls)

let reference c =
  let offer, calls = recorder c in
  let cands = ref [] in
  for i = c.n - 1 downto 0 do
    for j = c.n - 1 downto 0 do
      let d = c.durations.((i * c.n) + j) in
      if d >= 0 && c.avail.(i) >= 0 && c.avail.(j) >= 0 then begin
        let ready = max c.avail.(i) c.avail.(j) in
        cands := (max c.now ready + d, ready, i, j) :: !cands
      end
    done
  done;
  let sorted =
    List.stable_sort (fun (k, _, _, _) (k', _, _, _) -> Int.compare k k') !cands
  in
  let rec go = function
    | [] -> ()
    | (_, ready, i, j) :: rest ->
        if ready <= c.now && not (offer i j) then go rest
  in
  go sorted;
  calls ()

let walked c =
  let offer, calls = recorder c in
  let w =
    Pair_walk.create ~n:c.n (fun ~src ~snk -> c.durations.((src * c.n) + snk))
  in
  ignore (Pair_walk.walk w ~now:c.now ~avail:c.avail offer);
  calls ()

let prop_matches_sorted_rule =
  qcheck ~count:2000 "walk offers exactly the sorted rule's pairs"
    gen_case
    (fun c ->
      let expected = reference c and got = walked c in
      expected = got
      || QCheck2.Test.fail_reportf "%s: expected %a, walked %a" (print_case c)
           Fmt.(Dump.list (Dump.pair int int)) expected
           Fmt.(Dump.list (Dump.pair int int)) got)

(* Slots 0 and 1 source, slots 2 and 3 sink: pairs (0, 2) (index 2) and
   (1, 3) (index 7), one of them busy until 3, with durations chosen so
   both finish at 5.  An idle pair whose finish ties a busy pair's is
   offered only when its source-major index is lower. *)
let test_tie_with_busy_pair () =
  let offers ~d02 ~d13 ~avail =
    let durations = Array.make 16 (-1) in
    durations.(2) <- d02;
    durations.(7) <- d13;
    let w =
      Pair_walk.create ~n:4 (fun ~src ~snk -> durations.((src * 4) + snk))
    in
    let calls = ref [] in
    ignore
      (Pair_walk.walk w ~now:0 ~avail (fun i j ->
           calls := (i, j) :: !calls;
           false));
    List.rev !calls
  in
  Alcotest.(check (list (pair int int)))
    "idle (1, 3) waits for busy (0, 2)" []
    (offers ~d02:2 ~d13:5 ~avail:[| 3; 0; 0; 0 |]);
  Alcotest.(check (list (pair int int)))
    "idle (0, 2) goes before busy (1, 3)" [ (0, 2) ]
    (offers ~d02:5 ~d13:2 ~avail:[| 0; 3; 0; 0 |])

(* Three pairs finishing at 6: busy (3, 2) (index 14, duration 1) is
   met first, busy (0, 1) (index 1, duration 3) next, idle (1, 2)
   (index 6, duration 6) last.  The best busy pair is the one with the
   lower index, not the one met first, so (1, 2) waits. *)
let test_busy_tie_keeps_lower_index () =
  let durations = Array.make 16 (-1) in
  durations.(14) <- 1;
  durations.(1) <- 3;
  durations.(6) <- 6;
  let w = Pair_walk.create ~n:4 (fun ~src ~snk -> durations.((src * 4) + snk)) in
  let calls = ref [] in
  ignore
    (Pair_walk.walk w ~now:0 ~avail:[| 3; 0; 0; 5 |] (fun i j ->
         calls := (i, j) :: !calls;
         false));
  Alcotest.(check (list (pair int int))) "nothing offered" [] !calls

let test_create_orders_by_duration () =
  let durations = [| 4; 1; -1; 1 |] in
  let w = Pair_walk.create ~n:2 (fun ~src ~snk -> durations.((src * 2) + snk)) in
  let calls = ref [] in
  ignore
    (Pair_walk.walk w ~now:0 ~avail:[| 0; 0 |] (fun i j ->
         calls := (i, j) :: !calls;
         false));
  Alcotest.(check (list (pair int int))) "duration, then source, then sink"
    [ (0, 1); (1, 1); (0, 0) ]
    (List.rev !calls);
  Alcotest.check_raises "packed key overflow"
    (Invalid_argument "Pair_walk.create: duration too large") (fun () ->
      ignore (Pair_walk.create ~n:2 (fun ~src:_ ~snk:_ -> max_int / 2)))

let suite =
  [
    Alcotest.test_case "create orders by duration" `Quick
      test_create_orders_by_duration;
    Alcotest.test_case "tie with a busy pair" `Quick test_tie_with_busy_pair;
    Alcotest.test_case "busy tie keeps the lower index" `Quick
      test_busy_tie_keeps_lower_index;
    prop_matches_sorted_rule;
  ]
