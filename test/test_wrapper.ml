open Util
module Module_def = Nocplan_itc02.Module_def
module Wrapper = Nocplan_itc02.Wrapper

let design width m = Wrapper.design ~width m

let test_combinational_core () =
  (* No scan: wrapper chains carry only functional cells; with width 4
     and 10 inputs the longest scan-in chain holds ceil(10/4) = 3. *)
  let m =
    Module_def.make ~id:1 ~name:"c" ~inputs:10 ~outputs:7 ~scan_chains:[]
      ~patterns:5 ()
  in
  let w = design 4 m in
  Alcotest.(check int) "si" 3 w.Wrapper.scan_in_max;
  Alcotest.(check int) "so" 2 w.Wrapper.scan_out_max

let test_single_chain_dominates () =
  (* One long chain cannot be split: si >= its length. *)
  let m =
    Module_def.make ~id:1 ~name:"s" ~inputs:0 ~outputs:0 ~scan_chains:[ 100 ]
      ~patterns:5 ()
  in
  let w = design 8 m in
  Alcotest.(check int) "si equals the chain" 100 w.Wrapper.scan_in_max;
  Alcotest.(check int) "so equals the chain" 100 w.Wrapper.scan_out_max

let test_width_one () =
  (* Width 1: everything serializes: si = cells + inputs. *)
  let m =
    Module_def.make ~id:1 ~name:"s" ~inputs:5 ~outputs:3
      ~scan_chains:[ 10; 10 ] ~patterns:2 ()
  in
  let w = design 1 m in
  Alcotest.(check int) "si" 25 w.Wrapper.scan_in_max;
  Alcotest.(check int) "so" 23 w.Wrapper.scan_out_max

let test_cycles_formulas () =
  let m =
    Module_def.make ~id:1 ~name:"s" ~inputs:0 ~outputs:0 ~scan_chains:[ 8; 6 ]
      ~patterns:10 ()
  in
  let w = design 2 m in
  (* Scan chains shift both in and out: si = so = 8 under LPT. *)
  Alcotest.(check int) "pattern cycles" (8 + 1) (Wrapper.pattern_cycles w);
  Alcotest.(check int) "test cycles" (((1 + 8) * 10) + 8)
    (Wrapper.test_cycles w ~patterns:10)

let bidir_counted_both_sides () =
  let m =
    Module_def.make ~bidirs:4 ~id:1 ~name:"b" ~inputs:0 ~outputs:0
      ~scan_chains:[] ~patterns:1 ()
  in
  let w = design 2 m in
  Alcotest.(check int) "si includes bidirs" 2 w.Wrapper.scan_in_max;
  Alcotest.(check int) "so includes bidirs" 2 w.Wrapper.scan_out_max

(* LPT properties *)

let cells_and_inputs (m : Module_def.t) =
  Module_def.scan_cells m + m.Module_def.inputs + m.Module_def.bidirs

let prop_si_bounds =
  qcheck "si between load bound and single-bin bound"
    QCheck2.Gen.(pair (int_range 1 40) module_gen)
    (fun (width, m) ->
      let w = design width m in
      let total = cells_and_inputs m in
      let longest_chain =
        List.fold_left max 0 m.Module_def.scan_chains
      in
      let lower = max longest_chain ((total + width - 1) / width) in
      w.Wrapper.scan_in_max >= lower && w.Wrapper.scan_in_max <= total)

let prop_wider_never_worse =
  qcheck "si is non-increasing in width"
    QCheck2.Gen.(pair (int_range 1 20) module_gen)
    (fun (width, m) ->
      let a = design width m in
      let b = design (width + 1) m in
      b.Wrapper.scan_in_max <= a.Wrapper.scan_in_max
      && b.Wrapper.scan_out_max <= a.Wrapper.scan_out_max)

let prop_lpt_quality =
  (* LPT is a 4/3-approximation of the optimal makespan; with unit
     cells appended the bound still holds against the trivial lower
     bound. *)
  qcheck "LPT within 4/3 + chain of the load lower bound"
    QCheck2.Gen.(pair (int_range 1 16) module_gen)
    (fun (width, m) ->
      let w = design width m in
      let total = cells_and_inputs m in
      let longest_chain = List.fold_left max 0 m.Module_def.scan_chains in
      let lower =
        max longest_chain ((total + width - 1) / width)
      in
      float_of_int w.Wrapper.scan_in_max
      <= (4.0 /. 3.0 *. float_of_int lower) +. float_of_int longest_chain +. 1.0)

(* Brute-force optimal partition of small chain sets: every assignment
   of chains to bins, then unit cells greedily (optimal for units given
   fixed chain loads is spreading them evenly over the bins). *)
let optimal_si ~bins ~chains ~cells =
  let best = ref max_int in
  let loads = Array.make bins 0 in
  let rec assign = function
    | [] ->
        (* Distribute unit cells to minimize the maximum: fill bins up
           to a common level.  Binary search on the level. *)
        let feasible level =
          let capacity =
            Array.fold_left
              (fun acc load -> acc + max 0 (level - load))
              0 loads
          in
          capacity >= cells && Array.for_all (fun load -> load <= level) loads
        in
        let max_load = Array.fold_left max 0 loads in
        let rec search lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if feasible mid then search lo mid else search (mid + 1) hi
        in
        let level = search max_load (max_load + cells) in
        if level < !best then best := level
    | chain :: rest ->
        for b = 0 to bins - 1 do
          loads.(b) <- loads.(b) + chain;
          assign rest;
          loads.(b) <- loads.(b) - chain
        done
  in
  assign (List.sort (fun a b -> Stdlib.compare b a) chains);
  !best

let prop_lpt_vs_bruteforce =
  (* On instances small enough to solve exactly, LPT is within the
     classical 4/3 factor of the true optimum (usually equal). *)
  qcheck ~count:60 "LPT within 4/3 of the brute-force optimum"
    QCheck2.Gen.(
      triple (int_range 1 4)
        (list_size (int_range 0 5) (int_range 1 60))
        (int_range 0 40))
    (fun (bins, chains, cells) ->
      let m =
        Module_def.make ~id:1 ~name:"bf" ~inputs:cells ~outputs:0
          ~scan_chains:chains ~patterns:1 ()
      in
      let w = design bins m in
      let optimal = optimal_si ~bins ~chains ~cells in
      (* both sides zero when there is nothing to place *)
      (optimal = 0 && w.Wrapper.scan_in_max = 0)
      || float_of_int w.Wrapper.scan_in_max
         <= (4.0 /. 3.0 *. float_of_int optimal) +. 1.0)

let prop_pattern_cycles_consistent =
  qcheck "test_cycles ~ patterns * pattern_cycles"
    QCheck2.Gen.(pair (int_range 1 16) module_gen)
    (fun (width, m) ->
      let w = design width m in
      let p = m.Module_def.patterns in
      let total = Wrapper.test_cycles w ~patterns:p in
      let per = Wrapper.pattern_cycles w in
      total >= ((per - 1) * p) && total <= (per * p) + per)

(* Plain LPT, the reference for the closed form: chains longest first,
   then one unit cell at a time, each onto the first shortest of
   [width] bins; the longest bin of each side. *)
let lpt_reference ~width (m : Module_def.t) =
  let side cells =
    let loads = Array.make width 0 in
    let place item =
      let shortest = ref 0 in
      for i = 1 to width - 1 do
        if loads.(i) < loads.(!shortest) then shortest := i
      done;
      loads.(!shortest) <- loads.(!shortest) + item
    in
    List.iter place (List.sort (fun a b -> Int.compare b a) m.scan_chains);
    for _ = 1 to cells do
      place 1
    done;
    Array.fold_left max 0 loads
  in
  ( side (m.Module_def.inputs + m.Module_def.bidirs),
    side (m.Module_def.outputs + m.Module_def.bidirs) )

(* Widths 1-64 and 0 to 2 * width chains, with the branch boundary
   (chains = width, the closed form, and width + 1, LPT) drawn often
   and many equal short chains.  Zero-length chains cannot occur:
   [Module_def.make] refuses them. *)
let design_case_gen =
  let open QCheck2.Gen in
  let* width = int_range 1 64 in
  let* chains =
    frequency
      [
        (1, return 0);
        (2, return width);
        (2, return (width + 1));
        (5, int_range 0 (2 * width));
      ]
  in
  let* scan_chains =
    list_repeat chains
      (frequency [ (1, return 1); (1, int_range 1 8); (2, int_range 1 400) ])
  in
  let* inputs = int_range 0 300 in
  let* outputs = int_range 0 300 in
  let* bidirs = int_range 0 30 in
  return
    ( width,
      Module_def.make ~bidirs ~id:1 ~name:"w" ~inputs ~outputs ~scan_chains
        ~patterns:1 () )

let prop_design_is_lpt =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:500 ~name:"design equals sorted LPT"
       ~print:(fun (width, m) ->
         Fmt.str "width %d, %a" width Module_def.pp m)
       design_case_gen
  @@ fun (width, m) ->
  let w = design width m in
  (w.Wrapper.scan_in_max, w.Wrapper.scan_out_max) = lpt_reference ~width m

let test_design_allocation_budget () =
  (* Minor words of one design at a corpus flit width, a deterministic
     count (no timing): with no more chains than bins the sorted loads
     are built from the chains alone.  Running LPT over 64 bins
     allocated 353 words here. *)
  let m =
    Module_def.make ~id:1 ~name:"w" ~inputs:30 ~outputs:20
      ~scan_chains:[ 40; 12; 33; 7 ] ~patterns:10 ()
  in
  ignore (design 64 m);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (design 64 m));
  let words = Gc.minor_words () -. before in
  if words > 120. then
    Alcotest.failf "design allocated %.0f minor words, budget 120" words

let suite =
  [
    Alcotest.test_case "combinational core" `Quick test_combinational_core;
    Alcotest.test_case "single chain dominates" `Quick
      test_single_chain_dominates;
    Alcotest.test_case "width one serializes" `Quick test_width_one;
    Alcotest.test_case "cycle formulas" `Quick test_cycles_formulas;
    Alcotest.test_case "bidirs on both sides" `Quick bidir_counted_both_sides;
    prop_si_bounds;
    prop_wider_never_worse;
    prop_lpt_quality;
    prop_lpt_vs_bruteforce;
    prop_pattern_cycles_consistent;
    prop_design_is_lpt;
    Alcotest.test_case "design allocation budget" `Quick
      test_design_allocation_budget;
  ]
