(* Bit-level wrapper scan simulation: the timing model, executed. *)

open Util
module Wrapper = Nocplan_itc02.Wrapper
module Wrapper_sim = Nocplan_itc02.Wrapper_sim
module Module_def = Nocplan_itc02.Module_def
module Rng = Nocplan_itc02.Data_gen.Rng

let module_fixture =
  Module_def.make ~id:1 ~name:"w" ~inputs:5 ~outputs:3
    ~scan_chains:[ 7; 4 ] ~patterns:1 ()

let test_cycle_counts_match_design () =
  let width = 4 in
  let design = Wrapper.design ~width module_fixture in
  let sim = Wrapper_sim.create (Wrapper.layout ~width module_fixture) in
  Alcotest.(check int) "scan-in cycles" design.Wrapper.scan_in_max
    (Wrapper_sim.shift_in_cycles sim);
  Alcotest.(check int) "scan-out cycles" design.Wrapper.scan_out_max
    (Wrapper_sim.shift_out_cycles sim);
  Alcotest.(check int) "stimulus bits"
    (Module_def.scan_cells module_fixture + module_fixture.Module_def.inputs)
    (Wrapper_sim.in_cells sim)

let random_bits rng n = List.init n (fun _ -> Rng.bool rng 0.5)

let test_load_recovers_pattern () =
  let sim = Wrapper_sim.create (Wrapper.layout ~width:4 module_fixture) in
  let rng = Rng.create 11L in
  let pattern = random_bits rng (Wrapper_sim.in_cells sim) in
  Wrapper_sim.load_pattern sim pattern;
  Alcotest.(check (list bool)) "chains hold the pattern" pattern
    (Wrapper_sim.stimulus sim)

let test_capture_shift_out_roundtrip () =
  let sim = Wrapper_sim.create (Wrapper.layout ~width:4 module_fixture) in
  let rng = Rng.create 12L in
  let response = random_bits rng (Wrapper_sim.out_cells sim) in
  Wrapper_sim.capture sim ~response;
  Alcotest.(check (list bool)) "response recovered" response
    (Wrapper_sim.shift_out_all sim)

let test_narrow_flit_rejected () =
  let sim = Wrapper_sim.create (Wrapper.layout ~width:4 module_fixture) in
  match Wrapper_sim.shift_in sim ~flit:[ true ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "narrow flit accepted"

let test_wrong_sizes_rejected () =
  let sim = Wrapper_sim.create (Wrapper.layout ~width:4 module_fixture) in
  (match Wrapper_sim.load_pattern sim [ true ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "short pattern accepted");
  match Wrapper_sim.capture sim ~response:[ true ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "short response accepted"

let prop_roundtrip_random_modules =
  qcheck ~count:40 "load/stimulus and capture/shift-out round-trip"
    QCheck2.Gen.(pair (int_range 1 16) module_gen)
    (fun (width, m) ->
      let layout = Wrapper.layout ~width m in
      let sim = Wrapper_sim.create layout in
      let rng = Rng.create 77L in
      let pattern = random_bits rng (Wrapper_sim.in_cells sim) in
      let response = random_bits rng (Wrapper_sim.out_cells sim) in
      (if pattern <> [] then Wrapper_sim.load_pattern sim pattern);
      (if response <> [] then Wrapper_sim.capture sim ~response);
      (pattern = [] || Wrapper_sim.stimulus sim = pattern)
      && (response = [] || Wrapper_sim.shift_out_all sim = response))

let prop_layout_maxima_match_design =
  (* [design] computes the unit-cell level in closed form; [layout]
     places every cell by LPT.  Widths up to 64 cover corpus flit
     widths (mean 35). *)
  qcheck ~count:500 "layout maxima equal the design's si/so"
    QCheck2.Gen.(pair (int_range 1 64) module_gen)
    (fun (width, m) ->
      let design = Wrapper.design ~width m in
      let layout = Wrapper.layout ~width m in
      List.fold_left max 0 layout.Wrapper.in_lengths
      = design.Wrapper.scan_in_max
      && List.fold_left max 0 layout.Wrapper.out_lengths
         = design.Wrapper.scan_out_max)

let prop_layout_conserves_cells =
  qcheck "layout conserves total cells"
    QCheck2.Gen.(pair (int_range 1 24) module_gen)
    (fun (width, m) ->
      let layout = Wrapper.layout ~width m in
      List.fold_left ( + ) 0 layout.Wrapper.in_lengths
      = Module_def.scan_cells m + m.Module_def.inputs + m.Module_def.bidirs
      && List.fold_left ( + ) 0 layout.Wrapper.out_lengths
         = Module_def.scan_cells m + m.Module_def.outputs
           + m.Module_def.bidirs)

let suite =
  [
    Alcotest.test_case "cycle counts match the design" `Quick
      test_cycle_counts_match_design;
    Alcotest.test_case "load recovers the pattern" `Quick
      test_load_recovers_pattern;
    Alcotest.test_case "capture/shift-out round-trip" `Quick
      test_capture_shift_out_roundtrip;
    Alcotest.test_case "narrow flit rejected" `Quick test_narrow_flit_rejected;
    Alcotest.test_case "wrong sizes rejected" `Quick test_wrong_sizes_rejected;
    prop_roundtrip_random_modules;
    prop_layout_maxima_match_design;
    prop_layout_conserves_cells;
  ]
