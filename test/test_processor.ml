module Proc = Nocplan_proc
module Processor = Proc.Processor
module Characterization = Proc.Characterization
module Module_def = Nocplan_itc02.Module_def

let leon () = Processor.leon ~id:11
let plasma () = Processor.plasma ~id:12

let test_leon_bist_is_ten_cycles () =
  (* The paper: "we assume the processor takes 10 clock cycles to
     generate a test pattern" — our Leon cycle table is calibrated so
     the measured figure lands exactly there. *)
  let p = leon () in
  Alcotest.(check int) "10 cycles/pattern" 10
    (Processor.generation_overhead p Processor.Bist)

let test_plasma_slower_than_leon () =
  let l = leon () and p = plasma () in
  Alcotest.(check bool) "plasma BIST slower" true
    (p.Processor.bist.Characterization.cycles_per_pattern
    > l.Processor.bist.Characterization.cycles_per_pattern)

let test_self_test_sizes () =
  let l = leon () and p = plasma () in
  Alcotest.(check bool) "leon is the complex processor" true
    (Module_def.test_bits l.Processor.self_test
    > Module_def.test_bits p.Processor.self_test);
  Alcotest.(check int) "requested id" 11 l.Processor.self_test.Module_def.id;
  Alcotest.(check int) "requested id" 12 p.Processor.self_test.Module_def.id

let test_with_self_test_id () =
  let l = Processor.with_self_test_id (leon ()) ~id:99 in
  Alcotest.(check int) "renumbered" 99 l.Processor.self_test.Module_def.id;
  Alcotest.(check string) "same name" "leon" l.Processor.name

let test_characterizations_measured () =
  let l = leon () in
  List.iter
    (fun (c : Characterization.t) ->
      Alcotest.(check bool)
        (c.Characterization.application ^ " cycles positive")
        true
        (c.Characterization.cycles_per_pattern > 0.0);
      Alcotest.(check bool)
        (c.Characterization.application ^ " memory positive")
        true
        (c.Characterization.memory_words > 0))
    [ l.Processor.bist; l.Processor.sink; l.Processor.decompression ]

let test_source_characterization_selector () =
  let l = leon () in
  Alcotest.(check string) "bist" "bist"
    (Processor.source_characterization l Processor.Bist).Characterization.application;
  Alcotest.(check string) "decompress" "decompress"
    (Processor.source_characterization l Processor.Decompression).Characterization.application

let test_characterization_slope_stability () =
  (* Measuring with different run lengths gives the same steady-state
     slope: the differencing removes setup cost. *)
  let a = Characterization.of_bist ~patterns:128 ~costs:Proc.Leon.costs ~power:1.0 () in
  let b = Characterization.of_bist ~patterns:1024 ~costs:Proc.Leon.costs ~power:1.0 () in
  Alcotest.(check (float 0.2)) "stable slope"
    a.Characterization.cycles_per_pattern b.Characterization.cycles_per_pattern

let test_decompress_run_length_effect () =
  let short = Characterization.of_decompress ~mean_run_length:1 ~costs:Proc.Leon.costs ~power:1.0 () in
  let long = Characterization.of_decompress ~mean_run_length:8 ~costs:Proc.Leon.costs ~power:1.0 () in
  Alcotest.(check bool) "longer runs cheaper per word" true
    (long.Characterization.cycles_per_pattern
    < short.Characterization.cycles_per_pattern)

(* The characterizations are measured once per (costs, power) model:
   the presets must still carry exactly what a fresh measurement
   gives, also when two domains build them at once. *)
let test_characterization_memoized () =
  let fresh costs power =
    ( Characterization.of_bist ~costs ~power (),
      Characterization.of_sink ~costs ~power (),
      Characterization.of_decompress ~costs ~power () )
  in
  let measured (p : Processor.t) =
    (p.Processor.bist, p.Processor.sink, p.Processor.decompression)
  in
  let both () = (measured (leon ()), measured (plasma ())) in
  let other = Domain.spawn both in
  let here = both () in
  let there = Domain.join other in
  let want =
    ( fresh Nocplan_proc.Leon.costs Nocplan_proc.Leon.power_active,
      fresh Nocplan_proc.Plasma.costs Nocplan_proc.Plasma.power_active )
  in
  Alcotest.(check bool) "equal to fresh measurements" true (here = want);
  Alcotest.(check bool) "equal across domains" true (there = want);
  (* A model no other test uses: both domains race on its first
     measurement. *)
  let costs =
    Nocplan_proc.Machine.costs ~alu:2 ~load:3 ~store:3 ~branch_taken:4
      ~branch_not_taken:2 ~jump:3 ~send:5 ~recv:5
  in
  let model () =
    measured
      (Processor.make ~name:"racer" ~isa_family:"test" ~costs
         ~power_active:7.25 ~self_test:(Nocplan_proc.Leon.self_test ~id:1) ())
  in
  let other = Domain.spawn model in
  let here = model () in
  let want = fresh costs 7.25 in
  Alcotest.(check bool) "new model, this domain" true (here = want);
  Alcotest.(check bool) "new model, racing domain" true
    (Domain.join other = want)

let suite =
  [
    Alcotest.test_case "characterization measured once per model" `Quick
      test_characterization_memoized;
    Alcotest.test_case "leon BIST = 10 cycles/pattern" `Quick
      test_leon_bist_is_ten_cycles;
    Alcotest.test_case "plasma slower than leon" `Quick
      test_plasma_slower_than_leon;
    Alcotest.test_case "self-test sizes" `Quick test_self_test_sizes;
    Alcotest.test_case "with_self_test_id" `Quick test_with_self_test_id;
    Alcotest.test_case "characterizations measured" `Quick
      test_characterizations_measured;
    Alcotest.test_case "application selector" `Quick
      test_source_characterization_selector;
    Alcotest.test_case "slope stability" `Quick
      test_characterization_slope_stability;
    Alcotest.test_case "decompression run-length effect" `Quick
      test_decompress_run_length_effect;
  ]
