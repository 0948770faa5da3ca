module Module_def = Nocplan_itc02.Module_def

type application = Bist | Decompression

type t = {
  name : string;
  isa_family : string;
  costs : Machine.costs;
  bist : Characterization.t;
  sink : Characterization.t;
  decompression : Characterization.t;
  self_test : Module_def.t;
  power_active : float;
  memory_capacity_words : int;
}

(* The three characterizations of every processor model measured so
   far, keyed on what they depend on: together they take six
   interpreter runs, and a model is built once per processor of every
   system.  An atomic list,
   not a lazy value or a table filled at module init: systems are built
   on several domains at once, and a CLI start must not pay for models
   it never uses.  Two domains racing on a new model both measure it
   and both results stay; they are equal. *)
let characterized = Atomic.make []

let characterize ~costs ~power =
  let key = (costs, power) in
  match List.assoc_opt key (Atomic.get characterized) with
  | Some c -> c
  | None ->
      let c =
        ( Characterization.of_bist ~costs ~power (),
          Characterization.of_sink ~costs ~power (),
          Characterization.of_decompress ~costs ~power () )
      in
      let rec publish () =
        let seen = Atomic.get characterized in
        if not (Atomic.compare_and_set characterized seen ((key, c) :: seen))
        then publish ()
      in
      publish ();
      c

let make ?(memory_capacity_words = 16_384) ~name ~isa_family ~costs
    ~power_active ~self_test () =
  if memory_capacity_words < 1 then
    invalid_arg "Processor.make: memory capacity must be >= 1";
  let bist, sink, decompression = characterize ~costs ~power:power_active in
  {
    name;
    isa_family;
    costs;
    bist;
    sink;
    decompression;
    self_test;
    power_active;
    memory_capacity_words;
  }

(* Leon systems typically pair the core with a larger on-chip RAM than
   the minimal Plasma configuration. *)
let leon ~id =
  make ~memory_capacity_words:32_768 ~name:"leon" ~isa_family:"SPARC V8"
    ~costs:Leon.costs ~power_active:Leon.power_active
    ~self_test:(Leon.self_test ~id) ()

let plasma ~id =
  make ~memory_capacity_words:8_192 ~name:"plasma" ~isa_family:"MIPS-I"
    ~costs:Plasma.costs ~power_active:Plasma.power_active
    ~self_test:(Plasma.self_test ~id) ()

let source_characterization t = function
  | Bist -> t.bist
  | Decompression -> t.decompression

let generation_overhead t application =
  let c = source_characterization t application in
  int_of_float (Float.round c.Characterization.cycles_per_pattern)

let memory_capacity t = t.memory_capacity_words

let with_self_test_id t ~id =
  let s = t.self_test in
  {
    t with
    self_test =
      Module_def.make ~bidirs:s.Module_def.bidirs
        ~test_power:s.Module_def.test_power ~id ~name:s.Module_def.name
        ~inputs:s.Module_def.inputs ~outputs:s.Module_def.outputs
        ~scan_chains:s.Module_def.scan_chains ~patterns:s.Module_def.patterns
        ();
  }

let equal a b =
  String.equal a.name b.name
  && String.equal a.isa_family b.isa_family
  && Module_def.equal a.self_test b.self_test

let pp ppf t =
  Fmt.pf ppf
    "@[<v>processor %s (%s, %d memory words):@,  %a@,  %a@,  %a@,  self-test: %a@]"
    t.name t.isa_family t.memory_capacity_words Characterization.pp t.bist
    Characterization.pp t.sink Characterization.pp t.decompression
    Module_def.pp t.self_test
