(** A processor available for reuse as a test source and sink.

    Bundles everything the planner needs: the measured characterization
    of each test application (obtained by running the application on
    the {!Machine} interpreter under the processor's cycle table) and
    the processor's own test requirements (it may only be reused after
    it has been tested). *)

type application = Bist | Decompression
(** How the processor produces stimuli when acting as a source.  The
    sink side always runs the MISR compactor. *)

type t = private {
  name : string;
  isa_family : string;
  costs : Machine.costs;
  bist : Characterization.t;
  sink : Characterization.t;
  decompression : Characterization.t;
  self_test : Nocplan_itc02.Module_def.t;
      (** the processor as a core under test; its [id] is assigned when
          the processor is embedded in a system *)
  power_active : float;
  memory_capacity_words : int;
      (** local memory available for the test program and its data;
          bounds which cores the decompression application can serve *)
}

val make :
  ?memory_capacity_words:int ->
  name:string ->
  isa_family:string ->
  costs:Machine.costs ->
  power_active:float ->
  self_test:Nocplan_itc02.Module_def.t ->
  unit ->
  t
(** Build a processor description, measuring all three application
    characterizations on the interpreter.  The measurements depend only
    on [costs] and [power_active], so they run once per such pair per
    process and later calls reuse them (domain-safe).
    [memory_capacity_words] defaults to 16384.
    @raise Invalid_argument if the capacity is [< 1]. *)

val leon : id:int -> t
(** The Leon (SPARC V8) preset with its self-test module under the
    given benchmark id. *)

val plasma : id:int -> t
(** The Plasma (MIPS-I) preset. *)

val source_characterization : t -> application -> Characterization.t

val generation_overhead : t -> application -> int
(** Whole-cycle steady-state generation cost per pattern when this
    processor is the test source — the paper's "the processor takes 10
    clock cycles to generate a test pattern" figure, measured:
    [round cycles_per_pattern] of the application. *)

val memory_capacity : t -> int
(** [memory_capacity_words]. *)

val with_self_test_id : t -> id:int -> t
(** The same processor with its self-test module renumbered. *)

val equal : t -> t -> bool
val pp : t Fmt.t
