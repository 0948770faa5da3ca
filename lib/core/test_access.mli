(** Cost model of one core test over the NoC.

    Testing core [c] from source [s] to sink [k] streams one stimulus
    packet and one response packet per test pattern along the XY paths
    [s -> c] and [c -> k].  Patterns are pipelined: the path-fill
    latency is paid once, and in steady state each pattern costs the
    maximum of the core's shift time, the two transport times and the
    source/sink software overheads (zero for the external tester; the
    measured cycles-per-pattern for a processor — the paper's
    "processor takes 10 clock cycles to generate a test pattern,
    while the external tester takes zero"). *)

type cost = {
  duration : int;  (** cycles from stream start to last response *)
  power : float;
      (** instantaneous power while the test runs: CUT + source +
          sink + occupied routers *)
  links : Nocplan_noc.Link.t list;
      (** deduplicated channels of both paths — the reservation
          footprint *)
  routers : int;  (** distinct routers the two paths traverse *)
  per_pattern : int;  (** steady-state cycles per pattern *)
}

val cost :
  ?patterns:int ->
  System.t ->
  application:Nocplan_proc.Processor.application ->
  module_id:int ->
  source:Resource.endpoint ->
  sink:Resource.endpoint ->
  cost
(** [patterns] overrides the module's pattern count — used by the
    preemptive scheduler to price a partial test session (the path
    fill, setup and drain are paid per session).
    @raise Invalid_argument if the pair is not {!Resource.valid_pair},
    the module id is unknown, [patterns < 1], or an endpoint refers to
    a non-processor module. *)

val assumed_run_length : int
(** Mean run length assumed when estimating how well a core's test set
    compresses (matches the default of
    {!Nocplan_proc.Characterization.of_decompress}). *)

val decompression_footprint : System.t -> module_id:int -> int
(** Memory words a processor needs to serve this core's full test set
    through the decompression application: the RLE image of
    [patterns * scan-in flits] stimulus words plus the program,
    estimated at {!assumed_run_length}.
    @raise Invalid_argument on an unknown module. *)

val decompression_footprint_measured :
  ?style:Nocplan_proc.Test_data.style ->
  ?seed:int64 ->
  System.t ->
  module_id:int ->
  int
(** The same footprint, {e measured}: the module's stimulus stream is
    synthesized ({!Nocplan_proc.Test_data}, default [Atpg 0.05],
    seed 7) and actually RLE-encoded.  Slower but exact for the
    synthesized data; the bench harness compares it against the
    estimate. *)

val route_feasible :
  System.t ->
  module_id:int ->
  source:Resource.endpoint ->
  sink:Resource.endpoint ->
  bool
(** Whether the XY paths source->CUT and CUT->sink avoid every link in
    the system's [failed_links].  Routing is deterministic, so a test
    whose path crosses a faulty channel simply cannot run; the planner
    must pick other resources (or the instance is unschedulable). *)

val feasible :
  System.t ->
  application:Nocplan_proc.Processor.application ->
  module_id:int ->
  source:Resource.endpoint ->
  sink:Resource.endpoint ->
  bool
(** [route_feasible && memory_feasible] — the full admission check the
    schedulers apply to a candidate pair. *)

val memory_feasible :
  System.t ->
  application:Nocplan_proc.Processor.application ->
  module_id:int ->
  source:Resource.endpoint ->
  bool
(** Whether the source can hold the test data the application needs:
    always true for the external tester and for BIST (the generator is
    a few words); for decompression, true iff
    {!decompression_footprint} fits the processor's memory capacity. *)

(** {1 Precomputed access table}

    The cost model is time-invariant: for a fixed system and test
    application, the feasibility and cost of every (module, source,
    sink) triple never change while scheduling.  A {!table} evaluates
    all of them once — including the per-module wrapper design, the
    expensive part — and the schedulers then answer every query with
    an array lookup.  One table serves every scheduler run on the same
    system (all reuse counts, all power limits, all test orders), which
    is where reuse sweeps, annealing and branch-and-bound spend their
    time.

    A table is immutable after construction, so it is safe to share
    across OCaml domains (e.g. {!Planner.reuse_sweep}'s fan-out). *)

type table

type route_fn =
  src:Nocplan_noc.Coord.t ->
  dst:Nocplan_noc.Coord.t ->
  Nocplan_noc.Coord.t list option
(** A unicast routing function: the router path from [src] to [dst]
    (adjacent tiles, inclusive of both; [Some [src]] when they are
    equal), or [None] when [dst] is unreachable from [src].  Paths
    must avoid the system's [failed_links] — the table trusts them. *)

val table :
  ?application:Nocplan_proc.Processor.application ->
  ?route:route_fn ->
  System.t ->
  table
(** Precompute feasibility and cost for every module of the system
    against every endpoint pair at full reuse (the endpoint set of any
    smaller reuse count is a subset).  Default application: [Bist].

    [route] overrides the deterministic XY routing with a custom
    (e.g. fault-aware detour, {!Nocplan_fault.Detour}) path function:
    every leg is priced along the path it returns — longer detours
    honestly cost more fill, routing setup and router power — and a
    [None] leg makes every pair needing it infeasible, with no cost
    and no channels.  With no faults a detour router that returns the
    XY paths yields a bit-identical table.  {!table_rebuild} carries
    the route function over. *)

val table_rebuild : table -> system:System.t -> affected:int list -> table
(** [table_rebuild base ~system ~affected] is the access table of
    [system] — a copy of [base] with only the [affected] modules' rows
    recomputed.  [system] must differ from [base]'s system solely in
    the placement of the [affected] (non-processor) modules, e.g. via
    {!System.swap_tiles}: every other module's cut coordinate and every
    endpoint keep their tiles, so their rows are bit-identical and are
    carried over.  The dense channel numbering {e extends} the base's
    (already-seen links keep their ids; links first routed over by the
    new placement get fresh ids), so a reservation calendar or commit
    trace recorded under [base] stays meaningful under the result —
    the property {!Scheduler.resume_onto} relies on.  Cost: O(table
    copy) + O(|affected| · endpoints²) instead of a full rebuild's
    O(modules · endpoints²) wrapper designs.
    @raise Invalid_argument if an affected id is unknown, or if a
    module outside [affected] (or a processor) sits on a different tile
    in [system] than in the base table's system. *)

val table_for :
  table ->
  system:System.t ->
  application:Nocplan_proc.Processor.application ->
  bool
(** Whether the table was built for exactly this system (physical
    equality) and application — the schedulers' sanity check before
    trusting a caller-supplied table. *)

val table_application : table -> Nocplan_proc.Processor.application

val table_routed : table -> bool
(** Whether the table was built with a custom [route]: its costs and
    channels are then the only model of the plan's paths, which the
    direct computations (XY routes) cannot stand in for. *)

val table_feasible :
  table ->
  module_id:int ->
  source:Resource.endpoint ->
  sink:Resource.endpoint ->
  bool
(** Same truth value as {!feasible}, via lookup.
    @raise Invalid_argument on a module or endpoint the table does not
    cover. *)

val table_cost :
  table ->
  module_id:int ->
  source:Resource.endpoint ->
  sink:Resource.endpoint ->
  cost
(** Same value as {!cost} with the module's own pattern count, via
    lookup.  @raise Invalid_argument on an invalid pair or an unknown
    module/endpoint. *)

val table_route_feasible :
  table ->
  module_id:int ->
  source:Resource.endpoint ->
  sink:Resource.endpoint ->
  bool
(** Same truth value as {!route_feasible}, via lookup.
    @raise Invalid_argument on a module or endpoint the table does not
    cover. *)

val table_memory_feasible :
  table -> module_id:int -> source:Resource.endpoint -> bool
(** Same truth value as {!memory_feasible}, via lookup.
    @raise Invalid_argument on a module or endpoint the table does not
    cover. *)

(** {2 Index-level access}

    The scheduler inner loop resolves endpoints and modules to integer
    indices once, then queries by index. *)

val endpoint_id : table -> Resource.endpoint -> int
(** @raise Invalid_argument if the endpoint is not in the table. *)

val module_row : table -> int -> int
(** @raise Invalid_argument on an unknown module id. *)

val feasible_ix : table -> row:int -> src:int -> snk:int -> bool
val cost_ix : table -> row:int -> src:int -> snk:int -> cost

val channels_ix : table -> row:int -> src:int -> snk:int -> int array
(** Dense channel ids of the links of [cost_ix] (empty on an invalid
    pair): the key set the {!Nocplan_noc.Reservation} calendar indexes
    by.  Ids are assigned per table, so a calendar must only ever be
    queried with channels of one table — the scheduler ties both to
    one engine. *)

val pp_cost : cost Fmt.t
