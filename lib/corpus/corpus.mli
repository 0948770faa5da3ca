(** Deterministic, seeded synthetic-SoC corpus.

    Scales {!Nocplan_itc02.Data_gen} and the shared test generators
    into thousands of planning instances: mesh and torus topologies,
    varied module counts, scan volumes, wrapper (flit) widths, power
    profiles, processor mixes and IO pin budgets.  Generation is a
    pure function of [(seed, index)] — the splitmix64 PRNG is
    self-contained and every draw happens in a fixed order — so the
    same seed yields byte-identical systems on every run and platform
    (pinned by the golden {!digest} test).

    Every item is schedulable by construction: when a power budget is
    drawn, the absolute limit is floored so that any single test —
    module power plus processor legs plus worst-case NoC streaming —
    always fits, which is exactly the greedy engine's progress
    condition.  A suite failure over the corpus therefore always
    indicates a planner defect, never an infeasible draw. *)

type item = private {
  index : int;  (** position in the corpus, [0 .. count-1] *)
  seed : int64;  (** the corpus seed the item was drawn under *)
  name : string;  (** ["syn<index>"], unique within a corpus *)
  soc : Nocplan_itc02.Soc.t;
  system : Nocplan_core.System.t;
  torus : bool;
  width : int;
  height : int;
  leons : int;
  plasmas : int;
  flit_width : int;
  io_pairs : int;  (** IO input/output port pairs, 1 or 2 *)
  power_pct : float option;
      (** the drawn budget as a percentage of total module power;
          [None] for unconstrained items *)
  power_limit : float option;
      (** the absolute limit handed to the schedulers: the percentage
          applied to this system, floored for guaranteed progress *)
  reuse : int;  (** processors reusable for test (all of them) *)
  access : Nocplan_core.Test_access.table Lazy.t;
      (** the {!Nocplan_core.Test_access.table} of [system] for the
          [Bist] application, built on first {!access}: drawing an
          item, its {!digest}, its CSV row and re-drawing it never
          build one.  Compare items by {!fingerprint}, never
          structurally: [compare] raises on an unforced suspension
          and would walk a whole table on a forced one. *)
}
(** Items are built only by {!item} and {!fresh_table}, which keep
    [access] the table of the item's own [system]. *)

val item : seed:int64 -> index:int -> item
(** Draw the [index]-th item of the [seed] corpus.  O(1) in the corpus
    size: items are independent draws, so shards can regenerate only
    their slice. *)

val generate : seed:int64 -> count:int -> item list
(** The first [count] items, in index order.
    @raise Invalid_argument if [count < 0]. *)

val access : item -> Nocplan_core.Test_access.table
(** The item's access table, built on the first call and shared by
    every later one: every solver suite plans on it, so checking an
    item builds one table, not one per suite.  Validators keep their
    table-free path.

    Force it from one domain only: a lazy value forced by two domains
    at once raises [Lazy.Undefined] in one of them.
    {!Runner.run} and the corpus-verify benchmark check each item in
    exactly one domain; a table already built may be read from any
    domain.  An item keeps its table for as long as it lives (about
    37 KB on average over seed 7 items 0-99).
    @raise Invalid_argument as {!Nocplan_core.Test_access.table}, on
    every call once the build has raised. *)

val fresh_table : item -> item
(** The same item with a table of its own, not yet built.  A checker
    that must leave no table behind in its caller's item checks this
    copy: {!Runner.run} does, so a corpus held whole through a sweep
    holds no tables. *)

val config : item -> Nocplan_core.Scheduler.config
(** The planning configuration the property suites run under: default
    greedy policy, BIST application, the item's power limit and full
    processor reuse. *)

val fingerprint : item -> string
(** {!Nocplan_core.System.fingerprint} of the item's system. *)

val digest : item list -> string
(** Hex digest over every item's fingerprint, in order — the corpus
    identity pinned by the golden determinism test. *)

val csv_header : string
val csv_row : item -> string
(** Manifest line: name, index, module count, topology kind and size,
    processor mix, flit width, IO pairs, power budget, fingerprint. *)

val pp_row : item Fmt.t
(** One aligned human-readable table row (see {!pp_header}). *)

val pp_header : unit Fmt.t
