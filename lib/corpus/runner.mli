(** The testplan engine: run every testpoint's property suites over a
    corpus, Domain-parallel, and aggregate per-testpoint counts.

    Items fan out round-robin over worker domains via
    {!Nocplan_core.Domains.map}; each item is checked against every
    (testpoint, suite) pair of the plan, and outcomes aggregate into
    one {!point} per testpoint.  The whole sweep runs inside a
    [corpus.sweep] trace span and emits [nocplan_corpus_*] counters
    (systems, checks, failures) when a collector is installed, so
    traced sweeps are attributable like any other driver. *)

type point = {
  testpoint : string;
  desc : string;
  pass : int;
  fail : int;
  skip : int;
  failures : (string * string) list;
      (** (item name, message) for the first few failures, sweep order *)
}

type report = {
  corpus : int;  (** items swept (after sharding) *)
  jobs : int;  (** domains requested (before clamping) *)
  shard : (int * int) option;  (** [(k, n)] when the corpus was sharded *)
  seconds : float;
  points : point list;  (** testplan order *)
}

val coverage : point -> int
(** Checks that actually ran: [pass + fail] (skips excluded). *)

val ok : report -> bool
(** No failures, and every testpoint has nonzero {!coverage}. *)

val shard : k:int -> n:int -> 'a list -> 'a list
(** The [k]-th of [n] round-robin slices, [1 <= k <= n]; the [n]
    shards of a list are disjoint and cover it exactly.
    @raise Invalid_argument if [k] is out of range or [n < 1]. *)

val run :
  ?jobs:int ->
  ?shard_of:int * int ->
  ?clock:(unit -> float) ->
  testplan:Testplan.t ->
  Corpus.item list ->
  report
(** Sweep [items] (already sharded by the caller; [shard_of] only
    labels the report).  [jobs] defaults to 1; [clock] times the sweep
    ([Sys.time] by default — callers with unix should pass wall time).
    A suite raising is recorded as a failure of that check, not a
    crash of the sweep.  Each item is checked in one domain, on a
    {!Corpus.fresh_table} copy whose access table every solver suite
    shares and which is dropped after the item's checks: [items]
    themselves are never forced.
    @raise Invalid_argument if the plan names a suite that is not
    registered (run {!Testplan.lint} first). *)

val pp_report : report Fmt.t
(** Aligned per-testpoint table plus a one-line verdict. *)

val csv : report -> string
(** ["testpoint,pass,fail,skip,coverage"] rows, header included. *)

val to_json : ?seed:int64 -> report -> Nocplan_serve.Json.t
(** The summary artifact: seed, corpus/shard/jobs/seconds, one object
    per testpoint (counts, coverage, first failures), and the overall
    verdict. *)
