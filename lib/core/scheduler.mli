(** The test planning engine.

    Event-driven list scheduler over the system's resources.  Pending
    cores are visited in {!Priority} order; a core is started as soon
    as a role-compatible (source, sink) pair is idle, its XY paths are
    free for the whole test duration, and the power limit holds.
    Processor endpoints join the resource pool the moment the
    processor's own test completes ("a processor is reused for test
    just after it has been successfully tested").

    Two resource-selection policies:

    - {!Greedy} — the paper's algorithm: among the pairs idle {e right
      now}, take the first available (ordered by how long they have
      been idle).  This exhibits the anomaly the paper describes on
      p22810: a slow processor idle now is preferred over a faster
      external interface that frees an instant later.
    - {!Lookahead} — also considers busy endpoints' release times and
      picks the pair minimizing the estimated completion time; if the
      best pair is not idle yet, the core waits for it instead of
      settling for a worse one. *)

type policy = Greedy | Lookahead

type config = {
  policy : policy;
  application : Nocplan_proc.Processor.application;
  reuse : int;  (** how many of the system's processors are reusable *)
  power_limit : float option;  (** absolute power cap, or [None] *)
  order : int list option;
      (** visit pending cores in this order instead of the {!Priority}
          heuristic — the knob the {!Annealing} optimizer searches *)
  start_time : int;  (** schedule nothing before this instant *)
  modules : int list option;
      (** schedule only these modules (default: all of them) — used by
          {!Replan} to re-plan the unfinished remainder of a session *)
  pretested : int list;
      (** processor module ids already tested before [start_time]:
          their endpoints are available immediately *)
  link_ready : (Nocplan_noc.Link.t * int) list;
      (** network health gates: a channel listed here may not carry
          test traffic before its ready time — the instant its router
          self-test passes ({!Nocplan_fault.Selftest} produces these).
          Unlisted channels are ready from the start; an empty list
          (the default) is the classic trusted-TAM behaviour,
          bit-identical to schedules produced before gates existed. *)
}

val config :
  ?policy:policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?order:int list ->
  ?start_time:int ->
  ?modules:int list ->
  ?pretested:int list ->
  ?link_ready:(Nocplan_noc.Link.t * int) list ->
  reuse:int ->
  unit ->
  config
(** Defaults: [Greedy], [Bist], no power limit, {!Priority} order,
    [start_time = 0], all modules, nothing pretested, no link gates.
    @raise Invalid_argument on a negative [start_time] or a negative
    [link_ready] time. *)

exception Unschedulable of string
(** Raised when no progress is possible — e.g. a single core's power
    alone exceeds the limit. *)

val run : ?access:Test_access.table -> System.t -> config -> Schedule.t
(** Produce a complete schedule.

    [access] is a precomputed {!Test_access.table} for the same system
    and application; passing one shares the (time-invariant)
    feasibility and cost evaluations across runs — the sweep, annealing
    and branch-and-bound drivers build a single table and reuse it for
    every evaluation.  Without it, a fresh table is built for this run.

    @raise Unschedulable when the instance is infeasible.
    @raise Invalid_argument if [reuse] is out of range, or if [access]
    was built for a different system or application. *)

val run_sessions :
  ?access:Test_access.table ->
  System.t ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  max_sessions:int ->
  (Schedule.entry * int) list
(** A {!Greedy} {!run} in {!Priority} order over preemptive session
    chunks: each module's pattern set is split into at most
    [max_sessions] near-equal chunks, run in order on any pairs.  A
    chunk waits for the previous one to finish, and a processor joins
    the pool only when its last chunk does.  A chunk of [p] of the
    module's [P] patterns lasts the cell's duration less [P - p]
    patterns ({!Test_access.per_pattern_ix}), with the cell's power and
    links.  Returns every chunk with its pattern count, in no
    particular order; emits the [scheduler.run] span.
    @raise Unschedulable when the instance is infeasible.
    @raise Invalid_argument if [max_sessions < 1], or as {!run}. *)

type trace
(** A completed evaluation together with its commit log: the evaluated
    order, the resulting schedule and, for every committed test in
    chronological order, its finish and its module's order position —
    what {!prefix_bound} reads.  Traces are immutable and safe to share
    across domains. *)

type workspace
(** A reusable evaluation arena: the order-independent engine state
    (endpoint resolution, availability array, release heap,
    reservation calendar, lookahead pair orders) of the last evaluation
    it served, reset in place instead of rebuilt when the next
    evaluation targets the same system, access table and
    configuration.  Search drivers evaluate thousands of orders
    against one configuration, where the per-run setup allocation
    otherwise dominates short runs.

    A workspace serves one evaluation at a time — keep one per search
    chain and never share it across domains. *)

val workspace : unit -> workspace
(** A fresh, empty workspace.  Passing it is always optional and never
    changes results, only allocation. *)

val run_traced :
  ?workspace:workspace -> ?access:Test_access.table -> System.t -> config ->
  trace
(** Like {!run}, but keep the evaluated order, configuration and
    commit log with the schedule: search drivers cache traces by order
    ({!Eval_cache}) and prune with {!prefix_bound}.  [workspace] reuses
    the engine state of the previous run it served.  Raises as
    {!run}. *)

val trace_schedule : trace -> Schedule.t
val trace_order : trace -> int array
(** A copy of the evaluated order. *)

val trace_length : trace -> int
(** Number of modules in the evaluated order. *)

val trace_system : trace -> System.t
(** The system the trace was evaluated on — after placement moves, a
    chain's current system lives in its current trace. *)

val trace_access : trace -> Test_access.table
(** The access table the trace was evaluated with. *)

val trace_lcp : trace -> int array -> int
(** Length of the longest common prefix of the traced order and the
    argument. *)

val trace_matches : trace -> system:System.t -> config -> bool
(** Whether the trace was produced for this system (physically) and an
    equal configuration, ignoring [order] — the cache-validity check
    of {!Eval_cache}. *)

val prefix_bound : trace -> prefix_len:int -> int
(** A lower bound on the makespan of {e every} order agreeing with the
    traced one on its first [prefix_len] positions: the largest finish
    among traced commits logged before the first commit at a position
    >= [prefix_len] (those commits happen identically in all such
    runs).  Nondecreasing in [prefix_len]; at [prefix_len = 0] it
    degenerates to the configured start time. *)

val pp_policy : policy Fmt.t

