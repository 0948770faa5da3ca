(** Test schedules and their independent validator.

    A schedule assigns every module of the system a time window, a
    source, a sink and a NoC path footprint.  The validator re-checks
    every constraint from scratch — it shares no state with the
    schedulers, so scheduler bugs cannot hide. *)

type entry = {
  module_id : int;
  source : Resource.endpoint;
  sink : Resource.endpoint;
  start : int;
  finish : int;
  power : float;
  links : Nocplan_noc.Link.t list;
}

type t = private {
  entries : entry list;  (** sorted by [start], then [module_id] *)
  makespan : int;  (** max finish, 0 for an empty schedule *)
}

val of_entries : entry list -> t
(** Sorts entries and computes the makespan.  Structural sanity
    ([start <= finish], non-negative times) is enforced here;
    semantic checks are {!validate}'s job.
    @raise Invalid_argument on malformed intervals. *)

val entries_for : t -> int -> entry list
(** Entries testing the given module (a valid schedule has exactly
    one). *)

type violation =
  | Unknown_module of int
  | Module_outside_plan of int
      (** an entry tests a module of the system that the plan's module
          set leaves out (already tested, or abandoned) *)
  | Module_not_tested of int
  | Module_tested_twice of int
  | Patterns_not_covered of { module_id : int; applied : int; required : int }
      (** a module's sessions apply fewer patterns than its test set *)
  | Invalid_pair of entry
  | Endpoint_overlap of Resource.endpoint * entry * entry
  | Link_overlap of Nocplan_noc.Link.t * entry * entry
  | Module_overlap of entry * entry
      (** two intervals test the same module at the same time *)
  | Power_exceeded of { time : int; total : float; limit : float }
  | Processor_not_reusable of entry
  | Processor_used_before_tested of { user : entry; processor_id : int }
  | Wrong_cost of { entry : entry; expected_duration : int }
  | Wrong_links of entry
      (** the entry's links are not the channel set the cost model
          routes the test over *)
  | Insufficient_memory of entry
      (** the source processor cannot hold the test data the
          application needs for this core *)
  | Uses_failed_link of entry
      (** the paths of this test cross a channel marked faulty *)
  | Before_start_time of { entry : entry; start_time : int }
  | Link_not_ready of { entry : entry; link : Nocplan_noc.Link.t; ready : int }
      (** the entry starts on a channel before its self-test gate
          opens *)
  | Unfinished_at_start_time of { entry : entry; start_time : int }
      (** a test a replan keeps as done is still running when the
          replan starts *)

val validate :
  ?access:Test_access.table ->
  ?start_time:int ->
  ?modules:int list ->
  ?pretested:int list ->
  ?link_ready:(Nocplan_noc.Link.t * int) list ->
  System.t ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  t ->
  (unit, violation list) result
(** The one plan validator.  A plan is a set of time intervals, each
    occupying a source, a sink and a set of links, checked against the
    frontier it was planned under — the {!Scheduler.config} fields of
    the same names.  It checks that:
    - every module of [modules] (default: all of them) is tested
      exactly once and no other module is tested;
    - no entry starts before [start_time] (default 0), and none starts
      on a channel before that channel's [link_ready] time (default:
      no gates);
    - all pairs are valid and only the first [reuse] processors are
      used, each only once its own test has finished — or from
      [start_time] on if it is in [pretested] (default: none);
    - no endpoint, link or module carries two overlapping tests, and
      instantaneous power never exceeds the limit;
    - each entry's duration, power and links match the
      {!Test_access} cost model, its source can hold the test data and
      its paths avoid the system's failed links.

    [?access] built on XY routes is a pure cache: a
    {!Test_access.table} built for this system and application lets
    the cost/memory/route checks use O(1) lookups instead of
    recomputing wrapper designs per entry.  A table built for a
    different system or application is ignored, and any entry the
    table does not cover falls back to the direct computation, so the
    verdict never depends on the table.  A table built with a custom
    route ({!Test_access.table_routed}, e.g. fault-aware detours) is
    instead the cost model itself: the plan is priced along its paths
    and an entry it cannot price is a violation. *)

val validate_replan :
  ?access:Test_access.table ->
  ?abandoned:int list ->
  System.t ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  at:int ->
  kept:entry list ->
  entry list ->
  (unit, violation list) result
(** [validate_replan ~at ~kept replanned] checks a replan after an
    event at [at]: {!validate} of [replanned] (in any order) from
    [start_time = at], over the modules neither [kept] nor
    [abandoned] (default: none), with [kept]'s processors pretested.
    Each kept entry must also have finished by [at]
    ([Unfinished_at_start_time]), be kept once ([Module_tested_twice])
    and not be abandoned ([Module_outside_plan]). *)

val validate_sessions :
  System.t ->
  application:Nocplan_proc.Processor.application ->
  power_limit:float option ->
  reuse:int ->
  (entry * int) list ->
  (unit, violation list) result
(** {!validate} of preemptive sessions in any order, each carrying its
    own pattern count.  A module's sessions must apply its whole
    pattern set between them and never overlap, and a processor is
    ready once its last session ends.  A session is priced by
    {!Test_access.cost} with its pattern count on XY routes. *)

val pp_violation : violation Fmt.t
val pp : t Fmt.t

val resource_busy_time : t -> Resource.endpoint -> int
(** Total cycles the endpoint spends serving tests. *)
