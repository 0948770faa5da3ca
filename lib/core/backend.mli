(** First-class planning backends.

    A backend is a named strategy producing a complete {!Schedule.t}
    from a {!System.t} and a {!Scheduler.config}.  Two ship built in:

    - ["greedy"] — the paper's event-driven list scheduler
      ({!Scheduler.run}), honoring every configuration field including
      [policy] and [order];
    - ["binpack"] — the rectangle bin-packing formulation
      ({!Binpack.schedule}), which ignores [policy] and [order]
      (its {!capabilities} record says so).

    Each backend's declared {!capabilities} let callers (the CLI, the
    planning service) warn when a requested knob will be ignored
    instead of silently dropping it.  {!solve} wraps every invocation
    in a [backend.solve] trace span tagged with the backend name, so
    traces attribute planning time per strategy.

    {!race} runs several backends on the same instance concurrently
    (one OCaml domain each), validates every produced schedule through
    the independent {!Schedule.validate}, and returns the best valid
    result — ties broken by backend list order, so with the default
    list a race never returns a worse test time than greedy alone. *)

type capabilities = {
  honors_order : bool;
      (** the backend visits cores in [config.order] when given *)
  honors_policy : bool;  (** the backend distinguishes [config.policy] *)
}

type t = {
  name : string;
  capabilities : capabilities;
  solve :
    ?access:Test_access.table -> System.t -> Scheduler.config -> Schedule.t;
      (** Raises {!Scheduler.Unschedulable} / [Invalid_argument] under
          the same contract as {!Scheduler.run}.  Call through
          {!val-solve} to get the trace span. *)
}

val greedy : t
(** The event-driven list scheduler; honors order and policy. *)

val binpack : t
(** The shelf-packing backend; ignores order and policy. *)

val builtins : t list
(** [[greedy; binpack]] — greedy first, which is also the {!race}
    tie-break order. *)

val names : unit -> string list
(** Registered backend names, registration order. *)

val find : string -> t option
(** Look a backend up by name. *)

val register : t -> unit
(** Add a backend to the registry (future formulations: preemptive
    splitting, precomputed-pattern delivery).
    @raise Invalid_argument if the name is already taken. *)

val solve :
  t -> ?access:Test_access.table -> System.t -> Scheduler.config -> Schedule.t
(** Run the backend inside a [backend.solve] span carrying
    [("backend", String name)].  Raises as the backend does. *)

(** {1 Racing} *)

type attempt = {
  backend : string;
  outcome : (Schedule.t, string) result;
      (** the schedule, or the message of the exception the backend
          raised ({!Scheduler.Unschedulable} and [Invalid_argument]
          are caught; anything else propagates) *)
  valid : bool;
      (** [outcome] is [Ok] and passed the independent
          {!Schedule.validate} against the configuration's frontier
          (always [false] for [Error]) *)
  latency_s : float;  (** wall-clock seconds this backend spent *)
}

type outcome = {
  winner : string;  (** name of the backend whose schedule was kept *)
  schedule : Schedule.t;
  attempts : attempt list;  (** in backend list order *)
}

val race :
  ?clock:(unit -> float) ->
  ?backends:t list ->
  ?access:Test_access.table ->
  System.t ->
  Scheduler.config ->
  outcome
(** Run every backend on its own domain, keep the valid schedule with
    the smallest makespan (ties: earliest backend in the list).  Every
    returned schedule is re-checked with {!Schedule.validate} against
    the configuration's own frontier — its [start_time], [modules],
    [pretested] processors and [link_ready] gates — so a partial
    replan is checked like a full plan.

    [clock] times each attempt ([Sys.time] by default — callers with
    access to [Unix.gettimeofday] should pass it; this library does
    not link unix).  [backends] defaults to {!builtins}.

    @raise Scheduler.Unschedulable when no backend produced a valid
    schedule (the message aggregates the per-backend failures).
    @raise Invalid_argument if [backends] is empty. *)
