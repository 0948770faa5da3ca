(** Time-interval reservation calendar for NoC channels.

    Test streams occupy their XY paths for the whole duration of a
    test (circuit-style occupancy: the stream of pattern packets is
    continuous).  The scheduler uses this calendar to decide whether a
    candidate (source, CUT, sink) assignment is conflict-free and to
    book it.  Intervals are half-open [[start, finish)].

    Channels are identified by dense nonnegative integers assigned by
    the caller (the access table numbers each distinct {!Link.t} it
    routes over), so every probe is an array index — the calendar sits
    inside the scheduler's innermost candidate loop, where a keyed
    lookup per link dominated the evaluation cost.  Never-booked
    channels are implicitly free, whatever their id. *)

type t

type booking = {
  owner : int;  (** scheduler-chosen tag, e.g. the CUT's module id *)
  start : int;
  finish : int;
}

val create : unit -> t

val clear : t -> unit
(** Drop every booking but keep the per-channel storage, so the next
    run re-books without allocating.  Callers that reuse one calendar
    across runs (the scheduler's evaluation arena) depend on this
    being O(channels touched so far). *)

val is_free : t -> int array -> start:int -> finish:int -> bool
(** No booked interval on any of the channels overlaps
    [[start, finish)].  An empty interval ([start >= finish]) is
    always free.  When a {!Nocplan_obs.Trace} collector is installed
    at the [Decisions] level, a failed probe emits one
    [noc.reservation.conflict] instant naming the blocking booking —
    with no collector the probe is branch-free beyond one atomic
    load. *)

val conflicts : t -> int array -> start:int -> finish:int ->
  (int * booking) list
(** All bookings overlapping the window, for diagnostics. *)

val reserve : t -> owner:int -> int array -> start:int -> finish:int -> unit
(** Book the channels for the window.
    @raise Invalid_argument if [start < 0] or [finish < start], if a
    channel id is negative, or if the window is not free (callers must
    check first — booking a conflicting window is a scheduler bug). *)

val next_free_time : t -> int array -> from:int -> duration:int -> int
(** Earliest [t >= from] such that [[t, t + duration)] is free on all
    channels.  With a finite number of bookings this always exists. *)

val bookings : t -> int -> booking list
(** Bookings on one channel, sorted by start time. *)
