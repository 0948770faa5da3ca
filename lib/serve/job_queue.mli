(** Bounded multi-producer / multi-consumer job queue.

    The service's admission point: connection threads push, worker
    domains pop.  The bound is the backpressure mechanism — a push
    against a full queue fails immediately (the caller answers the
    client with an overload error) instead of buffering unboundedly or
    blocking the connection reader. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 0].  A capacity of 0 makes
    every push fail — useful for testing the rejection path. *)

val push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed; the item was not
    enqueued. *)

val pop : 'a t -> 'a option
(** Block until an item is available and dequeue the oldest one
    (FIFO).  After {!close},
    remaining items are still drained in order; [None] means closed
    and empty — the consumer should exit. *)

val close : 'a t -> unit
(** Reject all subsequent pushes and wake blocked consumers once the
    queue drains.  Idempotent. *)

val depth : 'a t -> int
(** Current number of queued items. *)

val capacity : 'a t -> int
(** The bound the queue was created with — paired with {!depth} it
    makes queue pressure a reportable ratio. *)
