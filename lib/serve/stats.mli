(** Service observability: request counters and latency quantiles.

    Every response the service emits is recorded under one of four
    outcomes; served requests additionally contribute their
    end-to-end latency (enqueue to response) to a bounded reservoir of
    the most recent observations, from which the snapshot computes
    quantiles.  A snapshot is what the protocol's [metrics] request
    returns, combined with the cache and queue gauges the service
    reads at snapshot time. *)

type t

val create : unit -> t

type outcome =
  | Served  (** a successful response *)
  | Failed  (** parse, unschedulable or internal error *)
  | Rejected  (** bounced by queue backpressure *)
  | Timed_out  (** deadline exceeded *)

val record : t -> outcome -> latency_ms:float -> unit
(** Thread-safe.  The latency feeds the quantile reservoir only for
    [Served]. *)

val record_inline : t -> latency_ms:float -> unit
(** Count an inline-served observability request ([metrics],
    [prometheus]) as [Served], feeding its latency into the same
    reservoir as queued work: the quantiles describe every response
    the server produced, not just planning traffic. *)

val record_coalesced : t -> op:string -> unit
(** Count one request (by op label) that attached to another
    request's in-flight solve instead of getting its own. *)

val record_backend : t -> backend:string -> latency_ms:float -> unit
(** Count one planning-backend solve attempt (by backend name) and add
    its wall-clock latency to that backend's running total.  A [race]
    request records one attempt per racing backend. *)

val record_backend_win : t -> backend:string -> unit
(** Count one plan actually returned to a client as produced by this
    backend — for a race, the winner only. *)

val record_fault : t -> events:int -> abandoned:int -> unit
(** Count one [replan] request that reached fault recovery: [events]
    fault targets were injected and [abandoned] modules were left
    without a test path. *)

val record_warm : t -> hit:bool -> unit
(** Count one [anneal] that looked for a warm start: [hit] iff the
    search adopted a warm trace.  Requests with ["warm": false] do not
    look and are not counted. *)

type quantiles = {
  count : int;  (** observations currently in the reservoir *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

type snapshot = {
  served : int;
  failed : int;
  rejected : int;
  timeouts : int;
  coalesced : (string * int) list;
      (** per-op count of requests served by another request's solve,
          sorted by op label *)
  backend_solves : (string * int) list;
      (** per-backend solve attempts, sorted by backend name *)
  backend_wins : (string * int) list;
      (** per-backend plans returned to clients (race: winners only) *)
  backend_latency_ms : (string * float) list;
      (** per-backend total solve wall-clock, milliseconds *)
  fault_events : int;  (** fault targets handled by [replan] requests *)
  fault_replans : int;  (** [replan] requests that reached recovery *)
  fault_abandoned : int;  (** modules abandoned across them *)
  cache_hits : int;
  cache_misses : int;
  warm_hits : int;  (** anneal searches that adopted a warm trace *)
  warm_misses : int;  (** anneal searches that looked and started cold *)
  shared_cache_hits : int;
      (** solves that resumed a resident shared evaluation cache *)
  shared_cache_misses : int;  (** solves that built a fresh one *)
  queue_depth : int;
  queue_capacity : int;
  workers : int;
  latency : quantiles option;  (** [None] until a request is served *)
}

val snapshot :
  t ->
  cache_hits:int ->
  cache_misses:int ->
  shared_cache_hits:int ->
  shared_cache_misses:int ->
  queue_depth:int ->
  queue_capacity:int ->
  workers:int ->
  snapshot

val snapshot_json : snapshot -> Json.t
