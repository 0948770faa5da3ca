(** The planning service's versioned JSON-lines protocol.

    One request per line, one response per line.  Responses carry the
    request's [id] and may arrive out of order (requests are pipelined
    through the worker pool), so clients correlate by [id].

    Request fields (protocol version 1):
    {v
    { "v": 1,                  // optional, defaults to 1
      "id": "r1",              // echoed verbatim (any JSON value)
      "op": "plan",            // plan | sweep | validate | anneal
                               //   | replan | preempt
                               //   | metrics | prometheus
      "system": "d695_leon",   // builtin system or corpus benchmark
      "soc": "Soc x\n...",     // inline description, instead of system
      "width": 4, "height": 4, // mesh dims (non-builtin systems)
      "leons": 2, "plasmas": 0,// processors to embed (default 0)
      "policy": "greedy",      // or "lookahead"
      "application": "bist",   // or "decompress"
      "backend": "race",       // plan/validate: greedy | binpack | race

      "power_pct": 25.0,       // power limit, % of total core power
      "reuse": 3,              // all planning ops but sweep
                               //   (default: all)
      "max_reuse": 6,          // sweep (default: all)
      "iterations": 250,       // anneal (default 400)
      "seed": 90,              // anneal RNG seed (default 0x5A)
      "chains": 4,             // anneal tempering chains (default 1)
      "placement_moves": 0.3,  // anneal tile-swap move ratio (default 0)
      "warm": false,           // anneal: opt out of warm starts
      "max_sessions": 3,       // preempt: session split bound (>= 1)
      "at": 5000,              // replan: fault event instant (>= 0)
      "failed_routers": ["1,1"],          // replan: dead routers
      "failed_links": ["0,0>0,1",         // replan: dead channels and
                       "inject:2,0"],     //   local ports
      "deadline_ms": 5000 }    // per-request deadline
    v}

    Success response:
    {v
    { "v": 1, "id": "r1", "ok": true, "op": "plan",
      "cache": "hit",          // access-table cache: hit | miss
      "backend": "greedy",     // plan/validate: solver that produced
                               //   the plan (race: the winner)
      "elapsed_ms": 12.5, "result": { ... } }
    v}

    A coalesced follower additionally carries ["coalesced": true].
    The marker describes scheduling, not the verdict — the [result]
    payload is byte-identical to sequential service.

    {b Backends.}  [plan] and [validate] accept a ["backend"] field
    naming a planning backend ([greedy] — the default, [binpack] — the
    rectangle bin-packing formulation, or [race] — both builtin
    backends run in sequence in the caller's domain on one shared
    table, and the best valid plan wins, never worse than greedy
    alone).  Every plan/validate response — coalesced ones included —
    names the solver that produced its plan in ["backend"]; per-backend
    solve counts, win counts and total latency appear in the [metrics]
    snapshot ([backend_solves], [backend_wins], [backend_latency_ms])
    and as [nocplan_backend_*] Prometheus series.  The name is resolved when
    the request is parsed: an unknown one, or [backend] on any other
    op, is refused as [invalid].

    Error response:
    {v
    { "v": 1, "id": "r1", "ok": false,
      "error": { "kind": "timeout", "message": "..." } }
    v}
    The [id] is echoed on errors too; it is [null] only when the line
    is not a JSON object.

    Error kinds: [parse] (malformed request or system description),
    [invalid] (a well-formed request carrying a field not in {!fields}
    or a field twice, [width] without [height] or the reverse, a mesh
    field on a builtin system, or an out-of-domain value:
    [iterations], [chains] or [max_sessions] below 1, a negative
    [reuse], [max_reuse] or [at], [power_pct <= 0], [placement_moves]
    outside [0, 1], [width] or [height] below 1, negative [leons] or
    [plasmas], a [width * height] mesh above {!max_mesh_tiles}, a
    [leons] or [plasmas] count whose access table would exceed
    {!max_table_cells} (refused before any processor is built), a
    [reuse] above the system's processor count on an op that reads it,
    an unknown [backend], a malformed or out-of-mesh fault target),
    [unschedulable] (the planner proved the instance infeasible),
    [timeout] (deadline exceeded), [overload] (queue full — retry
    later), [read_only] (a planning op sent to a read-only listener),
    [internal].

    {b Fault ops.}  [replan] schedules the spec fault-free, then
    replays the given fault event against it at instant [at]: routers
    in [failed_routers] ("x,y") and channels in [failed_links]
    ("x1,y1>x2,y2" directed, "inject:x,y" / "eject:x,y" local ports)
    die; finished tests are kept, in-flight ones voided, the remainder
    re-planned over fault-aware detour routes, and modules left
    without any healthy test path are abandoned.  The result reports
    the kept/voided/replanned/abandoned split, the availability (the
    fraction of modules still testable) and an independent validation
    verdict.  [preempt] plans with the preemptive scheduler, splitting
    each core's pattern set into at most [max_sessions] sessions.

    {b Coalescing.}  Identical planning requests in flight at the same
    time are solved once: later arrivals attach to the running job and
    receive its verdict under their own [id] and [elapsed_ms], marked
    with ["coalesced": true].  Identity is the {!coalesce_key} digest —
    every member the client sent, not the [id] — and requests carrying a
    [deadline_ms] are exempt (they always get their own job).

    {b Observability ops.}  [metrics] and [prometheus] are answered
    inline by the admission thread (never queued), so they cannot be
    starved by planning traffic.  [metrics] returns the stats
    snapshot as JSON; inline-served requests feed the same latency
    reservoir as queued ones, so [latency_ms] reflects everything the
    server answered (quantiles of zero samples are still never
    fabricated — the field is [null] until the first response).
    [prometheus] returns the same data (plus per-worker utilization)
    as a Prometheus text-exposition document in the [result] string,
    ready for a scrape pipeline. *)

val version : int

val max_mesh_tiles : int
(** The largest mesh a request may ask for, in tiles: 4096.  A request
    whose [width * height] exceeds it is refused as [invalid] before any
    system is built (the largest builtin mesh is 4x4, corpus meshes are
    smaller still). *)

val max_table_cells : int
(** The largest access table a request may call for, in cells:
    1,000,000 ({!Sysbuild.max_table_cells}).  A system assembled from
    a corpus benchmark or an inline [soc] has
    [(modules + leons + plasmas) * (2 + leons + plasmas)^2] cells, and
    a cell costs about 9 live words, so the cap holds one table to
    about 75 MB; the table cache keeps up to 8.  A request above it is
    refused as [invalid] naming [leons] or [plasmas], before any
    processor, mesh or table is built: ["leons": 1000000] is answered
    at once.  d695 with 60 Leons needs 269,080 cells and is accepted;
    roughly 95 Leons is the most a small SoC takes. *)

val fields : string list
(** Every request field name, ["v"] and ["id"] included.  A request
    member not on this list, or a name sent twice, is refused as
    [invalid] naming it.  Every field is type- and domain-checked on
    every op, also where the op does not read it. *)

(** A [backend] field, resolved against {!Nocplan_core.Backend.builtins}. *)
type backend = Solo of Nocplan_core.Backend.t | Race

(** [anneal]'s search parameters, defaults resolved. *)
type anneal = {
  iterations : int;  (** per-chain iteration budget (default 400) *)
  seed : int;  (** RNG seed (default 0x5A) *)
  chains : int;  (** tempering chains (default 1) *)
  placement_moves : float;
      (** probability in [0, 1] that a move swaps two module tiles
          instead of two order positions (default 0: order-only) *)
  warm : bool;
      (** [false] searches cold, ignoring the best trace the server
          keeps for the instance (the result is still offered for later
          requests).  Default: warm. *)
}

(** [replan]'s fault event. *)
type fault = {
  at : int;  (** event instant (default 0) *)
  failed_routers : Nocplan_noc.Coord.t list;  (** sorted, deduplicated *)
  failed_links : Nocplan_noc.Link.t list;  (** sorted, deduplicated *)
}

(** An op that plans at one reuse count, with the fields only it reads. *)
type run =
  | Plan of backend  (** default: greedy *)
  | Validate of backend
  | Anneal of anneal
  | Replan of fault
  | Preempt of int  (** per-core session bound [max_sessions] (default 3) *)

type work =
  | Sweep of int option  (** [max_reuse]; [None]: every processor *)
  | Run of int option * run  (** [reuse] ([None]: every processor) *)

type planning = {
  spec : Sysbuild.spec;
  policy : Nocplan_core.Scheduler.policy;
  application : Nocplan_proc.Processor.application;
  power_pct : float option;
  work : work;
}

type op = Metrics | Prometheus | Planning of planning

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  op : op;
  deadline_ms : float option;
  members : (string * Json.t) list;
      (** every member of the line but [id], sorted by name — what
          {!coalesce_key} digests *)
}

type error_kind =
  | Parse
  | Invalid
      (** well-formed request carrying an out-of-domain value (the
          list is in the module's error-kind paragraph) *)
  | Unschedulable
  | Timeout
  | Overload
  | Readonly
  | Internal

val parse_request :
  string -> (request, (Json.t * error_kind) * string) result
(** Parse and validate one request line.  An unsupported ["v"] is a
    [Parse] error; a member not in {!fields}, or one sent twice, is
    [Invalid].  Structural problems are [Parse] errors; out-of-domain
    values are [Invalid].  An error carries the
    request's [id] for the error envelope: [Null] only when the line
    is not a JSON object (or has no [id]). *)

val coalesce_key : request -> string option
(** The request's coalescing signature: a digest of its
    {!request.members} — every member the client sent but [id], in name
    order, floats rendered exactly.  Two requests with equal keys are
    the same request, so one solve can serve both.  [None] for observability ops and for requests carrying a
    [deadline_ms]. *)

val ok_response :
  id:Json.t ->
  op:string ->
  cache:[ `Hit | `Miss | `None ] ->
  ?coalesced:bool ->
  ?backend:string ->
  elapsed_ms:float ->
  Json.t ->
  string list
(** Render a success response line (no trailing newline) as chunks
    whose concatenation is the line.  A [Json.Raw] result is passed
    through as its own chunk, so a multi-megabyte payload is never
    copied into an envelope-sized buffer; transports write the chunks
    back-to-back.  [op] is the {!op_label}.  [backend] names the solver whose plan the response
    carries (set for every plan/validate response, coalesced ones
    included). *)

val error_response : id:Json.t -> error_kind -> string -> string
val op_label : op -> string
val error_kind_label : error_kind -> string
