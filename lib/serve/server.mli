(** Transports for the planning service: stdio, Unix-domain socket and
    TCP.

    All speak the JSON-lines protocol of {!Protocol}: one request per
    line in, one response per line out.  Responses from the worker pool
    are interleaved as they complete, so they may arrive out of request
    order — clients correlate by [id].  A service can be behind any
    number of listeners at once (the CLI runs a Unix socket and an
    optional TCP port against the same worker pool), each with its own
    access mode.

    {b Read-only listeners.}  A listener created with [~read_only:true]
    answers [metrics] and [prometheus] but refuses planning ops with a
    [read_only] error — the shape of a scrape endpoint that can be
    exposed beyond the blast radius of the read-write socket. *)

val serve_stdio : Service.t -> unit
(** Read request lines from [stdin] until EOF, writing responses to
    [stdout] (each followed by a newline, flushed).  Drains the
    service before returning so no admitted request is dropped. *)

type listener

val listen : ?read_only:bool -> Service.t -> path:string -> listener
(** Bind and listen on a Unix-domain socket at [path] (any stale
    socket file there is removed first), accepting connections on a
    background thread.  Each connection is handled by its own thread
    speaking the same line protocol; a client disconnecting mid-burst
    only loses its own responses.  When a client shuts down its write
    side, the server answers every line that client sent, then closes
    the connection: it waits for that connection's outstanding
    responses only, so other clients' long jobs never hold a finished
    client's socket and thread open.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val listen_tcp :
  ?read_only:bool -> Service.t -> host:string -> port:int -> listener
(** Bind and listen on [host:port] ([host] a dotted/IPv6 address
    literal; [port = 0] lets the kernel pick — read it back with
    {!port}).  Same per-connection handling as {!listen}, and every
    accepted connection gets [TCP_NODELAY]: each response is one
    buffered write, and with Nagle's algorithm on, a response written
    while the previous one is unacknowledged would wait for the
    client's delayed ACK (about 40 ms on Linux).
    @raise Invalid_argument if [host] is not an address literal.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val port : listener -> int option
(** The TCP listener's bound port; [None] for a Unix-domain
    listener. *)

val read_only : listener -> bool

val stop : listener -> unit
(** Stop accepting: shut down the listening socket (waking the accept
    loop) and, for a Unix-domain listener, remove the socket file.
    Established connections are left to finish their in-flight lines.
    The socket descriptor itself is closed by {!wait}, once the accept
    loop has exited.  Idempotent. *)

val wait : listener -> unit
(** Block until the accept loop has exited (after {!stop}, or a fatal
    accept error), then close the listening descriptor. *)
