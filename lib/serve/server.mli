(** mpsd: the multi-placement-structure serving daemon.

    One accept loop in front of N crash-isolated worker domains, and
    one {!Store.t} of compiled engines behind them.  The accept loop
    places each accepted socket on the least-loaded up worker's
    {e bounded} queue; each worker is an OCaml domain that serves every
    connection it picks up on a domain-local thread, so requests run in
    true parallel across workers while one worker's threads interleave
    cheaply.  The design goal is that no single client {e or worker} —
    slow, malicious, crashed, or unlucky — can take the daemon or its
    other clients down:

    - {b Deadlines.}  Every request may carry a microsecond budget;
      the server stamps it on receipt and re-checks it between batch
      chunks, replying [Err_timeout] instead of returning a stale
      answer late.
    - {b Load shedding.}  Admission is bounded three times: beyond
      [max_connections] a fresh connection is told [Err_overloaded]
      and closed instead of queueing, a full set of worker queues is
      backpressure (shed at the door), and beyond [max_inflight]
      concurrently-served requests each extra request is shed with
      [Err_overloaded] instead of growing an unbounded queue.
    - {b Crash isolation, supervised.}  A connection handler that dies
      is counted and contained.  A whole {e worker} that dies — an
      injected {!Worker_killed}, or any escape from its dispatch loop —
      kills that worker's {e generation}, never the daemon: its
      in-flight requests are answered with a typed [Err_worker_lost]
      (safe to retry), its connections are severed, and a supervision
      thread respawns the slot under exponential backoff.  A restart
      storm (more than [breaker_max_restarts] crashes inside
      [breaker_window] seconds) trips a circuit breaker that parks
      every slot but 0 — degraded single-worker mode — rather than
      burning the host on a crash loop.
    - {b Health.}  The [Health] frame (and {!health}) reports
      readiness, per-worker state, restart counts, queue depths and
      spawn epochs, so an orchestrator can probe liveness/readiness on
      the same wire it queries on.
    - {b Graceful drain.}  {!stop} (wired to SIGTERM by
      {!install_sigterm}) stops accepting, lets in-flight requests
      finish and answers anything arriving during the drain with
      [Err_shutting_down]; {!run} returns once the last connection is
      gone (or [drain_timeout] forces it) and every worker domain is
      joined.
    - {b Degradation.}  Store entries with audit findings serve from
      the backup template and every reply from a degraded entry is
      flagged, so a client is never silently handed a wrong answer.

    The transport is injectable ({!Transport.t}), and worker faults
    are injectable through [?fault], which is how the chaos suite
    drives short reads, stalls, disconnects, worker crashes and
    restart storms through the full stack deterministically. *)

exception Worker_killed
(** Raised inside a worker to simulate (or propagate) its death; the
    [?fault] hook raises it to drive the chaos scenarios. *)

type addr =
  | Unix_path of string
  | Tcp of string * int  (** host, port; port [0] picks a free port. *)

type config = {
  workers : int;  (** Worker domains behind the accept loop ([>= 1]). *)
  max_connections : int;  (** Accepted connections beyond this are shed. *)
  max_inflight : int;  (** Concurrently served requests beyond this are shed. *)
  idle_timeout : float;
      (** Seconds a connection may sit silent (or dribble a partial
          frame) before it is dropped.  A shm session counts its ring
          requests too, so this also reaps a wedged ring client. *)
  drain_timeout : float;  (** Seconds {!stop} waits before forcing. *)
  accept_retry_delay : float;  (** Back-off after a failed [accept]. *)
  restart_base_delay : float;  (** First respawn delay after a worker crash. *)
  restart_max_delay : float;  (** Backoff cap. *)
  breaker_window : float;  (** Sliding window for the restart storm count. *)
  breaker_max_restarts : int;
      (** Crashes inside the window beyond this trip the breaker. *)
}

val default_config : config
(** 1 worker, 64 connections, 32 in-flight, 30 s idle, 10 s drain,
    50 ms accept back-off; restarts 50 ms doubling to 2 s, breaker at 5
    crashes / 10 s.

    Fixed, not configured: 16-deep worker queues, 65536-query batches,
    {!Wire.max_frame_default} frames.  Shm sessions
    ({!Wire.Shm_hello}, DESIGN.md §13) are always offered, with
    64Ki-word rings in [<store dir>/.shm], which is created on demand
    and swept of stale ring files at startup; if that fails, every
    hello is declined and clients stay on the socket.  A session is
    reaped on the client's closed flag, its socket's EOF, the idle
    timeout, its worker's death or the drain. *)

(** Monotonic counters, readable at any time. *)
type stats = {
  accepted : int;
  shed_connections : int;
  requests_served : int;  (** Replies with status [Ok] / [Ok_degraded]. *)
  queries_served : int;  (** Individual queries inside served batches. *)
  degraded_served : int;  (** Requests answered [Ok_degraded]. *)
  timeouts : int;
  overloaded : int;
  bad_requests : int;
  store_errors : int;
  connection_crashes : int;
  accept_failures : int;
  dispatched : int;  (** Connections placed on a worker queue. *)
  worker_crashes : int;  (** Worker generations killed. *)
  worker_restarts : int;  (** Worker slots respawned. *)
  worker_lost_replies : int;  (** Requests answered [Err_worker_lost]. *)
  breaker_trips : int;
  shm_sessions : int;  (** Shm ring sessions negotiated. *)
  shm_served : int;  (** Requests that arrived over a ring. *)
  shm_reaped : int;  (** Ring sessions torn down (any cause). *)
  shm_doorbells : int;
      (** Doorbells rung: zero-length frames sent on a ring session's
          socket after a ring reply, because the client had parked. *)
}

type t

val create :
  ?config:config ->
  ?transport:Transport.t ->
  ?fault:(worker:int -> unit) ->
  ?shm_hooks:Shm.hooks ->
  store:Store.t ->
  addr ->
  t
(** Bind and listen immediately (so a caller may connect before
    {!run} is entered), but accept nothing until {!run}.  The worker
    domains and supervision thread spawn here.  Sets the process's
    SIGPIPE disposition to ignore — the daemon cannot operate under
    the default (a vanished peer would kill it on the next reply
    write).  [fault] is called before each request with the serving
    worker's slot — the chaos suite's hook; raising {!Worker_killed}
    from it crashes that worker after the in-flight request is
    answered [Err_worker_lost].  [shm_hooks] injects ring-level faults
    into every session this daemon creates
    ({!Mps_fault.Fault.shm_hooks_of_plan} builds one from a plan).
    Binding retries [EADDRINUSE] briefly so a restart under load
    cannot lose the bind race.
    @raise Invalid_argument on [workers < 1].
    @raise Unix.Unix_error when the address cannot be bound. *)

val bound_addr : t -> addr
(** The address actually bound — [Tcp] with the resolved port when
    port [0] was requested. *)

val store : t -> Store.t
val stats : t -> stats

val health : t -> Wire.health
(** In-process health snapshot (the [Health] frame serves the same):
    ready means not draining and at least one worker up. *)

val kill_worker : t -> int -> bool
(** Chaos surface: simulate a hard crash of one worker slot — its
    generation dies exactly as if a handler had raised
    {!Worker_killed}.  [false] when the slot is out of range or not
    currently up. *)

val run : t -> unit
(** Serve until {!stop} or {!abort}, then drain, join every worker
    domain and release every socket.  Never raises: all
    per-connection and per-worker failures are contained and counted. *)

val start : t -> Thread.t
(** {!run} on a background thread (tests, benches). *)

val stop : t -> unit
(** Begin a graceful drain.  Safe from any thread and from a signal
    handler; idempotent. *)

val abort : t -> unit
(** Simulated [kill -9]: hard-close the listener and every connection
    with no drain and no farewell replies.  What a real crash looks
    like to clients — the chaos suite's crash scenarios use it. *)

val install_sigterm : t -> unit
(** Route SIGTERM (and SIGINT) to {!stop} for clean drain-on-SIGTERM. *)
