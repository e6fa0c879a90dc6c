(** Client for the mpsd wire protocol: deadline-aware retry and
    request pipelining.

    A client owns one connection (lazily opened, transparently
    re-opened after a failure) plus the per-connection circuit handles
    the server hands out.  Every call goes through one send path: it
    issues up to a window of request frames and pumps replies, matched
    to requests by id through an in-flight table, in whatever order
    the server produces them.  Single calls use a window of one;
    {!query_ids_pipelined} widens it so several frames are on the wire
    at once.

    Any transport-level failure — EOF, a torn frame, a reply for an
    unknown request — {e poisons} the connection: it is closed, the
    handle table dropped, and every in-flight request failed, so the
    next call starts from a clean connect + re-open.  That makes every
    operation safe to retry, which {!with_retry} does with exponential
    backoff and deterministic jitter — but only when the last frame
    sent was {e idempotent} ({!Wire.idempotent}): a [Reload] is never
    blindly re-issued, and a successful-but-degraded answer is an
    answer, never retried.

    Deadline semantics: [?budget] (seconds) bounds one attempt
    end-to-end on the client side {e and} travels to the server as the
    request's microsecond budget, so both sides give up around the
    same time — the server with a typed [Err_timeout] reply, the
    client by poisoning the connection and reporting {!Timed_out}
    (whichever happens first). *)

open Mps_geometry

type t

(** Why a call failed.  [Refused] carries a typed server reply —
    the request was received and answered, just not with data.
    [Timed_out] and [Disconnected] are client-side: the attempt died
    somewhere in the transport and the connection was poisoned. *)
type error =
  | Refused of Wire.status * string
  | Timed_out
  | Disconnected of string

val error_to_string : error -> string

val retryable : error -> bool
(** Worth retrying: [Timed_out], [Disconnected], and refusals that are
    about the moment rather than the request ([Err_overloaded],
    [Err_timeout], [Err_shutting_down], [Err_worker_lost]).
    [Err_bad_request], [Err_unknown_circuit] and [Err_store] will fail
    the same way again and are not retryable. *)

(** Reply metadata: the answering entry's generation epoch and whether
    the entry was degraded (backup-template answers). *)
type meta = { epoch : int; degraded : bool }

(** Client-side counters: how much work the resilience machinery did. *)
type stats = {
  connects : int;  (** Sockets opened (reconnects included). *)
  retries : int;  (** Re-issues by {!with_retry}. *)
  pipelined : int;  (** Frames sent while another was already in flight. *)
  ring_requests : int;  (** Requests routed over the shm ring. *)
}

val connect : ?transport:Transport.t -> ?shm:bool -> Server.addr -> t
(** Create a client for the address.  No I/O happens until the first
    call (so this never fails).  Reply frames are capped at
    {!Wire.max_frame_default}.

    [~shm:true] asks for the shared-memory fast path (DESIGN.md §13)
    on every fresh connection: one [Shm_hello] roundtrip, then the
    client maps the per-session ring file the server created and sends
    every batch request whose frame fits the ring through it — no
    syscall per request.  A ring reply is byte for byte the socket
    reply, and a reply too big for the ring comes back on the socket.
    Only sensible for a client co-located with the daemon (the ring
    file must be the same file on both sides).  The socket stays open
    as the control channel; batches that do not fit the ring, and
    every non-batch request, use it, and its EOF ends every ring wait,
    budget or not: a dead daemon is a typed [Disconnected].  A declined
    negotiation or a dead ring falls back to the socket; after 3
    failures the client stops asking. *)

val ring_active : t -> bool
(** The current connection carries a negotiated shm ring. *)

val close : t -> unit
(** Close the underlying connection (idempotent; the client may still
    be used afterwards — the next call reconnects). *)

val stats : t -> stats

val ping : ?budget:float -> t -> (meta, error) result

val health : ?budget:float -> t -> (Wire.health, error) result
(** The daemon's liveness/readiness snapshot.  Note that a daemon
    whose workers are all down cannot serve even this — the resulting
    [Refused]/[Disconnected] {e is} the not-ready signal, exactly as
    an orchestrator's probe would see it. *)

val query_ids :
  ?budget:float -> t -> circuit:string -> Dims.t array -> (int array * meta, error) result
(** Placement ids for a batch of dimension vectors ([>= 0] stored
    index, [-1] fallback-to-backup, [-2] out-of-domain), opening the
    circuit on this connection first when needed.  All vectors must
    have the circuit's block count. *)

val query_ids_pipelined :
  ?budget:float ->
  ?depth:int ->
  t ->
  circuit:string ->
  Dims.t array array ->
  (int array * meta, error) result array
(** {!query_ids} for several batches with up to [depth] (default 8)
    request frames in flight at once — one connection, no per-request
    round-trip stall.  Results arrive positionally.  [?budget] covers
    the whole call.  A connection failure fails the in-flight and
    unsent tail; completed results are kept. *)

val instantiate :
  ?budget:float ->
  t ->
  circuit:string ->
  Dims.t array ->
  (Rect.t array array * meta, error) result
(** Instantiated floorplans (one rect per block) for a batch of
    dimension vectors. *)

val reload : ?budget:float -> t -> circuit:string -> (meta, error) result
(** Ask the server to reload the circuit from disk (epoch bump).
    Deliberately {e not} idempotent: {!with_retry} will not re-issue
    it. *)

val server_stats : ?budget:float -> t -> (string * meta, error) result
(** The server's human-readable stats/store report. *)

val with_retry :
  ?attempts:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  rng:Mps_rng.Rng.t ->
  t ->
  (unit -> ('a, error) result) ->
  ('a, error) result
(** Run [f], retrying {!retryable} errors up to [attempts] times
    (default 6) with exponential backoff from [base_delay] (default
    10 ms) capped at [max_delay] (default 1 s), each delay jittered to
    [50..100]% by draws from [rng] so synchronized clients do not
    stampede a recovering server.  Retries only when the last frame
    [t] sent was idempotent ([Reload] is not), and never after a
    success — degraded or not.  Each retry is counted in {!stats}.
    Returns the first success or the last error. *)
