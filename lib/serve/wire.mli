(** The mpsd wire protocol: length-prefixed binary frames.

    A frame is a 4-byte little-endian payload length followed by the
    payload.  Request payloads start with a fixed header —

    {v
    u8  opcode        u32 request id        u32 deadline (microseconds, 0 = none)
    v}

    — and reply payloads mirror it:

    {v
    u8  status        u32 request id        u32 store epoch (0 when not applicable)
    v}

    The deadline is a {e relative} budget: the server stamps it against
    its own clock when the frame has been fully received, so no clock
    synchronization between client and server is needed.  Integers are
    little-endian throughout.  Dimension vectors travel as flat [u16]
    arrays — a block dimension is bounded by the designer ranges, far
    below 65536, and the query path is hot enough that halving the
    frame bytes is measurable — while floorplan rectangles travel as
    [i32] (re-packed fallback coordinates are not range-bounded).

    This module owns the byte-level concerns only — framing with short
    read/write tolerance, per-read deadlines, bounds-checked field
    access — and is shared verbatim by server, client and the chaos
    tests, so an encoding bug cannot hide as a matching decode bug. *)

(** Typed request kinds (the [u8] opcode on the wire). *)
type opcode =
  | Ping
  | Open_circuit  (** body: string16 circuit name *)
  | Query_batch
      (** body: u16 handle, u32 count, count * 2*n_blocks u16 dims
          (w0 h0 w1 h1 ...) *)
  | Instantiate_batch  (** same body as {!Query_batch} *)
  | Stats  (** no body *)
  | Reload  (** body: string16 circuit name *)
  | Health  (** no body; reply carries a {!health} record *)
  | Shm_hello
      (** Negotiate the shared-memory fast path (DESIGN.md §13).  No
          body.  Reply body: u8 accepted; when 1, u32 ring words and a
          string16 path to the session's ring file for the client to
          map.  The socket carrying the hello stays open as the
          session's control channel and universal fallback. *)

(** Typed reply statuses (the [u8] status on the wire).  Anything but
    [Ok] / [Ok_degraded] carries a string16 diagnostic as its body. *)
type status =
  | Ok
  | Ok_degraded
      (** The answer is valid but served under the store's degradation
          policy (backup template / salvaged structure) — never
          silently wrong. *)
  | Err_timeout  (** The request's deadline expired server-side. *)
  | Err_overloaded  (** Shed by the admission or connection limiter. *)
  | Err_bad_request
  | Err_unknown_circuit
  | Err_store  (** The structure file is missing or beyond salvage. *)
  | Err_shutting_down  (** The daemon is draining. *)
  | Err_worker_lost
      (** The worker domain serving this connection crashed mid-request;
          the request was not (fully) served and is safe to retry on a
          fresh connection. *)

val opcode_to_int : opcode -> int
val opcode_of_int : int -> opcode option

val idempotent : opcode -> bool
(** Whether re-executing the request cannot change server state — the
    frames a client may blindly retry.  [Reload] (bumps the store
    epoch) and [Shm_hello] (allocates a ring session) are the opcodes
    that are not. *)

val status_to_int : status -> int
val status_of_int : int -> status option
val status_to_string : status -> string

val request_header_bytes : int
val reply_header_bytes : int

val max_frame_default : int
(** Default cap on a single frame's payload (32 MiB). *)

(** {1 Framing} *)

exception Closed
(** The peer closed the connection at a frame boundary. *)

exception Truncated of string
(** EOF mid-frame, or a field read past the payload end. *)

exception Timed_out
(** The [deadline] passed while waiting for bytes. *)

exception Too_large of int
(** Advertised payload length exceeds [max_bytes] (or is negative). *)

val recv_frame :
  Transport.t ->
  ?deadline:float ->
  max_bytes:int ->
  buf:Bytes.t ref ->
  Unix.file_descr ->
  int
(** Read one frame, growing [buf] as needed, and return the payload
    length ([buf] holds the payload at offset 0).  [deadline] is an
    absolute [Unix.gettimeofday] instant enforced with [select] before
    every read, so a stalled peer cannot hold the caller hostage.
    @raise Closed / Truncated / Timed_out / Too_large as documented,
    [Unix.Unix_error] on transport failure. *)

val send_frame : Transport.t -> Unix.file_descr -> Bytes.t -> payload_len:int -> unit
(** Send [buf.(4 .. 4+payload_len)] as one frame.  The caller builds
    the payload at offset {!frame_prefix_bytes}; this writes the length
    prefix in place and loops over short writes.
    @raise Unix.Unix_error on transport failure. *)

val frame_prefix_bytes : int
(** Bytes to reserve at the front of a send buffer (4). *)

(** {1 Bounds-checked field access}

    Getters take the payload length and raise {!Truncated} instead of
    [Invalid_argument] on overrun, so a malformed frame surfaces as a
    protocol error, never a crash. *)

val ensure : Bytes.t ref -> int -> unit
(** Grow the buffer (amortized doubling) to at least the given size. *)

val get_u8 : Bytes.t -> len:int -> int -> int
val get_u16 : Bytes.t -> len:int -> int -> int
val get_u32 : Bytes.t -> len:int -> int -> int
val get_i32 : Bytes.t -> len:int -> int -> int
val get_string16 : Bytes.t -> len:int -> int -> string * int
(** Returns the string and the offset just past it. *)

val set_u8 : Bytes.t -> int -> int -> unit
val set_u16 : Bytes.t -> int -> int -> unit
val set_u32 : Bytes.t -> int -> int -> unit
val set_i32 : Bytes.t -> int -> int -> unit

val put_string16 : Bytes.t ref -> int -> string -> int
(** Write a u16 length + bytes at the offset (growing the buffer);
    returns the offset just past it.  @raise Invalid_argument when the
    string exceeds 65535 bytes. *)

(** {1 The Health frame}

    Liveness/readiness probes travel on the same wire as queries.  The
    reply body is

    {v
    u8 ready   u8 draining   u8 breaker   u8 n_workers   u32 epoch
    n_workers * (u8 state, u16 restarts, u16 queue, u16 conns, u32 epoch)
    v}

    [ready] means the daemon can serve a query {e right now}: it is not
    draining and at least one worker is up.  [epoch] counts worker
    spawns since the daemon started, so a probe can tell two
    encounters with the "same" worker slot apart across a restart. *)

(** One worker slot's condition. *)
type worker_state =
  | W_up  (** Accepting and serving connections. *)
  | W_restarting  (** Crashed; a backoff-delayed respawn is pending. *)
  | W_disabled  (** Parked by the circuit breaker (degraded mode). *)

type worker_health = {
  w_state : worker_state;
  w_restarts : int;  (** Times this slot has been respawned. *)
  w_queue : int;  (** Connections queued, not yet picked up. *)
  w_conns : int;  (** Connections live on this worker. *)
  w_epoch : int;  (** Spawn generation of the current domain. *)
}

type health = {
  ready : bool;
  draining : bool;
  breaker : bool;  (** Restart storm tripped the breaker. *)
  epoch : int;  (** Total worker spawns since daemon start. *)
  workers : worker_health array;
}

val put_health : Bytes.t ref -> int -> health -> int
(** Encode at the offset (growing the buffer); returns the offset just
    past the record.  @raise Invalid_argument beyond 255 workers. *)

val get_health : Bytes.t -> len:int -> int -> health
(** Decode; @raise Truncated on a short or malformed body. *)

val health_to_string : health -> string
(** One line for logs and the CLI health check. *)
