(** The shared-memory fast path for co-located clients (DESIGN.md §13).

    One session is one file-backed mapping (under the daemon's session
    directory) holding a pair of single-producer/single-consumer
    rings: client→server for requests and server→client for replies.
    Both sides map the same file [MAP_SHARED], so a frame moves by one
    memcpy out of the ring — no syscall on the hot path.  The session
    is negotiated over the socket ({!Wire.Shm_hello}); the socket
    stays open as the control channel and the universal fallback.

    Frames are self-verifying: a length word, a CRC32 over the stored
    words, the payload (one 8-byte little-endian word each, with a
    sidecar carrying each word's bit 63 past the int-bigarray lens).
    The CRC doubles as the publication protocol — OCaml exposes no
    user-level fences, so a reader that races a writer retries the
    checksum briefly; a {e persistent} mismatch is a torn write and
    raises {!Dead}, never returns wrong bytes.

    Liveness is the control socket: the kernel closes a kill -9'd
    peer's socket, and every wait that can outlast a peer watches it —
    {!await} and a {!send} given [~control] block in [select] on it, so
    its EOF ends the wait with {!Dead}.  No wait is a futex, so the
    survivor is never stuck.  Frame payloads are capped at half a ring
    ({!tx_fits}); anything larger stays on the socket.

    Waking: {!send} and {!recv} back off spin, yield,
    then 200 us sleeps.  [Thread.yield] lets only another thread of the
    same domain run (it never calls sched_yield), so toward the peer
    process a yield is one more spin.  The serving loops wait in {!await}
    instead, which {!park}s, re-checks the ring, and blocks at most
    200 us in [select] on the control socket; a producer follows each
    publish with {!ring_doorbell}, a zero-length frame on that socket
    when the peer has parked.  Without fences a doorbell can be lost;
    the 200 us timeout is the backstop, never a hang or a wrong
    answer.  A side that has just published a request calls
    {!expect_reply}, so its next {!await} polls for the reply instead
    of parking. *)

(** What a fault hook may do to the frame being published (the chaos
    suite's shm failure modes; see {!Mps_fault.Fault.shm_hooks_of_plan}). *)
type publish_fault =
  | Publish_torn
      (** Damage one stored word {e after} the CRC was computed — the
          consumer sees a persistent checksum mismatch, exactly as if
          the producer died mid-frame. *)
  | Publish_corrupt of int * int
      (** [(seed, flips)]: flip bits across the stored frame words
          after the CRC. *)
  | Publish_stall of float  (** Sleep this long before publishing. *)

type hooks = {
  on_publish : unit -> publish_fault option;
      (** Consulted once per {!send}, after the frame is written but
          before the tail moves. *)
}

val no_hooks : hooks

exception Dead of string
(** The session is unusable — peer closed or its control socket hung
    up, a torn or corrupted frame, a malformed ring file.  The caller
    falls back to the socket; the server reaps the session. *)

exception Timeout
(** The caller's deadline passed while waiting for ring space or data. *)

type t

val version : int
(** The ring version this build writes and attaches (4: ring replies
    are byte for byte the socket's, and the header carries no liveness
    stamps).  A client sends it in its [Shm_hello]; the daemon declines
    any other. *)

val create : ?hooks:hooks -> ?ring_words:int -> path:string -> unit -> t
(** Server side: create (or truncate) the ring file at [path] with
    [ring_words] data words per direction (default 64Ki ≈ 512 KiB per
    ring) and initialize the header.  @raise Sys_error when the file
    cannot be created or mapped, [Invalid_argument] when [ring_words]
    is below 256. *)

val attach : ?hooks:hooks -> path:string -> unit -> t
(** Client side: map an existing ring file and validate its geometry.
    @raise Dead when the file is missing, runt, malformed, or of
    another ring version (a version-1 file has no parked words). *)

val path : t -> string
val ring_words_of_t : t -> int
  [@@ocaml.doc "Data words per direction (for the hello reply)."]

val frame_words : len:int -> int
(** Ring words a payload of [len] bytes occupies (length + CRC +
    payload + bit-63 sidecar). *)

val tx_fits : t -> len:int -> bool
(** The payload can ever be sent on this side's transmit ring (at most
    half the ring).  Callers route larger frames over the socket. *)

val send :
  ?deadline:float -> ?control:Unix.file_descr -> t -> Bytes.t -> off:int -> len:int -> unit
(** Publish [len] bytes at [off] as one frame, blocking (spin, yield,
    then sleep) while the ring is full.  [deadline] is an absolute
    instant.  [control] is the session's socket: the sleep becomes a
    200 us [select] on it, and its EOF raises {!Dead}, so a full ring
    whose consumer died never wedges the producer.  Behind queued
    frames the EOF shows as [EPIPE] from a zero-length probe send.
    @raise Timeout / Dead as documented, [Unix.Unix_error] when
    [control] has failed, [Invalid_argument] when the frame can never
    fit (see {!tx_fits}). *)

val try_recv : t -> buf:Bytes.t ref -> int option
(** Non-blocking: consume the next frame into [buf] (grown as needed,
    payload at offset 0) and return its length, or [None] when the
    ring is empty.  @raise Dead on a torn/corrupt frame or when the
    peer closed with nothing left to read. *)

val recv : ?deadline:float -> t -> buf:Bytes.t ref -> int
(** Blocking {!try_recv} with the same backoff and typed failures as
    {!send} without a control socket. *)

val park : t -> unit
(** Set our parked word: this side is about to block on the control
    socket, and a publish to it must ring the doorbell.  {!await}
    parks, re-checks {!try_recv}, then blocks. *)

val unpark : t -> unit
(** Clear our parked word (on waking).  Both are stores only when the
    word changes. *)

val peer_parked : t -> bool
(** The peer has parked: after publishing to it, ring the doorbell. *)

(** How {!await} ended. *)
type wake =
  | Frame of int  (** A frame of this length was consumed into [buf]. *)
  | Socket
      (** The control socket is readable and the ring is empty: a
          doorbell (a zero-length frame, to read and drop) or a control
          frame. *)
  | Idle
      (** 200 us passed with neither; still parked.  Check the closed
          flag and idle time, and call again. *)

val await : t -> Unix.file_descr -> buf:Bytes.t ref -> wake
(** Wait for the next frame on the receive ring, watching the control
    socket [fd]: spin, yield, then park and block at most 200 us in
    [select] on [fd].  The gear position is kept across calls until a
    frame arrives, so an idle caller goes straight back to its select.
    While a reply is due ({!expect_reply}) it polls instead of parking.
    When the select wakes, the ring is read before [Socket] is
    reported, so a frame announced by a doorbell is returned at once
    and the doorbell is left for a later call.
    @raise Dead as {!try_recv}. *)

val expect_reply : t -> unit
(** Call after publishing a request: its reply is at least one peer
    wake-up away, so until the reply arrives, for at most the 200 us
    backstop, {!await} polls the ring ([cpu_relax], with a
    [Thread.yield] every 64 polls for other threads of this domain)
    instead of parking, and the reply
    costs no wake-up on this side.  A reply that does not come in time
    is awaited as before. *)

val ring_doorbell : t -> Transport.t -> Unix.file_descr -> bool
(** Call after a publish: if the peer has parked, write a zero-length
    frame on the control socket [fd] it is blocked on, and return
    [true].  @raise Unix.Unix_error as {!Wire.send_frame}. *)

val peer_closed : t -> bool
(** The peer set its closed flag (clean shutdown). *)

val close : t -> unit
(** Set our closed flag.  Idempotent; does not unlink the file. *)

val remove : t -> unit
(** Unlink the backing file (the owner, when reaping).  A peer still
    mapping it keeps a valid view of the dead inode — degradation is
    typed errors, never SIGBUS. *)
