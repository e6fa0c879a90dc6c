(** Deterministic fault injection for the persistence stack.

    A multi-placement structure is generated once and reloaded for
    years; the failures that matter happen on the storage path — torn
    writes, flipped bits, vanished files.  This module turns those
    failures into a reproducible test input: a {e fault plan} derived
    from a single integer seed, injected into {!Mps_core.Persist}
    through its pluggable {!Mps_core.Persist.io} backend, so the same
    seed replays the same failure forever.

    The fault model is crash-consistent: a faulted write aborts before
    the rename that would publish it (data may be missing, truncated or
    corrupted in the {e temporary} file, never in the destination), a
    faulted rename either fails loudly or is silently lost, and read
    faults corrupt only what the reader sees, not the file.  Under this
    model {!Mps_core.Persist.atomic_write} guarantees the destination
    always holds a complete old or complete new document — the property
    the chaos suite asserts.

    The same machinery covers the serving path: the [Net_*] ops target
    the daemon's injectable socket transport
    ({!Mps_serve.Transport.t}), modelling short reads and writes,
    stalls past a deadline, peers vanishing mid-request and failed
    accepts.  The socket model excludes corruption — a damaged TCP
    segment surfaces as a dead connection, never as flipped bits
    handed to the application — so [Corrupt] on a [Net_*] op
    degenerates to [Fail].

    Nothing here touches syscalls or processes; injection is a pure
    wrapper around an [io] or transport record, so plans compose with
    any backend. *)

(** The persistence, socket, or worker primitive a fault targets.
    [Worker_crash] / [Worker_stall] fire through the supervisor's
    per-request fault hook ({!worker_hook_of_plan}) rather than an IO
    record: a stall wedges the serving worker domain mid-request, a
    crash kills it (typed [Err_worker_lost] reply + supervised
    restart). *)
type op =
  | Read
  | Write
  | Rename
  | Fsync_dir
  | Remove
  | Map
      (** {!Mps_core.Persist.io}[.map_words] — the MPSZ zero-copy load
          path.  [Fail]/[Vanish] make the mapping fail ([Sys_error]);
          [Truncate] hands out a mapping of only the leading fraction
          of the file (a lost tail: truncated section table and all);
          [Corrupt] hands out a flipped {e private copy} of the words,
          so the damage sits live under the loader's feet while the
          on-disk file stays intact. *)
  | Net_recv
  | Net_send
  | Net_accept
  | Worker_crash
  | Worker_stall
  | Shm_publish
      (** One frame published on a shm ring ({!shm_hooks_of_plan}):
          [Corrupt] flips stored bits after the CRC, [Stall] delays the
          tail publication, anything else tears the frame outright. *)

(** What happens when the fault fires.

    Not every action is meaningful for every op; {!io_of_plan} applies
    the closest crash-consistent interpretation (e.g. a [Truncate] on a
    rename degenerates to [Fail]). *)
type action =
  | Fail  (** The primitive raises [Sys_error] having done nothing. *)
  | Truncate of float
      (** Reads return only this fraction of the bytes.  Writes put the
          prefix on disk and then raise — a crash mid-write. *)
  | Corrupt of int
      (** This many seeded bit flips.  Reads return the flipped bytes;
          writes put flipped bytes on disk and then raise — a crash
          with media corruption, caught before publication. *)
  | Vanish
      (** Reads fail as if the file were missing; a rename is silently
          lost (the destination keeps its old content).  On sockets the
          peer is gone: a recv sees EOF, sent bytes are silently
          dropped, an accepted connection is closed on the spot. *)
  | Stall of float
      (** The primitive sleeps this many seconds, then proceeds
          normally — a slow disk or a congested link.  Harmless on its
          own; what it exercises is every deadline around it. *)

type injection = {
  op : op;
  skip : int;  (** Fire on the [skip+1]-th invocation of [op]. *)
  action : action;
  seed : int;  (** Drives the bit-flip positions of [Corrupt]. *)
}

type plan = injection list

val describe : plan -> string
(** One line per injection, for failure diagnostics. *)

val random_save_plan : Mps_rng.Rng.t -> plan
(** One to three injections with random actions and skips on the ops a
    save touches ([Write], [Rename], [Fsync_dir]).  Deterministic in
    the rng state. *)

val random_read_plan : Mps_rng.Rng.t -> plan
(** Like {!random_save_plan}, on [Read] only, for chaos over the load
    path. *)

val flip_bits : seed:int -> flips:int -> ?from:int -> string -> string
(** [flips] seeded bit flips in [s], at byte offsets [>= from]
    (default 0).  Used both by [Corrupt] injections and directly by
    corruption tests.  Returns [s] unchanged when it is too short. *)

val flip_words : seed:int -> flips:int -> Mps_core.Persist.words -> unit
(** [flips] seeded bit flips {e in place} over a word view (bits 0..62
    of each word — what an on-disk flip looks like through the int
    bigarray kind).  Used by [Corrupt] on [Map] and directly by tests
    that damage a live mapping mid-session. *)

val io_of_plan : ?base:Mps_core.Persist.io -> plan -> Mps_core.Persist.io * (unit -> int)
(** An [io] backend that behaves like [base] (default
    {!Mps_core.Persist.default_io}) except where the plan injects a
    fault; each injection fires at most once.  The second component
    counts injections fired so far. *)

val transport_of_plan :
  ?base:Mps_serve.Transport.t -> plan -> Mps_serve.Transport.t * (unit -> int)
(** A socket transport that behaves like [base] (default
    {!Mps_serve.Transport.default}) except where the plan injects a
    [Net_*] fault; each injection fires at most once.  Unlike
    {!io_of_plan} the bookkeeping is thread-safe — one transport is
    shared by the daemon's accept loop and every connection handler.
    The second component counts injections fired so far. *)

val worker_hook_of_plan : plan -> (worker:int -> unit) * (unit -> int)
(** A hook for {!Mps_serve.Server.create}'s [?fault] injecting the
    plan's [Worker_stall] / [Worker_crash] faults: the [skip+1]-th
    request served (across all workers — occurrences, not slots, keep
    a scenario deterministic under any dispatch) stalls and/or raises
    {!Mps_serve.Server.Worker_killed}.  Thread-safe; each injection
    fires at most once.  The second component counts injections fired
    so far. *)

val shm_hooks_of_plan : plan -> Mps_serve.Shm.hooks * (unit -> int)
(** Ring-level fault hooks for {!Mps_serve.Server.create}'s
    [?shm_hooks], injecting the plan's [Shm_publish] faults into
    every shm session the daemon creates.
    A [Shm_publish] injection damages the [skip+1]-th frame published
    across all sessions:
    [Corrupt (n)] flips [n] seeded bits over the stored words {e after}
    the checksum (a persistent CRC mismatch — the consumer reports a
    torn frame and falls back to the socket), [Stall] sleeps before
    the tail publication, and [Fail]/[Vanish]/[Truncate] tear the
    frame outright.  A wedged peer needs no hook: the idle timeout
    reaps it, as it reaps a silent socket client.  Thread-safe; each
    injection fires at most once.  The second component counts
    injections fired. *)

val with_plan :
  ?base:Mps_core.Persist.io -> plan -> (unit -> 'a) -> ('a, exn) result * int
(** Run a thunk with the plan's backend installed
    ({!Mps_core.Persist.with_io}), capturing either its value or the
    exception it raised, plus the number of injections that fired.
    Never lets an exception escape. *)
