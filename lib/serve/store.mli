(** The daemon's structure store: many compiled engines, one per
    circuit, loaded from a directory of [<circuit>.mpsz] containers
    ({!zpath_for}), the file [mpsgen generate -o] writes.

    A container is mapped zero-copy ({!Mps_core.Zcodec.load}) — no
    parsing, no recompilation, the bulk engine tables served straight
    off the page cache — and its CRC verification stands in for a
    load-time audit, because the container stores the already-audited
    compiled engine bit-exact.  Hot reloads {e remap} instead of
    recompiling, so picking up a repaired or regenerated container
    costs O(1).

    Each entry pairs a {!Mps_core.Structure.Engine.t} with a
    {e generation epoch}: every (re)load of a circuit bumps its epoch,
    and replies stamp the epoch they were served from, so a client can
    tell when a [repair] run has been picked up.  Reloads are
    {e hot} — the store publishes the new entry while requests already
    holding the old one finish on it (entries are immutable; the old
    engine stays alive exactly as long as someone references it).

    Degradation policy (never silently wrong):
    - a container that verifies serves normally, from the mapping;
    - a damaged container is salvaged from its own record table
      ({!Mps_core.Repair.salvage}) and served from a heap engine,
      flagged degraded (territory may have been lost); when the
      post-repair audit still has findings the entry is
      {e backup-only}: every query is answered by the backup template
      ({!Mps_core.Structure.Fallback} semantics);
    - a container that is missing, unreadable, for another circuit or
      beyond salvage yields a typed {!error}, which the server maps to
      an [Err_store] reply.

    Entries are evicted least-recently-used beyond [capacity]; epochs
    survive eviction so a later reload of the same circuit continues
    the sequence.  All operations are thread-safe; a slow load happens
    outside the store lock, with concurrent requests for the same
    circuit waiting on it rather than loading twice. *)

open Mps_netlist
open Mps_core

type error =
  | Unknown_circuit of string
      (** Not a Table 1 circuit name — nothing to validate against. *)
  | Unreadable of { path : string; reason : string }
      (** Missing or unreadable file ([mpsgen verify] exit 2). *)
  | Corrupt of { path : string; reason : string }
      (** Malformed beyond salvage, or for another circuit
          ([mpsgen verify] exit 1). *)

val error_to_string : error -> string

(** An immutable snapshot of one loaded circuit.  Requests resolve an
    entry once and use it for their whole lifetime, even if a reload
    publishes a newer epoch meanwhile. *)
type entry = {
  name : string;  (** Circuit name (store key). *)
  path : string;  (** File the entry was loaded from. *)
  circuit : Circuit.t;
  engine : Structure.Engine.t;
      (** Query-ready; for structure-level metadata use the engine
          accessors ({!Structure.Engine.backup},
          {!Structure.Engine.n_stored}, ...) — they are O(1) and skip
          {!Structure.Engine.structure}'s eq. 5 check. *)
  epoch : int;  (** Monotonic per circuit, starting at 1. *)
  degraded : bool;  (** Replies from this entry carry the degraded flag. *)
  backup_only : bool;
      (** Audit findings: answer every query from the backup template. *)
  findings : int;  (** Audit finding count behind the demotion. *)
  salvaged : bool;
      (** The file needed {!Repair.salvage}, so the engine is a
          recompiled heap engine; otherwise it is served from the
          zero-copy mapping. *)
  bytes : int;  (** Size on disk; counts against the 512 MiB mapped
                    budget unless [salvaged]. *)
  mtime : float;  (** Mtime of the container at load, for hot-reload
                      detection. *)
}

type t

val create :
  ?capacity:int ->
  ?stat_interval:float ->
  dir:string ->
  unit ->
  t
(** [stat_interval] (default 0) debounces hot-reload detection: an
    entry's source file is re-stat'ed at most once per [stat_interval]
    seconds, and a repaired file is still picked up within the
    interval.  A daemon runs the stat off the request path: its
    supervision thread calls {!refresh} every few milliseconds, so
    {!get} finds every check fresh and costs no syscall.  A store with
    no refresher stats inline in {!get} whenever a check is overdue.
    [0] stats on every {!get} (the conservative default; [mpsgen serve]
    runs with a small nonzero interval).
    [capacity] (default 8) live engines before LRU eviction.  Beyond
    512 MiB of on-disk bytes of mapped containers referenced by the
    store, mapped entries are evicted least-recently-used too (the
    mapping itself is released when the last in-flight request drops
    the entry; the most recently used entry is never evicted, so one
    oversized container still serves). *)

val dir : t -> string

val zpath_for : t -> string -> string
(** Where a circuit's container lives: [dir/<name>.mpsz] with spaces
    mapped to underscores (the path [mpsgen generate -o] should
    target). *)

val get : t -> string -> (entry, error) result
(** The current entry for a circuit, loading it on first use and
    hot-reloading when the file's mtime changed since the entry was
    built: when {!refresh} saw the change, or when this call's own
    check, made only when the last one is [stat_interval] old, sees
    it. *)

val refresh : t -> unit
(** Re-stat, outside the store lock, every entry whose last check is at
    least half of [stat_interval] old, and mark a changed file so that
    the next {!get} reloads it.  A no-op at [stat_interval = 0], where
    every {!get} stats anyway.  The daemon's supervision thread calls
    it on each tick. *)

type stat_counts = {
  refresher : int;  (** Staleness stats made by {!refresh}. *)
  request_path : int;  (** Staleness stats made inline by {!get}. *)
}

val stat_counts : t -> stat_counts

val reload : t -> string -> (entry, error) result
(** Force a fresh load and epoch bump, regardless of mtime (the
    [reload] wire request). *)

val describe : t -> string
(** One line per live entry (epoch, mode, findings) for the [stats]
    reply and logs. *)
