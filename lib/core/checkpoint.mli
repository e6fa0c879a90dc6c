(** Crash-safe snapshots of an in-flight generation run.

    {!Generator} writes one of these every [checkpoint_every] lockstep
    rounds; after a crash or kill, {!Generator.resume} reconstitutes the
    builder from the snapshot and continues every explorer walk from
    its recorded state.  The snapshot captures {e everything} the
    continuation depends on — the interim structure (live placements +
    backup), the step counters, and each walk's accepted placement,
    cost and exact stream state — so a resumed run replays the
    uninterrupted run byte for byte (property-tested).  Recording every
    per-walk stream is what makes resume deterministic at {e any} job
    count: the walks are data, the domain pool is just scheduling.

    File layout (counters, one [walk]/[walk_rng] line pair per explorer
    walk, then a full embedded {!Codec} document):
    {v
    mps-checkpoint v2
    checksum <8 hex digits>
    step <n>
    dropped <n>
    walks <count> <chunk>
    walk <step> <cost> <x y pairs>
    walk_rng <hex token>
    ...
    mps-structure v2
    ...
    v}

    Saving is atomic ({!Mps_core.Persist.atomic_write}); loading
    verifies the checksum and the embedded document end to end, and
    raises {!Codec.Error} on any damage — a checkpoint is either whole
    or rejected, there is no salvage path (the previous checkpoint or a
    fresh run is always available).  A [v1] file, written before the
    one generator, is refused as a bad header: checkpoints are deleted
    once their run completes, so none outlives the format. *)

open Mps_netlist
open Mps_placement

type walk = {
  w_step : int;  (** Explorer steps this walk has taken. *)
  w_cost : float;  (** BDIO average cost of the accepted placement. *)
  w_current : Placement.t;  (** The walk's accepted placement. *)
  w_rng : Mps_rng.Rng.t;  (** The walk's private stream state. *)
}
(** One explorer walk. *)

type t = {
  step : int;  (** Explorer steps merged so far, over all walks. *)
  dropped : int;  (** Candidates dropped so far (for stats continuity). *)
  chunk : int;  (** Steps merged per walk per lockstep round. *)
  walks : walk array;  (** One entry per explorer walk, in task order. *)
  structure : Structure.t;  (** Interim structure: live placements + backup. *)
}

val to_string : t -> string

val of_string : circuit:Circuit.t -> string -> t
(** @raise Codec.Error on a damaged snapshot or circuit mismatch. *)

val save : t -> path:string -> unit
(** Atomic replace.  @raise Codec.Error ([Io_error]) when the file
    cannot be written. *)

val load : circuit:Circuit.t -> path:string -> t
(** @raise Codec.Error — [Io_error] when unreadable, [Corrupt] on any
    integrity failure, [Circuit_mismatch] on the wrong circuit. *)
