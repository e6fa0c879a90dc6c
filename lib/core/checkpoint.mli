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

    A checkpoint is an MPSZ container ({!Zcodec}) of the interim
    structure with one more section, [GENS], holding the generator
    state: step, dropped and chunk, the walk count, then one record per
    walk — its step, its cost as split IEEE-754 words, its 2n
    coordinates and its stream token ({!Mps_rng.Rng.to_string}, packed
    4 bytes per word).  The section sits in the same table as the
    structure's under the same CRC discipline, so a checkpoint is
    written once and verified as a whole.

    Saving is atomic ({!Mps_core.Persist.atomic_write}); loading
    verifies the header and every section CRC and raises {!Zcodec.Error}
    on any damage — a checkpoint is either whole or rejected, there is
    no salvage path (the previous checkpoint or a fresh run is always
    available).  A plain structure container (no [GENS]) and the text
    checkpoints of earlier versions are refused: checkpoints are
    deleted once their run completes, so none outlives the format. *)

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
(** @raise Zcodec.Error on a damaged snapshot or circuit mismatch. *)

val save : t -> path:string -> unit
(** Atomic replace.  @raise Zcodec.Error ([Io_error]) when the file
    cannot be written. *)

val load : circuit:Circuit.t -> path:string -> t
(** @raise Zcodec.Error — [Io_error] when unreadable, [Corrupt] on any
    integrity failure, [Circuit_mismatch] on the wrong circuit. *)
