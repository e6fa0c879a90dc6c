(** A placement as stored in a multi-placement structure.

    Pairs the block coordinates with the dimension hyper-box over which
    this placement is the structure's answer (paper eq. 2), plus the
    quality data the Block Dimensions-Interval Optimizer attached to it:
    best and average cost, and the dimension vector attaining the best
    cost. *)

open Mps_geometry
open Mps_placement

type t = {
  placement : Placement.t;  (** Block coordinates and die. *)
  box : Dimbox.t;  (** Validity box: shrunk [w/h start..end] intervals. *)
  expansion : Dimbox.t;
      (** The expansion box the placement is legal over at its raw
          coordinates.  For ordinary placements [box] is contained in
          [expansion]; a [template_like] placement may claim more. *)
  avg_cost : float;  (** BDIO average cost (the explorer's cost signal). *)
  best_cost : float;
  best_dims : Dims.t;  (** Dimension vector that attained [best_cost]. *)
  template_like : bool;
      (** The placement answers dimensions beyond its expansion box by
          greedy re-packing (the backup template's behaviour); its box
          may exceed the expansion box. *)
}

val make :
  template_like:bool ->
  placement:Placement.t ->
  box:Dimbox.t ->
  expansion:Dimbox.t ->
  avg_cost:float ->
  best_cost:float ->
  best_dims:Dims.t ->
  t
(** @raise Invalid_argument when [best_dims] lies outside [box], or —
    unless [template_like] — when [box] is not contained in
    [expansion]. *)

val with_box : t -> Dimbox.t -> t
(** Replace the validity box (after Resolve Overlaps shrinking); the
    best dimension vector is clamped into the new box. *)

val follows_backup : backup:t -> t -> bool
(** A template-like placement is a piece of the backup's territory, and
    Resolve Overlaps carves it without touching the placement: it holds
    when [t] is not template-like or carries [backup]'s placement. *)

val n_blocks : t -> int

val instantiate : t -> Dims.t -> Rect.t array
(** Floorplan at the given dimensions using this placement's
    coordinates. *)

val instantiate_repacked : t -> Dims.t -> Rect.t array
(** Template-like behaviour at the *requested* dimensions: keep this
    placement's arrangement and greedily re-pack
    ({!Mps_placement.Repack}).  Always overlap-free; used for fallback
    answers on uncovered dimension vectors (paper §3.1.4). *)

val instantiate_into : t -> out:Rect.t array -> Dims.t -> unit
(** {!instantiate} into a caller buffer (one rect per block, refilled
    in place) — for sampling loops running against per-worker scratch.
    @raise Invalid_argument on a buffer-length mismatch. *)

val instantiate_repacked_into : t -> order:int array -> out:Rect.t array -> Dims.t -> unit
(** {!instantiate_repacked} into a caller buffer (one rect per block,
    refilled in place), allocation-free.  [order] must be
    [Repack.order] of this placement's coordinates, computed once by
    the caller (see {!Mps_placement.Repack.pack}).
    @raise Invalid_argument on a buffer-length mismatch. *)

val instantiate_auto : t -> Dims.t -> Rect.t array
(** "Commit to this placement for these dimensions": raw coordinates
    when the vector lies inside the expansion box (legal by
    monotonicity), {!instantiate_repacked} otherwise.  Always
    overlap-free — the cost of using placement [j] for any sizing,
    which is what the Figure 6 per-placement curves compare. *)
