(** Template-style greedy re-packing.

    Given reference block corners and new dimensions, blocks are visited
    in the reference left-to-right, bottom-to-top order and each one
    slides upward until it overlaps none of the already-packed blocks.
    This is how a fixed layout template absorbs size changes: the
    arrangement survives, optimality does not.  Used by the template
    baseline placer and by the multi-placement structure's fallback
    answer for uncovered dimension vectors. *)

open Mps_geometry

val instantiate : ?die:int * int -> coords:(int * int) array -> Dims.t -> Rect.t array
(** Overlap-free floorplan at exactly the requested dimensions:
    {!order}, {!pack} into a fresh array, then — with
    [?die:(die_w, die_h)] — {!fit_die_in_place}.
    @raise Invalid_argument on block-count mismatch. *)

val order : (int * int) array -> int array
(** The visit order for these corners: block indices sorted by
    [(x, y)].  It does not depend on the dimensions, so a caller that
    re-packs one placement many times computes it once.  Recompute it
    whenever the coordinates change. *)

val pack :
  order:int array -> out:Rect.t array -> coords:(int * int) array -> Dims.t -> unit
(** The allocation-free kernel behind {!instantiate}: refill [out] (one
    rectangle per block, same length as [coords]) in place with the
    packed floorplan at the given dimensions, visiting blocks in
    [order], which must be [order coords].  Each block settles at the
    lowest y at or above its corner where it overlaps no block placed
    before it.  No die translation.
    @raise Invalid_argument on a block-count or buffer-length
    mismatch. *)

val fit_die_in_place : die_w:int -> die_h:int -> Rect.t array -> unit
(** Translate a floorplan back toward the origin so it fits the die
    whenever its bounding box can (per axis); a bounding box larger
    than the die still sticks out — rigidity is the template's
    defining weakness. *)
