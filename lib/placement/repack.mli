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

type warm
(** The state of {!pack_warm}: the last packed dims and settled
    (unshifted) y of every block, for one placement.  Mutable scratch;
    one per caller, not thread-safe. *)

val warm : unit -> warm
(** Empty state: the first {!pack_warm} packs cold. *)

val forget : warm -> unit
(** Drop the state (the next {!pack_warm} packs cold) — for a caller
    whose placement keys change meaning, e.g. a new structure. *)

val pack_warm :
  warm ->
  key:int ->
  order:int array ->
  coords:(int * int) array ->
  die_w:int ->
  die_h:int ->
  out:Rect.t array ->
  Dims.t ->
  unit
(** [pack] then [fit_die_in_place ~die_w ~die_h], rect for rect,
    writing every rect of [out].  [key] (>= 0) names the placement
    [order]/[coords] belong to; when the state holds the previous pack
    of the same key, only blocks whose dims changed, or whose x-span
    meets the old-or-new x-span of a rect that changed earlier in
    visit order, are re-settled — exact, because a block's settled y
    depends only on the earlier rects overlapping it in x.  Any other
    key packs cold.  Allocation-free once the state is sized for this
    block count.  [dims] must honour {!Dims.make}'s invariants (not
    re-checked).
    @raise Invalid_argument on a block-count or buffer-length
    mismatch. *)
