(** Hyper-boxes in the block-dimension space.

    A stored placement [p_j] is valid exactly for dimension vectors inside
    its box: per block [i], an interval of widths [wstart..wend] and an
    interval of heights [hstart..hend] (the paper's eq. 2).  Equation 5
    ([|M(V)| = 1]) is enforced by keeping the boxes of all stored
    placements pairwise disjoint. *)

type t
(** Immutable box: one width interval and one height interval per block. *)

(** Identifies one axis of the dimension space: the width or the height
    of a particular block.  [Resolve Overlaps] shrinks a placement's box
    along one such axis. *)
type axis =
  | Width of int   (** width axis of block [i] *)
  | Height of int  (** height axis of block [i] *)

val make : w : Interval.t array -> h : Interval.t array -> t
(** @raise Invalid_argument when the arrays differ in length. *)

val of_dims_range : lo:Dims.t -> hi:Dims.t -> t
(** Box spanning [lo..hi] per axis.
    @raise Invalid_argument on any inverted axis. *)

val n_blocks : t -> int

val w_interval : t -> int -> Interval.t
(** Width interval of block [i]. *)

val h_interval : t -> int -> Interval.t

val axis_interval : t -> axis -> Interval.t

val with_axis : t -> axis -> Interval.t -> t
(** Copy with one axis interval replaced. *)

val flatten_into : t -> lo:int array -> hi:int array -> base:int -> unit
(** Write the per-axis bounds at [base + code] of [lo] / [hi], where
    axis code [2i] is block [i]'s width and [2i+1] its height: the flat
    layout the compiled plan and the builder's overlap scan index. *)

val axes : t -> axis list
(** All [2N] axes in block order, width before height. *)

val contains : t -> Dims.t -> bool
(** Every width and height of the vector lies in its interval. *)

val contains_box : outer:t -> inner:t -> bool

val overlaps : t -> t -> bool
(** Boxes share a dimension vector: every axis pair overlaps. *)

val disjoint_axis : t -> t -> axis option
(** Some axis on which the two boxes are disjoint, if any ([None] means
    they overlap). *)

val inter : t -> t -> t option

val lower_corner : t -> Dims.t
(** Vector of all per-axis lower bounds. *)

val upper_corner : t -> Dims.t

val center : t -> Dims.t
(** Per-axis integer midpoints. *)

val clamp : t -> Dims.t -> Dims.t
(** Closest vector of the box to the argument. *)

val volume_fraction : t -> bounds:t -> float
(** Product over axes of the covered fraction of [bounds] — the share of
    the total dimension search space this box covers.  Used by the
    explorer's percentage-coverage stopping criterion. *)

val random_dims : Mps_rng.Rng.t -> t -> Dims.t
(** Uniform sample inside the box.  Draw order is part of the
    deterministic contract: all heights (ascending by block), then all
    widths. *)

val random_dims_into : Mps_rng.Rng.t -> t -> w:int array -> h:int array -> unit
(** {!random_dims} into caller buffers (same draws, same order) —
    nothing allocated, for sampling loops that draw thousands of
    vectors against per-worker scratch.  The values are written raw;
    pair with [Dims.unsafe_of_arrays] only while the buffers are not
    being overwritten.
    @raise Invalid_argument on a buffer-length mismatch. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
