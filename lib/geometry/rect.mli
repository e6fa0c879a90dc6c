(** Axis-aligned integer rectangles.

    A placed block occupies the half-open region
    [[x, x+w) × [y, y+h)] of the layout grid; two blocks that merely
    share an edge do not overlap. *)

type t = { mutable x : int; mutable y : int; mutable w : int; mutable h : int }
(** Lower-left corner [(x, y)], width [w >= 1], height [h >= 1].

    Fields are mutable so hot paths (the query engine's
    [instantiate_into] scratch buffers) can refill a rectangle in place
    instead of allocating a fresh one per call; everywhere else rects
    are treated as immutable values and updated with {!make},
    {!translate} or [{ r with ... }]. *)

val make : x:int -> y:int -> w:int -> h:int -> t
(** @raise Invalid_argument when [w] or [h] is not positive. *)

val set : t -> x:int -> y:int -> w:int -> h:int -> unit
(** In-place overwrite of all four fields — the allocation-free
    counterpart of {!make} for reusable rect buffers.  Only use on
    rects you own (scratch buffers), never on rects handed out by a
    structure.  @raise Invalid_argument when [w] or [h] is not
    positive. *)

val area : t -> int

val right : t -> int
(** First free column: [x + w]. *)

val top : t -> int
(** First free row: [y + h]. *)

val center : t -> float * float
(** Geometric center. *)

val overlaps : t -> t -> bool
(** Positive-area intersection (edge contact is not overlap). *)

val overlap_area : t -> t -> int

val translate : t -> dx:int -> dy:int -> t

val inside : t -> die_w:int -> die_h:int -> bool
(** Fits entirely inside the die [[0, die_w) × [0, die_h)]. *)

val bounding_box : t list -> t option
(** Smallest rectangle enclosing all, [None] for the empty list. *)

val any_overlap : t array -> (int * int) option
(** First overlapping pair of distinct indices, if any. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
