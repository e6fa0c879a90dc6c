(** Inclusive integer intervals.

    The multi-placement structure stores, for every block, the interval of
    widths and heights over which a placement is valid (the paper's
    [wstart..wend] / [hstart..hend] 4-tuples) and the interval objects of
    the per-block rows (paper Fig. 3).  All of these are inclusive integer
    intervals on the layout grid. *)

type t = private { lo : int; hi : int }
(** An inclusive interval [lo..hi]; the invariant [lo <= hi] always holds. *)

val make : int -> int -> t
(** [make lo hi] builds [lo..hi].  @raise Invalid_argument if [lo > hi]. *)

val point : int -> t
(** [point v] is the singleton interval [v..v]. *)

val lo : t -> int
val hi : t -> int

val length : t -> int
(** Number of integers contained: [hi - lo + 1]. *)

val contains : t -> int -> bool

val contains_interval : outer:t -> inner:t -> bool
(** [contains_interval ~outer ~inner] holds when every point of [inner]
    lies in [outer]. *)

val overlaps : t -> t -> bool
(** Shared integer point exists. *)

val inter : t -> t -> t option
(** Intersection, [None] when disjoint. *)

val overlap_length : t -> t -> int
(** Number of shared integer points (0 when disjoint). *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val clamp : t -> int -> int
(** [clamp t v] is the point of [t] closest to [v]. *)

val before : t -> limit:int -> t option
(** [before t ~limit] is the part of [t] strictly below [limit]. *)

val after : t -> limit:int -> t option
(** [after t ~limit] is the part of [t] strictly above [limit]. *)

val midpoint : t -> int
(** Integer midpoint (rounded down). *)

val fraction_of : t -> of_:t -> float
(** [fraction_of t ~of_:bounds] is [length (t ∩ bounds) / length bounds],
    the share of [bounds] covered by [t]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
