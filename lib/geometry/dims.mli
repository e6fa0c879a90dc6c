(** Concrete dimension vectors.

    The input vector [V = (w_0, h_0, ..., w_{N-1}, h_{N-1})] of the paper's
    function [M] (eq. 1): one width and one height per block. *)

type t
(** Immutable vector of per-block widths and heights. *)

val make : w:int array -> h:int array -> t
(** @raise Invalid_argument when the arrays differ in length or any
    entry is not positive. *)

val unsafe_of_arrays : w:int array -> h:int array -> t
(** Wrap the arrays without copying or validating.  The caller owns the
    invariants ({!make}'s equal lengths and positive entries) and must
    not mutate the arrays while the value is live.  Exists for
    serving-rate decode loops that reuse one scratch pair per
    connection; everywhere else, use {!make}. *)

val unsafe_widths : t -> int array
(** The live width array, not a copy: the counterpart of
    {!unsafe_of_arrays} for kernels that read every entry per call
    (the query engine's narrowing, box tests and re-pack), where a
    cross-module {!width} call per entry is the cost.  The caller must
    not mutate it. *)

val unsafe_heights : t -> int array
(** The live height array; see {!unsafe_widths}. *)

val of_pairs : (int * int) array -> t
(** [of_pairs [| (w0, h0); ... |]]. *)

val n_blocks : t -> int

val width : t -> int -> int
(** [width t i] is the width of block [i]. *)

val height : t -> int -> int

val set_width : t -> int -> int -> t
(** [set_width t i w] is a copy of [t] with block [i]'s width replaced. *)

val set_height : t -> int -> int -> t

val total_area : t -> int
(** Sum over blocks of [w * h]. *)

val equal : t -> t -> bool
