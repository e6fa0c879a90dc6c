(** Circuits: a set of blocks plus the nets connecting them.

    This is the input to both multi-placement structure generation and to
    the baseline placers. *)

open Mps_geometry

type t = {
  name : string;
  blocks : Block.t array;
  nets : Net.t array;
  symmetry : Symmetry.group list;  (** Soft symmetry constraints. *)
}

val make : name:string -> blocks:Block.t array -> nets:Net.t array -> t
(** Validates that block ids equal their array index and every net pin
    references an existing block ([symmetry] starts empty).
    @raise Invalid_argument otherwise. *)

val with_symmetry : t -> Symmetry.group list -> t
(** Attach soft symmetry constraints.
    @raise Invalid_argument on malformed groups ({!Symmetry.validate}). *)

val n_blocks : t -> int
val n_nets : t -> int

val n_terminals : t -> int
(** Total block-pin count over all nets (Table 1's "Terminals"). *)

val block : t -> int -> Block.t

val dim_bounds : t -> Dimbox.t
(** The full dimension search space: per block, the designer's width and
    height bounds. *)

val min_dims : t -> Dims.t
(** All blocks at their minimum dimensions. *)

val max_dims : t -> Dims.t

val dims_valid : t -> Dims.t -> bool
(** Vector respects every block's designer bounds. *)

val total_max_area : t -> int

val default_die : t -> int * int
(** [(die_w, die_h)]: a square die sized so that the sum of maximum block
    areas fills half of it (a slack of 1.0: the die is twice the total
    max block area), never narrower or lower than the largest block. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: name, block/net/terminal counts. *)
