(** Circuit blocks.

    A block is any module produced by a module generator (paper §2.1): a
    differential pair, a current mirror, a capacitor...  Its width and
    height are variables of the placement problem, bounded by the
    designer-set minimum and maximum dimensions [wm/wM, hm/hM]. *)

open Mps_geometry

type t = {
  id : int;  (** Index of the block within its circuit, [0 .. N-1]. *)
  name : string;
  w_bounds : Interval.t;  (** Allowed widths [wm .. wM]. *)
  h_bounds : Interval.t;  (** Allowed heights [hm .. hM]. *)
}

val make : id:int -> name:string -> w_bounds:Interval.t -> h_bounds:Interval.t -> t

val make_wh : id:int -> name:string -> w:int * int -> h:int * int -> t
(** [make_wh ~id ~name ~w:(wm, wM) ~h:(hm, hM)]. *)

val min_dims : t -> int * int
(** Minimum (width, height). *)

val max_dims : t -> int * int

val max_area : t -> int

val dims_valid : t -> w:int -> h:int -> bool
(** Both dimensions lie within the designer bounds. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
