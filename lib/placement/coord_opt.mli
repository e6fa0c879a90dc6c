(** Simulated-annealing optimization of block coordinates for one fixed
    dimension vector.

    This primitive is both the optimization-based baseline placer
    (KOAN/ANAGRAM class) and the way the generator builds its
    template-like backup placement for uncovered dimension space. *)

open Mps_rng
open Mps_geometry
open Mps_netlist

type config = {
  iterations : int;
  max_shift_fraction : float;  (** Displacement range as a die fraction. *)
}

val default_config : config
(** 4000 iterations, shifts up to half the die. *)

type result = {
  placement : Placement.t;  (** Optimized coordinates. *)
  rects : Rect.t array;
  cost : float;
  legal : bool;
  evaluations : int;
}

val optimize :
  ?config:config ->
  ?arena:Arena.t ->
  ?initial:(int * int) array ->
  rng:Rng.t -> Circuit.t -> die_w:int -> die_h:int -> Dims.t -> result
(** Anneal coordinates for the given dimensions under the penalized
    cost function (overlap and out-of-bounds discouraged, not
    forbidden, so the walk can pass through illegal states).  Every run
    cools geometrically (t0 2000, alpha 0.995, t_min 1e-3), and a move
    swaps two blocks with probability 0.25, else shifts one.
    [initial] seeds the walk (random corners by default); useful for
    refining an existing arrangement with a short run.

    Move bounds are compiled once per run into {!Mps_anneal.Move_lut}
    tables, so each move draw is branch-free and allocation-free.
    [arena] supplies the incremental-cost engine and scratch buffers
    from per-worker reusable state; the result is bit-identical with
    or without it (fresh state is allocated when absent). *)
