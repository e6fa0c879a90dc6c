(** Optimization-based placement baseline (KOAN/ANAGRAM class, paper §1).

    A full simulated-annealing placer run from scratch for one concrete
    dimension vector: moves displace or swap blocks, the cost function
    penalizes overlap and out-of-bounds area so the walk converges to a
    legal floorplan.  Good quality, but far too slow to sit inside a
    sizing loop — which is the gap the multi-placement structure fills. *)

open Mps_rng
open Mps_geometry
open Mps_netlist

val place :
  ?iterations:int ->
  rng:Rng.t ->
  Circuit.t ->
  die_w:int ->
  die_h:int ->
  Dims.t ->
  Mps_placement.Coord_opt.result
(** Place the circuit with the given concrete dimensions: one
    {!Mps_placement.Coord_opt.optimize} run from random corners with
    its default settings, [iterations] annealing steps (default 4000 —
    deliberately heavyweight, like the tools it stands in for). *)
