(* Generation fixtures shared by the test suites: two small budgets and
   the structures they build.  The lazies are forced on the main domain
   only (OCaml 5 raises when two domains force one lazy at once): a test
   that fans work out over a pool forces its fixture first. *)

open Mps_netlist
open Mps_core

(* Eight explorer iterations, up to 25 placements. *)
let tiny_config =
  {
    Generator.fast_config with
    Generator.explorer_iterations = 8;
    bdio = { Generator.fast_config.Generator.bdio with Bdio.iterations = 60 };
    max_placements = 25;
    backup_iterations = 300;
  }

(* Every Table 1 circuit with its structure at [tiny_config]. *)
let structures =
  lazy
    (List.map
       (fun c -> (c, fst (Generator.single_walk ~config:tiny_config c)))
       Benchmarks.all)

(* Four explorer iterations, up to 12 placements, no refinement. *)
let minimal_config =
  {
    Generator.fast_config with
    Generator.explorer_iterations = 4;
    bdio = { Bdio.default_config with Bdio.iterations = 40 };
    max_placements = 12;
    backup_iterations = 150;
    refine_iterations = 0;
  }

(* circ01's structure at [minimal_config]. *)
let circ01_minimal = lazy (fst (Generator.single_walk ~config:minimal_config Benchmarks.circ01))
