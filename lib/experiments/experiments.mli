(** Drivers regenerating every table and figure of the paper, plus the
    ablations listed in DESIGN.md §4.  Each driver returns both the
    structured data and a printable report: [mpsgen experiments]
    prints the reports; tests and examples read the data. *)

open Mps_geometry
open Mps_netlist
open Mps_core

(** Budget preset for structure generation. *)
type budget =
  | Quick  (** Seconds per circuit; for tests and demos. *)
  | Full  (** The default reproduction budget (see EXPERIMENTS.md). *)

val generator_config : budget -> Circuit.t -> Generator.config
(** Budgets scale mildly with circuit size, like the paper's generation
    times do. *)

(** {1 Table 1} *)

val table1 : unit -> string
(** The benchmark inventory: circuit, blocks, nets, terminals. *)

(** {1 Table 2} *)

type table2_row = {
  circuit_name : string;
  generation_seconds : float;
  placements : int;
  coverage : float;
  instantiation_seconds : float;
      (** Mean wall time of one {!Structure.Engine.instantiate_into} per
          probe, on one engine and one session. *)
  fallback_rate : float;  (** Share of probe queries answered by the fallback. *)
}

val table2_row : budget:budget -> Circuit.t -> table2_row * Structure.t
(** Generate the structure for one circuit and measure instantiation
    over a probe workload (uniform dimension vectors mixed with vectors
    near stored placements). *)

val table2 : ?budget:budget -> ?circuits:Circuit.t list -> unit -> table2_row list * string
(** All Table 2 rows (default: every Table 1 circuit, [Full] budget). *)

(** {1 Figure 5} *)

val figure5 : ?budget:budget -> unit -> string
(** Two multi-placement instantiations of the two-stage op-amp for
    different sizes, next to the fixed-template instantiation, as ASCII
    floorplans. *)

(** {1 Figure 6} *)

type figure6_point = {
  swept_value : int;  (** Width of the swept block. *)
  per_placement : (int * float) array;  (** Cost of each stored placement. *)
  mps_cost : float;  (** Cost of the structure-selected placement. *)
  mps_choice : Structure.answer;
}

val figure6 : ?budget:budget -> unit -> figure6_point list * string
(** Sweep one block dimension across its range for the two-stage op-amp;
    report each stored placement's cost and the structure's selection.
    The printable report includes the lower-envelope match rate. *)

(** {1 Figure 7} *)

val figure7 : ?budget:budget -> unit -> string
(** An optimized floorplan instantiation for the 21-module
    [tso-cascode] circuit. *)

(** {1 Ablations} *)

val ablation_shrink : ?budget:budget -> unit -> string
(** A1: Optimize Ranges rule — cost-ratio shrink vs fixed vs none. *)

val ablation_explorer : ?budget:budget -> unit -> string
(** A2: SA placement explorer vs independent random placements. *)

val ablation_query : ?budget:budget -> unit -> string
(** A3: compiled bitset query vs linear scan, wall time per query. *)

val ablation_fallback : ?budget:budget -> unit -> string
(** A5: uncovered-query strategy — the paper's single backup template
    vs re-packing the nearest stored placement. *)

val ablation_parasitics : ?budget:budget -> unit -> string
(** A6: the sizing loop with HPWL-estimated parasitics vs the full
    Fig. 1b Routing + Circuit Extraction flow (cost and wall time). *)

val ablation_refine : ?budget:budget -> unit -> string
(** A7: the per-candidate coordinate-refinement budget (0 = the paper's
    literal walk) vs how many walk placements pass the local-dominance
    admission test and the resulting query quality. *)

(** {1 Synthesis comparison (A4)} *)

val synthesis_comparison : ?budget:budget -> unit -> string
(** End-to-end layout-inclusive sizing of the op-amp with the MPS, the
    fixed template, and the per-query SA placer. *)

(** {1 Probe workloads} *)

val probe_dims : seed:int -> n:int -> Structure.t -> Dims.t array
(** The query workload used for timing and fallback statistics: half
    uniform over the dimension space, half jittered around stored
    placements' best dimension vectors. *)
