(** The nine benchmark circuits of the paper's Table 1.

    The paper's netlists are not published; these reconstructions match
    the published block / net / terminal counts exactly (checked by the
    test suite).  The two op-amps and the mixer are hand-modelled with
    realistic module-level structure; the [circNN], [tso-cascode] and
    [benchmark24] circuits are deterministic synthetic netlists (see
    DESIGN.md §3 for why this substitution preserves the experiments). *)

val circ01 : Circuit.t
val circ02 : Circuit.t
val circ06 : Circuit.t
val two_stage_opamp : Circuit.t
val single_ended_opamp : Circuit.t
val mixer : Circuit.t
val tso_cascode : Circuit.t
val benchmark24 : Circuit.t

val all : Circuit.t list
(** The nine circuits in Table 1 order. *)

val by_name : string -> Circuit.t
(** Lookup by the table's circuit name ("circ01", "TwoStage Opamp", ...),
    case-insensitively, also accepting "tso" and "seo" for the op-amps.
    @raise Not_found on unknown names. *)

val synthetic :
  name:string -> blocks:int -> nets:int -> terminals:int -> seed:int -> Circuit.t
(** Deterministic synthetic circuit with the exact given counts: nets are
    dealt [terminals] block pins as evenly as possible (every block is
    referenced when [terminals >= blocks]) and nets with fewer than two
    endpoints receive external pads so wirelength is well-defined. *)
