(** Mutable multi-placement structure under construction.

    Holds the stored placements and their boxes' bounds as flat int
    arrays, and implements the paper's Resolve Overlaps + Store
    Placement routines (§3.1.3): before a candidate placement enters
    the structure, its dimension box is made disjoint from every stored
    box — the lower average-cost placement keeps the contested region —
    so that eq. 5 ([|M(V)| <= 1]) holds by construction.  Shrinking can
    fork a placement in two when its interval strictly contains the
    other's on the chosen axis, and drops a placement whose box is
    entirely contained in the other's. *)

open Mps_geometry
open Mps_netlist

type t

val create : Circuit.t -> t
(** An empty builder.  When Resolve Overlaps shrinks a box and the
    clamp moves a placement's [best_dims], its [best_cost] is
    recomputed ({!Mps_cost.Cost.total}) so the (vector, cost) pair
    stays re-verifiable ({!Audit}). *)

val circuit : t -> Circuit.t

val n_live : t -> int
(** Number of placements currently stored. *)

val live : t -> (int * Stored.t) list
(** Stored placements with their indices, ascending. *)

val get : t -> int -> Stored.t option
(** [None] for removed (shrunk-away) or out-of-range indices. *)

val overlapping : t -> Dimbox.t -> int list
(** Indices of live placements whose box overlaps the given box,
    ascending (the paper's [I] set), by a scan of the per-slot flat
    bounds. *)

val overlapping_any : t -> Dimbox.t -> int
(** Smallest id in {!overlapping}, or [-1] when there is none: the
    same scan, stopped at the first hit and allocating nothing.  The
    Resolve Overlaps loop peels one conflict at a time with it, so the
    smallest-id choice is what makes generation deterministic. *)

(** Outcome of shrinking a victim box against an overlapping box. *)
type shrink_outcome =
  | Dropped  (** Victim contained in the other box on every axis. *)
  | Shrunk of Dimbox.t
  | Forked of Dimbox.t * Dimbox.t

val shrink_box_against : victim:Dimbox.t -> other:Dimbox.t -> shrink_outcome
(** Resolve one overlap: on the overlapping axis with the smallest
    overlap where the victim is not contained in the other interval,
    cut the victim's interval back to the side(s) of the other's.
    Requires the boxes to overlap.  The result boxes are disjoint from
    [other] and contained in [victim]. *)

val resolve_and_store : t -> Stored.t -> int list
(** The candidate placement enters the structure after all overlaps are
    resolved; returns the indices it was stored under ([] when it was
    dropped, two or more when forked).  Stored placements with a higher
    average cost than the candidate — and template-like backup
    territory unconditionally — are shrunk (possibly forked or removed)
    instead. *)

val coverage : t -> float
(** Exact covered fraction of the dimension search space: the sum of
    the live boxes' volume fractions (valid because boxes are
    disjoint).  The explorer's stopping criterion (§3.1.4), asked
    before every merged record, so the sum is cached until the next
    insert or remove. *)

val boxes_disjoint : t -> bool
(** Invariant check: every pair of live boxes is disjoint. *)

val bounds_consistent : t -> bool
(** Invariant check: every live slot's flat bounds equal its box. *)
