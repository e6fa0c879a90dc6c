(** Structure compaction: dedupe, merge and prune stored placements
    without changing what the structure answers (DESIGN.md §12).

    Generation over-fragments: Resolve Overlaps shrinks boxes one axis
    at a time, leaving grids of adjacent boxes that carry the same
    placement, and the backup template's territory pieces repeat the
    backup's coordinates once per piece.  Compaction runs four
    answer-preserving rewrites to a fixpoint:

    - {b Dedupe}: placements with bit-identical coordinates share one
      coordinate array, so the MPSZ pool ({!Zcodec}) stores it once.
      Purely representational.
    - {b Merge}: two records with the same coordinates, template flag
      and expansion box whose validity boxes are adjacent along exactly
      one axis (equal on every other) fuse into one record over the
      hull — which equals the union, so coverage and instantiation are
      unchanged; the cheaper best cost survives and the average cost is
      volume-weighted.
    - {b Absorb} (dominated-box pruning): a box adjacent to a
      non-template neighbor with strictly cheaper best cost, and lying
      inside that neighbor's expansion box, is annexed by it.  The
      absorbed territory keeps a valid answer (legality inside the
      expansion box is the Placement Expansion guarantee) and moves to
      the {e lower} of the two per-placement cost curves, preserving
      the Figure 6 lower-envelope property.
    - {b Drop}: a template piece that repeats the backup's coordinates
      and whose box misses its expansion box entirely answers every
      query by greedy re-packing — exactly what the fallback path does
      — so the record is dead weight and is removed.

    The compacted structure is rebuilt through
    {!Structure.of_placements} (re-proving box disjointness) and then
    re-audited; if the audit comes back worse than the original's, the
    rewrite is discarded and the original returned ([reverted]). *)

type stats = {
  records_before : int;  (** Stored records (backup excluded). *)
  records_after : int;
  deduped : int;  (** Records rebound to a shared coordinate array. *)
  merged : int;  (** Records removed by equal-placement merges. *)
  absorbed : int;  (** Records removed by dominated-box pruning. *)
  dropped : int;  (** Dead template pieces removed. *)
  bytes_before : int;
      (** MPSZ container size before compaction (plain layout, what
          [mpsgen generate] writes). *)
  bytes_after : int;
      (** … and after, in the half-packed archival layout compaction
          writes ({!Zcodec.to_string} [~packed:true]); 0 when
          [measure] is false. *)
  reverted : bool;  (** The post-audit was worse; original kept. *)
}

val stats_to_string : stats -> string
(** One-line summary for CLI output. *)

val run : ?audit:bool -> ?measure:bool -> Structure.t -> Structure.t * stats
(** Compact to a fixpoint.  [audit] (default [true]) re-audits the
    result against the original and reverts on regression; [measure]
    (default [true]) serializes both forms to report container bytes —
    skip it when only the structure is wanted. *)
