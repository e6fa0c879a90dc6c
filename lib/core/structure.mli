(** The compiled multi-placement structure — the paper's function
    [M : V -> Π] (eqs. 1 and 4).

    Generated once per circuit topology and then queried repeatedly
    inside a synthesis loop.  The rows of Fig. 3 are a flat plan that
    {!of_placements} sweeps from the placements' boxes once — interval
    bounds and placement-set words in contiguous int arrays, one row per
    axis in selectivity order.  Every answer ({!query}, {!instantiate},
    {!Engine}) binary-searches that plan, intersects the set words and
    yields the single valid placement, or the backup template placement
    when the dimensions fall in uncovered space (§3.1.4).
    {!query_linear} is the reference oracle the plan is checked
    against. *)

open Mps_geometry
open Mps_netlist

type t

val compile : ?backup:Stored.t -> Builder.t -> t
(** Compile a builder's live placements.  [backup] is the template-like
    placement answering queries in uncovered dimension space (paper
    §3.1.4); it defaults to the stored placement with the lowest best
    cost.
    @raise Invalid_argument on an empty builder. *)

val of_placements : ?backup:Stored.t -> Circuit.t -> Stored.t array -> t
(** Compile directly from stored placements (used when loading a saved
    structure): checks eq. 5 and builds the query plan.
    @raise Invalid_argument when the array is empty, a placement's
    block count mismatches the circuit, or two validity boxes overlap
    (eq. 5 would break). *)

val of_placements_lenient :
  ?backup:Stored.t -> Circuit.t -> Stored.t array -> t * int list
(** Quarantining variant of {!of_placements}: instead of refusing a
    flawed placement set, keep the largest well-formed pairwise-disjoint
    subset (lower average-cost placements win contested territory, block
    count / box-vs-expansion / best-dims violations are dropped) and
    return the indices of the quarantined placements.  Queries over
    quarantined territory fall back to the backup template (§3.1.4).  A
    backup with the wrong block count is ignored.
    @raise Invalid_argument only when no placement at all is
    admissible. *)

val circuit : t -> Circuit.t

val n_placements : t -> int
(** All stored placements, the backup template's territory pieces
    included. *)

val n_explored : t -> int
(** Explorer-discovered placements only (template-like pieces of the
    backup excluded) — Table 2's "Placements" column. *)

val placements : t -> Stored.t array
(** All stored placements (fresh copy). *)

val backup : t -> Stored.t
(** The template-like placement answering uncovered queries. *)

val coverage : t -> float
(** Covered fraction of the dimension search space (exact sum over the
    disjoint explorer boxes; template territory excluded). *)

val coverage_sampled : seed:int -> samples:int -> t -> float
(** Monte-Carlo estimate of {!coverage}: the share of uniform dimension
    vectors answered by an explorer-discovered placement.  Agrees with
    the exact sum within sampling error (property-tested); useful as an
    independent check of the row/box machinery. *)

val describe : t -> string
(** Multi-line human-readable summary: placement counts, coverage, die,
    interval objects and the shape of the query plan. *)

(** How a query was answered. *)
type answer =
  | Stored_placement of int  (** Index of the unique covering placement. *)
  | Fallback  (** Dimensions in uncovered space; template backup used. *)
  | Out_of_domain
      (** Dimensions outside the designer min/max space entirely; the
          backup template is returned so answering stays total, but the
          caller should treat the sizing point as invalid. *)

val answer_to_string : answer -> string
(** ["stored:<id>"], ["fallback"] or ["out-of-domain"] — for logs,
    audits and benchmark reports. *)

val query : t -> Dims.t -> answer * Stored.t
(** The placement to use for the given dimension vector.  When the
    vector lies in some stored box the answer is unique (boxes are
    disjoint); otherwise the backup template placement is returned —
    with {!Out_of_domain} instead of {!Fallback} when the vector is not
    even inside the designer dimension space.  Total for any vector
    with the right block count.

    {!Engine.query} on a fresh session; serving-scale callers keep one
    {!Engine.session} instead, which makes steady-state queries
    allocation-free.
    @raise Invalid_argument on block-count mismatch. *)

val instantiate : t -> Dims.t -> Rect.t array
(** Floorplan instantiation at the requested dimensions: the selected
    placement's coordinates on a hit; on a fallback answer, the backup
    template placement greedily re-packed for these dimensions
    ({!Stored.instantiate_repacked}) — template-like behaviour for the
    uncovered share of the space.  Always overlap-free. *)

val instantiate_cost : t -> Dims.t -> Rect.t array * float
(** {!instantiate} plus the cost ({!Mps_cost.Cost.total}) of the
    resulting floorplan. *)

val query_linear : t -> Dims.t -> answer * Stored.t
(** The reference oracle: scans all stored boxes.  Used for the
    compiled-vs-linear ablation, the audit's query probes and the test
    suites. *)

val nearest : t -> Dims.t -> int
(** Index of the stored placement whose validity box is closest to the
    vector (L1 box distance, ties broken by lower best cost); [0]
    distance means the vector is covered.  An extension beyond the
    paper's single backup template: uncovered queries can reuse the
    locally best arrangement instead. *)

val instantiate_nearest : t -> Dims.t -> Rect.t array
(** Like {!instantiate}, but uncovered queries re-pack the {!nearest}
    stored placement instead of the backup template. *)

val to_builder : t -> Builder.t
(** Thaw into a builder so more placements can be explored and stored
    incrementally ({!Generator.extend}). *)

val die : t -> int * int

(** The query engine over the compiled plan (DESIGN.md §10).

    A structure's plan is built once by {!of_placements}: it orders the
    narrowing rows by selectivity (smallest average placement set
    first) and drops rows that cannot narrow (a single interval
    spanning the whole designer axis with every placement on it), and
    precomputes the re-pack visit order of the backup and of every
    stored placement.  All per-query scratch lives in a reusable
    {!Engine.session}, so steady-state queries and
    {!Engine.instantiate_into} allocate nothing, fallbacks included.
    A session answers each sizing-walk step from what it changed: the
    axes that moved since the previous query are tested against the
    previous answer's box (the hot-box cache) and the designer space, a
    per-row memo skips binary searches, a fallback whose moved rows kept
    their intervals is the previous fallback again, a raw answer
    re-tests only moved axes against the expansion box, and a re-pack
    of the same placement re-settles only the blocks the change can
    reach (DESIGN.md §10).

    Answers are always identical to {!query_linear} (property-tested on
    every Table 1 circuit and re-checked by the audit's query
    probes). *)
module Engine : sig
  type structure := t

  type t
  (** The compiled plan.  Immutable and safe to share across domains. *)

  type session
  (** Mutable per-caller scratch: intersection words, a rect buffer,
      the previous query's vector and answer (the hot-box cache), the
      row memo, the raw-fill and re-pack state, and query counters.
      Re-pack orders belong to the engine, never to a session.  Not
      thread-safe — use one session per domain.  A session is
      engine-agnostic: it may be reused across engines (even
      interleaved); rebinding to a different engine resizes the
      scratch and drops all of that state. *)

  type stats = {
    queries : int;
    cache_hits : int;  (** Queries answered by the hot-box cache. *)
    stored_hits : int;  (** Queries answered by a stored placement. *)
    fallbacks : int;
    out_of_domain : int;
  }

  val create : structure -> t
  (** The structure's plan, compiled by {!of_placements}.  O(1). *)

  val structure : t -> structure
  (** The structure behind the engine.  O(1) for engines obtained by
      {!create}; an engine loaded from a flat mapping ({!of_flat} via
      {!Zcodec}) first runs {!of_placements}' O(n²) eq. 5 disjointness
      check on its placements (the validation the flat path exists to
      avoid), once.
      @raise Invalid_argument when two validity boxes overlap. *)

  val circuit : t -> Circuit.t
  val backup : t -> Stored.t
  (** The template placement answering fallback queries. *)

  val n_stored : t -> int
  (** Stored placements (backup territory pieces included) — the valid
      range of {!query_id} hits. *)

  val die : t -> int * int

  val new_session : unit -> session

  val query : t -> session -> Dims.t -> answer * Stored.t
  (** The contract of {!Structure.query}; allocates only the result
      pair.  @raise Invalid_argument on block-count mismatch. *)

  val query_id : t -> session -> Dims.t -> int
  (** The allocation-free primitive behind {!query}: the stored
      placement index on a hit, [-1] for fallback, [-2] for
      out-of-domain. *)

  val instantiate_into : t -> session -> Dims.t -> Rect.t array
  (** Floorplan at the requested dimensions, written into the session's
      reusable rect buffer — the returned array (and the rects inside
      it) are valid until the session's next call.  Rect for rect the
      answer of {!Structure.instantiate}, and allocation-free for every
      answer: stored hits inside the expansion box copy coordinates;
      fallbacks and template-like hits beyond it re-pack with the
      engine's precomputed order, warm from the session's previous
      re-pack of the same placement ({!Mps_placement.Repack.pack_warm}).
      Every call writes all n rects from the session's own state, so
      overwriting the returned rects does not affect the next
      answer. *)

  val instantiate : t -> session -> Dims.t -> Rect.t array
  (** Like {!instantiate_into} but returns a freshly allocated
      floorplan that is safe to retain. *)

  val instantiate_cost : t -> session -> Dims.t -> Rect.t array * float
  (** {!instantiate_into} plus the cost ({!Mps_cost.Cost.total}) of the
      resulting floorplan. *)

  val stats : session -> stats

  val n_active_rows : t -> int
  (** Rows in the narrowing plan after the skip rule. *)

  val n_skipped_rows : t -> int
  (** Rows dropped because they could never narrow. *)

  val describe : t -> session -> string
  (** {!Structure.describe} of the plan plus the session's query /
      hot-box-cache hit-rate counters. *)

  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** The engine's array substrate: plain heap vectors for plans
      compiled by {!of_placements}, zero-copy sub-views of a read-only
      file mapping for engines loaded through {!Zcodec}.  The query kernel is identical
      either way. *)

  (** The compiled plan as bare int vectors — the exchange form the
      MPSZ container stores verbatim.  Row [r] tests axis
      [f_row_axis.{r}] (code [2i] = width of block [i], [2i+1] =
      height) against intervals [f_row_off.{r} .. f_row_off.{r+1} - 1];
      interval [k]'s placement bitset occupies words
      [k * f_words_per_set ..) of [f_set_words]; [f_dom_*] flatten the
      designer space and [f_box_*]/[f_box_in_domain] the per-placement
      validity boxes, all indexed by axis code. *)
  type flat = {
    f_capacity : int;
    f_words_per_set : int;
    f_skipped_rows : int;
    f_row_axis : ints;
    f_row_off : ints;
    f_lows : ints;
    f_highs : ints;
    f_set_words : ints;
    f_dom_lo : ints;
    f_dom_hi : ints;
    f_box_lo : ints;
    f_box_hi : ints;
    f_box_in_domain : ints;
  }

  val flatten : t -> flat
  (** The engine's live arrays (no copy) — for serialization. *)

  val of_flat :
    circuit:Circuit.t ->
    stored:Stored.t array ->
    backup:Stored.t ->
    die:int * int ->
    flat ->
    t
  (** Wrap flat vectors (typically mapped file views) as a ready
      engine, without recompiling anything.  Validates every shape
      invariant the kernel needs for memory safety — lengths, row
      offsets, axis codes (each in at most one row), per-row
      sortedness, domain bounds against
      the circuit — so a damaged container can at worst answer wrongly
      (which the container CRCs detect), never crash.
      @raise Invalid_argument on any violated invariant. *)
end
