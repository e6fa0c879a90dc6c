(** Incremental (delta) evaluation of the placement cost function.

    [Cost.evaluate] recomputes every term from scratch: O(n^2) pairwise
    overlap, HPWL over every net, plus a fresh [Rect.t array] per
    evaluation.  The nested annealing loops of MPS generation (Placement
    Explorer + BDIO, paper §3) evaluate millions of single-block
    perturbations, so this module maintains the same cost as mutable
    cached state repaired in O(n + incident nets) per changed block:

    - a per-net cached HPWL with a block → incident-net index,
    - a per-block overlap row sum ([sum_j overlap (i, j)]),
    - a per-block out-of-bounds contribution,
    - the die bounding box (grown O(1), lazily rescanned on shrink),
    - the symmetry penalty (O(groups), recomputed lazily when dirty).

    Geometry changes are transactional: [move_block] / [swap_blocks] /
    [resize_block] stage changes that an annealer either [commit]s
    (accept) or [undo]s (reject).  A staged change logs the cache values
    it overwrites, so [undo] restores them rather than repairing again,
    and a batch in overlap-free mode rebuilds only what its blocks
    touch; either way every term is bit-identical to what a full repair
    would leave.  All integer terms are exact under any
    apply/undo sequence; the float HPWL total accumulates one rounding
    error per delta, so [commit] automatically resyncs from scratch
    every [resync_every] committed operations, keeping the drift far
    below any temperature an annealer cares about (property-tested
    against {!Cost.evaluate} to 1e-6). *)

open Mps_geometry
open Mps_netlist

type t
(** Mutable evaluator state.  Not thread-safe; one per annealing run. *)

val create :
  ?resync_every:int ->
  Circuit.t ->
  die_w:int ->
  die_h:int ->
  Rect.t array ->
  t
(** Build the evaluator from an initial floorplan (copied, one rect per
    block), scoring under {!Cost.weights}.  [resync_every] (default
    1024) bounds float drift: a full recompute runs after that many
    committed geometry changes.
    @raise Invalid_argument on a block-count mismatch or
    [resync_every < 1]. *)

val n_blocks : t -> int

val block_x : t -> int -> int
val block_y : t -> int -> int
val block_w : t -> int -> int
val block_h : t -> int -> int

val rects : t -> Rect.t array
(** Fresh snapshot of the current floorplan. *)

val total : t -> float
(** Current weighted total, identical (within float drift, see
    [resync_every]) to [Cost.total] of {!rects}. *)

val breakdown : t -> Cost.breakdown
(** Itemized view of the cached terms. *)

val move_block : t -> int -> x:int -> y:int -> unit
(** Stage a position change for one block (size kept).  The new position
    is used as given — out-of-die positions are legal states and simply
    pay the penalty, exactly as with the full evaluator.
    @raise Invalid_argument on a bad block index. *)

val swap_blocks : t -> int -> int -> unit
(** Stage a position exchange of two blocks, each clamped into the die
    for its own dimensions (the Placement Explorer's swap move).  A
    self-swap is a no-op. *)

val resize_block : t -> int -> w:int -> h:int -> unit
(** Stage a dimension change for one block (position kept) — the BDIO's
    axis-redraw move.  @raise Invalid_argument on non-positive sizes. *)

val begin_batch : t -> unit
(** Enter batch mode: subsequent staged changes write geometry only
    (no per-change cache repair).  For a move that touches many blocks
    at once — the BDIO redraws ~30% of all axes per move — per-block
    O(n) repair costs more than one pass, so [end_batch] rebuilds the
    caches in a single allocation-free sweep instead: in overlap-free
    mode only the out-of-bounds terms and nets of the blocks the batch
    changed (then the HPWL total re-summed in net order, as {!resync}
    does), otherwise every cache.
    @raise Invalid_argument when a batch is already open. *)

val end_batch : t -> unit
(** Close the batch and rebuild the caches.  The staged changes remain
    one undoable group.  @raise Invalid_argument when no batch is
    open. *)

val pending : t -> int
(** Number of staged geometry changes awaiting [commit] / [undo]. *)

val commit : t -> unit
(** Accept all staged changes.  Triggers the periodic full resync. *)

val undo : t -> unit
(** Revert all staged changes (LIFO), restoring every cached term: from
    the values each change logged, replaying the HPWL total's float
    deltas in their original order, or for a group of more than n/4
    changes by a raw geometry restore and one rebuild as in
    {!end_batch}.  A rejected single-block move or swap allocates
    nothing. *)

val resync : t -> unit
(** Recompute every cache from the current geometry from scratch: the
    drift bound, and the reference the property tests compare against. *)

val reset : ?overlap_free:bool -> t -> Rect.t array -> unit
(** [reset t rects] rebinds the engine to a new floorplan of the same
    circuit and die, discarding any staged changes and open batch.
    After [reset] the state is bit-identical to [create] on the same
    inputs, and without symmetry groups it allocates nothing, whatever
    the net count: the compiled pin and incidence arrays depend only on
    the circuit and die, so a per-worker arena
    can reuse one engine across thousands of candidate evaluations
    instead of paying [create]'s allocation each time — the minor-heap
    churn that stalls every domain on OCaml 5 (DESIGN.md §9).

    [~overlap_free:true] (default [false]) is a promise from the
    caller: [rects], and every floorplan staged on the engine until the
    next [reset], has pairwise disjoint rectangles.  The overlap term is
    then exactly 0 and the engine never walks the O(n²) block pairs, in
    [resync] or in a block change; every other term, out-of-bounds
    included, is maintained as usual, so {!total} stays bit-identical to
    [Cost.total].  A broken promise silently under-reports overlap.
    @raise Invalid_argument on a block-count mismatch. *)
