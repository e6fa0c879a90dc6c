(** Per-worker evaluation arenas: preallocated scratch a domain reuses
    across candidate evaluations instead of re-allocating per call.

    Candidate evaluation used to build a fresh {!Mps_cost.Incremental}
    engine (O(n² + pins) of arrays), fresh rect arrays, and fresh
    dimension samples for every candidate and every admission sample.
    On OCaml 5 that minor-heap churn is not just serial overhead: every
    minor collection is a stop-the-world across {e all} domains, so one
    allocating worker stalls the whole pool — the measured cause of
    parallel generation scaling {e backwards} (DESIGN.md §9).  An arena
    gives each worker its own reusable state:

    - a cached {!Mps_cost.Incremental} engine, rebound to each new
      candidate with a bit-exact [reset] (cache key: circuit physical
      identity and die — both stable within a generation run);
    - slot-indexed [Rect.t] and [int] buffers, refilled in place.

    Ownership contract: an arena is single-threaded scratch.  Index a
    pool fan-out's arenas by the {!Mps_parallel.Pool.map} worker slot — the pool
    guarantees no two concurrently running tasks share a slot.  Nothing
    reached through an arena may influence results (engine [reset] is
    bit-exact; buffers are fully overwritten before being read), so
    task output stays a pure function of the task — which worker's
    arena served it can never show in the structure. *)

open Mps_geometry
open Mps_netlist

type t

val create : unit -> t
(** An empty arena; everything inside is sized lazily on first use. *)

val engine :
  ?overlap_free:bool ->
  t ->
  Circuit.t ->
  die_w:int ->
  die_h:int ->
  Rect.t array ->
  Mps_cost.Incremental.t
(** The arena's incremental-cost engine bound to the given floorplan:
    a bit-exact [Incremental.reset] of the cached engine when the
    (circuit, die) key matches — 2 minor words whatever the
    net count, for a circuit without symmetry groups — or a fresh
    [Incremental.create] (which replaces the cached engine) when it
    does not.  [overlap_free] is passed to that [reset] (the fresh
    engine is reset too); see {!Mps_cost.Incremental.reset} for what
    the caller promises with it.  The engine stays owned by the arena;
    callers must be done with it before the next [engine] call. *)

val rect_buffer : t -> slot:int -> int -> Rect.t array
(** [rect_buffer t ~slot n] — the arena's rect scratch for [slot],
    of exactly [n] distinct rectangles with unspecified contents.
    Reused while the requested length is stable; distinct slots are
    distinct buffers, for call sites that need two floorplans alive at
    once.  @raise Invalid_argument on a negative slot. *)

val int_buffer : t -> slot:int -> int -> int array
(** Same, for int scratch (dimension samples, permutations). *)
