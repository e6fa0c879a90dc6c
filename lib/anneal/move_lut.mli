(** Precomputed move-bound lookup tables for annealing hot loops
    (the Mapper2.jl [MoveLUT] idiom: trade a little memory at
    compile-a-run time for branch-free, allocation-free move draws).

    A table holds one inclusive integer range per {e slot} — a block's
    legal x positions at fixed dimensions, a dimension axis's interval
    inside a BDIO box — validated once at {!make}.  The per-move
    operations then reduce to array loads plus an unchecked uniform
    draw ({!Mps_rng.Rng.unsafe_int}): no interval records, no bound
    re-derivation, no [Invalid_argument] branches, and nothing
    allocated on the minor heap (property-pinned by a
    [Gc.minor_words] test).  That last point is what makes the tables
    matter for {e parallel} annealing: on OCaml 5 every minor
    collection stops all domains, so allocation-free draw paths are a
    scaling fix, not just a serial one (DESIGN.md §9).

    Tables are immutable after {!make} and safe to read from any
    domain; draws mutate only the caller's RNG.  Draw compatibility:
    [draw t rng i] consumes exactly the draw [Rng.int_in rng (lo i) (hi i)]
    would. *)

type t

val make : n:int -> lo:(int -> int) -> hi:(int -> int) -> t
(** [make ~n ~lo ~hi] compiles the table for slots [0 .. n-1]; every
    range must be non-empty ([lo i <= hi i]).
    @raise Invalid_argument on a negative [n] or an empty range. *)

val draw : t -> Mps_rng.Rng.t -> int -> int
(** [draw t rng i] — uniform in [[lo i, hi i]]; one load of the
    precomputed span, one unchecked draw, zero allocation. *)

val clamp : t -> int -> int -> int
(** [clamp t i v] — [v] clamped into slot [i]'s range, two
    int-specialized compares (compiles branch-free). *)

val draw_shift : t -> Mps_rng.Rng.t -> int -> cur:int -> max_shift:int -> int
(** [draw_shift t rng i ~cur ~max_shift] — a uniform shift of [cur] by
    [[-max_shift, max_shift]], clamped into slot [i]'s range: the
    coordinate-annealing move, drawn exactly as
    [clamp t i (cur + Rng.int_in rng (-max_shift) max_shift)]. *)
