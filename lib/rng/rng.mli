(** Deterministic pseudo-random number helpers.

    Every stochastic component of the library threads a value of type {!t}
    explicitly, so that whole experiments are reproducible from a single
    integer seed.  Draws come from a standard-library [Random.State];
    each generator additionally carries an immutable 64-bit stream key
    from which {!split} derives independent child streams. *)

type t
(** Mutable generator state plus an immutable stream key. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator determined by [seed]. *)

val split : t -> int -> t
(** [split t id] derives the [id]-th child stream of [t] ([id >= 0]).
    The child's seed is a splitmix64 mix of [t]'s stream key and [id],
    so:
    {ul
    {- it is a pure function of [(seed path, id)] — the same parent
       and id always yield the identical stream, no matter how many
       draws [t] has made before or makes after (splitting never
       touches the parent's state);}
    {- distinct ids (and distinct parents) give statistically
       independent streams.}}
    This is what hands every parallel task its own deterministic
    stream by task id (DESIGN.md §9).
    @raise Invalid_argument if [id < 0]. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays the same
    stream as [t] would. *)

val to_string : t -> string
(** Serialize the exact generator state (draw state and stream key) as
    a single printable token (no whitespace).  [of_string (to_string
    t)] replays the same stream as [t] and splits identically — the
    foundation of checkpoint/resume determinism. *)

val of_string : string -> t option
(** Rehydrate a state written by {!to_string}; [None] when the token is
    malformed, from an incompatible runtime, or carries anything but a
    marshalled generator state (a forged blob is refused before it is
    unmarshalled). *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0 .. n-1].  [n] must be positive. *)

val unsafe_int : t -> int -> int
(** [int] without the bound check — same draw, same stream position.
    For compiled move tables ({!Mps_anneal.Move_lut}) whose spans are
    validated once at build time; the behaviour is undefined when
    [n < 1].  Anywhere else, use {!int}. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo .. hi].
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] draws uniformly from [[lo, hi)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array.  @raise Invalid_argument on
    an empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val sample_distinct : t -> k:int -> n:int -> int list
(** [sample_distinct t ~k ~n] draws [k] distinct values from
    [0 .. n-1], in random order.  Requires [0 <= k <= n]. *)
