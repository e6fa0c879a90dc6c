(** Dependency-free domain pool (stdlib [Domain]/[Mutex]/[Condition]/[Atomic];
    no domainslib).

    A pool runs batches of independent tasks across a fixed set of
    domains with {b chunked deterministic work-stealing}: a batch's
    task indices are split into one contiguous range per participating
    worker, owners pop chunks from the front of their own range, and
    workers whose range has drained steal chunks from the back of a
    victim's range — every claim a single compare-and-set on a packed
    (lo, hi) word, so workers touch each other's cache lines only when
    they actually steal.

    Results are always delivered {b in task order}, so the output of
    [map]/[map_chunked]/[map_reduce] is bit-identical regardless of how
    many domains the pool has, how the scheduler interleaves them, or
    which worker steals what — the cornerstone of deterministic
    parallel generation (DESIGN.md §9).  Stealing moves {e where} a
    task runs, never what it computes: determinism of the tasks
    themselves is the caller's job.  Each task must draw randomness
    from its own stream (see {!Mps_rng.Rng.split}) and must not share
    mutable state with other tasks; per-worker state (arenas, scratch
    engines) is safe exactly when results do not depend on it — the
    [map_chunked] worker index exists for that reuse pattern.

    The calling domain participates in every batch, so a pool of
    [jobs] workers spawns [jobs - 1] domains.  Small batches wake only
    as many workers as there are chunks (each spawned worker has its
    own condition variable); scratch (deque atomics, error slots,
    stats) is sized once at pool creation and reused across batches —
    no per-batch allocation beyond the result array. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to at least 1 and at
    most 8.

    Rationale for capping at all: generation tasks are heavyweight and
    memory-bound, and the structure fan-outs rarely expose more than a
    few dozen independent tasks — past that point extra domains only
    add stop-the-world minor-GC synchronization cost, which is pure
    loss when the host advertises many SMT threads.  A caller that
    wants a wider pool passes an explicit [jobs] to {!create}, which is
    never capped. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs]
    defaults to {!default_jobs}).  [jobs = 1] is a valid pool that
    runs every batch sequentially on the calling domain.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Worker count, including the calling domain. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f tasks] applies [f] to every task and returns the
    results in task order.  Tasks run concurrently under the chunked
    work-stealing scheduler (default grain: [n / (jobs * d)] tasks per
    chunk, at least 1, where [d] is the auto-tuned {!chunk_divisor});
    if any task raises, the exception of the {e lowest} failing task
    index is re-raised after the batch completes, so failures are
    deterministic too. *)

val chunk_divisor : t -> int
(** The divisor [d] behind the default scheduling grain
    [n / (jobs * d)].  Starts at 8 and is retuned after every
    default-grain parallel batch from that batch's steal/chunk ratio:
    above 25% stolen chunks the split was too coarse to balance and
    [d] doubles (finer chunks), below 5% the claim traffic is pure
    overhead and [d] halves (coarser chunks); clamped to [2 .. 32].
    Tuning moves only the scheduling grain — results are in task order
    and bit-identical under any divisor, and an explicit [?chunk]
    bypasses both the default and the tuning. *)

val map_chunked : t -> ?chunk:int -> (worker:int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_chunked pool ~chunk f tasks] — like {!map}, with the
    scheduling grain under caller control and the worker slot exposed
    to the task.  [chunk] is how many consecutive tasks a worker
    claims (and a thief steals) at a time: small chunks balance load,
    large chunks amortize claim traffic; results are in task order
    either way.  [worker] is the slot (in [0 .. jobs-1]) running the
    task — no two concurrently running tasks see the same slot, so it
    may safely index per-worker scratch (arenas); anything reached
    through it must not influence results, or determinism across job
    counts is lost.
    @raise Invalid_argument if [chunk < 1]. *)

val map_reduce : t -> map:('a -> 'b) -> fold:('c -> 'b -> 'c) -> init:'c -> 'a array -> 'c
(** [map_reduce pool ~map ~fold ~init tasks] maps in parallel, then
    folds the results sequentially in task order. *)

(** Cumulative per-worker scheduling counters since pool creation (or
    the last {!reset_stats}) — the diagnosis surface for scaling
    regressions, reported by perfbench's [pool.*] metrics. *)
type stats = {
  tasks : int;  (** Tasks this worker executed. *)
  chunks : int;  (** Chunks claimed (own-range pops plus steals). *)
  steals : int;  (** Chunks taken from another worker's range. *)
  batches : int;  (** Batches this worker participated in. *)
  minor_words : float;
      (** Minor-heap words this worker allocated while running tasks
          (domain-local [Gc.minor_words] delta) — the contention
          currency on OCaml 5, where every minor collection is a
          stop-the-world across domains. *)
  busy_seconds : float;  (** Wall time spent inside batches. *)
}

val stats : t -> stats array
(** One snapshot per worker slot; slot [jobs - 1] is (usually) the
    calling domain — on batches small enough to wake fewer workers the
    caller takes the last {e participating} slot instead, so slot
    attribution is exact per batch, approximate across batches.  Call
    outside a batch; the batch handshake makes worker writes visible. *)

val reset_stats : t -> unit
(** Zero all counters (e.g. between benchmark phases). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  The pool must not be used
    afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] brackets [create]/[shutdown] around [f],
    shutting down on exceptions as well. *)
