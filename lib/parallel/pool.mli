(** Dependency-free domain pool (stdlib [Domain]/[Mutex]/[Condition]/[Atomic];
    no domainslib).

    A pool runs batches of independent tasks across a fixed set of
    domains.  Every worker claims the next task index from one shared
    counter per batch ([Atomic.fetch_and_add]) until the batch is
    drained, so a worker held up by a long task never holds back the
    rest of the batch.

    Results are always delivered {b in task order}, so the output of
    {!map} is bit-identical regardless of how many domains the pool
    has or which worker claims which task — the cornerstone of
    deterministic parallel generation (DESIGN.md §9).  Determinism of
    the tasks themselves is the caller's job.  Each task must draw
    randomness from its own stream (see {!Mps_rng.Rng.split}) and must
    not share mutable state with other tasks; per-worker state (arenas,
    scratch engines) is safe exactly when results do not depend on it —
    the [worker] slot {!map} passes exists for that reuse pattern.

    The calling domain participates in every batch, so a pool of
    [jobs] workers spawns [jobs - 1] domains.  Per-worker scratch
    (error slots, stats) is sized once at pool creation and reused
    across batches. *)

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

val map : t -> (worker:int -> 'a -> 'b) -> 'a array -> 'b array
(** [map pool f tasks] applies [f] to every task and returns the
    results in task order.  If any task raises, the exception of the
    {e lowest} failing task index is re-raised after the batch
    completes, so failures are deterministic too.  [worker] is the
    slot (in [0 .. jobs-1]) running the task — no two concurrently
    running tasks see the same slot, so it may safely index per-worker
    scratch (arenas); anything reached through it must not influence
    results, or determinism across job counts is lost.
    @raise Invalid_argument if the pool was shut down. *)

(** Cumulative per-worker scheduling counters since pool creation (or
    the last {!reset_stats}) — the diagnosis surface for scaling
    regressions, reported by perfbench's [pool.*] metrics. *)
type stats = {
  tasks : int;  (** Tasks this worker executed. *)
  steals : int;
      (** Always 0: the shared-counter scheduler has no per-worker
          ranges to steal from.  Kept for perfbench's [pool.steals]. *)
  batches : int;  (** Batches this worker participated in. *)
  minor_words : float;
      (** Minor-heap words this worker allocated while running tasks
          (domain-local [Gc.minor_words] delta) — the contention
          currency on OCaml 5, where every minor collection is a
          stop-the-world across domains. *)
  busy_seconds : float;  (** Wall time spent inside batches. *)
}

val stats : t -> stats array
(** One snapshot per worker slot; slot [jobs - 1] is the calling
    domain.  Call outside a batch; the batch handshake makes worker
    writes visible. *)

val reset_stats : t -> unit
(** Zero all counters (e.g. between benchmark phases). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  The pool must not be used
    afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] brackets [create]/[shutdown] around [f],
    shutting down on exceptions as well. *)
