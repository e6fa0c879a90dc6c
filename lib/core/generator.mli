(** One-time multi-placement structure generation (paper §3, Fig. 4).

    The Placement Explorer walks placement space with simulated
    annealing: select / perturb coordinates, expand dimensions, hand the
    expanded placement to the BDIO, resolve overlaps against the
    structure, store — and use the BDIO's average cost as the annealing
    cost.  Every evaluated placement is stored (after overlap
    resolution); acceptance only steers the walk.  The run stops at the
    coverage target, the placement cap, or the iteration budget.

    There is one explorer loop: independent walks advanced in lockstep
    rounds of 4 steps over a {!Mps_parallel.Pool} of [jobs] domains,
    merged into the builder in walk order.  {!generate} (what
    [mpsgen generate], the store and the daemon serve) runs 4 walks,
    each task on its own {!Mps_rng.Rng.split} stream, so it returns a
    structure that is
    {b byte-identical at any job count} (property-tested) — [jobs]
    (default {!Mps_parallel.Pool.default_jobs}; [1] runs on the calling
    domain) only changes wall time.  {!single_walk} runs one walk on
    one stream through the same loop.

    Fan-outs run one task per backup restart or walk advance, with one
    evaluation {!Mps_placement.Arena} per worker slot; the worker and
    arena a task lands on move {e where} it runs, never what it
    computes.

    The values no run varies are constants: the die
    ({!Mps_netlist.Circuit.default_die}), the explorer's geometric
    cooling (t0 500, alpha 0.93, t_min 1e-3), a perturbation moving 25%
    of the blocks by at most 35% of the die's longer side, the backup as
    the best of 3 annealing restarts, and the 4 walks of 4 steps per
    round above.  Every cost is {!Mps_cost.Cost.total}. *)

open Mps_netlist

type config = {
  seed : int;
  explorer_iterations : int;  (** Metropolis steps per walk. *)
  bdio : Bdio.config;
  coverage_target : float;
      (** Stop once this fraction of the dimension space is covered
          (100% "can never be reached", §3.1.4). *)
  max_placements : int;  (** Stop once this many placements are live. *)
  backup_iterations : int;
      (** Coordinate-annealing budget of each of the backup's 3
          restarts (the best one wins): the template-like backup
          placement built for uncovered dimension space is the quality
          floor for the whole structure — admission tests and every
          uncovered query compare against it — so one unlucky run must
          not set it. *)
  seed_walk_with_backup : bool;
      (** Start the explorer walk from the optimized backup placement
          instead of a fresh random placement (quality improvement over
          the paper's random initial selection; see DESIGN.md). *)
  refine_iterations : int;
      (** Short coordinate-annealing refinement applied to each explorer
          candidate, each toward its own random target sizing, before
          expansion and the BDIO; [0] disables it (the paper's literal
          walk).  See DESIGN.md §5. *)
  checkpoint_every : int;
      (** Snapshot every walk's state to [checkpoint_path] every this
          many lockstep rounds ({!Checkpoint}); [0] (the default)
          disables checkpointing.  A run that did not resume also
          writes one right after its setup, and a deadline stop writes
          a final one. *)
  checkpoint_path : string option;
      (** Where the snapshot goes (written atomically); [None] (the
          default) disables checkpointing. *)
  max_seconds : float option;
      (** Wall-clock deadline: once this many seconds have elapsed the
          run stops gracefully at the next step boundary and returns
          the best structure so far, with {!stats.deadline_hit} set.
          [None] (the default) means no deadline.  On a resumed run the
          budget restarts with the process. *)
}

val default_config : config
(** seed 1, 60 explorer iterations, BDIO defaults, coverage target 0.5,
    at most 200 placements, 5000 backup iterations, 2000 refinement
    iterations, walk seeded with the backup, no checkpoint and no
    deadline. *)

val fast_config : config
(** Reduced budgets for tests and demos (15 explorer iterations, 120
    BDIO iterations, at most 60 placements). *)

type stats = {
  placements_stored : int;
  coverage : float;
  explorer_steps : int;  (** Candidate placements evaluated. *)
  candidates_dropped : int;  (** Candidates fully absorbed by better ones. *)
  cost_evaluations : int;
      (** Placement cost evaluations performed during the run: SA moves
          across the backup / refinement / BDIO annealing loops plus
          admission-test sampling.  The generation-throughput benchmarks
          report this over wall time.  Restarts at zero on a resumed
          run, like [generation_seconds]. *)
  generation_seconds : float;  (** CPU time of the generation run. *)
  deadline_hit : bool;
      (** The run stopped early because [max_seconds] elapsed; the
          returned structure is valid but below its exploration
          budget — resume from the checkpoint (or {!extend}) to finish. *)
}

val beats_backup_locally :
  Mps_rng.Rng.t ->
  Circuit.t ->
  Stored.t ->
  order:int array ->
  Stored.t ->
  arena:Mps_placement.Arena.t ->
  evals:int ref ->
  bool
(** [beats_backup_locally rng circuit backup ~order candidate ~arena
    ~evals] is the explorer's admission test (DESIGN.md §5): over
    32 dimension vectors drawn from the candidate's box, does the
    candidate at its raw coordinates cost no more in total than the
    backup re-packed at the same vectors?  [order] must be
    [Repack.order] of the backup's coordinates; a run computes it once.
    Adds the 64 evaluations to [evals]. *)

val backup :
  ?pool:Mps_parallel.Pool.t -> Circuit.t -> die_w:int -> die_h:int -> Stored.t
(** The backup template {!generate} builds under {!default_config}: the
    best of 3 coordinate-annealing restarts at the nominal dimensions
    (one [pool] task each), finalized with the BDIO and the template's
    200-sample average over the whole designer space.  It claims that
    whole space.  The result does not depend on [pool], which defaults
    to a one-slot pool; on the default die it is {!generate}'s backup
    bit for bit. *)

val generate :
  ?config:config ->
  ?jobs:int ->
  ?on_pool_stats:(Mps_parallel.Pool.stats array -> unit) ->
  Circuit.t ->
  Structure.t * stats
(** Build the multi-placement structure for a circuit topology: the
    backup's 3 annealing runs fan out one task each,
    then the walks explore.  [on_pool_stats] receives the per-worker
    scheduling counters ({!Mps_parallel.Pool.stats}) just before the
    pool shuts down. *)

val generate_par :
  ?config:config ->
  ?jobs:int ->
  ?on_pool_stats:(Mps_parallel.Pool.stats array -> unit) ->
  Circuit.t ->
  Structure.t * stats
(** The same function as {!generate}, under the name the sizing-loop
    benchmark calls.  ROADMAP item 1 deletes it. *)

val single_walk : ?config:config -> Circuit.t -> Structure.t * stats
(** The explorer the experiments, examples and most tests run: one
    perturbation walk, with the backup's annealing restarts and then
    the walk drawing from a single stream.  It runs the same loop as
    {!generate}, on the calling domain, but builds a different
    structure: the experiments' shape checks (EXPERIMENTS.md, Figure 6
    in particular) hold on this one and not yet on {!generate}'s
    (ROADMAP item 3).  Its runs checkpoint and {!resume} like any
    other. *)

val random_explorer : ?config:config -> Circuit.t -> Structure.t * stats
(** Ablation A2: {!single_walk} proposing a fresh random placement at
    each step instead of perturbing the accepted one; same loop, same
    stopping criteria. *)

val extend : ?config:config -> ?jobs:int -> Structure.t -> Structure.t * stats
(** Resume exploration on an existing (possibly reloaded) structure:
    thaw it, keep its backup and die, run fresh walks from the backup
    placement, and recompile.  Use a different [seed] (and a
    [max_placements] above the current count) to add coverage
    incrementally. *)

val resume : ?config:config -> ?jobs:int -> Checkpoint.t -> Structure.t * stats
(** Continue an interrupted {!generate}, {!single_walk} or {!extend} run from a
    {!Checkpoint}: reconstitute the builder, restore every walk's
    accepted placement, counters and exact stream, and continue the
    perturbation walks under the given config's stopping criteria.  The
    walk count and chunk come from the checkpoint, never from [jobs],
    so a run checkpointed under [jobs = 4] resumes byte-identically to
    the uninterrupted run under any [jobs] (property-tested). *)
