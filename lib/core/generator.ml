open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_anneal

type config = {
  seed : int;
  explorer_iterations : int;
  bdio : Bdio.config;
  coverage_target : float;
  max_placements : int;
  backup_iterations : int;
  seed_walk_with_backup : bool;
  refine_iterations : int;
      (** Short coordinate-annealing refinement applied to each explorer
          candidate, each toward its own random target sizing; [0]
          disables it (the paper's literal walk). *)
  checkpoint_every : int;
  checkpoint_path : string option;
  max_seconds : float option;
}

let default_config =
  {
    seed = 1;
    explorer_iterations = 60;
    bdio = Bdio.default_config;
    coverage_target = 0.5;
    max_placements = 200;
    backup_iterations = 5000;
    seed_walk_with_backup = true;
    refine_iterations = 2000;
    checkpoint_every = 0;
    checkpoint_path = None;
    max_seconds = None;
  }

(* The explorer's Metropolis temperature per walk step. *)
let explorer_schedule = Schedule.geometric ~t0:500.0 ~alpha:0.93 ~t_min:1e-3

(* A perturbation moves this share of the blocks, each by at most this
   fraction of the die's longer side. *)
let perturb_fraction = 0.25
let max_shift_fraction = 0.35

(* Independent coordinate-annealing restarts for the backup template;
   the best one wins.  The backup is the quality floor for the whole
   structure (admission tests and every uncovered query compare against
   it), so one unlucky annealing run must not be allowed to set it. *)
let backup_restarts = 3

(* Independent explorer walks of a lockstep run, and the steps each
   advances per round before the merge.  Both are fixed (never derived
   from the job count) so the merge order — and hence the structure —
   is identical at any [jobs]; a resumed run reads them from its
   checkpoint. *)
let explorer_restarts = 4
let walk_chunk = 4

let fast_config =
  {
    default_config with
    explorer_iterations = 15;
    bdio = { Bdio.default_config with iterations = 120 };
    max_placements = 60;
    backup_iterations = 600;
    refine_iterations = 120;
  }

type stats = {
  placements_stored : int;
  coverage : float;
  explorer_steps : int;
  candidates_dropped : int;
  cost_evaluations : int;
  generation_seconds : float;
  deadline_hit : bool;
}

(* Local-dominance admission test: over the candidate's claimed box,
   does using the candidate (raw coordinates) beat re-packing the backup
   template at the same dimension vectors?  Point-matched sampling, so
   neither side gets to average over friendlier territory. *)
let beats_backup_locally rng circuit backup ~order candidate ~arena ~evals =
  let samples = 32 in
  evals := !evals + (2 * samples);
  let die_w = candidate.Stored.placement.Placement.die_w in
  let die_h = candidate.Stored.placement.Placement.die_h in
  (* Full evaluations go through the arena engine's [reset] (a
     from-scratch resync, bit-identical to [Cost.total] — the
     incremental evaluator mirrors its arithmetic term for term) so
     each of the 64 evaluations per candidate allocates a constant 4
     words, whatever the net count.  Both sides are
     overlap-free: the candidate's box lies inside its expansion
     ([Stored.make] checks it), whose upper-corner rects are disjoint,
     and a re-pack never overlaps. *)
  let cost rects =
    Mps_cost.Incremental.total
      (Arena.engine ~overlap_free:true arena circuit ~die_w ~die_h rects)
  in
  (* Arena scratch: both floorplans and the sampled dimension vector
     live in per-worker buffers refilled per sample — this loop runs
     64 instantiations per candidate.  (Int slot 0 is the BDIO's axis
     permutation; rect slot 0 doubles as the engine-init buffer, which
     is dead by now.) *)
  let n = Stored.n_blocks candidate in
  let dw = Arena.int_buffer arena ~slot:1 n and dh = Arena.int_buffer arena ~slot:2 n in
  let cand_buf = Arena.rect_buffer arena ~slot:0 n in
  let back_buf = Arena.rect_buffer arena ~slot:1 n in
  let candidate_total = ref 0.0 and backup_total = ref 0.0 in
  for _ = 1 to samples do
    Dimbox.random_dims_into rng candidate.Stored.box ~w:dw ~h:dh;
    let dims = Dims.unsafe_of_arrays ~w:dw ~h:dh in
    Stored.instantiate_into candidate ~out:cand_buf dims;
    candidate_total := !candidate_total +. cost cand_buf;
    Stored.instantiate_repacked_into backup ~order ~out:back_buf dims;
    backup_total := !backup_total +. cost back_buf
  done;
  !candidate_total <= !backup_total

(* Expand a placement, optimize its dimension intervals, and run the
   admission test — everything about a candidate except touching the
   builder.  This is the unit of work a parallel walk can do on its own
   domain: it draws only from [rng], and all mutable evaluation state
   (the [Incremental] engine, scratch buffers) comes from the worker's
   own [arena].  [order] is the backup's [Repack.order], computed once
   per run.  Returns the made candidate, the BDIO result (the
   explorer's cost signal), and the admission verdict. *)
let evaluate_candidate config rng circuit backup ~order placement ~arena ~evals =
  let expansion = Expand.expand circuit placement in
  let bdio =
    Bdio.optimize ~config:config.bdio ~arena ~rng circuit placement ~box:expansion
  in
  evals := !evals + bdio.Bdio.evaluations;
  let candidate =
    Stored.make ~template_like:false ~placement ~box:bdio.Bdio.box ~expansion
      ~avg_cost:bdio.Bdio.avg_cost ~best_cost:bdio.Bdio.best_cost
      ~best_dims:bdio.Bdio.best_dims
  in
  let admitted = beats_backup_locally rng circuit backup ~order candidate ~arena ~evals in
  (candidate, bdio, admitted)

(* Refine a candidate's coordinates with a short annealing run toward
   a random target sizing: explored placements become locally good
   arrangements for diverse dimension regions. *)
let refine_candidate cfg rng circuit ~die_w ~die_h ~arena ~evals placement =
  if cfg.refine_iterations <= 0 then placement
  else begin
    let target = Dimbox.random_dims rng (Circuit.dim_bounds circuit) in
    let coord_config =
      { Coord_opt.iterations = cfg.refine_iterations; max_shift_fraction = 0.2 }
    in
    let refined =
      Coord_opt.optimize ~config:coord_config ~arena ~initial:placement.Placement.coords
        ~rng circuit ~die_w ~die_h target
    in
    evals := !evals + refined.Coord_opt.evaluations;
    if Placement.is_legal refined.Coord_opt.placement (Circuit.min_dims circuit) then
      refined.Coord_opt.placement
    else placement
  end

(* The template-like backup placement for uncovered dimension space
   (paper §3.1.4): coordinates annealed at the nominal dimensions,
   valid over its whole expansion box: the best of [backup_restarts]
   annealing runs (fanned out in [build_backup] below), finalized here. *)

let backup_coord_config config =
  { Coord_opt.default_config with Coord_opt.iterations = config.backup_iterations }

let finalize_backup config rng circuit ~die_w ~die_h ~arena ~evals
    (optimized : Coord_opt.result) =
  let placement =
    if Placement.is_legal optimized.Coord_opt.placement (Circuit.min_dims circuit) then
      optimized.Coord_opt.placement
    else Placement.random rng circuit ~die_w ~die_h
  in
  let expansion = Expand.expand circuit placement in
  let bdio_config = { config.bdio with Bdio.shrink = Bdio.No_shrink } in
  let bdio =
    Bdio.optimize ~config:bdio_config ~arena ~rng circuit placement ~box:expansion
  in
  evals := !evals + bdio.Bdio.evaluations;
  (* The backup claims the whole designer dimension space (re-packing
     outside its expansion box), so an explorer placement only wins
     territory by beating it — the structure's quality floor.  Its
     competitive average is the template's true cost over that whole
     space (sampled, re-packed), not the flattering average over its
     own expansion box: a candidate survives Resolve Overlaps exactly
     when its regional average beats using the template everywhere. *)
  let bounds = Circuit.dim_bounds circuit in
  let template_avg =
    let samples = 200 in
    evals := !evals + samples;
    let n = Placement.n_blocks placement in
    let dw = Arena.int_buffer arena ~slot:1 n and dh = Arena.int_buffer arena ~slot:2 n in
    let buf = Arena.rect_buffer arena ~slot:1 n in
    let coords = placement.Placement.coords in
    let order = Repack.order coords in
    let total = ref 0.0 in
    for _ = 1 to samples do
      Dimbox.random_dims_into rng bounds ~w:dw ~h:dh;
      let dims = Dims.unsafe_of_arrays ~w:dw ~h:dh in
      Repack.pack ~order ~out:buf ~coords dims;
      Repack.fit_die_in_place ~die_w ~die_h buf;
      (* allocation-free full evaluation of an overlap-free re-pack,
         bit-identical to [Cost.total] (see [beats_backup_locally]) *)
      total :=
        !total
        +. Mps_cost.Incremental.total
             (Arena.engine ~overlap_free:true arena circuit ~die_w ~die_h buf)
    done;
    !total /. float_of_int samples
  in
  Stored.make ~template_like:true ~placement ~box:bounds ~expansion
    ~avg_cost:(Float.max template_avg bdio.Bdio.avg_cost)
    ~best_cost:bdio.Bdio.best_cost ~best_dims:bdio.Bdio.best_dims


(* ---- The explorer: deterministic lockstep walks (DESIGN.md §9) ----

   The task list is fixed by constants alone: [backup_restarts]
   coordinate-annealing tasks, then [explorer_restarts] independent
   Metropolis walks advanced in lockstep rounds of [walk_chunk] steps
   each.  Every task draws from its own stream ([Rng.split] by task
   id), and results are merged into the builder in (round, walk, step)
   order — so the structure is a pure function of the config, never of
   the job count or the scheduler.  Each task builds its own
   [Incremental] engine inside [Bdio.optimize]/[Coord_opt.optimize]:
   no mutable cost state ever crosses a domain. *)

module Pool = Mps_parallel.Pool

(* The backup is the best of [backup_restarts] annealing runs (strict
   [<]: ties go to the lowest restart index), finalized with [rng]. *)
let best_backup config rng circuit ~die_w ~die_h ~arena ~evals results =
  Array.iter (fun r -> evals := !evals + r.Coord_opt.evaluations) results;
  let optimized =
    Array.fold_left
      (fun best r -> if r.Coord_opt.cost < best.Coord_opt.cost then r else best)
      results.(0) results
  in
  finalize_backup config rng circuit ~die_w ~die_h ~arena ~evals optimized

let build_backup pool arenas config root circuit ~die_w ~die_h ~evals =
  let nominal = Dimbox.center (Circuit.dim_bounds circuit) in
  let coord_config = backup_coord_config config in
  (* A handful of heavyweight annealing runs, one task each.  The
     worker slot picks the arena; which worker runs a restart never
     changes its result. *)
  let results =
    Pool.map pool
      (fun ~worker k ->
        let rng = Rng.split root k in
        Coord_opt.optimize ~config:coord_config ~arena:arenas.(worker) ~rng circuit
          ~die_w ~die_h nominal)
      (Array.init backup_restarts Fun.id)
  in
  (* finalization runs on the calling domain — its usual slot is the
     last one, but any arena would do (results never depend on one) *)
  best_backup config (Rng.split root backup_restarts) circuit ~die_w ~die_h
    ~arena:arenas.(Array.length arenas - 1) ~evals results

(* The single walk's backup: the restarts run one after another on the
   one stream the walk then continues ([Array.init] applies in index
   order). *)
let build_backup_shared config rng circuit ~die_w ~die_h ~arena ~evals =
  let nominal = Dimbox.center (Circuit.dim_bounds circuit) in
  let coord_config = backup_coord_config config in
  best_backup config rng circuit ~die_w ~die_h ~arena ~evals
    (Array.init backup_restarts (fun _ ->
         Coord_opt.optimize ~config:coord_config ~arena ~rng circuit ~die_w ~die_h nominal))

(* [generate]'s backup at the default budget, fanned out over [pool]
   (a one-slot pool without one): what [Repair] rebuilds a broken
   backup with. *)
let backup ?pool circuit ~die_w ~die_h =
  let build pool =
    let arenas = Array.init (Pool.jobs pool) (fun _ -> Arena.create ()) in
    build_backup pool arenas default_config
      (Rng.split (Rng.create ~seed:default_config.seed) 0)
      circuit ~die_w ~die_h ~evals:(ref 0)
  in
  match pool with Some pool -> build pool | None -> Pool.with_pool ~jobs:1 build

(* How a walk proposes its next candidate from its accepted placement:
   a perturbation (the paper's Fig. 4), or a fresh random placement
   (ablation A2).  Both draw only from the walk's own stream. *)

let perturbation circuit rng ~die_w ~die_h current =
  let max_shift =
    max 1 (int_of_float (max_shift_fraction *. float_of_int (max die_w die_h)))
  in
  Perturb.perturb rng circuit ~fraction:perturb_fraction ~max_shift current

let fresh_placement circuit rng ~die_w ~die_h _current =
  Placement.random rng circuit ~die_w ~die_h

(* Advance one walk by at most [chunk] steps, collecting the evaluated
   candidates (with their admission verdicts) in step order.  Walk step
   0 evaluates the initial placement; afterwards each step is propose
   -> refine -> evaluate -> Metropolis (Fig. 4's "Accept New
   Placement?") at the walk's own step temperature.  Runs entirely on
   the walk's private stream; returns the advanced walk, the candidates
   and the cost evaluations spent (each task counts into its own
   accumulator — the shared total is summed at merge time). *)
let advance_walk cfg circuit backup ~order ~propose ~die_w ~die_h ~chunk ~arena
    (w : Checkpoint.walk) =
  let evals = ref 0 and out = ref [] in
  let rng = w.w_rng in
  let step = ref w.w_step and current = ref w.w_current and cost = ref w.w_cost in
  let budget = ref chunk in
  while !budget > 0 && !step < cfg.explorer_iterations do
    let proposed =
      if !step = 0 then !current
      else
        refine_candidate cfg rng circuit ~die_w ~die_h ~arena ~evals
          (propose rng ~die_w ~die_h !current)
    in
    let candidate, bdio, admitted =
      evaluate_candidate cfg rng circuit backup ~order proposed ~arena ~evals
    in
    out := (candidate, admitted) :: !out;
    let dc = bdio.Bdio.avg_cost -. !cost in
    if
      !step = 0
      || dc <= 0.0
      || Rng.float rng 1.0
         < exp (-.dc /. Schedule.temperature explorer_schedule ~step:!step)
    then begin
      current := proposed;
      cost := bdio.Bdio.avg_cost
    end;
    incr step;
    decr budget
  done;
  ({ w with w_step = !step; w_current = !current; w_cost = !cost }, List.rev !out, !evals)

(* Where a run starts: fresh lockstep walks, one walk on one stream
   (the explorer the experiments measure), more walks on an existing
   structure, or a checkpoint of any of these. *)
type start =
  | Fresh of Circuit.t
  | Single of Circuit.t
  | Extend of Structure.t
  | Resume of Checkpoint.t

let run pool ~cfg ~propose start =
  let t_start = Sys.time () in
  let t_wall = Unix.gettimeofday () in
  let evals = ref 0 in
  (* Stream scheme: the root is never drawn from — child 0 seeds the
     backup restarts (task k -> stream k, finalization -> stream
     [backup_restarts]), child 1 seeds the walks (walk w -> stream w).  A
     single walk instead draws everything, backup first, from the root
     itself. *)
  let root = Rng.create ~seed:cfg.seed in
  (* One arena per worker slot, reused across every chunk and round the
     slot ever runs (the whole point: candidate evaluation allocates
     nothing after warm-up, so domains stop triggering each other's
     stop-the-world minor collections). *)
  let arenas = Array.init (Pool.jobs pool) (fun _ -> Arena.create ()) in
  (* An extended or resumed run inherits the structure it continues,
     backup and die included.  The snapshot's placement order is the
     builder's live order, so re-inserting preserves the relative id
     order Resolve Overlaps keys its choices on. *)
  let builder, backup =
    match start with
    | Fresh circuit | Single circuit ->
      let die_w, die_h = Circuit.default_die circuit in
      let backup =
        match start with
        | Single _ ->
          build_backup_shared cfg root circuit ~die_w ~die_h ~arena:arenas.(0) ~evals
        | _ -> build_backup pool arenas cfg (Rng.split root 0) circuit ~die_w ~die_h ~evals
      in
      (* The backup enters the structure first, owning its whole
         expansion box: a walk candidate only wins dimension territory
         by beating it (or a previous winner) on average cost in
         Resolve Overlaps, so covered queries never answer worse than
         the fallback would. *)
      let builder = Builder.create circuit in
      ignore (Builder.resolve_and_store builder backup);
      (builder, backup)
    | Extend s -> (Structure.to_builder s, Structure.backup s)
    | Resume cp ->
      let s = cp.Checkpoint.structure in
      (Structure.to_builder s, Structure.backup s)
  in
  let circuit = Builder.circuit builder in
  let die_w = backup.Stored.placement.Placement.die_w in
  let die_h = backup.Stored.placement.Placement.die_h in
  (* every admission test re-packs the backup in this visit order *)
  let order = Repack.order backup.Stored.placement.Placement.coords in
  let walks, chunk, steps, dropped =
    match start with
    | Resume cp ->
      ( Array.map
          (fun w -> { w with Checkpoint.w_rng = Rng.copy w.Checkpoint.w_rng })
          cp.Checkpoint.walks,
        cp.Checkpoint.chunk,
        ref cp.Checkpoint.step,
        ref cp.Checkpoint.dropped )
    | Fresh _ | Single _ | Extend _ ->
      let walk rng =
        let current =
          if cfg.seed_walk_with_backup then backup.Stored.placement
          else Placement.random rng circuit ~die_w ~die_h
        in
        { Checkpoint.w_step = 0; w_current = current; w_cost = 0.0; w_rng = rng }
      in
      let walks =
        match start with
        | Single _ -> [| walk root |]
        | _ ->
          let walk_root = Rng.split root 1 in
          Array.init explorer_restarts (fun w -> walk (Rng.split walk_root w))
      in
      (walks, walk_chunk, ref 0, ref 0)
  in
  let deadline_hit = ref false in
  let stop = ref false in
  let limits_reached () =
    Builder.n_live builder >= cfg.max_placements
    || Builder.coverage builder >= cfg.coverage_target
  in
  (* Snapshot everything the continuation depends on — structure,
     counters, every walk's accepted placement and exact stream — so a
     kill between two checkpoints costs at most [checkpoint_every]
     rounds of work. *)
  let write_checkpoint path =
    Checkpoint.save
      {
        Checkpoint.step = !steps;
        dropped = !dropped;
        chunk;
        walks;
        structure = Structure.compile ~backup builder;
      }
      ~path
  in
  (* A run that did not resume checkpoints immediately after its setup,
     so a kill during the first rounds already has something to resume
     from. *)
  (match (cfg.checkpoint_path, start) with
  | Some path, (Fresh _ | Single _ | Extend _) when cfg.checkpoint_every > 0 -> write_checkpoint path
  | _ -> ());
  let rounds = ref 0 in
  let unfinished (w : Checkpoint.walk) = w.w_step < cfg.explorer_iterations in
  if limits_reached () then stop := true;
  while (not !stop) && Array.exists unfinished walks do
    let live =
      Array.of_list
        (List.filter (fun i -> unfinished walks.(i)) (List.init (Array.length walks) Fun.id))
    in
    (* one task per walk advance (refine + BDIO + admission per step):
       a free worker claims the next walk *)
    let outs =
      Pool.map pool
        (fun ~worker i ->
          advance_walk cfg circuit backup ~order ~propose ~die_w ~die_h ~chunk
            ~arena:arenas.(worker) walks.(i))
        live
    in
    (* Merge in (walk, step) order, re-checking the stopping limits
       before each record.  A record arriving after the limits trip is
       discarded — at every job count, because the merge order never
       depends on jobs. *)
    Array.iteri
      (fun k (walk, records, ev) ->
        walks.(live.(k)) <- walk;
        evals := !evals + ev;
        List.iter
          (fun (candidate, admitted) ->
            if not !stop then begin
              if limits_reached () then stop := true
              else begin
                let survived =
                  admitted && Builder.resolve_and_store builder candidate <> []
                in
                if not survived then incr dropped;
                incr steps
              end
            end)
          records)
      outs;
    incr rounds;
    (match cfg.max_seconds with
    | Some s when Unix.gettimeofday () -. t_wall >= s ->
      deadline_hit := true;
      stop := true
    | _ -> ());
    (* A deadline stop snapshots the final state, so resuming loses no
       work at all. *)
    (match cfg.checkpoint_path with
    | Some path
      when !deadline_hit
           || (cfg.checkpoint_every > 0 && !rounds mod cfg.checkpoint_every = 0) ->
      write_checkpoint path
    | _ -> ())
  done;
  let stats =
    {
      placements_stored = Builder.n_live builder;
      coverage = Builder.coverage builder;
      explorer_steps = !steps;
      candidates_dropped = !dropped;
      cost_evaluations = !evals;
      generation_seconds = Sys.time () -. t_start;
      deadline_hit = !deadline_hit;
    }
  in
  (Structure.compile ~backup builder, stats)

let with_run ?jobs ?on_pool_stats ~cfg ~propose start =
  Pool.with_pool ?jobs (fun pool ->
      let r = run pool ~cfg ~propose start in
      Option.iter (fun f -> f (Pool.stats pool)) on_pool_stats;
      r)

let generate ?(config = default_config) ?jobs ?on_pool_stats circuit =
  with_run ?jobs ?on_pool_stats ~cfg:config ~propose:(perturbation circuit) (Fresh circuit)

let generate_par = generate

let single_walk ?(config = default_config) circuit =
  with_run ~jobs:1 ~cfg:config ~propose:(perturbation circuit) (Single circuit)

let random_explorer ?(config = default_config) circuit =
  with_run ~jobs:1 ~cfg:config ~propose:(fresh_placement circuit) (Single circuit)

let extend ?(config = default_config) ?jobs structure =
  with_run ?jobs ~cfg:config
    ~propose:(perturbation (Structure.circuit structure))
    (Extend structure)

let resume ?(config = default_config) ?jobs checkpoint =
  with_run ?jobs ~cfg:config
    ~propose:(perturbation (Structure.circuit checkpoint.Checkpoint.structure))
    (Resume checkpoint)
