open Mps_rng
open Mps_geometry
open Mps_placement
open Mps_anneal

type shrink_rule =
  | Cost_ratio
  | Fixed of float
  | No_shrink

type config = {
  iterations : int;
  shrink : shrink_rule;
}

let default_config = { iterations = 400; shrink = Cost_ratio }

(* Share of the 2N dimension entries re-drawn per move. *)
let perturb_fraction = 0.3
let schedule = Schedule.geometric ~t0:200.0 ~alpha:0.97 ~t_min:1e-3

type result = {
  box : Dimbox.t;
  avg_cost : float;
  best_cost : float;
  best_dims : Dims.t;
  evaluations : int;
}

let cost_of_dims circuit placement dims =
  let rects = Placement.rects placement dims in
  Mps_cost.Cost.total circuit ~die_w:placement.Placement.die_w
    ~die_h:placement.Placement.die_h rects

let shrink_interval ~factor iv best =
  let half =
    int_of_float (ceil (factor *. float_of_int (Interval.length iv) /. 2.0))
  in
  let lo = max (Interval.lo iv) (best - half) in
  let hi = min (Interval.hi iv) (best + half) in
  Interval.make (min lo best) (max hi best)

let shrink_box ~rule ~box ~best_dims ~avg_cost ~best_cost =
  match rule with
  | No_shrink -> box
  | Cost_ratio | Fixed _ ->
    let factor =
      match rule with
      | Fixed f ->
        if f <= 0.0 || f > 1.0 then invalid_arg "Bdio.shrink_box: factor must be in (0,1]";
        f
      | Cost_ratio ->
        if avg_cost <= 0.0 then 1.0
        else Float.min 1.0 (Float.max 0.0 (best_cost /. avg_cost))
      | No_shrink -> assert false
    in
    let n = Dimbox.n_blocks box in
    let w =
      Array.init n (fun i ->
          shrink_interval ~factor (Dimbox.w_interval box i) (Dims.width best_dims i))
    in
    let h =
      Array.init n (fun i ->
          shrink_interval ~factor (Dimbox.h_interval box i) (Dims.height best_dims i))
    in
    Dimbox.make ~w ~h

(* All-float accumulator record: stored flat, so per-move updates
   allocate nothing (a [float ref] boxes a fresh float per [:=]). *)
type totals = { mutable cur : float }

(* The Dimensions Selector runs on one mutable Mps_cost.Incremental
   evaluator (the arena's; a private arena when none is given): each
   move redraws a random subset of the 2N axes in place (resize deltas,
   no Dims copies), and is committed or undone whole.  The axis
   intervals are compiled once per run into a Move_lut over the 2N axes
   (widths then heights), so a value redraw is two array loads and an
   unchecked uniform draw.

   Every dims vector the search visits lies in [box], so each block's
   rect lies inside its rect at the box's upper corner.  When those
   upper-corner rects are disjoint and inside the die (as [Expand]
   builds them), overlap and out-of-bounds are exactly 0 at every
   probe: checked once here, the engine then runs in overlap-free mode
   and never walks the block pairs. *)
let optimize ?(config = default_config) ?arena ~rng circuit placement ~box =
  if config.iterations < 1 then invalid_arg "Bdio.optimize: need at least one iteration";
  if not (Placement.is_legal placement (Dimbox.upper_corner box)) then
    invalid_arg "Bdio.optimize: box reaches past the placement's expansion";
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let initial = Dimbox.random_dims rng box in
  let n = Dims.n_blocks initial in
  let n_axes = 2 * n in
  let die_w = placement.Placement.die_w and die_h = placement.Placement.die_h in
  let init_rects = Arena.rect_buffer arena ~slot:0 n in
  Placement.rects_into init_rects placement initial;
  let eng = Arena.engine ~overlap_free:true arena circuit ~die_w ~die_h init_rects in
  let lut =
    Move_lut.make ~n:n_axes
      ~lo:(fun a ->
        Interval.lo
          (if a < n then Dimbox.w_interval box a else Dimbox.h_interval box (a - n)))
      ~hi:(fun a ->
        Interval.hi
          (if a < n then Dimbox.w_interval box a else Dimbox.h_interval box (a - n)))
  in
  let k = max 1 (int_of_float (ceil (perturb_fraction *. float_of_int n_axes))) in
  if k > n_axes then
    invalid_arg "Bdio.optimize: perturb_fraction selects more axes than exist";
  (* Preallocated proposal buffers: the axes hit this move and their
     redrawn values, overwritten in place by [propose]; [perm] backs
     the distinct-axis sampling. *)
  let mv_axes = Array.make k 0 and mv_vals = Array.make k 0 in
  let perm = Arena.int_buffer arena ~slot:0 n_axes in
  let propose rng =
    (* partial Fisher-Yates over a reinitialized identity permutation:
       draw-for-draw identical to [Rng.sample_distinct], without its
       per-move array-plus-list allocation *)
    for a = 0 to n_axes - 1 do
      Array.unsafe_set perm a a
    done;
    for i = 0 to k - 1 do
      let j = i + Rng.unsafe_int rng (n_axes - i) in
      let tmp = Array.unsafe_get perm i in
      Array.unsafe_set perm i (Array.unsafe_get perm j);
      Array.unsafe_set perm j tmp
    done;
    for slot = 0 to k - 1 do
      let axis = Array.unsafe_get perm slot in
      mv_axes.(slot) <- axis;
      mv_vals.(slot) <- Move_lut.draw lut rng axis
    done
  in
  let totals = { cur = Mps_cost.Incremental.total eng } in
  (* A move redrawing more than ~n/4 axes is cheaper as one staged
     batch with a single cache rebuild than as per-axis O(n) repairs. *)
  let use_batch = 4 * k > n in
  let delta_cost () =
    if use_batch then Mps_cost.Incremental.begin_batch eng;
    for slot = 0 to k - 1 do
      let axis = mv_axes.(slot) and v = mv_vals.(slot) in
      if axis < n then
        Mps_cost.Incremental.resize_block eng axis ~w:v
          ~h:(Mps_cost.Incremental.block_h eng axis)
      else
        Mps_cost.Incremental.resize_block eng (axis - n)
          ~w:(Mps_cost.Incremental.block_w eng (axis - n))
          ~h:v
    done;
    if use_batch then Mps_cost.Incremental.end_batch eng;
    Mps_cost.Incremental.total eng -. totals.cur
  in
  let commit () =
    Mps_cost.Incremental.commit eng;
    totals.cur <- Mps_cost.Incremental.total eng
  in
  let reject () = Mps_cost.Incremental.undo eng in
  let best_w = Array.init n (Dims.width initial) in
  let best_h = Array.init n (Dims.height initial) in
  let snapshot_best () =
    for i = 0 to n - 1 do
      best_w.(i) <- Mps_cost.Incremental.block_w eng i;
      best_h.(i) <- Mps_cost.Incremental.block_h eng i
    done
  in
  let sa =
    Annealer.run_moves
      ~on_improve:(fun ~cost:_ ~step:_ -> snapshot_best ())
      ~rng ~schedule ~iterations:config.iterations
      ~initial_cost:totals.cur
      { Annealer.propose; delta_cost; commit; reject }
  in
  let best_dims = Dims.make ~w:best_w ~h:best_h in
  (* the reported best is a fresh full evaluation (exact, no delta
     drift); the average keeps the annealer's bookkeeping, floored so
     the [avg_cost >= best_cost] contract survives float drift *)
  let best_cost = cost_of_dims circuit placement best_dims in
  let avg_cost = Float.max sa.Annealer.mv_average_cost best_cost in
  let reduced = shrink_box ~rule:config.shrink ~box ~best_dims ~avg_cost ~best_cost in
  {
    box = reduced;
    avg_cost;
    best_cost;
    best_dims;
    evaluations = sa.Annealer.mv_evaluations;
  }
