open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_anneal

type config = {
  iterations : int;
  max_shift_fraction : float;
}

let default_config = { iterations = 4000; max_shift_fraction = 0.5 }

let schedule = Schedule.geometric ~t0:2000.0 ~alpha:0.995 ~t_min:1e-3
let swap_probability = 0.25

type result = {
  placement : Placement.t;
  rects : Rect.t array;
  cost : float;
  legal : bool;
  evaluations : int;
}

(* All-float accumulator record: stored flat, so the per-move cost
   updates allocate nothing (a [float ref] boxes a fresh float on
   every [:=]). *)
type totals = { mutable cur : float; mutable staged : float }

(* The annealing state is one mutable Mps_cost.Incremental evaluator
   (the arena's; a private arena when none is given); moves are staged
   on it, costed as deltas, and either committed or undone.  Move
   bounds are compiled once per run into Move_lut tables, so a move
   draw is two array loads and an unchecked uniform draw — no rect,
   coordinate pair, or interval allocated per move. *)
let optimize ?(config = default_config) ?arena ?initial ~rng circuit ~die_w ~die_h dims =
  let n = Circuit.n_blocks circuit in
  if Dims.n_blocks dims <> n then invalid_arg "Coord_opt.optimize: block count mismatch";
  let max_shift =
    max 1 (int_of_float (config.max_shift_fraction *. float_of_int (max die_w die_h)))
  in
  (* Legal positions at these dimensions.  A block wider than the die
     pins to x = 0 (hi clamps to 0), exactly as the old
     [max 0 (min x (die_w - w))] arithmetic did. *)
  let lut_x =
    Move_lut.make ~n ~lo:(fun _ -> 0) ~hi:(fun i -> max 0 (die_w - Dims.width dims i))
  in
  let lut_y =
    Move_lut.make ~n ~lo:(fun _ -> 0) ~hi:(fun i -> max 0 (die_h - Dims.height dims i))
  in
  let init_x = Array.make n 0 and init_y = Array.make n 0 in
  (match initial with
  | Some coords ->
    if Array.length coords <> n then invalid_arg "Coord_opt.optimize: bad initial";
    for i = 0 to n - 1 do
      let x, y = coords.(i) in
      init_x.(i) <- Move_lut.clamp lut_x i x;
      init_y.(i) <- Move_lut.clamp lut_y i y
    done
  | None ->
    (* draw order pinned: y before x per block (the original built an
       [(x, y)] tuple, which OCaml evaluates right to left) *)
    for i = 0 to n - 1 do
      init_y.(i) <- Move_lut.draw lut_y rng i;
      init_x.(i) <- Move_lut.draw lut_x rng i
    done);
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let rect_buf = Arena.rect_buffer arena ~slot:0 n in
  for i = 0 to n - 1 do
    Rect.set rect_buf.(i) ~x:init_x.(i) ~y:init_y.(i) ~w:(Dims.width dims i)
      ~h:(Dims.height dims i)
  done;
  let eng = Arena.engine arena circuit ~die_w ~die_h rect_buf in
  (* One preallocated proposal buffer; [propose] overwrites it in place. *)
  let mv_swap = ref false and mv_i = ref 0 and mv_j = ref 0 in
  let mv_x = ref 0 and mv_y = ref 0 in
  let propose rng =
    if n >= 2 && Rng.bernoulli rng swap_probability then begin
      let i = Rng.int rng n in
      mv_swap := true;
      mv_i := i;
      mv_j := (i + 1 + Rng.int rng (n - 1)) mod n
    end
    else begin
      let i = Rng.int rng n in
      mv_swap := false;
      mv_i := i;
      (* y shift drawn before x, matching the original tuple order *)
      mv_y :=
        Move_lut.draw_shift lut_y rng i ~cur:(Mps_cost.Incremental.block_y eng i)
          ~max_shift;
      mv_x :=
        Move_lut.draw_shift lut_x rng i ~cur:(Mps_cost.Incremental.block_x eng i)
          ~max_shift
    end
  in
  let totals =
    let c = Mps_cost.Incremental.total eng in
    { cur = c; staged = c }
  in
  let delta_cost () =
    if !mv_swap then Mps_cost.Incremental.swap_blocks eng !mv_i !mv_j
    else Mps_cost.Incremental.move_block eng !mv_i ~x:!mv_x ~y:!mv_y;
    totals.staged <- Mps_cost.Incremental.total eng;
    totals.staged -. totals.cur
  in
  let commit () =
    Mps_cost.Incremental.commit eng;
    (* re-read rather than trust [staged]: the commit may have
       triggered the periodic anti-drift resync *)
    totals.cur <- Mps_cost.Incremental.total eng
  in
  let reject () = Mps_cost.Incremental.undo eng in
  let best_x = Array.copy init_x and best_y = Array.copy init_y in
  let snapshot_best () =
    for i = 0 to n - 1 do
      best_x.(i) <- Mps_cost.Incremental.block_x eng i;
      best_y.(i) <- Mps_cost.Incremental.block_y eng i
    done
  in
  let sa =
    Annealer.run_moves
      ~on_improve:(fun ~cost:_ ~step:_ -> snapshot_best ())
      ~rng ~schedule ~iterations:config.iterations
      ~initial_cost:totals.cur
      { Annealer.propose; delta_cost; commit; reject }
  in
  let rects =
    Array.init n (fun i ->
        Rect.make ~x:best_x.(i) ~y:best_y.(i) ~w:(Dims.width dims i)
          ~h:(Dims.height dims i))
  in
  let coords = Array.init n (fun i -> (best_x.(i), best_y.(i))) in
  {
    placement = Placement.make ~coords ~die_w ~die_h;
    rects;
    cost = Mps_cost.Cost.total circuit ~die_w ~die_h rects;
    legal = Mps_cost.Cost.is_legal ~die_w ~die_h rects;
    evaluations = sa.Annealer.mv_evaluations;
  }
