open Mps_rng
open Mps_geometry
open Mps_anneal

type placer = {
  name : string;
  place : Dims.t -> Rect.t array;
}

(* One compiled engine + session per placer: the sizing loop calls
   [place] thousands of times with slightly perturbed dims, exactly the
   workload the hot-box cache and the reusable rect buffer exist for.
   The returned floorplan is the session's scratch buffer — valid until
   the next [place] call, which is all the cost evaluation needs. *)
let mps_placer structure =
  let engine = Mps_core.Structure.Engine.create structure in
  let session = Mps_core.Structure.Engine.new_session () in
  {
    name = "mps";
    place = (fun dims -> Mps_core.Structure.Engine.instantiate_into engine session dims);
  }

let template_placer template =
  {
    name = "template";
    place = (fun dims -> Mps_baselines.Template_placer.instantiate template dims);
  }

let sa_placer ?iterations ~seed circuit ~die_w ~die_h =
  let rng = Rng.create ~seed in
  {
    name = "sa-placer";
    place =
      (fun dims ->
        (Mps_baselines.Sa_placer.place ?iterations ~rng circuit ~die_w ~die_h dims)
          .Mps_placement.Coord_opt.rects);
  }

type parasitics =
  | Hpwl_estimate
  | Routed_extraction

type config = {
  seed : int;
  iterations : int;
  schedule : Schedule.t;
  spec : Opamp.spec;
  step : float;
  parasitics : parasitics;
  optimize_aspect : bool;
}

let default_config =
  {
    seed = 42;
    iterations = 150;
    schedule = Schedule.geometric ~t0:50.0 ~alpha:0.96 ~t_min:1e-3 ();
    spec = Opamp.default_spec;
    step = 0.35;
    parasitics = Hpwl_estimate;
    optimize_aspect = true;
  }

type result = {
  best_sizing : Opamp.sizing;
  best_aspect_hints : float array;
  best_perf : Opamp.perf;
  best_cost : float;
  meets_spec : bool;
  evaluations : int;
  placement_seconds : float;
  total_seconds : float;
  history : float array;
}

(* The annealing state: electrical sizes plus per-block aspect hints
   (folding choices). *)
type state = {
  sizing : Opamp.sizing;
  hints : float array;
}

let min_hint = 0.25
let max_hint = 4.0

let perturb_sizing rng ~step (s : Opamp.sizing) =
  let bump v = v *. exp (Rng.float_in rng (-.step) step) in
  let pick = Rng.int rng 5 in
  let s' =
    match pick with
    | 0 -> { s with Opamp.w1_um = bump s.Opamp.w1_um }
    | 1 -> { s with Opamp.w3_um = bump s.Opamp.w3_um }
    | 2 -> { s with Opamp.w5_um = bump s.Opamp.w5_um }
    | 3 -> { s with Opamp.w6_um = bump s.Opamp.w6_um }
    | _ -> { s with Opamp.cc_ff = bump s.Opamp.cc_ff }
  in
  Opamp.clamp_sizing s'

let perturb_state rng ~step ~optimize_aspect state =
  if optimize_aspect && Rng.bernoulli rng 0.3 then begin
    let hints = Array.copy state.hints in
    let i = Rng.int rng (Array.length hints) in
    let bumped = hints.(i) *. exp (Rng.float_in rng (-0.5) 0.5) in
    hints.(i) <- Float.max min_hint (Float.min max_hint bumped);
    { state with hints }
  end
  else { state with sizing = perturb_sizing rng ~step state.sizing }

let run ?(config = default_config) process circuit ~die_w ~die_h placer =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create ~seed:config.seed in
  let placement_seconds = ref 0.0 in
  let history = ref [] in
  let best_perf = ref None in
  let evaluate state =
    let dims = Opamp.dims ~aspect_hints:state.hints process circuit state.sizing in
    let tp = Unix.gettimeofday () in
    let rects = placer.place dims in
    placement_seconds := !placement_seconds +. (Unix.gettimeofday () -. tp);
    let perf =
      match config.parasitics with
      | Hpwl_estimate -> Opamp.performance process circuit ~die_w ~die_h state.sizing rects
      | Routed_extraction ->
        Opamp.performance_routed process circuit ~die_w ~die_h state.sizing rects
    in
    (perf, Opamp.spec_cost config.spec perf)
  in
  let cost state =
    let perf, c = evaluate state in
    (match !history with
    | [] -> history := [ (c, perf) ]
    | (best_c, _) :: _ ->
      if c < best_c then history := (c, perf) :: !history
      else history := List.hd !history :: !history);
    (match !best_perf with
    | Some (bc, _) when bc <= c -> ()
    | _ -> best_perf := Some (c, perf));
    c
  in
  let sa =
    Annealer.run ~rng ~schedule:config.schedule ~iterations:config.iterations
      {
        Annealer.initial =
          { sizing = Opamp.nominal_sizing;
            hints = Array.make (Mps_netlist.Circuit.n_blocks circuit) 1.0 };
        cost;
        neighbor =
          (fun rng s ->
            perturb_state rng ~step:config.step ~optimize_aspect:config.optimize_aspect s);
      }
  in
  let best_cost, best_perf =
    match !best_perf with Some (c, p) -> (c, p) | None -> assert false
  in
  {
    best_sizing = sa.Annealer.best.sizing;
    best_aspect_hints = Array.copy sa.Annealer.best.hints;
    best_perf;
    best_cost;
    meets_spec = Opamp.meets_spec config.spec best_perf;
    evaluations = sa.Annealer.evaluations;
    placement_seconds = !placement_seconds;
    total_seconds = Unix.gettimeofday () -. t0;
    history = Array.of_list (List.rev_map fst !history);
  }
