open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_modgen
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

type perf = {
  gain_db : float;
  gbw_mhz : float;
  slew_v_per_us : float;
  power_mw : float;
  wire_cap_ff : float;
  area : int;
}

type spec = {
  min_gain_db : float;
  min_gbw_mhz : float;
  min_slew_v_per_us : float;
  max_power_mw : float;
}

let meets_spec spec perf =
  perf.gain_db >= spec.min_gain_db
  && perf.gbw_mhz >= spec.min_gbw_mhz
  && perf.slew_v_per_us >= spec.min_slew_v_per_us
  && perf.power_mw <= spec.max_power_mw

let spec_cost spec perf =
  let shortfall actual target = Float.max 0.0 ((target -. actual) /. target) in
  let excess actual limit = Float.max 0.0 ((actual -. limit) /. limit) in
  let violations =
    shortfall perf.gain_db spec.min_gain_db
    +. shortfall perf.gbw_mhz spec.min_gbw_mhz
    +. shortfall perf.slew_v_per_us spec.min_slew_v_per_us
    +. excess perf.power_mw spec.max_power_mw
  in
  (100.0 *. violations) +. perf.power_mw +. (1e-5 *. float_of_int perf.area)
  +. (0.01 *. perf.wire_cap_ff)

let pp_perf fmt p =
  Format.fprintf fmt "gain %.1f dB, GBW %.2f MHz, SR %.2f V/us, %.2f mW, Cwire %.0f fF, area %d"
    p.gain_db p.gbw_mhz p.slew_v_per_us p.power_mw p.wire_cap_ff p.area

type 's model = {
  nominal : 's;
  bump : int -> float -> 's -> 's;
  dims : ?aspect_hints:float array -> Process.t -> Circuit.t -> 's -> Dims.t;
  performance :
    parasitics -> Process.t -> Circuit.t -> die_w:int -> die_h:int -> 's -> Rect.t array -> perf;
  spec : spec;
}

let swept_blocks process names devices_at =
  let steps = 16 in
  let bounds_at k =
    let f = float_of_int k /. float_of_int (steps - 1) in
    Array.map (Module_gen.bounds process)
      (devices_at (fun lo hi -> lo *. ((hi /. lo) ** f)))
  in
  let hull (wa, ha) (wb, hb) = (Interval.hull wa wb, Interval.hull ha hb) in
  let rec loop k acc =
    if k >= steps then acc else loop (k + 1) (Array.map2 hull acc (bounds_at k))
  in
  Array.mapi
    (fun id (w_bounds, h_bounds) ->
      Block.make ~id ~name:names.(id) ~w_bounds ~h_bounds)
    (loop 1 (bounds_at 0))

let wire_load_performance ~fixed_load_ff ~signal_nets of_wire_cap parasitics process circ
    ~die_w ~die_h s rects =
  let length =
    match parasitics with
    | Hpwl_estimate -> fun net -> Mps_cost.Wirelength.net_hpwl net ~rects ~die_w ~die_h
    | Routed_extraction ->
      let routing = Mps_route.Router.route circ ~die_w ~die_h rects in
      fun net -> Mps_route.Router.routed_length routing net.Net.id
  in
  let wire_cap_ff =
    List.fold_left
      (fun acc id ->
        let net = circ.Circuit.nets.(id) in
        let rc =
          Mps_route.Extraction.net_rc process ~length:(length net) ~endpoints:(Net.degree net)
        in
        acc +. rc.Mps_route.Extraction.capacitance_ff)
      fixed_load_ff signal_nets
  in
  let area =
    match Rect.bounding_box (Array.to_list rects) with
    | Some bb -> Rect.area bb
    | None -> 0
  in
  of_wire_cap s ~wire_cap_ff ~area

type config = {
  seed : int;
  iterations : int;
  parasitics : parasitics;
  optimize_aspect : bool;
}

let default_config =
  { seed = 42; iterations = 150; parasitics = Hpwl_estimate; optimize_aspect = true }

type 's result = {
  best_sizing : 's;
  best_aspect_hints : float array;
  best_perf : perf;
  best_cost : float;
  meets_spec : bool;
  evaluations : int;
  placement_seconds : float;
  total_seconds : float;
  history : float array;
}

let schedule = Schedule.geometric ~t0:50.0 ~alpha:0.96 ~t_min:1e-3

(* Log-space half-range of one knob move, and the number of knobs every
   model's [bump] takes. *)
let step = 0.35
let n_knobs = 5

(* The annealing state: electrical sizes plus per-block aspect hints
   (folding choices). *)
type 's state = {
  sizing : 's;
  hints : float array;
}

let min_hint = 0.25
let max_hint = 4.0

let perturb model rng ~optimize_aspect state =
  if optimize_aspect && Rng.bernoulli rng 0.3 then begin
    let hints = Array.copy state.hints in
    let i = Rng.int rng (Array.length hints) in
    let bumped = hints.(i) *. exp (Rng.float_in rng (-0.5) 0.5) in
    hints.(i) <- Float.max min_hint (Float.min max_hint bumped);
    { state with hints }
  end
  else begin
    let k = Rng.int rng n_knobs in
    let x = Rng.float_in rng (-.step) step in
    { state with sizing = model.bump k x state.sizing }
  end

let run ?(config = default_config) model process circuit ~die_w ~die_h placer =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create ~seed:config.seed in
  let placement_seconds = ref 0.0 in
  let history = ref [] in
  let best_perf = ref None in
  let evaluate state =
    let dims = model.dims ~aspect_hints:state.hints process circuit state.sizing in
    let tp = Unix.gettimeofday () in
    let rects = placer.place dims in
    placement_seconds := !placement_seconds +. (Unix.gettimeofday () -. tp);
    let perf =
      model.performance config.parasitics process circuit ~die_w ~die_h state.sizing rects
    in
    (perf, spec_cost model.spec perf)
  in
  let cost state =
    let perf, c = evaluate state in
    history := (match !history with b :: _ when not (c < b) -> b | _ -> c) :: !history;
    (match !best_perf with
    | Some (bc, _) when bc <= c -> ()
    | _ -> best_perf := Some (c, perf));
    c
  in
  let sa =
    Annealer.run ~rng ~schedule ~iterations:config.iterations
      {
        Annealer.initial =
          { sizing = model.nominal;
            hints = Array.make (Circuit.n_blocks circuit) 1.0 };
        cost;
        neighbor =
          (fun rng s -> perturb model rng ~optimize_aspect:config.optimize_aspect s);
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
    meets_spec = meets_spec model.spec best_perf;
    evaluations = sa.Annealer.evaluations;
    placement_seconds = !placement_seconds;
    total_seconds = Unix.gettimeofday () -. t0;
    history = Array.of_list (List.rev !history);
  }
