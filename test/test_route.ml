(* Tests for the routing grid, the maze router and parasitic
   extraction. *)

open Mps_geometry
open Mps_netlist
open Mps_route

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Route_grid *)

let test_grid_shape () =
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 [||] in
  check_int "cols" 10 (Route_grid.cols g);
  check_int "rows" 5 (Route_grid.rows g);
  let g2 = Route_grid.create ~die_w:41 ~die_h:21 ~cell:4 ~capacity:2 [||] in
  check_int "cols rounded up" 11 (Route_grid.cols g2);
  check_int "rows rounded up" 6 (Route_grid.rows g2)

let test_grid_blocking () =
  let rects = [| Rect.make ~x:8 ~y:4 ~w:8 ~h:8 |] in
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 rects in
  check_bool "inside blocked" true (Route_grid.blocked g (3, 2));
  check_bool "outside free" false (Route_grid.blocked g (0, 0));
  check_bool "right of block free" false (Route_grid.blocked g (5, 2))

let test_grid_unblock () =
  let rects = [| Rect.make ~x:0 ~y:0 ~w:40 ~h:20 |] in
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 rects in
  check_bool "blocked" true (Route_grid.blocked g (2, 2));
  Route_grid.unblock g (2, 2);
  check_bool "carved" false (Route_grid.blocked g (2, 2))

let test_grid_cells_and_points () =
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 [||] in
  check_bool "cell of point" true (Route_grid.cell_of_point g ~x:9.0 ~y:5.0 = (2, 1));
  check_bool "clamped" true (Route_grid.cell_of_point g ~x:1000.0 ~y:(-3.0) = (9, 0));
  let x, y = Route_grid.center_of_cell g (2, 1) in
  check_bool "center" true (abs_float (x -. 10.0) < 1e-9 && abs_float (y -. 6.0) < 1e-9)

let test_grid_congestion () =
  let g = Route_grid.create ~die_w:8 ~die_h:8 ~cell:4 ~capacity:2 [||] in
  check_int "no overflow" 0 (Route_grid.overflow g);
  for _ = 1 to 5 do
    Route_grid.occupy g (0, 0)
  done;
  check_int "usage" 5 (Route_grid.usage g (0, 0));
  check_int "overflow = usage - capacity" 3 (Route_grid.overflow g)

(* Router on a hand-made two-block circuit *)

let two_block_circuit =
  Circuit.make ~name:"rt"
    ~blocks:
      [|
        Block.make_wh ~id:0 ~name:"a" ~w:(8, 16) ~h:(8, 16);
        Block.make_wh ~id:1 ~name:"b" ~w:(8, 16) ~h:(8, 16);
      |]
    ~nets:
      [|
        Net.make ~id:0 ~name:"n"
          ~pins:[ Net.block_pin ~fx:0.5 ~fy:0.5 0; Net.block_pin ~fx:0.5 ~fy:0.5 1 ];
      |]

let test_route_simple_net () =
  let rects = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:32 ~y:0 ~w:8 ~h:8 |] in
  let r = Router.route two_block_circuit ~die_w:60 ~die_h:40 rects in
  check_int "no failures" 0 r.Router.failed_nets;
  check_bool "routed" true r.Router.nets.(0).Router.routed;
  (* pins are ~32 units apart: the routed length must be at least that
     and not wildly more *)
  let len = r.Router.nets.(0).Router.length in
  check_bool "length sane" true (len >= 28.0 && len <= 80.0)

let test_route_detours_around_obstacle () =
  (* a third block sits exactly between the two pins: the route must be
     longer than the straight line *)
  let circuit =
    Circuit.make ~name:"rt3"
      ~blocks:
        [|
          Block.make_wh ~id:0 ~name:"a" ~w:(8, 16) ~h:(8, 16);
          Block.make_wh ~id:1 ~name:"b" ~w:(8, 16) ~h:(8, 16);
          Block.make_wh ~id:2 ~name:"wall" ~w:(8, 16) ~h:(8, 40);
        |]
      ~nets:
        [|
          Net.make ~id:0 ~name:"n"
            ~pins:[ Net.block_pin ~fx:0.5 ~fy:0.5 0; Net.block_pin ~fx:0.5 ~fy:0.5 1 ];
        |]
  in
  let straight =
    [| Rect.make ~x:0 ~y:16 ~w:8 ~h:8; Rect.make ~x:52 ~y:16 ~w:8 ~h:8;
       Rect.make ~x:24 ~y:28 ~w:8 ~h:8 |]
  in
  let blocked_mid =
    [| Rect.make ~x:0 ~y:16 ~w:8 ~h:8; Rect.make ~x:52 ~y:16 ~w:8 ~h:8;
       Rect.make ~x:24 ~y:0 ~w:8 ~h:40 |]
  in
  let len rects =
    (Router.route circuit ~die_w:60 ~die_h:48 rects).Router.nets.(0).Router.length
  in
  check_bool "wall forces a detour" true (len blocked_mid > len straight)

let test_route_benchmark_circuits () =
  (* every benchmark circuit routes at a reasonable floorplan without
     failed nets blowing up *)
  List.iter
    (fun c ->
      let die_w, die_h = Circuit.default_die c in
      let rng = Mps_rng.Rng.create ~seed:3 in
      let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
      let rects = Mps_placement.Placement.rects p (Circuit.min_dims c) in
      let r = Router.route c ~die_w ~die_h rects in
      check_bool (c.Circuit.name ^ ": mostly routable") true
        (r.Router.failed_nets <= Circuit.n_nets c / 4);
      check_bool (c.Circuit.name ^ ": positive length") true (r.Router.total_length > 0.0);
      Array.iter
        (fun (net : Router.routed_net) ->
          check_bool "length non-negative" true (net.Router.length >= 0.0))
        r.Router.nets)
    [ Benchmarks.circ01; Benchmarks.two_stage_opamp; Benchmarks.mixer ]

let test_route_deterministic () =
  let c = Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  let rng = Mps_rng.Rng.create ~seed:3 in
  let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
  let rects = Mps_placement.Placement.rects p (Circuit.min_dims c) in
  let r1 = Router.route c ~die_w ~die_h rects in
  let r2 = Router.route c ~die_w ~die_h rects in
  Alcotest.(check (float 1e-9)) "same total" r1.Router.total_length r2.Router.total_length

let test_route_longer_when_spread () =
  let compact = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:12 ~y:0 ~w:8 ~h:8 |] in
  let spread = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:48 ~y:28 ~w:8 ~h:8 |] in
  let len rects =
    (Router.route two_block_circuit ~die_w:60 ~die_h:40 rects).Router.total_length
  in
  check_bool "spread floorplan routes longer" true (len spread > len compact)

(* Router length bound: a Steiner tree spans at least the bounding box
   of its pin cells, and snapping a pin to its cell loses less than one
   cell per axis, so no net routes shorter than its HPWL minus two
   cells.  Checked on every stored placement, at its best dims, of the
   nine Table 1 circuits' Quick structures. *)
let test_routed_length_bound () =
  let slack = 2.0 *. float_of_int Router.cell in
  List.iter
    (fun (c : Circuit.t) ->
      let config = Mps_experiments.Experiments.(generator_config Quick c) in
      let structure, _ = Mps_core.Generator.generate ~config ~jobs:1 c in
      let die_w, die_h = Mps_core.Structure.die structure in
      Array.iteri
        (fun i (stored : Mps_core.Stored.t) ->
          let rects = Mps_core.Stored.instantiate stored stored.best_dims in
          let r = Router.route c ~die_w ~die_h rects in
          Array.iter
            (fun (net : Net.t) ->
              let hpwl = Mps_cost.Wirelength.net_hpwl net ~rects ~die_w ~die_h in
              let routed = Router.routed_length r net.Net.id in
              if routed < hpwl -. slack then
                Alcotest.failf "%s placement %d net %s: routed %g < HPWL %g - %g"
                  c.Circuit.name i net.Net.name routed hpwl slack)
            c.Circuit.nets)
        (Mps_core.Structure.placements structure))
    Benchmarks.all

(* Extraction *)

let process = Mps_modgen.Process.default

let fine =
  { process with Mps_modgen.Process.grid_nm = process.Mps_modgen.Process.grid_nm / 2 }

let rc ?(process = process) length endpoints =
  Extraction.net_rc process ~length ~endpoints

let test_extraction_scales_with_length () =
  let compact = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:12 ~y:0 ~w:8 ~h:8 |] in
  let spread = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:48 ~y:28 ~w:8 ~h:8 |] in
  let cap rects =
    let r = Router.route two_block_circuit ~die_w:60 ~die_h:40 rects in
    (rc (Router.routed_length r 0) 2).Extraction.capacitance_ff
  in
  check_bool "longer wires, more cap" true (cap spread > cap compact)

let test_extraction_pin_term () =
  (* a zero-length net still pays 1.5 fF per endpoint, and no
     resistance *)
  let e = rc 0.0 2 in
  Alcotest.(check (float 0.0)) "two endpoints" 3.0 e.Extraction.capacitance_ff;
  Alcotest.(check (float 0.0)) "no wire, no resistance" 0.0 e.Extraction.resistance_ohm

(* At the default 350 nm grid the per-µm constants give exactly the
   per-grid-unit figures the model was calibrated in: 0.35 Ω and
   0.25 fF per unit plus 1.5 fF per endpoint. *)
let test_extraction_default_grid () =
  List.iter
    (fun (length, endpoints) ->
      let e = rc length endpoints in
      Alcotest.(check (float 0.0)) "R" (0.35 *. length) e.Extraction.resistance_ohm;
      Alcotest.(check (float 0.0)) "C"
        ((0.25 *. length) +. (1.5 *. float_of_int endpoints))
        e.Extraction.capacitance_ff)
    [ (0.0, 1); (1.0, 2); (37.5, 3); (123.456789, 4); (4096.1, 9) ]

(* The same wire is the same wire at any grid pitch: half the pitch
   and twice the units give the same RC, exactly. *)
let test_extraction_pitch_invariant () =
  List.iter
    (fun length ->
      let coarse = rc length 3 and halved = rc ~process:fine (2.0 *. length) 3 in
      Alcotest.(check (float 0.0)) "C" coarse.Extraction.capacitance_ff
        halved.Extraction.capacitance_ff;
      Alcotest.(check (float 0.0)) "R" coarse.Extraction.resistance_ohm
        halved.Extraction.resistance_ohm)
    [ 0.0; 1.0; 37.5; 123.456789; 4096.1 ]

(* The HPWL mode inherits that invariance end to end: halve the pitch,
   double every rect coordinate and the die, and the op-amp's wire load
   is unchanged.  Doubling is exact in floating point.  The routed mode
   is left out: the router's cell is 4 grid units at any pitch, so its
   lengths do not scale exactly. *)
let test_hpwl_mode_pitch_invariant () =
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let sizing = Mps_synthesis.Opamp.nominal_sizing in
  let dims = Mps_synthesis.Opamp.dims process circuit sizing in
  let wire_cap process ~die_w ~die_h rects =
    (Mps_synthesis.Opamp.model.performance Mps_synthesis.Synth_loop.Hpwl_estimate process
       circuit ~die_w ~die_h sizing rects)
      .Mps_synthesis.Synth_loop.wire_cap_ff
  in
  List.iter
    (fun seed ->
      let rng = Mps_rng.Rng.create ~seed in
      let p = Mps_placement.Placement.random rng circuit ~die_w ~die_h in
      let rects =
        Mps_placement.Repack.instantiate ~die:(die_w, die_h)
          ~coords:p.Mps_placement.Placement.coords dims
      in
      let doubled =
        Array.map
          (fun (r : Rect.t) ->
            Rect.make ~x:(2 * r.Rect.x) ~y:(2 * r.Rect.y) ~w:(2 * r.Rect.w) ~h:(2 * r.Rect.h))
          rects
      in
      Alcotest.(check (float 0.0)) "same wire cap"
        (wire_cap process ~die_w ~die_h rects)
        (wire_cap fine ~die_w:(2 * die_w) ~die_h:(2 * die_h) doubled))
    [ 1; 2; 3; 4; 5 ]

let test_routed_performance_plausible () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let sizing = Mps_synthesis.Opamp.nominal_sizing in
  let dims = Mps_synthesis.Opamp.dims process circuit sizing in
  let rng = Mps_rng.Rng.create ~seed:5 in
  let p = Mps_placement.Placement.random rng circuit ~die_w ~die_h in
  let rects = Mps_placement.Repack.instantiate ~die:(die_w, die_h)
      ~coords:p.Mps_placement.Placement.coords dims
  in
  let hpwl_perf =
    Mps_synthesis.Opamp.model.performance Mps_synthesis.Synth_loop.Hpwl_estimate process
      circuit ~die_w ~die_h sizing rects
  in
  let routed_perf =
    Mps_synthesis.Opamp.performance_routed process circuit ~die_w ~die_h sizing rects
  in
  check_bool "routed wire cap positive" true
    (routed_perf.wire_cap_ff > 0.0);
  check_bool "same power model" true
    (abs_float
       (routed_perf.Mps_synthesis.Synth_loop.power_mw -. hpwl_perf.power_mw)
     < 1e-9)

let test_synth_loop_routed_mode () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let structure, _ = Mps_core.Generator.single_walk ~config:Mps_core.Generator.fast_config circuit in
  let config =
    { Mps_synthesis.Synth_loop.default_config with
      iterations = 8;
      parasitics = Mps_synthesis.Synth_loop.Routed_extraction }
  in
  let r =
    Mps_synthesis.Synth_loop.run ~config Mps_synthesis.Opamp.model process circuit ~die_w ~die_h
      (Mps_synthesis.Synth_loop.mps_placer structure)
  in
  check_bool "routed loop finishes" true (Float.is_finite r.Mps_synthesis.Synth_loop.best_cost)

let suite =
  [
    ("grid: shape", `Quick, test_grid_shape);
    ("grid: block interiors blocked", `Quick, test_grid_blocking);
    ("grid: pin cells can be carved", `Quick, test_grid_unblock);
    ("grid: point/cell mapping", `Quick, test_grid_cells_and_points);
    ("grid: congestion accounting", `Quick, test_grid_congestion);
    ("router: simple two-pin net", `Quick, test_route_simple_net);
    ("router: detours around obstacles", `Quick, test_route_detours_around_obstacle);
    ("router: benchmark circuits route", `Quick, test_route_benchmark_circuits);
    ("router: deterministic", `Quick, test_route_deterministic);
    ("router: spread floorplans route longer", `Quick, test_route_longer_when_spread);
    ("extraction: capacitance grows with length", `Quick, test_extraction_scales_with_length);
    ("extraction: per-pin term", `Quick, test_extraction_pin_term);
    ("extraction: exact per-unit figures at the default grid", `Quick,
     test_extraction_default_grid);
    ("extraction: same wire, same RC at half the pitch", `Quick,
     test_extraction_pitch_invariant);
    ("opamp: HPWL wire load invariant under pitch halving", `Quick,
     test_hpwl_mode_pitch_invariant);
    ("router: no net shorter than HPWL minus two cells", `Quick, test_routed_length_bound);
    ("opamp: routed performance plausible", `Quick, test_routed_performance_plausible);
    ("synthesis loop: routed parasitics mode", `Quick, test_synth_loop_routed_mode);
  ]
