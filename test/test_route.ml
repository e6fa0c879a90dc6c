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

(* Cell (c, r) of a grid, by its column-major index. *)
let at g (c, r) = (c * Route_grid.rows g) + r

let test_grid_blocking () =
  let rects = [| Rect.make ~x:8 ~y:4 ~w:8 ~h:8 |] in
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 rects in
  check_bool "inside blocked" true (Route_grid.blocked g (at g (3, 2)));
  check_bool "outside free" false (Route_grid.blocked g (at g (0, 0)));
  check_bool "right of block free" false (Route_grid.blocked g (at g (5, 2)))

let test_grid_unblock () =
  let rects = [| Rect.make ~x:0 ~y:0 ~w:40 ~h:20 |] in
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 rects in
  check_bool "blocked" true (Route_grid.blocked g (at g (2, 2)));
  Route_grid.unblock g (at g (2, 2));
  check_bool "carved" false (Route_grid.blocked g (at g (2, 2)))

let test_grid_cells_and_points () =
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 [||] in
  check_int "cell of point" (at g (2, 1)) (Route_grid.cell_of_point g ~x:9.0 ~y:5.0);
  check_int "clamped" (at g (9, 0)) (Route_grid.cell_of_point g ~x:1000.0 ~y:(-3.0));
  let x, y = Router.cell_center (2, 1) in
  check_bool "center" true (abs_float (x -. 10.0) < 1e-9 && abs_float (y -. 6.0) < 1e-9)

let test_grid_congestion () =
  let g = Route_grid.create ~die_w:8 ~die_h:8 ~cell:4 ~capacity:2 [||] in
  check_int "no overflow" 0 (Route_grid.overflow g);
  for _ = 1 to 5 do
    Route_grid.occupy g (at g (0, 0))
  done;
  check_int "usage" 5 (Route_grid.usage g (at g (0, 0)));
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
  (* every benchmark circuit routes at a random floorplan *)
  List.iter
    (fun c ->
      let die_w, die_h = Circuit.default_die c in
      let rng = Mps_rng.Rng.create ~seed:3 in
      let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
      let rects = Mps_placement.Placement.rects p (Circuit.min_dims c) in
      let r = Router.route c ~die_w ~die_h rects in
      Array.iter
        (fun (net : Router.routed_net) ->
          check_bool (c.Circuit.name ^ ": length is the routed tree's") true
            (net.Router.length
            = float_of_int (max 0 (List.length net.Router.cells - 1) * Router.cell)))
        r.Router.nets;
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

(* Every stored placement, at its best dims, of the nine Table 1
   circuits' Quick [generate] structures: (circuit, die, label, rects). *)
let quick_floorplans =
  lazy
    (List.concat_map
       (fun (c : Circuit.t) ->
         let config = Mps_experiments.Experiments.(generator_config Quick c) in
         let structure, _ = Mps_core.Generator.generate ~config ~jobs:1 c in
         let die = Mps_core.Structure.die structure in
         Array.to_list
           (Array.mapi
              (fun i (stored : Mps_core.Stored.t) ->
                ( c,
                  die,
                  Printf.sprintf "%s placement %d" c.Circuit.name i,
                  Mps_core.Stored.instantiate stored stored.best_dims ))
              (Mps_core.Structure.placements structure)))
       Benchmarks.all)

(* Router length bound: a Steiner tree spans at least the bounding box
   of its pin cells, and snapping a pin to its cell loses less than one
   cell per axis, so no net routes shorter than its HPWL minus two
   cells.  Checked on every stored placement, at its best dims, of the
   nine Table 1 circuits' Quick structures. *)
let test_routed_length_bound () =
  let slack = 2.0 *. float_of_int Router.cell in
  List.iter
    (fun (c, (die_w, die_h), label, rects) ->
      let r = Router.route c ~die_w ~die_h rects in
      Array.iter
        (fun (net : Net.t) ->
          let hpwl = Mps_cost.Wirelength.net_hpwl net ~rects ~die_w ~die_h in
          let routed = Router.routed_length r net.Net.id in
          if routed < hpwl -. slack then
            Alcotest.failf "%s net %s: routed %g < HPWL %g - %g" label net.Net.name routed
              hpwl slack)
        c.Circuit.nets)
    (Lazy.force quick_floorplans)

(* Identity with the reference router ([Router_ref], the router before
   the flat-array rewrite): every field of [Router.t], every net's cell
   list in the same order, floats bit for bit.  The reference never
   falls back to a net's HPWL: a blocked cell only costs more, and the
   4-neighbour grid is connected, so every wave reaches its target. *)
let same_as_reference label c ~die_w ~die_h rects =
  let want = Router_ref.route c ~die_w ~die_h rects in
  let got = Router.route c ~die_w ~die_h rects in
  if want.Router_ref.failed_nets <> 0 then
    Alcotest.failf "%s: the reference fell back on %d nets" label want.Router_ref.failed_nets;
  if Array.length got.Router.nets <> Array.length want.Router_ref.nets then
    Alcotest.failf "%s: %d nets, reference %d" label (Array.length got.Router.nets)
      (Array.length want.Router_ref.nets);
  Array.iteri
    (fun i (w : Router_ref.routed_net) ->
      let g = got.Router.nets.(i) in
      if
        g.Router.net_id <> w.Router_ref.net_id
        || g.Router.cells <> w.Router_ref.cells
        || not (Float.equal g.Router.length w.Router_ref.length)
      then Alcotest.failf "%s: net %d differs from the reference" label i)
    want.Router_ref.nets;
  if not (Float.equal got.Router.total_length want.Router_ref.total_length) then
    Alcotest.failf "%s: total length %h, reference %h" label got.Router.total_length
      want.Router_ref.total_length;
  if got.Router.overflow <> want.Router_ref.overflow then
    Alcotest.failf "%s: overflow %d, reference %d" label got.Router.overflow
      want.Router_ref.overflow

let test_identity_quick_structures () =
  List.iter
    (fun (c, (die_w, die_h), label, rects) -> same_as_reference label c ~die_w ~die_h rects)
    (Lazy.force quick_floorplans)

let test_identity_benchmark24_full () =
  let structure = Lazy.force Test_pinned.full in
  let c = Mps_core.Structure.circuit structure in
  let die_w, die_h = Mps_core.Structure.die structure in
  Array.iteri
    (fun i dims ->
      same_as_reference
        (Printf.sprintf "benchmark24 Full probe %d" i)
        c ~die_w ~die_h
        (Mps_core.Structure.instantiate structure dims))
    (Mps_experiments.Experiments.probe_dims ~seed:40 ~n:256 structure)

(* Allocation pin: one route allocates its grid-cell scratch (eight
   int arrays over the cells: the usage counts and seven search arrays,
   the blocked bytes besides) plus the returned cell lists (a cons and
   a pair per cell) and a per-net constant, never anything per wave.
   The router before the flat-array rewrite allocated 11.36M minor
   words per benchmark24 Full route; this one ~14k. *)
let test_route_allocation () =
  let structure = Lazy.force Test_pinned.full in
  let c = Mps_core.Structure.circuit structure in
  let die_w, die_h = Mps_core.Structure.die structure in
  let grid_cells = ((die_w + Router.cell - 1) / Router.cell) * ((die_h + Router.cell - 1) / Router.cell) in
  Array.iter
    (fun dims ->
      let rects = Mps_core.Structure.instantiate structure dims in
      ignore (Sys.opaque_identity (Router.route c ~die_w ~die_h rects));
      let before = Gc.minor_words () in
      let r = Router.route c ~die_w ~die_h rects in
      let words = Gc.minor_words () -. before in
      let cells =
        Array.fold_left (fun acc n -> acc + List.length n.Router.cells) 0 r.Router.nets
      in
      let bound = (8 * grid_cells) + (6 * cells) + (128 * Circuit.n_nets c) in
      if words > float_of_int bound then
        Alcotest.failf "%.0f minor words for one route, bound %d (%d grid cells, %d route cells)"
          words bound grid_cells cells)
    (Mps_experiments.Experiments.probe_dims ~seed:41 ~n:4 structure)

(* Ablation A6's Quick routed loop (Experiments.ablation_parasitics):
   every floorplan its placer hands the router. *)
let test_identity_a6_loop () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let config = Mps_experiments.Experiments.(generator_config Quick circuit) in
  let structure, _ = Mps_core.Generator.single_walk ~config circuit in
  let placer = Mps_synthesis.Synth_loop.mps_placer structure in
  let floorplans = ref [] in
  let recording =
    { placer with
      Mps_synthesis.Synth_loop.place =
        (fun dims ->
          let rects = placer.Mps_synthesis.Synth_loop.place dims in
          floorplans := rects :: !floorplans;
          rects) }
  in
  ignore
    (Mps_synthesis.Synth_loop.run
       ~config:
         { Mps_synthesis.Synth_loop.default_config with
           iterations = 30;
           parasitics = Mps_synthesis.Synth_loop.Routed_extraction }
       Mps_synthesis.Opamp.model process circuit ~die_w ~die_h recording);
  check_bool "the loop routed" true (!floorplans <> []);
  List.iteri
    (fun i rects ->
      same_as_reference (Printf.sprintf "A6 floorplan %d" i) circuit ~die_w ~die_h rects)
    (List.rev !floorplans)

(* Random small dies: blocks that overlap, stick out of the die or fill
   it, pins that share a cell, pads, single-pin nets. *)
let arb_routing_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 48 >>= fun die_w ->
    int_range 1 48 >>= fun die_h ->
    int_range 1 6 >>= fun n_blocks ->
    let rect =
      frequency
        [
          (1, return (Rect.make ~x:0 ~y:0 ~w:die_w ~h:die_h));
          ( 6,
            map4
              (fun x y w h -> Rect.make ~x ~y ~w ~h)
              (int_range (-6) die_w) (int_range (-6) die_h)
              (int_range 1 (die_w + 6))
              (int_range 1 (die_h + 6)) );
        ]
    in
    let frac = oneof [ oneofl [ 0.0; 0.25; 0.5; 1.0 ]; float_bound_inclusive 1.0 ] in
    let pin =
      frequency
        [
          (4, map3 (fun b fx fy -> Net.block_pin ~fx ~fy b) (int_bound (n_blocks - 1)) frac frac);
          (1, map2 (fun px py -> Net.pad ~px ~py) frac frac);
        ]
    in
    map2
      (fun rects pins -> (die_w, die_h, rects, pins))
      (array_repeat n_blocks rect)
      (list_size (int_range 1 8) (list_size (int_range 1 5) pin))
  in
  let print (die_w, die_h, rects, pins) =
    Printf.sprintf "die %dx%d, rects [%s], %d nets of sizes [%s]" die_w die_h
      (String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Rect.pp) rects)))
      (List.length pins)
      (String.concat "; " (List.map (fun p -> string_of_int (List.length p)) pins))
  in
  QCheck.make ~print gen

let prop_identity_random_dies =
  QCheck.Test.make ~name:"router: identical to the reference on random small dies"
    ~count:500 arb_routing_case (fun (die_w, die_h, rects, pins) ->
      let blocks =
        Array.mapi
          (fun id _ -> Block.make_wh ~id ~name:(Printf.sprintf "b%d" id) ~w:(1, 64) ~h:(1, 64))
          rects
      in
      let nets =
        Array.of_list
          (List.mapi (fun id pins -> Net.make ~id ~name:(Printf.sprintf "n%d" id) ~pins) pins)
      in
      let c = Circuit.make ~name:"random" ~blocks ~nets in
      same_as_reference "random die" c ~die_w ~die_h rects;
      true)

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
    ("router: identical to the reference on the Quick structures", `Quick,
     test_identity_quick_structures);
    ("router: identical to the reference on 256 benchmark24 Full floorplans", `Quick,
     test_identity_benchmark24_full);
    ("router: identical to the reference on A6's Quick routed loop", `Quick,
     test_identity_a6_loop);
    ("router: allocates the grid scratch and the cell lists, nothing per wave", `Quick,
     test_route_allocation);
    ("opamp: routed performance plausible", `Quick, test_routed_performance_plausible);
    ("synthesis loop: routed parasitics mode", `Quick, test_synth_loop_routed_mode);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_identity_random_dies ]
