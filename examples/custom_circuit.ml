(* Bring your own circuit: build a netlist from device-level module
   generators, generate its multi-placement structure, persist it to
   disk, reload it, and render an instantiation as SVG.

   This is the workflow a downstream user follows for a topology that
   is not in the benchmark set: a folded-cascode amplifier core with a
   biasing branch and an output capacitor.

   Run with: dune exec examples/custom_circuit.exe *)

open Mps_geometry
open Mps_netlist
open Mps_modgen
open Mps_core

let circuit =
  let process = Process.default in
  let dev id name device = Module_gen.block_of_device process ~id ~name device in
  let blocks =
    [|
      dev 0 "input_pair" (Device.Mos_pair { w_um = 24.0; l_um = 0.35 });
      dev 1 "casc_nmos" (Device.Mos_pair { w_um = 16.0; l_um = 0.35 });
      dev 2 "casc_pmos" (Device.Mos_pair { w_um = 32.0; l_um = 0.35 });
      dev 3 "mirror" (Device.Mos_pair { w_um = 20.0; l_um = 0.5 });
      dev 4 "tail" (Device.Mos { w_um = 12.0; l_um = 0.7 });
      dev 5 "bias_res" (Device.Resistor { r_ohm = 20_000.0 });
      dev 6 "load_cap" (Device.Capacitor { c_ff = 900.0 });
    |]
  in
  let pin = Net.block_pin in
  let nets =
    [|
      Net.make ~id:0 ~name:"inp" ~pins:[ pin ~fx:0.1 0; Net.pad ~px:0.0 ~py:0.3 ];
      Net.make ~id:1 ~name:"inn" ~pins:[ pin ~fx:0.9 0; Net.pad ~px:0.0 ~py:0.7 ];
      Net.make ~id:2 ~name:"casc_n" ~pins:[ pin ~fy:0.9 0; pin ~fy:0.1 1 ];
      Net.make ~id:3 ~name:"casc_p" ~pins:[ pin ~fy:0.9 1; pin ~fy:0.1 2 ];
      Net.make ~id:4 ~name:"out" ~pins:[ pin ~fx:0.9 2; pin ~fx:0.1 6; Net.pad ~px:1.0 ~py:0.5 ];
      Net.make ~id:5 ~name:"mirror_in" ~pins:[ pin ~fx:0.5 2; pin ~fx:0.5 3 ];
      Net.make ~id:6 ~name:"tail_net" ~pins:[ pin ~fy:0.1 0; pin ~fy:0.9 4 ];
      Net.make ~id:7 ~name:"bias" ~pins:[ pin ~fx:0.5 5; pin ~fx:0.1 4; pin ~fx:0.1 3 ];
      Net.make ~id:8 ~name:"vss" ~pins:[ pin ~fy:0.05 4; pin ~fy:0.05 5; pin ~fy:0.05 6 ];
    |]
  in
  Circuit.make ~name:"folded-cascode (custom)" ~blocks ~nets

let () =
  Format.printf "Custom circuit: %a@." Circuit.pp circuit;
  Array.iter (fun b -> Format.printf "  %a@." Block.pp b) circuit.Circuit.blocks;

  let config =
    Mps_experiments.Experiments.generator_config Mps_experiments.Experiments.Quick circuit
  in
  let structure, stats = Generator.generate ~config circuit in
  Format.printf "@.Generated %d placements (coverage %.4f).@."
    stats.Generator.placements_stored stats.Generator.coverage;

  (* Persist and reload: generation happens once per topology. *)
  let path = Filename.temp_file "custom_circuit" ".mpsz" in
  Zcodec.save structure ~path;
  let reloaded = Structure.Engine.structure (Zcodec.load ~circuit path).Zcodec.engine in
  Format.printf "Saved to %s (%d bytes) and reloaded: %d placements.@." path
    (let st = Unix.stat path in
     st.Unix.st_size)
    (Structure.n_placements reloaded);
  Sys.remove path;

  (* Query the reloaded structure with a mid-range sizing. *)
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let rects, cost = Structure.instantiate_cost reloaded dims in
  let die_w, die_h = Structure.die reloaded in
  Format.printf "@.Mid-range instantiation (cost %.1f):@.%s" cost
    (Mps_render.Ascii.render ~max_cols:56 circuit ~die_w ~die_h rects);

  let svg_path = "custom_circuit.svg" in
  Mps_render.Svg.save ~path:svg_path ~title:circuit.Circuit.name circuit ~die_w ~die_h rects;
  Format.printf "Wrote %s@." svg_path
