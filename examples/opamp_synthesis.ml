(* Layout-inclusive synthesis of a two-stage op-amp (paper Fig. 1b).

   The sizing annealer proposes device sizes; each candidate is
   translated to block dimensions by the module generators, placed by
   the multi-placement structure in microseconds, and evaluated with
   layout-derived parasitics.

   Run with: dune exec examples/opamp_synthesis.exe *)

open Mps_netlist
open Mps_core
open Mps_synthesis

let () =
  let process = Mps_modgen.Process.default in
  let circuit = Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  Format.printf "Circuit: %a (die %dx%d)@." Circuit.pp circuit die_w die_h;

  (* One-time structure generation. *)
  let config = Mps_experiments.Experiments.generator_config Mps_experiments.Experiments.Full circuit in
  let structure, stats = Generator.single_walk ~config circuit in
  Format.printf "MPS generated: %d placements, coverage %.4f, %s CPU@."
    stats.Generator.placements_stored stats.Generator.coverage
    (Mps_experiments.Text_table.seconds stats.Generator.generation_seconds);

  (* The synthesis loop, placing through the structure. *)
  let placer = Synth_loop.mps_placer structure in
  let result = Synth_loop.run Opamp.model process circuit ~die_w ~die_h placer in
  Format.printf "@.Synthesis finished: %d sizings evaluated in %s (placement: %s)@."
    result.Synth_loop.evaluations
    (Mps_experiments.Text_table.seconds result.Synth_loop.total_seconds)
    (Mps_experiments.Text_table.seconds result.Synth_loop.placement_seconds);
  Format.printf "Best sizing: %a@." Opamp.pp_sizing result.Synth_loop.best_sizing;
  Format.printf "Performance: %a@." Synth_loop.pp_perf result.Synth_loop.best_perf;
  let spec = Opamp.model.Synth_loop.spec in
  Format.printf "Meets spec (%.0f dB, %.0f MHz, %.0f V/us, %.1f mW): %b@."
    spec.Synth_loop.min_gain_db spec.Synth_loop.min_gbw_mhz spec.Synth_loop.min_slew_v_per_us
    spec.Synth_loop.max_power_mw result.Synth_loop.meets_spec;

  (* Show the floorplan the winning sizing gets. *)
  let dims = Opamp.dims process circuit result.Synth_loop.best_sizing in
  let rects = Structure.instantiate structure dims in
  Format.printf "@.Winning floorplan:@.%s"
    (Mps_render.Ascii.render ~max_cols:56 circuit ~die_w ~die_h rects)
