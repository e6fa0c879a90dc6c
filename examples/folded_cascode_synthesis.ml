(* Second-design demonstration: layout-inclusive sizing of a
   folded-cascode OTA (7 modules, symmetric), comparing the
   multi-placement structure against the fixed template inside the same
   sizing loop.

   Run with: dune exec examples/folded_cascode_synthesis.exe *)

open Mps_netlist
open Mps_core
open Mps_synthesis

let () =
  let process = Mps_modgen.Process.default in
  let circuit = Folded_cascode.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  Format.printf "Circuit: %a@." Circuit.pp circuit;

  let config =
    Mps_experiments.Experiments.generator_config Mps_experiments.Experiments.Full circuit
  in
  let structure, stats = Generator.single_walk ~config circuit in
  Format.printf "MPS: %d explored placements in %s CPU@."
    (Structure.n_explored structure)
    (Mps_experiments.Text_table.seconds stats.Generator.generation_seconds);

  let rng = Mps_rng.Rng.create ~seed:4 in
  let template = Mps_baselines.Template_placer.build ~rng circuit ~die_w ~die_h in

  let loop_config =
    { Synth_loop.seed = 7; iterations = 120; parasitics = Hpwl_estimate; optimize_aspect = false }
  in
  let show name placer =
    let r =
      Synth_loop.run ~config:loop_config Folded_cascode.model process circuit ~die_w ~die_h placer
    in
    Format.printf "@.%s:@.  best %a@.  %a@.  spec met: %b, placement time %s of %s@." name
      Folded_cascode.pp_sizing r.Synth_loop.best_sizing Synth_loop.pp_perf r.Synth_loop.best_perf
      r.Synth_loop.meets_spec
      (Mps_experiments.Text_table.seconds r.Synth_loop.placement_seconds)
      (Mps_experiments.Text_table.seconds r.Synth_loop.total_seconds);
    r.Synth_loop.best_cost
  in
  let mps_cost = show "multi-placement structure" (Synth_loop.mps_placer structure) in
  let tpl_cost = show "fixed template" (Synth_loop.template_placer template) in
  Format.printf "@.Best cost: mps %.2f vs template %.2f (%s)@." mps_cost tpl_cost
    (if mps_cost <= tpl_cost then "MPS wins" else "template wins")
