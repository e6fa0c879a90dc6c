(* Routing and extraction demo: the full Fig. 1b back end.

   Place the two-stage op-amp through its multi-placement structure,
   maze-route every net around the modules, extract lumped RC
   parasitics, and compare the op-amp performance predicted from the
   HPWL estimate against the routed extraction.

   Run with: dune exec examples/routing_demo.exe *)

open Mps_netlist
open Mps_core
open Mps_route

let () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in

  let structure, stats = Generator.generate ~config:Generator.fast_config circuit in
  Format.printf "MPS for %s: %d explored placements (%.2fs CPU)@." circuit.Circuit.name
    (Structure.n_explored structure) stats.Generator.generation_seconds;

  let sizing = Mps_synthesis.Opamp.nominal_sizing in
  let dims = Mps_synthesis.Opamp.dims process circuit sizing in
  let rects = Structure.instantiate structure dims in

  (* Route the instantiated floorplan. *)
  let routing = Router.route circuit ~die_w ~die_h rects in
  Format.printf "@.Routing: total length %.0f grid units, overflow %d@."
    routing.Router.total_length routing.Router.overflow;
  Array.iter
    (fun (net : Router.routed_net) ->
      Format.printf "  %-12s %6.0f units@."
        circuit.Circuit.nets.(net.Router.net_id).Net.name net.Router.length)
    routing.Router.nets;

  (* Extraction and its effect on predicted performance. *)
  let total_r, total_c =
    Array.fold_left
      (fun (r, c) (net : Net.t) ->
        let rc =
          Extraction.net_rc process
            ~length:(Router.routed_length routing net.Net.id)
            ~endpoints:(Net.degree net)
        in
        (r +. rc.Extraction.resistance_ohm, c +. rc.Extraction.capacitance_ff))
      (0.0, 0.0) circuit.Circuit.nets
  in
  Format.printf "@.Extraction: %.0f fF / %.0f ohm total@." total_c total_r;
  let perf parasitics =
    Mps_synthesis.Opamp.model.performance parasitics process circuit ~die_w ~die_h sizing rects
  in
  Format.printf "HPWL estimate:     %a@." Mps_synthesis.Synth_loop.pp_perf
    (perf Mps_synthesis.Synth_loop.Hpwl_estimate);
  Format.printf "Routed extraction: %a@." Mps_synthesis.Synth_loop.pp_perf
    (perf Mps_synthesis.Synth_loop.Routed_extraction);

  (* Wire overlay. *)
  let wire_points =
    Array.to_list routing.Router.nets
    |> List.concat_map (fun (net : Router.routed_net) ->
           List.map Router.cell_center net.Router.cells)
  in
  Format.printf "@.Routed floorplan ('+' = wire):@.%s"
    (Mps_render.Ascii.render_routed ~max_cols:64 circuit ~die_w ~die_h rects ~wire_points)
