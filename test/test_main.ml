(* Test runner: one Alcotest suite per library module group. *)

let () =
  Alcotest.run "mps"
    [
      ("rng", Test_rng.suite);
      ("geometry", Test_geometry.suite);
      ("netlist", Test_netlist.suite);
      ("modgen", Test_modgen.suite);
      ("cost", Test_cost.suite);
      ("incremental", Test_incremental.suite);
      ("anneal", Test_anneal.suite);
      ("placement", Test_placement.suite);
      ("mps", Test_mps.suite);
      ("engine", Test_engine.suite);
      ("mps-multiblock", Test_mps_multiblock.suite);
      ("route", Test_route.suite);
      ("symmetry", Test_symmetry.suite);
      ("baselines", Test_baselines.suite);
      ("synthesis", Test_synthesis.suite);
      ("folded-cascode", Test_folded_cascode.suite);
      ("render", Test_render.suite);
      ("codec", Test_codec.suite);
      ("audit", Test_audit.suite);
      ("fault", Test_fault.suite);
      ("persist", Test_persist.suite);
      ("serve", Test_serve.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("parallel", Test_parallel.suite);
      ("experiments", Test_experiments.suite);
      ("csv", Test_csv.suite);
      ("integration", Test_integration.suite);
      ("zcodec", Test_zcodec.suite);
      ("pinned", Test_pinned.suite);
      ("row", Test_plan_rows.suite);
      ("exports", Test_exports.suite);
    ]
