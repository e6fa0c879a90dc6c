open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_core

type budget =
  | Quick
  | Full

let generator_config budget circuit =
  let n = Circuit.n_blocks circuit in
  (* Larger circuits get a little more exploration, mirroring the
     paper's growth of generation effort with circuit size. *)
  let scale = 1.0 +. (float_of_int n /. 12.0) in
  let base = Generator.default_config in
  match budget with
  | Quick ->
    {
      base with
      explorer_iterations = max 8 (int_of_float (10.0 *. scale));
      bdio = { base.bdio with Bdio.iterations = 120 };
      max_placements = 60;
      backup_iterations = 1500;
      refine_iterations = 400;
    }
  | Full ->
    {
      base with
      explorer_iterations = max 60 (int_of_float (90.0 *. scale));
      bdio = { base.bdio with Bdio.iterations = 500 };
      max_placements = 220;
      refine_iterations = 4000;
    }

(* Table 1 *)

let table1 () =
  let rows =
    List.map
      (fun c ->
        [
          c.Circuit.name;
          string_of_int (Circuit.n_blocks c);
          string_of_int (Circuit.n_nets c);
          string_of_int (Circuit.n_terminals c);
        ])
      Benchmarks.all
  in
  "Table 1: test benchmarks\n"
  ^ Text_table.render ~headers:[ "Circuit"; "Blocks"; "Nets"; "Terminals" ] ~rows

(* Probe workload *)

let probe_dims ~seed ~n structure =
  let rng = Rng.create ~seed in
  let circuit = Structure.circuit structure in
  let bounds = Circuit.dim_bounds circuit in
  let stored = Structure.placements structure in
  let jittered () =
    let s = stored.(Rng.int rng (Array.length stored)) in
    let base = s.Stored.best_dims in
    let nb = Dims.n_blocks base in
    let jitter dims i =
      let dims = Dims.set_width dims i (Dims.width dims i + Rng.int_in rng (-2) 2) in
      Dims.set_height dims i (Dims.height dims i + Rng.int_in rng (-2) 2)
    in
    let rec jiggle dims i = if i >= nb then dims else jiggle (jitter dims i) (i + 1) in
    (* keep the jittered vector inside the designer space *)
    let raw =
      try jiggle base 0 with Invalid_argument _ -> base
    in
    Dimbox.clamp bounds raw
  in
  Array.init n (fun k -> if k mod 2 = 0 then Dimbox.random_dims rng bounds else jittered ())

(* Table 2 *)

type table2_row = {
  circuit_name : string;
  generation_seconds : float;
  placements : int;  (** Explorer-discovered placements (Table 2). *)
  coverage : float;
  instantiation_seconds : float;
  fallback_rate : float;
      (** Share of probe queries answered template-style (backup
          territory or uncovered space). *)
}

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let table2_row ~budget circuit =
  let config = generator_config budget circuit in
  let (structure, stats), generation_seconds =
    time_wall (fun () -> Generator.single_walk ~config circuit)
  in
  let probes = probe_dims ~seed:(config.Generator.seed + 7) ~n:2000 structure in
  (* Classified outside the timed window, which holds only what a
     synthesis loop runs per candidate ([Synth_loop.mps_placer]): one
     [instantiate_into] on one engine and one session. *)
  let fallbacks =
    Array.fold_left
      (fun acc dims ->
        match Structure.query structure dims with
        | (Structure.Fallback | Structure.Out_of_domain), _ -> acc + 1
        | Structure.Stored_placement _, s -> if s.Stored.template_like then acc + 1 else acc)
      0 probes
  in
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  let sink = ref 0 in
  let (), instantiation_total =
    time_wall (fun () ->
        Array.iter
          (fun dims ->
            let rects = Structure.Engine.instantiate_into engine session dims in
            sink := !sink + rects.(0).Rect.x)
          probes)
  in
  ignore (Sys.opaque_identity !sink);
  let n_probes = Array.length probes in
  ( {
      circuit_name = circuit.Circuit.name;
      generation_seconds;
      placements = Structure.n_explored structure;
      coverage = stats.Generator.coverage;
      instantiation_seconds = instantiation_total /. float_of_int n_probes;
      fallback_rate = float_of_int fallbacks /. float_of_int n_probes;
    },
    structure )

let table2 ?(budget = Full) ?(circuits = Benchmarks.all) () =
  let rows = List.map (fun c -> fst (table2_row ~budget c)) circuits in
  let render_row r =
    [
      r.circuit_name;
      Text_table.seconds r.generation_seconds;
      string_of_int r.placements;
      Printf.sprintf "%.4f" r.coverage;
      Text_table.microseconds r.instantiation_seconds;
      Printf.sprintf "%.0f%%" (100.0 *. r.fallback_rate);
    ]
  in
  let report =
    "Table 2: generation and usage of the multi-placement structures\n"
    ^ Text_table.render
        ~headers:
          [ "Circuit"; "Generation"; "Placements"; "Coverage"; "Instantiation"; "Template" ]
        ~rows:(List.map render_row rows)
  in
  (rows, report)

(* Figure 5 *)

let figure5 ?(budget = Quick) () =
  let circuit = Benchmarks.two_stage_opamp in
  let config = generator_config budget circuit in
  let structure, _ = Generator.single_walk ~config circuit in
  let die_w, die_h = Structure.die structure in
  let stored = Structure.placements structure in
  (* two stored placements with different coordinates, at their own best
     dimensions: the paper's (a) and (b) *)
  let pick_two () =
    let explored = Array.of_list (List.filter (fun s -> not s.Stored.template_like) (Array.to_list stored)) in
    let pool = if Array.length explored >= 1 then explored else stored in
    let a = pool.(0) in
    let differs s = not (Mps_placement.Placement.equal s.Stored.placement a.Stored.placement) in
    let b =
      match Array.find_opt differs pool with Some s -> s | None -> pool.(Array.length pool - 1)
    in
    (a, b)
  in
  let a, b = pick_two () in
  let buf = Buffer.create 4096 in
  let show label rects =
    Buffer.add_string buf (Printf.sprintf "--- %s ---\n" label);
    Buffer.add_string buf (Mps_render.Ascii.render ~max_cols:48 circuit ~die_w ~die_h rects);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "Figure 5: two-stage op-amp floorplan instantiations\n\n";
  show "(a) MPS instantiation, sizing A" (Stored.instantiate a a.Stored.best_dims);
  show "(b) MPS instantiation, sizing B" (Stored.instantiate b b.Stored.best_dims);
  let rng = Rng.create ~seed:99 in
  let template =
    Mps_baselines.Template_placer.build ~rng circuit ~die_w ~die_h
  in
  show "(c) fixed template at sizing B"
    (Mps_baselines.Template_placer.instantiate template b.Stored.best_dims);
  Buffer.contents buf

(* Figure 6 *)

type figure6_point = {
  swept_value : int;
  per_placement : (int * float) array;
  mps_cost : float;
  mps_choice : Structure.answer;
}

let figure6 ?(budget = Quick) () =
  let circuit = Benchmarks.two_stage_opamp in
  let config = generator_config budget circuit in
  let structure, _ = Generator.single_walk ~config circuit in
  let die_w, die_h = Structure.die structure in
  let stored = Structure.placements structure in
  (* Base point: the best dims of the placement with the widest block-0
     width interval, so the sweep crosses several boxes. *)
  let base =
    let widest = ref stored.(0) in
    Array.iter
      (fun s ->
        if
          Interval.length (Dimbox.w_interval s.Stored.box 0)
          > Interval.length (Dimbox.w_interval !widest.Stored.box 0)
        then widest := s)
      stored;
    !widest.Stored.best_dims
  in
  let bounds = Circuit.dim_bounds circuit in
  let w0 = Dimbox.w_interval bounds 0 in
  let points = ref [] in
  for v = Interval.lo w0 to Interval.hi w0 do
    let dims = Dims.set_width base 0 v in
    (* cost of committing to placement j's coordinates for these dims —
       the paper's top plot; outside a placement's legal box the penalized
       cost of the resulting overlaps shows, as it would in the paper *)
    let per_placement =
      Array.mapi
        (fun j s ->
          let rects = Stored.instantiate s dims in
          (j, Mps_cost.Cost.total circuit ~die_w ~die_h rects))
        stored
    in
    let answer, _ = Structure.query structure dims in
    let rects = Structure.instantiate structure dims in
    let mps_cost = Mps_cost.Cost.total circuit ~die_w ~die_h rects in
    points := { swept_value = v; per_placement; mps_cost; mps_choice = answer } :: !points
  done;
  let points = List.rev !points in
  (* Lower-envelope check: on covered points the structure's placement
     cost must match the minimum over stored placements. *)
  let covered, matched = (ref 0, ref 0) in
  List.iter
    (fun p ->
      match p.mps_choice with
      | Structure.Stored_placement _ ->
        incr covered;
        let envelope = Array.fold_left (fun acc (_, c) -> Float.min acc c) infinity p.per_placement in
        if p.mps_cost <= envelope +. 1e-6 then incr matched
      | Structure.Fallback | Structure.Out_of_domain -> ())
    points;
  let rows =
    List.map
      (fun p ->
        let min_j, min_c =
          Array.fold_left
            (fun (bj, bc) (j, c) -> if c < bc then (j, c) else (bj, bc))
            (-1, infinity) p.per_placement
        in
        [
          string_of_int p.swept_value;
          Printf.sprintf "%.1f" min_c;
          string_of_int min_j;
          Printf.sprintf "%.1f" p.mps_cost;
          (match p.mps_choice with
          | Structure.Stored_placement j ->
            if stored.(j).Stored.template_like then Printf.sprintf "#%d (template)" j
            else Printf.sprintf "#%d" j
          | Structure.Fallback -> "fallback"
          | Structure.Out_of_domain -> "out-of-domain");
        ])
      points
  in
  let report =
    Printf.sprintf
      "Figure 6: lowest-cost selection for the two-stage op-amp\n\
       (sweeping block 0 width; %d explored placements + backup territory)\n"
      (Structure.n_explored structure)
    ^ Text_table.render
        ~headers:[ "w0"; "envelope"; "argmin"; "mps cost"; "mps choice" ]
        ~rows
    ^ Printf.sprintf "covered points: %d; lower-envelope matches: %d\n" !covered !matched
  in
  (points, report)

(* Figure 7 *)

let figure7 ?(budget = Quick) () =
  let circuit = Benchmarks.tso_cascode in
  let config = generator_config budget circuit in
  let structure, stats = Generator.single_walk ~config circuit in
  let die_w, die_h = Structure.die structure in
  let best = Structure.backup structure in
  let rects = Stored.instantiate best best.Stored.best_dims in
  Printf.sprintf
    "Figure 7: floorplan instantiation for 'tso-cascode' (21 modules)\n\
     (%d placements stored in %s; showing the best-cost placement)\n\n"
    stats.Generator.placements_stored
    (Text_table.seconds stats.Generator.generation_seconds)
  ^ Mps_render.Ascii.render ~max_cols:72 circuit ~die_w ~die_h rects

(* Ablations *)

let structure_metrics structure =
  let probes = probe_dims ~seed:4242 ~n:1000 structure in
  let circuit = Structure.circuit structure in
  let die_w, die_h = Structure.die structure in
  let fallbacks = ref 0 and cost_sum = ref 0.0 in
  Array.iter
    (fun dims ->
      (match Structure.query structure dims with
      | (Structure.Fallback | Structure.Out_of_domain), _ -> incr fallbacks
      | Structure.Stored_placement _, s ->
        if s.Stored.template_like then incr fallbacks);
      let rects = Structure.instantiate structure dims in
      cost_sum := !cost_sum +. Mps_cost.Cost.total circuit ~die_w ~die_h rects)
    probes;
  let n = float_of_int (Array.length probes) in
  ( float_of_int !fallbacks /. n,
    !cost_sum /. n )

let ablation_shrink ?(budget = Quick) () =
  let circuit = Benchmarks.two_stage_opamp in
  let base = generator_config budget circuit in
  let variants =
    [
      ("cost-ratio (paper)", Bdio.Cost_ratio);
      ("fixed 0.5", Bdio.Fixed 0.5);
      ("no shrink", Bdio.No_shrink);
    ]
  in
  let rows =
    List.map
      (fun (label, rule) ->
        let config = { base with Generator.bdio = { base.Generator.bdio with Bdio.shrink = rule } } in
        let structure, stats = Generator.single_walk ~config circuit in
        let fallback_rate, avg_cost = structure_metrics structure in
        [
          label;
          string_of_int stats.Generator.placements_stored;
          Printf.sprintf "%.4f" stats.Generator.coverage;
          Printf.sprintf "%.0f%%" (100.0 *. fallback_rate);
          Printf.sprintf "%.1f" avg_cost;
        ])
      variants
  in
  "Ablation A1: Optimize Ranges shrink rule (two-stage op-amp)\n"
  ^ Text_table.render
      ~headers:[ "Rule"; "Placements"; "Coverage"; "Fallback"; "Avg query cost" ]
      ~rows

let ablation_explorer ?(budget = Quick) () =
  let circuit = Benchmarks.two_stage_opamp in
  let config = generator_config budget circuit in
  let rows =
    List.map
      (fun (label, generate) ->
        let structure, stats = generate () in
        let fallback_rate, avg_cost = structure_metrics structure in
        [
          label;
          string_of_int stats.Generator.placements_stored;
          Printf.sprintf "%.4f" stats.Generator.coverage;
          Printf.sprintf "%.0f%%" (100.0 *. fallback_rate);
          Printf.sprintf "%.1f" avg_cost;
        ])
      [
        ("SA explorer (paper)", fun () -> Generator.single_walk ~config circuit);
        ("random restarts", fun () -> Generator.random_explorer ~config circuit);
      ]
  in
  "Ablation A2: placement explorer strategy (two-stage op-amp)\n"
  ^ Text_table.render
      ~headers:[ "Explorer"; "Placements"; "Coverage"; "Fallback"; "Avg query cost" ]
      ~rows

let ablation_fallback ?(budget = Quick) () =
  let circuit = Benchmarks.mixer in
  let config = generator_config budget circuit in
  let structure, _ = Generator.single_walk ~config circuit in
  let probes = probe_dims ~seed:4242 ~n:1000 structure in
  let die_w, die_h = Structure.die structure in
  let avg_cost instantiate =
    let total =
      Array.fold_left
        (fun acc dims ->
          acc +. Mps_cost.Cost.total circuit ~die_w ~die_h (instantiate dims))
        0.0 probes
    in
    total /. float_of_int (Array.length probes)
  in
  let rows =
    [
      [ "backup template (paper)";
        Printf.sprintf "%.1f" (avg_cost (Structure.instantiate structure)) ];
      [ "nearest stored box (extension)";
        Printf.sprintf "%.1f" (avg_cost (Structure.instantiate_nearest structure)) ];
    ]
  in
  "Ablation A5: fallback strategy for uncovered queries (Mixer)\n"
  ^ Text_table.render ~headers:[ "Strategy"; "Avg query cost" ] ~rows

let ablation_query ?(budget = Quick) () =
  let circuit = Benchmarks.benchmark24 in
  let config = generator_config budget circuit in
  let structure, _ = Generator.single_walk ~config circuit in
  let probes = probe_dims ~seed:7 ~n:5000 structure in
  let time_queries f =
    let (), t =
      time_wall (fun () -> Array.iter (fun dims -> ignore (f structure dims)) probes)
    in
    t /. float_of_int (Array.length probes)
  in
  let t_compiled = time_queries Structure.query in
  let t_linear = time_queries Structure.query_linear in
  "Ablation A3: query implementation (benchmark24, per query)\n"
  ^ Text_table.render
      ~headers:[ "Implementation"; "Time/query" ]
      ~rows:
        [
          [ "compiled plan (engine)"; Text_table.microseconds t_compiled ];
          [ "linear box scan"; Text_table.microseconds t_linear ];
        ]

let ablation_refine ?(budget = Quick) () =
  let circuit = Benchmarks.two_stage_opamp in
  let base = generator_config budget circuit in
  let budgets = match budget with Quick -> [ 0; 120; 400 ] | Full -> [ 0; 400; 1500; 4000 ] in
  let rows =
    List.map
      (fun refine ->
        let config = { base with Generator.refine_iterations = refine } in
        let (structure, stats), seconds =
          time_wall (fun () -> Generator.single_walk ~config circuit)
        in
        let _, avg_cost = structure_metrics structure in
        [
          string_of_int refine;
          string_of_int (Structure.n_explored structure);
          string_of_int stats.Generator.candidates_dropped;
          Printf.sprintf "%.1f" avg_cost;
          Text_table.seconds seconds;
        ])
      budgets
  in
  "Ablation A7: per-candidate coordinate refinement (two-stage op-amp)\n\
   (0 = the paper's literal walk; admitted = placements that beat the template)\n"
  ^ Text_table.render
      ~headers:[ "Refine iters"; "Admitted"; "Dropped"; "Avg query cost"; "Generation" ]
      ~rows

let ablation_parasitics ?(budget = Quick) () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let config = generator_config budget circuit in
  let structure, _ = Generator.single_walk ~config circuit in
  let placer = Mps_synthesis.Synth_loop.mps_placer structure in
  let iterations = match budget with Quick -> 30 | Full -> 80 in
  let run parasitics =
    Mps_synthesis.Synth_loop.run
      ~config:{ Mps_synthesis.Synth_loop.default_config with iterations; parasitics }
      Mps_synthesis.Opamp.model process circuit ~die_w ~die_h placer
  in
  let rows =
    List.map
      (fun (label, parasitics) ->
        let r = run parasitics in
        [
          label;
          Printf.sprintf "%.2f" r.Mps_synthesis.Synth_loop.best_cost;
          Printf.sprintf "%.1f" r.Mps_synthesis.Synth_loop.best_perf.gbw_mhz;
          Printf.sprintf "%.0f" r.Mps_synthesis.Synth_loop.best_perf.wire_cap_ff;
          Text_table.seconds r.Mps_synthesis.Synth_loop.total_seconds;
        ])
      [
        ("HPWL estimate", Mps_synthesis.Synth_loop.Hpwl_estimate);
        ("maze route + RC extraction", Mps_synthesis.Synth_loop.Routed_extraction);
      ]
  in
  Printf.sprintf
    "Ablation A6: parasitic estimation inside the sizing loop (%d candidates)\n" iterations
  ^ Text_table.render
      ~headers:[ "Parasitics"; "Best cost"; "GBW MHz"; "Cwire fF"; "Loop time" ]
      ~rows

(* Synthesis comparison *)

let synthesis_comparison ?(budget = Quick) () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let config = generator_config budget circuit in
  let (structure, _gen_stats), gen_time =
    time_wall (fun () -> Generator.single_walk ~config circuit)
  in
  let rng = Rng.create ~seed:5 in
  let template, template_time =
    time_wall (fun () -> Mps_baselines.Template_placer.build ~rng circuit ~die_w ~die_h)
  in
  let sa_iterations = match budget with Quick -> Some 800 | Full -> None in
  let loop_iterations = match budget with Quick -> 60 | Full -> 150 in
  let loop_config = { Mps_synthesis.Synth_loop.default_config with iterations = loop_iterations } in
  let placers =
    [
      (Mps_synthesis.Synth_loop.mps_placer structure, gen_time);
      (Mps_synthesis.Synth_loop.template_placer template, template_time);
      ( Mps_synthesis.Synth_loop.sa_placer ?iterations:sa_iterations ~seed:11 circuit
          ~die_w ~die_h,
        0.0 );
    ]
  in
  let rows =
    List.map
      (fun (placer, setup_time) ->
        let r =
          Mps_synthesis.Synth_loop.run ~config:loop_config Mps_synthesis.Opamp.model process
            circuit ~die_w ~die_h placer
        in
        [
          placer.Mps_synthesis.Synth_loop.name;
          Printf.sprintf "%.2f" r.Mps_synthesis.Synth_loop.best_cost;
          (if r.Mps_synthesis.Synth_loop.meets_spec then "yes" else "no");
          Printf.sprintf "%.1f" r.Mps_synthesis.Synth_loop.best_perf.gbw_mhz;
          Text_table.seconds r.Mps_synthesis.Synth_loop.placement_seconds;
          Text_table.seconds r.Mps_synthesis.Synth_loop.total_seconds;
          Text_table.seconds setup_time;
        ])
      placers
  in
  Printf.sprintf
    "Synthesis comparison (A4): layout-inclusive sizing, %d candidates\n\
     (MPS: %d explored placements, one-time generation amortized over every loop)\n"
    loop_iterations (Structure.n_explored structure)
  ^ Text_table.render
      ~headers:
        [ "Placer"; "Best cost"; "Spec met"; "GBW MHz"; "Placement time"; "Loop time";
          "One-time setup" ]
      ~rows
