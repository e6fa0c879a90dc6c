(* Tests for the experiment drivers and the table renderer.  Experiment
   runs use the Quick budget and the small circuits so the suite stays
   fast. *)

open Mps_netlist
open Mps_core
open Mps_experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub sub s =
  let n = String.length sub in
  let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
  loop 0

(* Text_table *)

let test_table_alignment () =
  let t =
    Text_table.render ~headers:[ "a"; "long header" ]
      ~rows:[ [ "wide cell"; "x" ]; [ "y"; "z" ] ]
  in
  let lines = String.split_on_char '\n' t |> List.filter (fun l -> l <> "") in
  check_int "four lines" 4 (List.length lines);
  let widths = List.map String.length lines in
  check_bool "all lines same width" true
    (match widths with w :: rest -> List.for_all (( = ) w) rest | [] -> false)

let test_table_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Text_table.render: ragged row")
    (fun () -> ignore (Text_table.render ~headers:[ "a"; "b" ] ~rows:[ [ "1" ] ]))

let test_durations () =
  Alcotest.(check string) "ms" "420ms" (Text_table.seconds 0.42);
  Alcotest.(check string) "s" "2.41s" (Text_table.seconds 2.41);
  Alcotest.(check string) "m" "3m12s" (Text_table.seconds 192.0);
  Alcotest.(check string) "h" "1h02m" (Text_table.seconds 3725.0);
  Alcotest.(check string) "us" "85us" (Text_table.microseconds 85e-6);
  Alcotest.(check string) "ms scale" "1.2ms" (Text_table.microseconds 1.2e-3)

(* Budgets *)

let test_budget_scales_with_size () =
  let small = Experiments.generator_config Experiments.Full Benchmarks.circ01 in
  let large = Experiments.generator_config Experiments.Full Benchmarks.benchmark24 in
  check_bool "larger circuit, more exploration" true
    (large.Generator.explorer_iterations > small.Generator.explorer_iterations)

let test_quick_cheaper_than_full () =
  let q = Experiments.generator_config Experiments.Quick Benchmarks.mixer in
  let f = Experiments.generator_config Experiments.Full Benchmarks.mixer in
  check_bool "fewer explorer steps" true
    (q.Generator.explorer_iterations < f.Generator.explorer_iterations);
  check_bool "fewer bdio steps" true
    (q.Generator.bdio.Bdio.iterations < f.Generator.bdio.Bdio.iterations)

(* Table 1 *)

let test_table1_report () =
  let t = Experiments.table1 () in
  List.iter
    (fun c -> check_bool (c.Circuit.name ^ " listed") true (contains_sub c.Circuit.name t))
    Benchmarks.all

(* Table 2 (single small circuit) *)

let test_table2_row () =
  let row, structure = Experiments.table2_row ~budget:Experiments.Quick Benchmarks.circ01 in
  check_bool "placements positive" true (row.Experiments.placements >= 1);
  check_int "matches structure" (Structure.n_explored structure) row.Experiments.placements;
  check_bool "generation time positive" true (row.Experiments.generation_seconds > 0.0);
  check_bool "instantiation sub-millisecond" true
    (row.Experiments.instantiation_seconds < 1e-3);
  check_bool "fallback rate in [0,1]" true
    (row.Experiments.fallback_rate >= 0.0 && row.Experiments.fallback_rate <= 1.0)

let test_table2_report_subset () =
  let rows, report =
    Experiments.table2 ~budget:Experiments.Quick ~circuits:[ Benchmarks.circ01; Benchmarks.circ02 ] ()
  in
  check_int "two rows" 2 (List.length rows);
  check_bool "both named" true (contains_sub "circ01" report && contains_sub "circ02" report)

(* Probe workload *)

let test_probe_dims_valid () =
  let structure, _ = Generator.single_walk ~config:Generator.fast_config Benchmarks.circ01 in
  let probes = Experiments.probe_dims ~seed:3 ~n:200 structure in
  check_int "count" 200 (Array.length probes);
  Array.iter
    (fun dims -> check_bool "inside designer space" true (Circuit.dims_valid Benchmarks.circ01 dims))
    probes

(* Figure 6 on the quick budget *)

let figure6 = lazy (Experiments.figure6 ~budget:Experiments.Quick ())

let test_figure6_envelope () =
  let points, report = Lazy.force figure6 in
  check_bool "sweep non-empty" true (points <> []);
  check_bool "report mentions envelope" true (contains_sub "envelope" report);
  (* Averaged over the sweep, the structure's answers must beat the
     average cost of committing to an arbitrary fixed placement (the
     paper's top plot): the per-point choice is driven by regional
     average costs, so the claim is statistical, not pointwise. *)
  let mps_total = ref 0.0 and curve_total = ref 0.0 and n_points = ref 0 in
  List.iter
    (fun p ->
      let n = Array.length p.Experiments.per_placement in
      let mean =
        Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 p.Experiments.per_placement
        /. float_of_int n
      in
      mps_total := !mps_total +. p.Experiments.mps_cost;
      curve_total := !curve_total +. mean;
      incr n_points)
    points;
  check_bool "mps beats the average fixed choice over the sweep" true
    (!mps_total <= !curve_total)

let test_figure6_covers_some_points () =
  let points, _ = Lazy.force figure6 in
  let covered =
    List.length
      (List.filter
         (fun p ->
           match p.Experiments.mps_choice with
           | Structure.Stored_placement _ -> true
           | Structure.Fallback | Structure.Out_of_domain -> false)
         points)
  in
  check_bool "sweep crosses stored boxes" true (covered > 0)

(* Reports smoke (quick, small circuits where selectable) *)

let test_figure5_report () =
  let r = Experiments.figure5 ~budget:Experiments.Quick () in
  check_bool "three panels" true
    (contains_sub "(a)" r && contains_sub "(b)" r && contains_sub "(c)" r)

let test_ablation_shrink_report () =
  let r = Experiments.ablation_shrink ~budget:Experiments.Quick () in
  check_bool "three rules" true
    (contains_sub "cost-ratio" r && contains_sub "fixed" r && contains_sub "no shrink" r)

let suite =
  [
    ("text table: alignment", `Quick, test_table_alignment);
    ("text table: ragged rows rejected", `Quick, test_table_ragged);
    ("durations render", `Quick, test_durations);
    ("budget scales with circuit size", `Quick, test_budget_scales_with_size);
    ("quick budget cheaper than full", `Quick, test_quick_cheaper_than_full);
    ("table1 lists all circuits", `Quick, test_table1_report);
    ("table2 row metrics", `Quick, test_table2_row);
    ("table2 report over a subset", `Quick, test_table2_report_subset);
    ("probe workload stays in the designer space", `Quick, test_probe_dims_valid);
    ("figure6: MPS sits on the lower envelope", `Quick, test_figure6_envelope);
    ("figure6: sweep crosses stored boxes", `Quick, test_figure6_covers_some_points);
    ("figure5: three panels", `Quick, test_figure5_report);
    ("ablation: shrink rules compared", `Quick, test_ablation_shrink_report);
  ]
