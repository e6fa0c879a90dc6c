(* End-to-end invariants across the whole pipeline: for each benchmark
   circuit, generate a structure at a small budget and check that every
   claim the library makes actually holds on the compiled artifact —
   including after save/load round-trips and incremental extension. *)

open Mps_geometry
open Mps_netlist
open Mps_core

let check_bool = Alcotest.(check bool)

let structures = Fixtures.structures

let for_all_structures f () =
  List.iter (fun (c, s) -> f c s) (Lazy.force structures)

let test_boxes_disjoint c structure =
  let ps = Structure.placements structure in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            check_bool
              (Printf.sprintf "%s: boxes %d/%d disjoint" c.Circuit.name i j)
              true
              (not (Dimbox.overlaps a.Stored.box b.Stored.box)))
        ps)
    ps

let test_hits_are_legal c structure =
  let die_w, die_h = Structure.die structure in
  let probes = Mps_experiments.Experiments.probe_dims ~seed:31 ~n:200 structure in
  Array.iter
    (fun dims ->
      match Structure.query structure dims with
      | Structure.Stored_placement _, s ->
        let rects = Stored.instantiate_auto s dims in
        check_bool (c.Circuit.name ^ ": hit is overlap-free") true
          (Rect.any_overlap rects = None);
        (* ordinary placements answer raw coordinates inside the die;
           template-like pieces re-pack outside their expansion box *)
        if not s.Stored.template_like then
          check_bool (c.Circuit.name ^ ": plain hit instantiates legally") true
            (Mps_cost.Cost.is_legal ~die_w ~die_h rects)
      | (Structure.Fallback | Structure.Out_of_domain), _ ->
        (* fallback re-pack is overlap-free by construction *)
        check_bool (c.Circuit.name ^ ": fallback overlap-free") true
          (Rect.any_overlap (Structure.instantiate structure dims) = None))
    probes

let test_boxes_inside_designer_space c structure =
  let bounds = Circuit.dim_bounds c in
  Array.iter
    (fun s ->
      check_bool (c.Circuit.name ^ ": box within designer bounds") true
        (Dimbox.contains_box ~outer:bounds ~inner:s.Stored.box);
      check_bool (c.Circuit.name ^ ": expansion within designer bounds") true
        (Dimbox.contains_box ~outer:bounds ~inner:s.Stored.expansion))
    (Structure.placements structure)

let test_costs_consistent c structure =
  Array.iter
    (fun s ->
      check_bool (c.Circuit.name ^ ": avg >= best") true
        (s.Stored.avg_cost >= s.Stored.best_cost -. 1e-9);
      check_bool (c.Circuit.name ^ ": best dims in box") true
        (Dimbox.contains s.Stored.box s.Stored.best_dims))
    (Structure.placements structure)

let test_codec_roundtrip_all c structure =
  let reloaded = Codec.of_string ~circuit:c (Codec.to_string structure) in
  let probes = Mps_experiments.Experiments.probe_dims ~seed:37 ~n:100 structure in
  Array.iter
    (fun dims ->
      let a1, _ = Structure.query structure dims in
      let a2, _ = Structure.query reloaded dims in
      check_bool (c.Circuit.name ^ ": reload answers agree") true (a1 = a2))
    probes

let test_query_equals_linear c structure =
  let probes = Mps_experiments.Experiments.probe_dims ~seed:41 ~n:200 structure in
  Array.iter
    (fun dims ->
      let a1, _ = Structure.query structure dims in
      let a2, _ = Structure.query_linear structure dims in
      check_bool (c.Circuit.name ^ ": compiled = linear") true (a1 = a2))
    probes

(* Quality floor: every explored placement must beat the backup template
   over its own validity box (the generator's admission test, re-checked
   here on an independent sample with tolerance for sampling noise). *)
let test_explored_beats_backup c structure =
  let die_w, die_h = Structure.die structure in
  let backup = Structure.backup structure in
  let rng = Mps_rng.Rng.create ~seed:53 in
  let cost rects = Mps_cost.Cost.total c ~die_w ~die_h rects in
  Array.iter
    (fun s ->
      if not s.Stored.template_like then begin
        let samples = 24 in
        let own = ref 0.0 and tpl = ref 0.0 in
        for _ = 1 to samples do
          let dims = Dimbox.random_dims rng s.Stored.box in
          own := !own +. cost (Stored.instantiate s dims);
          tpl := !tpl +. cost (Stored.instantiate_repacked backup dims)
        done;
        check_bool
          (c.Circuit.name ^ ": explored placement near or below template cost")
          true
          (!own <= !tpl *. 1.15)
      end)
    (Structure.placements structure)

(* Incremental extension *)

let test_extend_grows () =
  let circuit = Benchmarks.circ02 in
  let structure, _ = Generator.single_walk ~config:Fixtures.tiny_config circuit in
  let before = Structure.n_placements structure in
  let config =
    {
      Fixtures.tiny_config with
      Generator.seed = 77;
      explorer_iterations = 10;
      max_placements = 60;
    }
  in
  let extended, stats = Generator.extend ~config structure in
  check_bool "placement count grew" true (Structure.n_placements extended >= before);
  check_bool "coverage did not shrink much" true
    (stats.Generator.coverage >= 0.0);
  (* invariants still hold *)
  let ps = Structure.placements extended in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            check_bool "extended boxes disjoint" true
              (not (Dimbox.overlaps a.Stored.box b.Stored.box)))
        ps)
    ps

let test_extend_preserves_die () =
  let circuit = Benchmarks.circ02 in
  let structure, _ = Generator.single_walk ~config:Fixtures.tiny_config circuit in
  let extended, _ =
    Generator.extend ~config:{ Fixtures.tiny_config with Generator.seed = 78 } structure
  in
  check_bool "same die" true (Structure.die structure = Structure.die extended)

let test_to_builder_roundtrip () =
  let circuit = Benchmarks.circ01 in
  let structure, _ = Generator.single_walk ~config:Fixtures.tiny_config circuit in
  let rebuilt = Structure.compile ~backup:(Structure.backup structure) (Structure.to_builder structure) in
  Alcotest.(check int) "placement count preserved" (Structure.n_placements structure)
    (Structure.n_placements rebuilt)

(* Coverage cross-check and description *)

let test_coverage_sampled_agrees () =
  (* Monte-Carlo estimate vs the exact disjoint-box sum.  Coverage per
     circuit is small, so compare with an absolute tolerance derived
     from the binomial standard error. *)
  List.iter
    (fun (_, structure) ->
      let exact = Structure.coverage structure in
      let sampled = Structure.coverage_sampled ~seed:71 ~samples:4000 structure in
      let sigma = sqrt (exact *. (1.0 -. exact) /. 4000.0) in
      check_bool "estimate within 5 sigma + eps" true
        (abs_float (sampled -. exact) <= (5.0 *. sigma) +. 0.01))
    (Lazy.force structures)

let test_describe_mentions_counts () =
  let circuit = Benchmarks.circ01 in
  let structure, _ = Generator.single_walk ~config:Fixtures.tiny_config circuit in
  let d = Structure.describe structure in
  let contains sub =
    let n = String.length sub in
    let rec loop i = i + n <= String.length d && (String.sub d i n = sub || loop (i + 1)) in
    loop 0
  in
  check_bool "names circuit" true (contains circuit.Circuit.name);
  check_bool "mentions coverage" true (contains "coverage");
  check_bool "mentions interval objects" true (contains "interval objects")

(* Nearest-box fallback *)

let test_nearest_agrees_on_hits () =
  let circuit = Benchmarks.circ01 in
  let structure, _ = Generator.single_walk ~config:Fixtures.tiny_config circuit in
  let probes = Mps_experiments.Experiments.probe_dims ~seed:43 ~n:200 structure in
  Array.iter
    (fun dims ->
      match Structure.query structure dims with
      | Structure.Stored_placement id, _ ->
        Alcotest.(check int) "nearest of covered is the cover" id (Structure.nearest structure dims)
      | (Structure.Fallback | Structure.Out_of_domain), _ ->
        let id = Structure.nearest structure dims in
        check_bool "nearest id valid" true (id >= 0 && id < Structure.n_placements structure))
    probes

let test_instantiate_nearest_overlap_free () =
  let circuit = Benchmarks.circ01 in
  let structure, _ = Generator.single_walk ~config:Fixtures.tiny_config circuit in
  let probes = Mps_experiments.Experiments.probe_dims ~seed:47 ~n:200 structure in
  Array.iter
    (fun dims ->
      let rects = Structure.instantiate_nearest structure dims in
      check_bool "overlap-free" true (Rect.any_overlap rects = None);
      Array.iteri
        (fun i r ->
          check_bool "requested dims" true
            (r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i))
        rects)
    probes

let suite =
  [
    ("all circuits: stored boxes disjoint", `Slow, for_all_structures test_boxes_disjoint);
    ("all circuits: query hits are legal", `Slow, for_all_structures test_hits_are_legal);
    ("all circuits: boxes within designer space", `Slow,
     for_all_structures test_boxes_inside_designer_space);
    ("all circuits: stored costs consistent", `Slow, for_all_structures test_costs_consistent);
    ("all circuits: codec round-trip", `Slow, for_all_structures test_codec_roundtrip_all);
    ("all circuits: compiled query equals linear", `Slow,
     for_all_structures test_query_equals_linear);
    ("all circuits: explored placements beat the template", `Slow,
     for_all_structures test_explored_beats_backup);
    ("extend grows the structure", `Quick, test_extend_grows);
    ("extend preserves the die", `Quick, test_extend_preserves_die);
    ("to_builder round-trips", `Quick, test_to_builder_roundtrip);
    ("sampled coverage agrees with exact", `Slow, test_coverage_sampled_agrees);
    ("describe summarizes the structure", `Quick, test_describe_mentions_counts);
    ("nearest agrees with query on hits", `Quick, test_nearest_agrees_on_hits);
    ("instantiate_nearest is overlap-free", `Quick, test_instantiate_nearest_overlap_free);
  ]
