(* Tests for the multi-placement structure core: stored placements, the
   BDIO, the builder's Resolve Overlaps / Store Placement, the compiled
   structure's query, and the generator. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let iv = Interval.make

(* A tiny one-block circuit lets us hand-build stored placements with
   chosen validity boxes. *)
let circuit1 =
  Circuit.make ~name:"one"
    ~blocks:[| Block.make_wh ~id:0 ~name:"a" ~w:(1, 100) ~h:(1, 100) |]
    ~nets:[| Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin 0; Net.pad ~px:0.0 ~py:0.0 ] |]

let expansion1 = Dimbox.make ~w:[| iv 1 100 |] ~h:[| iv 1 100 |]

let stored1 ?(avg = 10.0) ?(best = 5.0) ~w ~h () =
  let box = Dimbox.make ~w:[| w |] ~h:[| h |] in
  Stored.make ~template_like:false
    ~placement:(Placement.make ~coords:[| (0, 0) |] ~die_w:200 ~die_h:200)
    ~box ~expansion:expansion1 ~avg_cost:avg ~best_cost:best
    ~best_dims:(Dimbox.center box)

(* Stored *)

let test_stored_validation () =
  Alcotest.check_raises "box outside expansion"
    (Invalid_argument "Stored.make: validity box exceeds the expansion box") (fun () ->
      ignore
        (Stored.make ~template_like:false
           ~placement:(Placement.make ~coords:[| (0, 0) |] ~die_w:200 ~die_h:200)
           ~box:(Dimbox.make ~w:[| iv 1 200 |] ~h:[| iv 1 50 |])
           ~expansion:expansion1 ~avg_cost:1.0 ~best_cost:1.0
           ~best_dims:(Dims.of_pairs [| (10, 10) |])))

let test_stored_with_box_clamps_best () =
  let s = stored1 ~w:(iv 10 50) ~h:(iv 10 50) () in
  let s' = Stored.with_box s (Dimbox.make ~w:[| iv 40 50 |] ~h:[| iv 10 50 |]) in
  check_bool "best clamped into new box" true
    (Dimbox.contains s'.Stored.box s'.Stored.best_dims)

(* Dimensions clamped into a placement's expansion box instantiate a
   legal floorplan, however wild the request. *)
let test_stored_instantiate_clamped_legal () =
  let s = stored1 ~w:(iv 10 50) ~h:(iv 10 50) () in
  let wild = Dims.of_pairs [| (100, 100) |] in
  let dims = Dimbox.clamp s.Stored.expansion wild in
  let p = s.Stored.placement in
  check_bool "clamped inside expansion" true (Dimbox.contains s.Stored.expansion dims);
  check_bool "legal at clamped dims" true
    (Mps_cost.Cost.is_legal ~die_w:p.Placement.die_w ~die_h:p.Placement.die_h
       (Stored.instantiate s dims))

(* Bdio.shrink_box *)

let test_shrink_cost_ratio () =
  let box = Dimbox.make ~w:[| iv 0 100 |] ~h:[| iv 0 100 |] in
  let best_dims = Dims.of_pairs [| (50, 50) |] in
  let shrunk =
    Bdio.shrink_box ~rule:Bdio.Cost_ratio ~box ~best_dims ~avg_cost:100.0 ~best_cost:50.0
  in
  (* factor 0.5: half-width ceil(0.5*101/2)=26 around 50 *)
  check_bool "contains best" true (Dimbox.contains shrunk best_dims);
  check_bool "strictly smaller" true
    (Interval.length (Dimbox.w_interval shrunk 0) < 101);
  check_bool "contained in box" true (Dimbox.contains_box ~outer:box ~inner:shrunk)

let test_shrink_tighter_when_avg_far () =
  let box = Dimbox.make ~w:[| iv 0 100 |] ~h:[| iv 0 100 |] in
  let best_dims = Dims.of_pairs [| (50, 50) |] in
  let len rule avg =
    let b = Bdio.shrink_box ~rule ~box ~best_dims ~avg_cost:avg ~best_cost:10.0 in
    Interval.length (Dimbox.w_interval b 0)
  in
  check_bool "farther average, tighter interval" true
    (len Bdio.Cost_ratio 100.0 < len Bdio.Cost_ratio 12.0)

let test_shrink_rules () =
  let box = Dimbox.make ~w:[| iv 0 100 |] ~h:[| iv 0 100 |] in
  let best_dims = Dims.of_pairs [| (1, 100) |] in
  let no_shrink =
    Bdio.shrink_box ~rule:Bdio.No_shrink ~box ~best_dims ~avg_cost:9.0 ~best_cost:1.0
  in
  check_bool "no_shrink keeps box" true (Dimbox.equal no_shrink box);
  let fixed =
    Bdio.shrink_box ~rule:(Bdio.Fixed 0.2) ~box ~best_dims ~avg_cost:9.0 ~best_cost:1.0
  in
  check_bool "fixed contains best at the corner" true (Dimbox.contains fixed best_dims);
  Alcotest.check_raises "bad fixed factor"
    (Invalid_argument "Bdio.shrink_box: factor must be in (0,1]") (fun () ->
      ignore
        (Bdio.shrink_box ~rule:(Bdio.Fixed 0.0) ~box ~best_dims ~avg_cost:9.0 ~best_cost:1.0))

(* Bdio.optimize *)

let test_bdio_optimize () =
  let rng = Rng.create ~seed:7 in
  let c = Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  let placement = Placement.random rng c ~die_w ~die_h in
  let box = Expand.expand c placement in
  let r = Bdio.optimize ~rng c placement ~box in
  check_bool "avg >= best" true (r.Bdio.avg_cost >= r.Bdio.best_cost);
  check_bool "box contained" true (Dimbox.contains_box ~outer:box ~inner:r.Bdio.box);
  check_bool "best dims in box" true (Dimbox.contains r.Bdio.box r.Bdio.best_dims);
  (* the best dims instantiate legally (inside the expansion box) *)
  check_bool "best dims legal" true (Placement.is_legal placement r.Bdio.best_dims)

let test_bdio_deterministic () =
  let c = Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  let run seed =
    let rng = Rng.create ~seed in
    let placement = Placement.random rng c ~die_w ~die_h in
    let box = Expand.expand c placement in
    Bdio.optimize ~rng c placement ~box
  in
  let a = run 3 and b = run 3 in
  Alcotest.(check (float 1e-12)) "same best" a.Bdio.best_cost b.Bdio.best_cost;
  check_bool "same box" true (Dimbox.equal a.Bdio.box b.Bdio.box)

(* The BDIO runs its engine in overlap-free mode, which is exact only
   while the box's upper-corner rects are disjoint and in-die: one unit
   past the expansion on an axis [Expand] stopped short of the designer
   maximum makes two of them clash, and the run must refuse it. *)
let test_bdio_rejects_box_past_expansion () =
  let c = Benchmarks.benchmark24 in
  let die_w, die_h = Circuit.default_die c in
  let rng = Rng.create ~seed:5 in
  let placement = Placement.random rng c ~die_w ~die_h in
  let box = Expand.expand c placement in
  let n = Circuit.n_blocks c in
  let blocked =
    List.find
      (fun i ->
        Interval.hi (Dimbox.w_interval box i)
        < Interval.hi (Dimbox.w_interval (Circuit.dim_bounds c) i))
      (List.init n Fun.id)
  in
  let w =
    Array.init n (fun i ->
        let iv = Dimbox.w_interval box i in
        if i = blocked then Interval.make (Interval.lo iv) (Interval.hi iv + 1) else iv)
  in
  let past = Dimbox.make ~w ~h:(Array.init n (Dimbox.h_interval box)) in
  ignore (Bdio.optimize ~rng c placement ~box);
  Alcotest.check_raises "one unit past the expansion"
    (Invalid_argument "Bdio.optimize: box reaches past the placement's expansion")
    (fun () -> ignore (Bdio.optimize ~rng c placement ~box:past))

(* Builder.shrink_box_against *)

let test_shrink_against_side () =
  let victim = Dimbox.make ~w:[| iv 0 10 |] ~h:[| iv 0 10 |] in
  let other = Dimbox.make ~w:[| iv 8 20 |] ~h:[| iv 0 10 |] in
  (match Builder.shrink_box_against ~victim ~other with
  | Builder.Shrunk b ->
    check_bool "cut at 7" true (Interval.equal (Dimbox.w_interval b 0) (iv 0 7));
    check_bool "now disjoint" true (not (Dimbox.overlaps b other))
  | _ -> Alcotest.fail "expected Shrunk");
  let other_left = Dimbox.make ~w:[| iv (-5) 2 |] ~h:[| iv 0 10 |] in
  match Builder.shrink_box_against ~victim ~other:other_left with
  | Builder.Shrunk b ->
    check_bool "cut from 3" true (Interval.equal (Dimbox.w_interval b 0) (iv 3 10))
  | _ -> Alcotest.fail "expected Shrunk"

let test_shrink_against_fork () =
  let victim = Dimbox.make ~w:[| iv 0 20 |] ~h:[| iv 0 10 |] in
  let other = Dimbox.make ~w:[| iv 8 12 |] ~h:[| iv 0 10 |] in
  match Builder.shrink_box_against ~victim ~other with
  | Builder.Forked (b1, b2) ->
    check_bool "left piece" true (Interval.equal (Dimbox.w_interval b1 0) (iv 0 7));
    check_bool "right piece" true (Interval.equal (Dimbox.w_interval b2 0) (iv 13 20));
    check_bool "pieces disjoint from other" true
      ((not (Dimbox.overlaps b1 other)) && not (Dimbox.overlaps b2 other))
  | _ -> Alcotest.fail "expected Forked"

let test_shrink_against_drop () =
  let victim = Dimbox.make ~w:[| iv 5 8 |] ~h:[| iv 5 8 |] in
  let other = Dimbox.make ~w:[| iv 0 10 |] ~h:[| iv 0 10 |] in
  check_bool "dropped" true (Builder.shrink_box_against ~victim ~other = Builder.Dropped)

let test_shrink_against_picks_smallest_overlap () =
  (* w overlap length 3, h overlap length 6: the cut happens on w *)
  let victim = Dimbox.make ~w:[| iv 0 10 |] ~h:[| iv 0 10 |] in
  let other = Dimbox.make ~w:[| iv 8 20 |] ~h:[| iv 5 20 |] in
  match Builder.shrink_box_against ~victim ~other with
  | Builder.Shrunk b ->
    check_bool "w cut" true (Interval.equal (Dimbox.w_interval b 0) (iv 0 7));
    check_bool "h untouched" true (Interval.equal (Dimbox.h_interval b 0) (iv 0 10))
  | _ -> Alcotest.fail "expected Shrunk"

let test_shrink_against_disjoint_raises () =
  let victim = Dimbox.make ~w:[| iv 0 5 |] ~h:[| iv 0 5 |] in
  let other = Dimbox.make ~w:[| iv 10 20 |] ~h:[| iv 0 5 |] in
  Alcotest.check_raises "disjoint"
    (Invalid_argument "Builder.shrink_box_against: boxes are disjoint") (fun () ->
      ignore (Builder.shrink_box_against ~victim ~other))

(* Builder resolve_and_store *)

let builder_invariants b =
  check_bool "boxes disjoint" true (Builder.boxes_disjoint b);
  check_bool "bounds consistent" true (Builder.bounds_consistent b)

let test_store_first () =
  let b = Builder.create circuit1 in
  let ids = Builder.resolve_and_store b (stored1 ~w:(iv 10 50) ~h:(iv 10 50) ()) in
  check_int "stored once" 1 (List.length ids);
  check_int "one live" 1 (Builder.n_live b);
  builder_invariants b

let test_store_disjoint_pair () =
  let b = Builder.create circuit1 in
  ignore (Builder.resolve_and_store b (stored1 ~w:(iv 1 10) ~h:(iv 1 10) ()));
  ignore (Builder.resolve_and_store b (stored1 ~w:(iv 20 30) ~h:(iv 1 10) ()));
  check_int "two live" 2 (Builder.n_live b);
  builder_invariants b

let test_store_overlap_candidate_loses () =
  let b = Builder.create circuit1 in
  (* stored has lower avg cost: candidate gets shrunk *)
  ignore (Builder.resolve_and_store b (stored1 ~avg:5.0 ~best:4.0 ~w:(iv 1 10) ~h:(iv 1 100) ()));
  let ids = Builder.resolve_and_store b (stored1 ~avg:9.0 ~best:4.0 ~w:(iv 5 20) ~h:(iv 1 100) ()) in
  check_int "candidate survives shrunk" 1 (List.length ids);
  let survivor = Option.get (Builder.get b (List.hd ids)) in
  check_bool "candidate kept only 11..20" true
    (Interval.equal (Dimbox.w_interval survivor.Stored.box 0) (iv 11 20));
  builder_invariants b

let test_store_overlap_stored_loses () =
  let b = Builder.create circuit1 in
  let first_ids =
    Builder.resolve_and_store b (stored1 ~avg:9.0 ~best:4.0 ~w:(iv 1 10) ~h:(iv 1 100) ())
  in
  ignore (Builder.resolve_and_store b (stored1 ~avg:5.0 ~best:4.0 ~w:(iv 5 20) ~h:(iv 1 100) ()));
  (* the first (higher avg) placement was shrunk: its original id is gone *)
  check_bool "original id removed" true (Builder.get b (List.hd first_ids) = None);
  check_int "two live" 2 (Builder.n_live b);
  builder_invariants b

let test_store_candidate_dropped () =
  let b = Builder.create circuit1 in
  ignore (Builder.resolve_and_store b (stored1 ~avg:5.0 ~best:4.0 ~w:(iv 1 100) ~h:(iv 1 100) ()));
  let ids =
    Builder.resolve_and_store b (stored1 ~avg:9.0 ~best:4.0 ~w:(iv 5 20) ~h:(iv 5 20) ())
  in
  check_bool "candidate dropped" true (ids = []);
  check_int "one live" 1 (Builder.n_live b);
  builder_invariants b

let test_store_stored_fork () =
  let b = Builder.create circuit1 in
  ignore (Builder.resolve_and_store b (stored1 ~avg:9.0 ~best:4.0 ~w:(iv 1 30) ~h:(iv 1 10) ()));
  (* candidate (better avg) cuts a hole in the middle of the stored one *)
  ignore (Builder.resolve_and_store b (stored1 ~avg:5.0 ~best:4.0 ~w:(iv 10 20) ~h:(iv 1 10) ()));
  check_int "fork: three live" 3 (Builder.n_live b);
  builder_invariants b

let test_overlapping_query () =
  let b = Builder.create circuit1 in
  let ids1 = Builder.resolve_and_store b (stored1 ~w:(iv 1 10) ~h:(iv 1 10) ()) in
  let _ids2 = Builder.resolve_and_store b (stored1 ~w:(iv 20 30) ~h:(iv 1 10) ()) in
  let probe = Dimbox.make ~w:[| iv 5 8 |] ~h:[| iv 5 8 |] in
  Alcotest.(check (list int)) "only first overlaps" ids1 (Builder.overlapping b probe);
  let nowhere = Dimbox.make ~w:[| iv 50 60 |] ~h:[| iv 50 60 |] in
  Alcotest.(check (list int)) "none" [] (Builder.overlapping b nowhere)

let test_coverage_sums () =
  let b = Builder.create circuit1 in
  (* bounds are w,h in 1..100: each 10x10-ish box covers (10/100)^2 *)
  ignore (Builder.resolve_and_store b (stored1 ~w:(iv 1 10) ~h:(iv 1 100) ()));
  Alcotest.(check (float 1e-9)) "10% coverage" 0.1 (Builder.coverage b);
  ignore (Builder.resolve_and_store b (stored1 ~w:(iv 11 20) ~h:(iv 1 100) ()));
  Alcotest.(check (float 1e-9)) "20% coverage" 0.2 (Builder.coverage b)

(* Random-workload property: whatever sequence of candidates arrives,
   stored boxes stay pairwise disjoint and their flat bounds match them. *)
let arb_boxes =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (let* wlo = int_range 1 80 in
         let* wlen = int_range 0 30 in
         let* hlo = int_range 1 80 in
         let* hlen = int_range 0 30 in
         let* avg = float_range 1.0 20.0 in
         return (wlo, min 100 (wlo + wlen), hlo, min 100 (hlo + hlen), avg)))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (a, b, c, d, e) -> Printf.sprintf "w%d..%d h%d..%d a%.1f" a b c d e) l))
    gen

let prop_builder_disjoint =
  QCheck.Test.make ~name:"builder keeps boxes disjoint under random stores" ~count:200
    arb_boxes (fun boxes ->
      let b = Builder.create circuit1 in
      List.iter
        (fun (wlo, whi, hlo, hhi, avg) ->
          ignore
            (Builder.resolve_and_store b
               (stored1 ~avg ~best:(avg /. 2.0) ~w:(iv wlo whi) ~h:(iv hlo hhi) ())))
        boxes;
      Builder.boxes_disjoint b && Builder.bounds_consistent b && Builder.n_live b >= 1)

let prop_builder_coverage_bounded =
  QCheck.Test.make ~name:"builder coverage stays in [0,1]" ~count:100 arb_boxes
    (fun boxes ->
      let b = Builder.create circuit1 in
      List.iter
        (fun (wlo, whi, hlo, hhi, avg) ->
          ignore
            (Builder.resolve_and_store b
               (stored1 ~avg ~best:(avg /. 2.0) ~w:(iv wlo whi) ~h:(iv hlo hhi) ())))
        boxes;
      let c = Builder.coverage b in
      c >= 0.0 && c <= 1.0 +. 1e-9)

(* Structure: compile + query *)

let build_structure boxes =
  let b = Builder.create circuit1 in
  List.iter
    (fun (wlo, whi, hlo, hhi, avg) ->
      ignore
        (Builder.resolve_and_store b
           (stored1 ~avg ~best:(avg /. 2.0) ~w:(iv wlo whi) ~h:(iv hlo hhi) ())))
    boxes;
  Structure.compile b

let test_structure_query_hit () =
  let s = build_structure [ (1, 10, 1, 10, 5.0); (20, 30, 1, 10, 7.0) ] in
  check_int "two placements" 2 (Structure.n_placements s);
  (match Structure.query s (Dims.of_pairs [| (5, 5) |]) with
  | Structure.Stored_placement _, st ->
    check_bool "box contains query" true (Dimbox.contains st.Stored.box (Dims.of_pairs [| (5, 5) |]))
  | (Structure.Fallback | Structure.Out_of_domain), _ -> Alcotest.fail "expected a stored hit");
  match Structure.query s (Dims.of_pairs [| (25, 5) |]) with
  | Structure.Stored_placement _, st ->
    check_bool "second box" true (Dimbox.contains st.Stored.box (Dims.of_pairs [| (25, 5) |]))
  | (Structure.Fallback | Structure.Out_of_domain), _ -> Alcotest.fail "expected a stored hit"

let test_structure_query_miss_fallback () =
  let s = build_structure [ (1, 10, 1, 10, 5.0) ] in
  match Structure.query s (Dims.of_pairs [| (50, 50) |]) with
  | Structure.Fallback, st ->
    check_bool "fallback is the backup" true (st == Structure.backup s);
    check_bool "fallback is the best-cost placement" true (st.Stored.best_cost <= 5.0)
  | (Structure.Stored_placement _ | Structure.Out_of_domain), _ -> Alcotest.fail "expected fallback"

let test_structure_fallback_is_lowest_best_cost () =
  let s = build_structure [ (1, 10, 1, 10, 9.0); (20, 30, 1, 10, 3.0); (40, 50, 1, 10, 7.0) ] in
  let fb = Structure.backup s in
  Array.iter
    (fun st -> check_bool "fallback minimal" true (fb.Stored.best_cost <= st.Stored.best_cost))
    (Structure.placements s)

let test_structure_compile_empty_fails () =
  let b = Builder.create circuit1 in
  Alcotest.check_raises "empty" (Invalid_argument "Structure.compile: empty builder")
    (fun () -> ignore (Structure.compile b))

let test_structure_instantiate_legal_on_hit () =
  let s = build_structure [ (1, 10, 1, 10, 5.0) ] in
  let rects = Structure.instantiate s (Dims.of_pairs [| (5, 5) |]) in
  check_bool "requested dims used" true (rects.(0).Rect.w = 5 && rects.(0).Rect.h = 5)

let prop_query_matches_linear_oracle =
  QCheck.Test.make ~name:"compiled query equals linear scan" ~count:200
    (QCheck.pair arb_boxes (QCheck.pair (QCheck.int_range 1 100) (QCheck.int_range 1 100)))
    (fun (boxes, (w, h)) ->
      let s = build_structure boxes in
      let dims = Dims.of_pairs [| (w, h) |] in
      let a1, s1 = Structure.query s dims in
      let a2, s2 = Structure.query_linear s dims in
      a1 = a2 && s1 == s2)

(* Generator: end-to-end on small circuits *)

let generated =
  lazy (Generator.single_walk ~config:Generator.fast_config Benchmarks.circ01)

let test_generator_stats () =
  let structure, stats = Lazy.force generated in
  check_bool "stored some placements" true (stats.Generator.placements_stored >= 1);
  check_int "matches structure" (Structure.n_placements structure)
    stats.Generator.placements_stored;
  check_bool "coverage in range" true
    (stats.Generator.coverage >= 0.0 && stats.Generator.coverage <= 1.0);
  check_bool "steps counted" true (stats.Generator.explorer_steps >= 1)

let test_generator_deterministic () =
  let s1, st1 = Generator.single_walk ~config:Generator.fast_config Benchmarks.circ01 in
  let s2, st2 = Generator.single_walk ~config:Generator.fast_config Benchmarks.circ01 in
  check_int "same count" (Structure.n_placements s1) (Structure.n_placements s2);
  Alcotest.(check (float 1e-12)) "same coverage" st1.Generator.coverage st2.Generator.coverage

let test_generator_seed_changes_result () =
  let cfg = { Generator.fast_config with seed = 99 } in
  let s1, _ = Lazy.force generated in
  let s2, _ = Generator.single_walk ~config:cfg Benchmarks.circ01 in
  (* different seeds explore different placements; counts rarely equal *)
  let p1 = (Structure.placements s1).(0) and p2 = (Structure.placements s2).(0) in
  check_bool "different first placement or count" true
    (Structure.n_placements s1 <> Structure.n_placements s2
    || not (Placement.equal p1.Stored.placement p2.Stored.placement))

let test_generator_hits_instantiate_legally () =
  let structure, _ = Lazy.force generated in
  let c = Benchmarks.circ01 in
  let die_w, die_h = Structure.die structure in
  Array.iter
    (fun st ->
      (* querying at a stored placement's best dims must hit a stored
         placement (not necessarily the same one) and yield an
         overlap-free floorplan at exactly those dims; ordinary hits
         are fully legal (inside the die) *)
      match Structure.query structure st.Stored.best_dims with
      | Structure.Stored_placement _, hit ->
        let rects = Stored.instantiate_auto hit st.Stored.best_dims in
        check_bool "overlap-free" true (Rect.any_overlap rects = None);
        if not hit.Stored.template_like then
          check_bool "legal" true (Mps_cost.Cost.is_legal ~die_w ~die_h rects)
      | (Structure.Fallback | Structure.Out_of_domain), _ -> Alcotest.fail "best dims must be covered")
    (Structure.placements structure);
  check_bool "circuit preserved" true (Structure.circuit structure == c)

let test_generator_structure_disjoint () =
  let structure, _ = Lazy.force generated in
  let ps = Structure.placements structure in
  let n = Array.length ps in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      check_bool "disjoint boxes" true
        (not (Dimbox.overlaps ps.(i).Stored.box ps.(j).Stored.box))
    done
  done

let test_paper_literal_mode () =
  (* The configuration matching the paper's literal algorithm: random
     initial placement, no coordinate refinement.  All structural
     invariants must still hold. *)
  let config =
    {
      Generator.fast_config with
      Generator.seed_walk_with_backup = false;
      refine_iterations = 0;
    }
  in
  let structure, stats = Generator.single_walk ~config Benchmarks.circ01 in
  check_bool "stored at least the backup" true (Structure.n_placements structure >= 1);
  check_bool "stats sane" true (stats.Generator.explorer_steps >= 1);
  let ps = Structure.placements structure in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            check_bool "disjoint" true (not (Dimbox.overlaps a.Stored.box b.Stored.box)))
        ps)
    ps

let test_random_explorer_runs () =
  let structure, stats =
    Generator.random_explorer ~config:Generator.fast_config Benchmarks.circ01
  in
  check_bool "stored some" true (Structure.n_placements structure >= 1);
  check_bool "coverage sane" true (stats.Generator.coverage >= 0.0)

let suite =
  [
    ("stored: validation", `Quick, test_stored_validation);
    ("stored: with_box clamps best dims", `Quick, test_stored_with_box_clamps_best);
    ("stored: clamped instantiation", `Quick, test_stored_instantiate_clamped_legal);
    ("bdio: cost-ratio shrink", `Quick, test_shrink_cost_ratio);
    ("bdio: farther average shrinks tighter", `Quick, test_shrink_tighter_when_avg_far);
    ("bdio: shrink rules", `Quick, test_shrink_rules);
    ("bdio: optimize postconditions", `Quick, test_bdio_optimize);
    ("bdio: deterministic", `Quick, test_bdio_deterministic);
    ("bdio: rejects a box past the expansion", `Quick, test_bdio_rejects_box_past_expansion);
    ("resolve: shrink to one side", `Quick, test_shrink_against_side);
    ("resolve: fork on strict containment", `Quick, test_shrink_against_fork);
    ("resolve: drop when contained everywhere", `Quick, test_shrink_against_drop);
    ("resolve: smallest-overlap axis is cut", `Quick, test_shrink_against_picks_smallest_overlap);
    ("resolve: disjoint boxes rejected", `Quick, test_shrink_against_disjoint_raises);
    ("builder: first store", `Quick, test_store_first);
    ("builder: disjoint placements coexist", `Quick, test_store_disjoint_pair);
    ("builder: higher-avg candidate is shrunk", `Quick, test_store_overlap_candidate_loses);
    ("builder: higher-avg stored is shrunk", `Quick, test_store_overlap_stored_loses);
    ("builder: fully-covered candidate dropped", `Quick, test_store_candidate_dropped);
    ("builder: stored placement forked", `Quick, test_store_stored_fork);
    ("builder: overlapping range query", `Quick, test_overlapping_query);
    ("builder: coverage sums disjoint boxes", `Quick, test_coverage_sums);
    ("structure: query hits", `Quick, test_structure_query_hit);
    ("structure: query miss falls back", `Quick, test_structure_query_miss_fallback);
    ("structure: fallback is best placement", `Quick, test_structure_fallback_is_lowest_best_cost);
    ("structure: empty compile fails", `Quick, test_structure_compile_empty_fails);
    ("structure: instantiation uses requested dims", `Quick, test_structure_instantiate_legal_on_hit);
    ("generator: stats", `Quick, test_generator_stats);
    ("generator: deterministic per seed", `Quick, test_generator_deterministic);
    ("generator: seed sensitivity", `Quick, test_generator_seed_changes_result);
    ("generator: covered queries are legal", `Quick, test_generator_hits_instantiate_legally);
    ("generator: compiled boxes disjoint", `Quick, test_generator_structure_disjoint);
    ("generator: paper-literal mode invariants", `Quick, test_paper_literal_mode);
    ("generator: random explorer ablation", `Quick, test_random_explorer_runs);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_builder_disjoint; prop_builder_coverage_bounded; prop_query_matches_linear_oracle ]
