(* Tests for placements, expansion and perturbation. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_placement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let circuit2 =
  Circuit.make ~name:"two"
    ~blocks:
      [|
        Block.make_wh ~id:0 ~name:"a" ~w:(4, 12) ~h:(4, 12);
        Block.make_wh ~id:1 ~name:"b" ~w:(4, 12) ~h:(4, 12);
      |]
    ~nets:[| Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin 0; Net.block_pin 1 ] |]

let test_rects () =
  let p = Placement.make ~coords:[| (0, 0); (10, 10) |] ~die_w:40 ~die_h:40 in
  let rects = Placement.rects p (Dims.of_pairs [| (4, 5); (6, 7) |]) in
  check_bool "r0" true (Rect.equal rects.(0) (Rect.make ~x:0 ~y:0 ~w:4 ~h:5));
  check_bool "r1" true (Rect.equal rects.(1) (Rect.make ~x:10 ~y:10 ~w:6 ~h:7))

let test_legal () =
  let p = Placement.make ~coords:[| (0, 0); (10, 10) |] ~die_w:40 ~die_h:40 in
  check_bool "legal" true (Placement.is_legal p (Dims.of_pairs [| (4, 4); (4, 4) |]));
  check_bool "overlap illegal" false
    (Placement.is_legal p (Dims.of_pairs [| (12, 12); (4, 4) |]));
  check_bool "oob illegal" false
    (Placement.is_legal p (Dims.of_pairs [| (4, 4); (12, 31) |]))

let test_random_legal () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 30 do
    let p = Placement.random rng circuit2 ~die_w:40 ~die_h:40 in
    check_bool "legal at min" true (Placement.is_legal p (Circuit.min_dims circuit2))
  done

let test_random_impossible () =
  let rng = Rng.create ~seed:5 in
  let fat =
    Circuit.make ~name:"fat"
      ~blocks:
        [|
          Block.make_wh ~id:0 ~name:"a" ~w:(30, 30) ~h:(30, 30);
          Block.make_wh ~id:1 ~name:"b" ~w:(30, 30) ~h:(30, 30);
        |]
      ~nets:[||]
  in
  (* two 30x30 blocks cannot fit a 40x40 die without overlapping *)
  check_bool "raises" true
    (try
       ignore (Placement.random rng fat ~die_w:40 ~die_h:40);
       false
     with Failure _ -> true)

let test_move_block () =
  let p = Placement.make ~coords:[| (0, 0); (10, 10) |] ~die_w:40 ~die_h:40 in
  let p' = Placement.move_block p 1 ~x:20 ~y:5 in
  check_bool "moved" true (p'.Placement.coords.(1) = (20, 5));
  check_bool "original intact" true (p.Placement.coords.(1) = (10, 10))

(* Expansion *)

let test_expand_lone_block () =
  let c =
    Circuit.make ~name:"one"
      ~blocks:[| Block.make_wh ~id:0 ~name:"a" ~w:(2, 100) ~h:(2, 100) |]
      ~nets:[||]
  in
  let p = Placement.make ~coords:[| (3, 4) |] ~die_w:20 ~die_h:20 in
  let box = Expand.expand c p in
  (* grows to the die edge: width 20-3=17, height 20-4=16 *)
  check_bool "w grows to die" true (Interval.equal (Dimbox.w_interval box 0) (Interval.make 2 17));
  check_bool "h grows to die" true (Interval.equal (Dimbox.h_interval box 0) (Interval.make 2 16))

let test_expand_respects_designer_max () =
  let c =
    Circuit.make ~name:"one"
      ~blocks:[| Block.make_wh ~id:0 ~name:"a" ~w:(2, 5) ~h:(2, 6) |]
      ~nets:[||]
  in
  let p = Placement.make ~coords:[| (0, 0) |] ~die_w:100 ~die_h:100 in
  let box = Expand.expand c p in
  check_int "w capped" 5 (Interval.hi (Dimbox.w_interval box 0));
  check_int "h capped" 6 (Interval.hi (Dimbox.h_interval box 0))

let test_expand_blocked_by_neighbor () =
  let c =
    Circuit.make ~name:"pair"
      ~blocks:
        [|
          Block.make_wh ~id:0 ~name:"a" ~w:(2, 50) ~h:(2, 50);
          Block.make_wh ~id:1 ~name:"b" ~w:(2, 50) ~h:(2, 50);
        |]
      ~nets:[||]
  in
  (* b sits directly right of a at x=10; a's width growth stops there
     once b is at its own expanded size. *)
  let p = Placement.make ~coords:[| (0, 0); (10, 0) |] ~die_w:30 ~die_h:8 in
  let box = Expand.expand c p in
  let w0 = Interval.hi (Dimbox.w_interval box 0) in
  let w1 = Interval.hi (Dimbox.w_interval box 1) in
  (* the two widths share the 30 columns: a gets [0,x), b the rest *)
  check_bool "partition of the row" true (w0 <= 10 && 10 + w1 <= 30);
  check_bool "heights grow to die" true
    (Interval.hi (Dimbox.h_interval box 0) = 8 && Interval.hi (Dimbox.h_interval box 1) = 8)

let test_expand_requires_legal_min () =
  let c =
    Circuit.make ~name:"pair"
      ~blocks:
        [|
          Block.make_wh ~id:0 ~name:"a" ~w:(5, 10) ~h:(5, 10);
          Block.make_wh ~id:1 ~name:"b" ~w:(5, 10) ~h:(5, 10);
        |]
      ~nets:[||]
  in
  let p = Placement.make ~coords:[| (0, 0); (2, 2) |] ~die_w:30 ~die_h:30 in
  Alcotest.check_raises "illegal at min"
    (Invalid_argument "Expand.expand: placement illegal at minimum dimensions") (fun () ->
      ignore (Expand.expand c p))

let test_expand_monotone_legality () =
  (* Every dimension vector inside the expanded box instantiates a legal
     floorplan (the anchoring monotonicity the MPS relies on). *)
  let rng = Rng.create ~seed:11 in
  let c = Mps_netlist.Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  for _ = 1 to 10 do
    let p = Placement.random rng c ~die_w ~die_h in
    let box = Expand.expand c p in
    for _ = 1 to 30 do
      let dims = Dimbox.random_dims rng box in
      check_bool "legal inside box" true (Placement.is_legal p dims)
    done;
    check_bool "legal at upper corner" true (Placement.is_legal p (Dimbox.upper_corner box))
  done

let test_expand_box_within_designer_bounds () =
  let rng = Rng.create ~seed:13 in
  let c = Mps_netlist.Benchmarks.circ02 in
  let die_w, die_h = Circuit.default_die c in
  let bounds = Circuit.dim_bounds c in
  for _ = 1 to 10 do
    let p = Placement.random rng c ~die_w ~die_h in
    let box = Expand.expand c p in
    check_bool "inside designer space" true (Dimbox.contains_box ~outer:bounds ~inner:box)
  done

(* [Expand.expand] against the unit-step round-robin it replaced
   ([Expand_ref], which re-checks every grown block against all
   others): equal boxes on random legal placements of every Table 1
   circuit, on the same placements re-packed at minimum dimensions
   (abutting blocks: the blocker case of the O(1) test), and on each
   circuit's backup template and stored placements at the Quick
   budget. *)
let test_expand_matches_round_robin () =
  let rng = Rng.create ~seed:29 in
  let module E = Mps_experiments.Experiments in
  let module Generator = Mps_core.Generator in
  let module Structure = Mps_core.Structure in
  List.iter
    (fun c ->
      let die_w, die_h = Circuit.default_die c in
      let min_dims = Circuit.min_dims c in
      let same label p =
        check_bool
          (Printf.sprintf "%s %s: same box as the round-robin" c.Circuit.name label)
          true
          (Dimbox.equal (Expand.expand c p) (Expand_ref.expand c p))
      in
      for _ = 1 to 25 do
        let p = Placement.random rng c ~die_w ~die_h in
        same "random" p;
        let packed = Repack.instantiate ~die:(die_w, die_h) ~coords:p.Placement.coords min_dims in
        let q =
          Placement.make
            ~coords:(Array.map (fun r -> (r.Rect.x, r.Rect.y)) packed)
            ~die_w ~die_h
        in
        if Placement.is_legal q min_dims then same "packed" q
      done;
      let s, _ = Generator.generate ~config:(E.generator_config E.Quick c) ~jobs:1 c in
      same "backup" (Structure.backup s).Mps_core.Stored.placement;
      Array.iter
        (fun st -> same "stored" st.Mps_core.Stored.placement)
        (Structure.placements s))
    Benchmarks.all

(* Perturb *)

let test_wrap () =
  check_int "inside" 5 (Perturb.wrap 5 ~range:10);
  check_int "zero range" 0 (Perturb.wrap 7 ~range:0);
  check_int "wrap over" 1 (Perturb.wrap 12 ~range:10);
  check_int "wrap exact" 0 (Perturb.wrap 11 ~range:10);
  check_int "wrap under" 10 (Perturb.wrap (-1) ~range:10);
  check_int "at range" 10 (Perturb.wrap 10 ~range:10)

let test_perturb_legal_and_different () =
  let rng = Rng.create ~seed:21 in
  let c = Mps_netlist.Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  let p = Placement.random rng c ~die_w ~die_h in
  let min_dims = Circuit.min_dims c in
  let changed = ref 0 in
  for _ = 1 to 50 do
    let q = Perturb.perturb rng c ~fraction:0.5 ~max_shift:20 p in
    check_bool "legal after perturb" true (Placement.is_legal q min_dims);
    if not (Placement.equal p q) then incr changed
  done;
  check_bool "usually moves something" true (!changed > 40)

let test_perturb_invalid_args () =
  let rng = Rng.create ~seed:21 in
  let c = Mps_netlist.Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  let p = Placement.random rng c ~die_w ~die_h in
  Alcotest.check_raises "fraction 0" (Invalid_argument "Perturb.perturb: fraction must be in (0, 1]")
    (fun () -> ignore (Perturb.perturb rng c ~fraction:0.0 ~max_shift:5 p));
  Alcotest.check_raises "shift 0" (Invalid_argument "Perturb.perturb: non-positive max_shift")
    (fun () -> ignore (Perturb.perturb rng c ~fraction:0.5 ~max_shift:0 p))

let test_perturb_impossible_block_fails_fast () =
  (* A block whose minimum size exceeds the die must be reported by
     name up front, not as an opaque range error mid-walk. *)
  let rng = Rng.create ~seed:21 in
  let c =
    Circuit.make ~name:"impossible"
      ~blocks:[| Block.make_wh ~id:0 ~name:"big" ~w:(50, 60) ~h:(50, 60) |]
      ~nets:[||]
  in
  let p = Placement.make ~coords:[| (0, 0) |] ~die_w:20 ~die_h:20 in
  Alcotest.check_raises "named in the error"
    (Invalid_argument
       "Perturb.perturb: block 0 (big) minimum size 50x50 exceeds the 20x20 die")
    (fun () -> ignore (Perturb.perturb rng c ~fraction:1.0 ~max_shift:5 p))

let suite =
  [
    ("rects instantiation", `Quick, test_rects);
    ("legality", `Quick, test_legal);
    ("random placement is legal at min dims", `Quick, test_random_legal);
    ("random placement fails on impossible die", `Quick, test_random_impossible);
    ("move_block", `Quick, test_move_block);
    ("expand: lone block fills die", `Quick, test_expand_lone_block);
    ("expand: designer max respected", `Quick, test_expand_respects_designer_max);
    ("expand: blocked by neighbour", `Quick, test_expand_blocked_by_neighbor);
    ("expand: rejects illegal min placement", `Quick, test_expand_requires_legal_min);
    ("expand: whole box instantiates legally", `Quick, test_expand_monotone_legality);
    ("expand: box within designer bounds", `Quick, test_expand_box_within_designer_bounds);
    ("perturb: toroidal wrap", `Quick, test_wrap);
    ("perturb: stays legal, usually moves", `Quick, test_perturb_legal_and_different);
    ("perturb: invalid arguments", `Quick, test_perturb_invalid_args);
    ("perturb: impossible block fails fast", `Quick, test_perturb_impossible_block_fails_fast);
    ("expand: same boxes as the unit-step round-robin", `Quick,
      test_expand_matches_round_robin);
  ]
