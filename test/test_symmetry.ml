(* Tests for symmetry constraints: validation, the cost penalty, and
   its effect on the coordinate annealer. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_cost

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let blocks4 =
  Array.init 4 (fun i -> Block.make_wh ~id:i ~name:(Printf.sprintf "b%d" i) ~w:(4, 20) ~h:(4, 20))

let base_circuit =
  Circuit.make ~name:"sym"
    ~blocks:blocks4
    ~nets:[| Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin 0; Net.block_pin 1 ] |]

let with_groups groups = Circuit.with_symmetry base_circuit groups

(* Validation *)

let test_validate_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Symmetry: block 7 out of range")
    (fun () -> ignore (with_groups [ Symmetry.Self 7 ]))

let test_validate_rejects_duplicates () =
  Alcotest.check_raises "dup" (Invalid_argument "Symmetry: block 1 in more than one group")
    (fun () ->
      ignore (with_groups [ Symmetry.Pair { left = 0; right = 1 }; Symmetry.Self 1 ]))

let test_validate_rejects_degenerate_pair () =
  Alcotest.check_raises "degenerate" (Invalid_argument "Symmetry: degenerate pair")
    (fun () -> ignore (with_groups [ Symmetry.Pair { left = 2; right = 2 } ]))

let test_members () =
  Alcotest.(check (list int)) "pair" [ 0; 3 ]
    (Symmetry.members (Symmetry.Pair { left = 0; right = 3 }));
  Alcotest.(check (list int)) "self" [ 2 ] (Symmetry.members (Symmetry.Self 2))

(* Penalty *)

let r ~x ~y ~w ~h = Rect.make ~x ~y ~w ~h

let test_penalty_zero_without_groups () =
  let rects = Array.init 4 (fun i -> r ~x:(i * 30) ~y:0 ~w:4 ~h:4) in
  check_float "no groups, no penalty" 0.0 (Cost.symmetry_penalty base_circuit rects)

let test_penalty_zero_when_symmetric () =
  let c = with_groups [ Symmetry.Pair { left = 0; right = 1 }; Symmetry.Self 2 ] in
  (* pair mirrored about x = 20, self centred on it, same y for the pair *)
  let rects =
    [| r ~x:10 ~y:0 ~w:4 ~h:4; r ~x:26 ~y:0 ~w:4 ~h:4; r ~x:18 ~y:10 ~w:4 ~h:4;
       r ~x:50 ~y:50 ~w:4 ~h:4 |]
  in
  check_float "perfectly symmetric" 0.0 (Cost.symmetry_penalty c rects)

let test_penalty_positive_when_misaligned () =
  let c = with_groups [ Symmetry.Pair { left = 0; right = 1 }; Symmetry.Self 2 ] in
  let rects =
    [| r ~x:10 ~y:0 ~w:4 ~h:4; r ~x:26 ~y:6 ~w:4 ~h:4; r ~x:40 ~y:10 ~w:4 ~h:4;
       r ~x:50 ~y:50 ~w:4 ~h:4 |]
  in
  check_bool "misaligned costs" true (Cost.symmetry_penalty c rects > 0.0)

let test_penalty_translation_invariant () =
  let c = with_groups [ Symmetry.Pair { left = 0; right = 1 }; Symmetry.Self 3 ] in
  let rects =
    [| r ~x:10 ~y:0 ~w:4 ~h:4; r ~x:30 ~y:2 ~w:6 ~h:4; r ~x:0 ~y:20 ~w:4 ~h:4;
       r ~x:22 ~y:9 ~w:4 ~h:4 |]
  in
  let moved = Array.map (Rect.translate ~dx:17 ~dy:5) rects in
  check_float "translation invariant" (Cost.symmetry_penalty c rects)
    (Cost.symmetry_penalty c moved)

let test_penalty_vertical_offset_counted () =
  let c = with_groups [ Symmetry.Pair { left = 0; right = 1 } ] in
  let aligned = [| r ~x:10 ~y:0 ~w:4 ~h:4; r ~x:26 ~y:0 ~w:4 ~h:4;
                   r ~x:0 ~y:40 ~w:4 ~h:4; r ~x:10 ~y:40 ~w:4 ~h:4 |] in
  let offset = [| r ~x:10 ~y:0 ~w:4 ~h:4; r ~x:26 ~y:9 ~w:4 ~h:4;
                  r ~x:0 ~y:40 ~w:4 ~h:4; r ~x:10 ~y:40 ~w:4 ~h:4 |] in
  check_float "aligned pair free" 0.0 (Cost.symmetry_penalty c aligned);
  check_float "vertical offset costs" 9.0 (Cost.symmetry_penalty c offset)

let test_evaluate_includes_symmetry () =
  let c = with_groups [ Symmetry.Pair { left = 0; right = 1 } ] in
  let rects = [| r ~x:0 ~y:0 ~w:4 ~h:4; r ~x:10 ~y:9 ~w:4 ~h:4;
                 r ~x:30 ~y:0 ~w:4 ~h:4; r ~x:40 ~y:0 ~w:4 ~h:4 |] in
  let b = Cost.evaluate c ~die_w:100 ~die_h:100 rects in
  check_bool "breakdown exposes misalignment" true (b.Cost.symmetry_misalign > 0.0);
  let without = Cost.evaluate base_circuit ~die_w:100 ~die_h:100 rects in
  check_bool "symmetric term increases total" true (b.Cost.total > without.Cost.total)

(* Effect on the coordinate annealer: optimizing the circuit WITH its
   symmetry groups (so the cost carries the symmetry term) must end
   more symmetric than optimizing the same blocks without them. *)
let test_coord_opt_respects_symmetry () =
  let c =
    Circuit.with_symmetry base_circuit
      [ Symmetry.Pair { left = 0; right = 1 }; Symmetry.Self 2 ]
  in
  let die_w, die_h = Circuit.default_die c in
  let dims = Dimbox.center (Circuit.dim_bounds c) in
  let run circuit seed =
    let config = { Mps_placement.Coord_opt.default_config with iterations = 2500 } in
    let r =
      Mps_placement.Coord_opt.optimize ~config ~rng:(Mps_rng.Rng.create ~seed) circuit
        ~die_w ~die_h dims
    in
    Cost.symmetry_penalty c r.Mps_placement.Coord_opt.rects
  in
  let with_sym = run c 5 and without_sym = run base_circuit 5 in
  check_bool "symmetry groups reduce misalignment" true (with_sym < without_sym +. 1e-9)

let test_benchmarks_carry_symmetry () =
  check_bool "mixer has groups" true (Benchmarks.mixer.Circuit.symmetry <> []);
  check_bool "tso has groups" true (Benchmarks.two_stage_opamp.Circuit.symmetry <> []);
  check_bool "synthetic has none" true (Benchmarks.circ01.Circuit.symmetry = [])

let prop_penalty_nonnegative =
  QCheck.Test.make ~name:"symmetry penalty is non-negative" ~count:300
    QCheck.(pair (int_range 0 10_000) (int_range 2 4))
    (fun (seed, n_groups) ->
      let rng = Rng.create ~seed in
      let groups =
        List.filteri (fun i _ -> i < n_groups)
          [ Symmetry.Pair { left = 0; right = 1 }; Symmetry.Self 2; Symmetry.Self 3 ]
      in
      let c = with_groups groups in
      let rects =
        Array.init 4 (fun _ ->
            r ~x:(Rng.int rng 100) ~y:(Rng.int rng 100) ~w:(Rng.int_in rng 1 20)
              ~h:(Rng.int_in rng 1 20))
      in
      Cost.symmetry_penalty c rects >= 0.0)

let suite =
  [
    ("validate: out of range", `Quick, test_validate_rejects_out_of_range);
    ("validate: duplicate membership", `Quick, test_validate_rejects_duplicates);
    ("validate: degenerate pair", `Quick, test_validate_rejects_degenerate_pair);
    ("group members", `Quick, test_members);
    ("penalty: zero without groups", `Quick, test_penalty_zero_without_groups);
    ("penalty: zero when symmetric", `Quick, test_penalty_zero_when_symmetric);
    ("penalty: positive when misaligned", `Quick, test_penalty_positive_when_misaligned);
    ("penalty: translation invariant", `Quick, test_penalty_translation_invariant);
    ("penalty: vertical offset counted", `Quick, test_penalty_vertical_offset_counted);
    ("evaluate includes the symmetry term", `Quick, test_evaluate_includes_symmetry);
    ("coordinate annealer respects symmetry", `Quick, test_coord_opt_respects_symmetry);
    ("benchmarks carry symmetry groups", `Quick, test_benchmarks_carry_symmetry);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_penalty_nonnegative ]
