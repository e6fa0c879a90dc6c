(* Tests for wirelength estimation and the cost function. *)

open Mps_geometry
open Mps_netlist
open Mps_cost

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)

let circuit_two_blocks ~pins =
  Circuit.make ~name:"c"
    ~blocks:
      [|
        Block.make_wh ~id:0 ~name:"a" ~w:(1, 100) ~h:(1, 100);
        Block.make_wh ~id:1 ~name:"b" ~w:(1, 100) ~h:(1, 100);
      |]
    ~nets:[| Net.make ~id:0 ~name:"n" ~pins |]

let test_pin_positions () =
  let rects = [| Rect.make ~x:10 ~y:20 ~w:4 ~h:8 |] in
  let x, y =
    Wirelength.pin_position (Net.block_pin ~fx:0.5 ~fy:0.25 0) ~rects ~die_w:100 ~die_h:200
  in
  check_float "pin x" 12.0 x;
  check_float "pin y" 22.0 y;
  let px, py =
    Wirelength.pin_position (Net.pad ~px:0.5 ~py:1.0) ~rects ~die_w:100 ~die_h:200
  in
  check_float "pad x" 50.0 px;
  check_float "pad y" 200.0 py

let test_net_hpwl_two_pins () =
  let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin 1 ] in
  (* centers at (5,5) and (25,15): HPWL = 20 + 10 *)
  let rects = [| Rect.make ~x:0 ~y:0 ~w:10 ~h:10; Rect.make ~x:20 ~y:10 ~w:10 ~h:10 |] in
  check_float "hpwl" 30.0 (Wirelength.total_hpwl c ~rects ~die_w:100 ~die_h:100)

let test_net_hpwl_scales_with_block_size () =
  (* pin at fx=1.0: moving the block's width moves the pin *)
  let c = circuit_two_blocks ~pins:[ Net.block_pin ~fx:1.0 ~fy:0.0 0; Net.block_pin ~fx:0.0 ~fy:0.0 1 ] in
  let rects w0 = [| Rect.make ~x:0 ~y:0 ~w:w0 ~h:10; Rect.make ~x:50 ~y:0 ~w:10 ~h:10 |] in
  let hp w0 = Wirelength.total_hpwl c ~rects:(rects w0) ~die_w:100 ~die_h:100 in
  check_float "narrow block, longer wire" 40.0 (hp 10);
  check_float "wide block, shorter wire" 20.0 (hp 30)

let test_single_pin_net_zero () =
  let c = circuit_two_blocks ~pins:[ Net.block_pin 0 ] in
  let rects = [| Rect.make ~x:0 ~y:0 ~w:10 ~h:10; Rect.make ~x:20 ~y:0 ~w:10 ~h:10 |] in
  check_float "zero" 0.0 (Wirelength.total_hpwl c ~rects ~die_w:100 ~die_h:100)

let test_hpwl_wrong_rect_count () =
  let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin 1 ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Wirelength.total_hpwl: one rectangle per block required") (fun () ->
      ignore
        (Wirelength.total_hpwl c ~rects:[| Rect.make ~x:0 ~y:0 ~w:1 ~h:1 |] ~die_w:10
           ~die_h:10))

let test_cost_breakdown_legal () =
  let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin 1 ] in
  let rects = [| Rect.make ~x:0 ~y:0 ~w:10 ~h:10; Rect.make ~x:20 ~y:10 ~w:10 ~h:10 |] in
  let b = Cost.evaluate c ~die_w:100 ~die_h:100 rects in
  check_float "hpwl" 30.0 b.Cost.hpwl;
  check_int "bbox" (30 * 20) b.Cost.bbox_area;
  check_int "overlap" 0 b.Cost.overlap_area;
  check_int "oob" 0 b.Cost.oob_area;
  check_float "total = hpwl + 0.05*bbox" (30.0 +. (0.05 *. 600.0)) b.Cost.total;
  check_bool "legal" true (Cost.is_legal ~die_w:100 ~die_h:100 rects)

let test_cost_overlap_penalty () =
  let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin 1 ] in
  let rects = [| Rect.make ~x:0 ~y:0 ~w:10 ~h:10; Rect.make ~x:5 ~y:5 ~w:10 ~h:10 |] in
  let b = Cost.evaluate c ~die_w:100 ~die_h:100 rects in
  check_int "overlap area" 25 b.Cost.overlap_area;
  check_bool "illegal" false (Cost.is_legal ~die_w:100 ~die_h:100 rects);
  let legal = [| Rect.make ~x:0 ~y:0 ~w:10 ~h:10; Rect.make ~x:10 ~y:0 ~w:10 ~h:10 |] in
  check_bool "penalty dominates" true
    (b.Cost.total > (Cost.evaluate c ~die_w:100 ~die_h:100 legal).Cost.total)

let test_cost_oob_penalty () =
  let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin 1 ] in
  let rects = [| Rect.make ~x:95 ~y:0 ~w:10 ~h:10; Rect.make ~x:0 ~y:0 ~w:10 ~h:10 |] in
  let b = Cost.evaluate c ~die_w:100 ~die_h:100 rects in
  check_int "oob area" 50 b.Cost.oob_area;
  check_bool "illegal" false (Cost.is_legal ~die_w:100 ~die_h:100 rects)

(* Property: HPWL is translation-invariant when all endpoints are block
   pins (no pads). *)
let prop_hpwl_translation_invariant =
  QCheck.Test.make ~name:"hpwl translation-invariant without pads" ~count:200
    QCheck.(pair (int_range (-20) 20) (int_range (-20) 20))
    (fun (dx, dy) ->
      let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin ~fx:0.25 ~fy:0.75 1 ] in
      let rects = [| Rect.make ~x:30 ~y:30 ~w:10 ~h:10; Rect.make ~x:50 ~y:45 ~w:8 ~h:6 |] in
      let moved = Array.map (Rect.translate ~dx ~dy) rects in
      let hp r = Wirelength.total_hpwl c ~rects:r ~die_w:200 ~die_h:200 in
      abs_float (hp rects -. hp moved) < 1e-9)

let prop_overlap_area_symmetric =
  QCheck.Test.make ~name:"overlap penalty independent of order" ~count:200
    QCheck.(quad (int_range 0 30) (int_range 0 30) (int_range 1 20) (int_range 1 20))
    (fun (x, y, w, h) ->
      let c = circuit_two_blocks ~pins:[ Net.block_pin 0; Net.block_pin 1 ] in
      let a = Rect.make ~x ~y ~w ~h and b = Rect.make ~x:10 ~y:10 ~w:10 ~h:10 in
      let e1 = Cost.evaluate c ~die_w:100 ~die_h:100 [| a; b |] in
      let e2 = Cost.evaluate c ~die_w:100 ~die_h:100 [| b; a |] in
      e1.Cost.overlap_area = e2.Cost.overlap_area && e1.Cost.bbox_area = e2.Cost.bbox_area)

let suite =
  [
    ("pin and pad positions", `Quick, test_pin_positions);
    ("two-pin net HPWL", `Quick, test_net_hpwl_two_pins);
    ("pin positions scale with block size", `Quick, test_net_hpwl_scales_with_block_size);
    ("single-pin net has zero length", `Quick, test_single_pin_net_zero);
    ("rect count mismatch raises", `Quick, test_hpwl_wrong_rect_count);
    ("breakdown of a legal floorplan", `Quick, test_cost_breakdown_legal);
    ("overlap penalty", `Quick, test_cost_overlap_penalty);
    ("out-of-bounds penalty", `Quick, test_cost_oob_penalty);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_hpwl_translation_invariant; prop_overlap_area_symmetric ]
