(* Multi-block fuzz of the builder and compiled structure: random
   candidate boxes over a two-block circuit (a 4-D dimension space), the
   compiled query checked against the linear oracle and the disjointness
   invariant after every store. *)

open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_core

let iv = Interval.make

let circuit2 =
  Circuit.make ~name:"two"
    ~blocks:
      [|
        Block.make_wh ~id:0 ~name:"a" ~w:(1, 60) ~h:(1, 60);
        Block.make_wh ~id:1 ~name:"b" ~w:(1, 60) ~h:(1, 60);
      |]
    ~nets:[| Net.make ~id:0 ~name:"n" ~pins:[ Net.block_pin 0; Net.block_pin 1 ] |]

let expansion2 =
  Dimbox.make ~w:[| iv 1 60; iv 1 60 |] ~h:[| iv 1 60; iv 1 60 |]

let stored2 ~avg box =
  Stored.make ~template_like:false
    ~placement:(Placement.make ~coords:[| (0, 0); (70, 70) |] ~die_w:200 ~die_h:200)
    ~box ~expansion:expansion2 ~avg_cost:avg ~best_cost:(avg /. 2.0)
    ~best_dims:(Dimbox.center box)

(* generator for one random sub-box of the 4-D space *)
let box_gen =
  QCheck.Gen.(
    let ivl = map2 (fun lo len -> iv lo (min 60 (lo + len))) (int_range 1 55) (int_range 0 25) in
    let* w0 = ivl and* w1 = ivl and* h0 = ivl and* h1 = ivl in
    return (Dimbox.make ~w:[| w0; w1 |] ~h:[| h0; h1 |]))

let arb_workload =
  QCheck.make
    ~print:(fun l ->
      String.concat "; " (List.map (fun (b, a) -> Format.asprintf "%a @@%.1f" Dimbox.pp b a) l))
    QCheck.Gen.(
      list_size (int_range 1 15) (pair box_gen (float_range 1.0 50.0)))

let build workload =
  let b = Builder.create circuit2 in
  List.iter (fun (box, avg) -> ignore (Builder.resolve_and_store b (stored2 ~avg box))) workload;
  b

let prop_disjoint_and_consistent =
  QCheck.Test.make ~name:"2-block builder: disjoint boxes, consistent rows" ~count:150
    arb_workload (fun workload ->
      let b = build workload in
      Builder.boxes_disjoint b && Builder.bounds_consistent b)

let prop_query_oracle =
  QCheck.Test.make ~name:"2-block compiled query equals linear oracle" ~count:150
    (QCheck.pair arb_workload
       (QCheck.make
          QCheck.Gen.(
            let* a = int_range 1 60 and* b = int_range 1 60 in
            let* c = int_range 1 60 and* d = int_range 1 60 in
            return (Dims.of_pairs [| (a, b); (c, d) |]))))
    (fun (workload, dims) ->
      let s = Structure.compile (build workload) in
      let a1, s1 = Structure.query s dims in
      let a2, s2 = Structure.query_linear s dims in
      a1 = a2 && s1 == s2)

let prop_coverage_monotone_bounded =
  QCheck.Test.make ~name:"2-block coverage stays in [0,1]" ~count:150 arb_workload
    (fun workload ->
      let c = Builder.coverage (build workload) in
      c >= 0.0 && c <= 1.0 +. 1e-9)

let prop_every_stored_self_findable =
  QCheck.Test.make ~name:"2-block: every live box found over itself" ~count:150
    arb_workload (fun workload ->
      let b = build workload in
      List.for_all
        (fun (id, s) -> List.mem id (Builder.overlapping b s.Stored.box))
        (Builder.live b))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_disjoint_and_consistent;
      prop_query_oracle;
      prop_coverage_monotone_bounded;
      prop_every_stored_self_findable;
    ]
