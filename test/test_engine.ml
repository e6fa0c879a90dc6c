(* Property tests for the compiled zero-allocation query engine
   (Structure.Engine): on every Table 1 circuit the engine must answer
   exactly like the linear reference oracle — including out-of-domain
   and fallback probes — sessions must be safely reusable across
   interleaved structures, the hot-box cache must actually hit on
   sizing-loop traffic, and batch serving must be bit-identical to
   sequential answering at any job count. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let structures = Fixtures.structures

let for_all f () = List.iter (fun (c, s) -> f c s) (Lazy.force structures)

(* The experiments' Quick structures: the two oracle tests also run on
   the sizes a served structure has, not only on the tiny fixtures. *)
let quick_structures =
  let module E = Mps_experiments.Experiments in
  lazy
    (List.map
       (fun c -> (c, fst (Generator.single_walk ~config:(E.generator_config E.Quick c) c)))
       Benchmarks.all)

let for_all_and_quick f () =
  List.iter (fun (c, s) -> f c s) (Lazy.force structures @ Lazy.force quick_structures)

(* Probe generator mixing the three answer regimes: uniform in-domain
   vectors (hits and fallbacks), vectors pushed past the designer max
   on one axis (out-of-domain), and jitter around a stored best vector
   (mostly hits, the sizing-loop shape). *)
let probe rng structure stored =
  let circuit = Structure.circuit structure in
  let bounds = Circuit.dim_bounds circuit in
  let base = Dimbox.random_dims rng bounds in
  match Rng.int rng 4 with
  | 0 | 1 -> base
  | 2 ->
    let i = Rng.int rng (Dims.n_blocks base) in
    if Rng.int rng 2 = 0 then
      Dims.set_width base i (Interval.hi (Dimbox.w_interval bounds i) + 1 + Rng.int rng 8)
    else
      Dims.set_height base i
        (Interval.hi (Dimbox.h_interval bounds i) + 1 + Rng.int rng 8)
  | _ ->
    let s : Stored.t = stored.(Rng.int rng (Array.length stored)) in
    let d = ref s.Stored.best_dims in
    for _ = 1 to 2 do
      let i = Rng.int rng (Dims.n_blocks !d) in
      let bump = Rng.int_in rng (-2) 2 in
      d :=
        (if Rng.int rng 2 = 0 then Dims.set_width !d i (max 1 (Dims.width !d i + bump))
         else Dims.set_height !d i (max 1 (Dims.height !d i + bump)))
    done;
    !d

(* The sizing-loop traffic pattern: a one-unit bump on one block axis
   of the previous vector, clamped to the designer space, with an
   occasional jump to a stored best vector.  Consecutive probes usually
   share a validity box, so a warm session answers them from its
   hot-box cache. *)
let sizing_walk rng structure ~n =
  let bounds = Circuit.dim_bounds (Structure.circuit structure) in
  let stored = Structure.placements structure in
  let jump () = stored.(Rng.int rng (Array.length stored)).Stored.best_dims in
  let current = ref (jump ()) in
  Array.init n (fun _ ->
      (if Rng.int rng 64 = 0 then current := jump ()
       else
         let d = !current in
         let i = Rng.int rng (Dims.n_blocks d) in
         let delta = if Rng.int rng 2 = 0 then 1 else -1 in
         current :=
           Dimbox.clamp bounds
             (if Rng.int rng 2 = 0 then Dims.set_width d i (max 1 (Dims.width d i + delta))
              else Dims.set_height d i (max 1 (Dims.height d i + delta))));
      !current)

(* 10k mixed probes, then a 10k-step sizing walk, through one session. *)
let oracle_probes rng structure =
  let stored = Structure.placements structure in
  Array.append
    (Array.init 10_000 (fun _ -> probe rng structure stored))
    (sizing_walk rng structure ~n:10_000)

(* Satellite: engine answers == linear oracle (and the reference
   compiled query) on 10k mixed probes and a 10k-step walk per
   circuit. *)
let test_engine_matches_oracle c structure =
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  let rng = Rng.create ~seed:11 in
  let seen_hit = ref false and seen_fb = ref false and seen_ood = ref false in
  oracle_probes rng structure
  |> Array.iteri (fun k dims ->
         let a_lin, s_lin = Structure.query_linear structure dims in
         let a_eng, s_eng = Structure.Engine.query engine session dims in
         let a_old, _ = Structure.query structure dims in
         (match a_lin with
         | Structure.Stored_placement _ -> seen_hit := true
         | Structure.Fallback -> seen_fb := true
         | Structure.Out_of_domain -> seen_ood := true);
         if not (a_eng = a_lin && a_old = a_lin && s_eng == s_lin) then
           Alcotest.failf "%s probe %d: engine %s, query %s, linear %s" c.Circuit.name k
             (Structure.answer_to_string a_eng)
             (Structure.answer_to_string a_old)
             (Structure.answer_to_string a_lin));
  check_bool (c.Circuit.name ^ ": probes covered stored hits") true !seen_hit;
  check_bool (c.Circuit.name ^ ": probes covered out-of-domain") true !seen_ood;
  ignore !seen_fb (* fallbacks occur unless coverage is total; not guaranteed *)

(* Satellite: one session interleaved across two different engines
   (different block counts and capacities) answers exactly like two
   dedicated sessions. *)
let test_session_interleaving_safe () =
  let all = Lazy.force structures in
  let _, s1 = List.hd all in
  let _, s2 =
    List.find (fun (c, _) -> String.equal c.Circuit.name "benchmark24") all
  in
  let e1 = Structure.Engine.create s1 and e2 = Structure.Engine.create s2 in
  let shared = Structure.Engine.new_session () in
  let own1 = Structure.Engine.new_session () in
  let own2 = Structure.Engine.new_session () in
  let st1 = Structure.placements s1 and st2 = Structure.placements s2 in
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 2000 do
    let d1 = probe rng s1 st1 and d2 = probe rng s2 st2 in
    let a1_shared, _ = Structure.Engine.query e1 shared d1 in
    let a2_shared, _ = Structure.Engine.query e2 shared d2 in
    let a1_own, _ = Structure.Engine.query e1 own1 d1 in
    let a2_own, _ = Structure.Engine.query e2 own2 d2 in
    check_bool "interleaved answer (engine 1)" true (a1_shared = a1_own);
    check_bool "interleaved answer (engine 2)" true (a2_shared = a2_own)
  done;
  check_int "shared session counted every query" 4000
    (Structure.Engine.stats shared).Structure.Engine.queries

(* The hot-box cache must answer repeated and slightly perturbed
   queries without re-narrowing, and must never change an answer. *)
let test_hot_box_cache c structure =
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  (* A guaranteed stored hit: any explored placement's best vector. *)
  let stored = Structure.placements structure in
  let hit =
    match
      Array.find_opt
        (fun (s : Stored.t) ->
          match Structure.query_linear structure s.Stored.best_dims with
          | Structure.Stored_placement _, _ -> true
          | _ -> false)
        stored
    with
    | Some s -> s.Stored.best_dims
    | None -> Alcotest.failf "%s: no stored best vector queries back" c.Circuit.name
  in
  let reference = fst (Structure.query_linear structure hit) in
  for _ = 1 to 50 do
    let a, _ = Structure.Engine.query engine session hit in
    check_bool (c.Circuit.name ^ ": cached answer stable") true (a = reference)
  done;
  let s = Structure.Engine.stats session in
  check_int (c.Circuit.name ^ ": queries counted") 50 s.Structure.Engine.queries;
  check_bool
    (Printf.sprintf "%s: cache hit on every repeat (%d/50)" c.Circuit.name
       s.Structure.Engine.cache_hits)
    true
    (s.Structure.Engine.cache_hits = 49)

(* Floorplans equal rect for rect. *)
let check_same_floorplan what expected got =
  if not (Array.length expected = Array.length got && Array.for_all2 Rect.equal expected got)
  then Alcotest.failf "%s: floorplans differ" what

(* instantiate_into fills the session buffer with exactly the rects of
   the linear oracle's placement committed at the probe (re-packed on a
   fallback or out of the domain), on the oracle probes per circuit.
   Fallbacks re-pack into that buffer with the engine's precomputed
   order, so the probe set must exercise them. *)
let test_instantiate_into_matches c structure =
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  let rng = Rng.create ~seed:17 in
  let fallbacks = ref 0 in
  oracle_probes rng structure
  |> Array.iter (fun dims ->
         let expected =
           match Structure.query_linear structure dims with
           | Structure.Stored_placement _, s -> Stored.instantiate_auto s dims
           | Structure.Fallback, s ->
             incr fallbacks;
             Stored.instantiate_repacked s dims
           | Structure.Out_of_domain, s -> Stored.instantiate_repacked s dims
         in
         check_same_floorplan c.Circuit.name expected
           (Structure.Engine.instantiate_into engine session dims));
  check_bool
    (Printf.sprintf "%s: probes include fallbacks (%d)" c.Circuit.name !fallbacks)
    true (!fallbacks > 0)

(* Batch serving across domains: one engine shared by per-task
   sessions on a pool answers as the linear oracle and instantiates the
   same floorplans as one sequential session. *)
let test_batch_matches_sequential c structure =
  let engine = Structure.Engine.create structure in
  let stored = Structure.placements structure in
  let rng = Rng.create ~seed:19 in
  let dims = Array.init 257 (fun _ -> probe rng structure stored) in
  let expected =
    Array.map (fun d -> fst (Structure.query_linear structure d)) dims
  in
  let serve (lo, len) =
    let session = Structure.Engine.new_session () in
    Array.init len (fun k ->
        let d = dims.(lo + k) in
        (fst (Structure.Engine.query engine session d),
         Structure.Engine.instantiate engine session d))
  in
  let sequential = serve (0, Array.length dims) in
  let chunks = 12 in
  let ranges =
    Array.init chunks (fun i ->
        let lo = i * Array.length dims / chunks in
        (lo, ((i + 1) * Array.length dims / chunks) - lo))
  in
  Mps_parallel.Pool.with_pool ~jobs:3 (fun pool ->
      let pooled = Array.concat (Array.to_list (Mps_parallel.Pool.map pool (fun ~worker:_ -> serve) ranges)) in
      check_bool (c.Circuit.name ^ ": pooled batch") true
        (Array.map fst pooled = expected);
      Array.iteri
        (fun k (_, rs) ->
          Array.iteri
            (fun i r ->
              check_bool
                (c.Circuit.name ^ ": batched floorplans equal")
                true
                (Rect.equal r (snd pooled.(k)).(i)))
            rs)
        sequential)

(* Plan shape: every axis row is either in the narrowing plan or
   provably non-selective, and the skip rule never hides a row that
   could narrow (the oracle test above is the semantic check; this one
   pins the accounting). *)
let test_plan_accounting c structure =
  let engine = Structure.Engine.create structure in
  let n = Circuit.n_blocks (Structure.circuit structure) in
  check_int
    (c.Circuit.name ^ ": rows partition the 2N axes")
    (2 * n)
    (Structure.Engine.n_active_rows engine + Structure.Engine.n_skipped_rows engine)

let test_describe_reports_cache () =
  let _, structure = List.hd (Lazy.force structures) in
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  ignore (Structure.Engine.query engine session (Dimbox.center (Circuit.dim_bounds (Structure.circuit structure))));
  let text = Structure.Engine.describe engine session in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec scan i = i + n <= m && (String.equal (String.sub text i n) needle || scan (i + 1)) in
    scan 0
  in
  check_bool "describe mentions the hot-box cache" true (contains "hot-box cache");
  check_bool "describe mentions narrowing rows" true (contains "narrowing rows")

(* One session alternating between two structures of the same circuit
   (same block count, different backups and orders): every re-pack must
   use the order of the engine it is answering for. *)
let test_session_alternating_structures () =
  let c, s1 =
    List.find (fun (c, _) -> String.equal c.Circuit.name "benchmark24") (Lazy.force structures)
  in
  let s2 = Lazy.force Test_pinned.structure in
  let e1 = Structure.Engine.create s1 and e2 = Structure.Engine.create s2 in
  let shared = Structure.Engine.new_session () in
  let st1 = Structure.placements s1 and st2 = Structure.placements s2 in
  let rng = Rng.create ~seed:31 in
  for _ = 1 to 2000 do
    let d1 = probe rng s1 st1 and d2 = probe rng s2 st2 in
    check_same_floorplan (c.Circuit.name ^ " (engine 1)") (Structure.instantiate s1 d1)
      (Structure.Engine.instantiate_into e1 shared d1);
    check_same_floorplan (c.Circuit.name ^ " (engine 2)") (Structure.instantiate s2 d2)
      (Structure.Engine.instantiate_into e2 shared d2)
  done

(* The steady-state query path allocates nothing: after a warm-up, 10k
   calls of each [query_id] regime and of the [instantiate_into]
   regimes (a backup fallback, a sizing walk, a stored hit re-packed
   beyond its expansion box) on benchmark24 Quick stay under a small
   constant (the counter reads' own boxing). *)
let test_query_path_does_not_allocate () =
  let structure = Lazy.force Test_pinned.structure in
  let engine = Structure.Engine.create structure in
  let stored = Structure.placements structure in
  let rng = Rng.create ~seed:37 in
  let find what ok =
    let rec go k =
      if k = 0 then Alcotest.failf "no %s probe found" what
      else
        let d = probe rng structure stored in
        if ok (fst (Structure.query_linear structure d)) then d else go (k - 1)
    in
    go 100_000
  in
  let is_hit = function Structure.Stored_placement _ -> true | _ -> false in
  let hit_a = find "stored hit" is_hit in
  let hit_b =
    find "second stored hit" (fun a -> is_hit a && a <> fst (Structure.query_linear structure hit_a))
  in
  let fallback = find "fallback" (fun a -> a = Structure.Fallback) in
  let ood = find "out-of-domain" (fun a -> a = Structure.Out_of_domain) in
  (* A walk through the row memo, the raw fill and the warm re-pack,
     and a stored hit its placement answers by re-packing. *)
  let walk = sizing_walk rng structure ~n:10_000 in
  let beyond_expansion =
    let rec go k =
      if k = 0 then Alcotest.fail "no stored hit outside its expansion box found"
      else
        let s = stored.(Rng.int rng (Array.length stored)) in
        let d = Dimbox.random_dims rng s.Stored.box in
        match Structure.query_linear structure d with
        | Structure.Stored_placement _, s' when s' == s && not (Dimbox.contains s.Stored.expansion d)
          ->
          d
        | _ -> go (k - 1)
    in
    go 100_000
  in
  let session = Structure.Engine.new_session () in
  let sink = ref 0 in
  let regimes =
    [
      ("hot hit", fun _ -> sink := !sink + Structure.Engine.query_id engine session hit_a);
      ( "narrowed hit",
        fun i ->
          sink :=
            !sink
            + Structure.Engine.query_id engine session (if i land 1 = 0 then hit_a else hit_b) );
      ("fallback", fun _ -> sink := !sink + Structure.Engine.query_id engine session fallback);
      ("out-of-domain", fun _ -> sink := !sink + Structure.Engine.query_id engine session ood);
      ( "fallback instantiate_into",
        fun _ ->
          let rects = Structure.Engine.instantiate_into engine session fallback in
          sink := !sink + rects.(0).Rect.y );
      ( "walk instantiate_into",
        fun i ->
          let rects = Structure.Engine.instantiate_into engine session walk.(i) in
          sink := !sink + rects.(0).Rect.y );
      ( "stored re-pack instantiate_into",
        fun _ ->
          let rects = Structure.Engine.instantiate_into engine session beyond_expansion in
          sink := !sink + rects.(0).Rect.y );
    ]
  in
  List.iter
    (fun (what, call) ->
      for i = 0 to 999 do
        call i
      done;
      let before = Gc.minor_words () in
      for i = 0 to 9_999 do
        call i
      done;
      let delta = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "%s: %.0f minor words over 10k calls" what delta)
        true (delta < 256.0))
    regimes;
  ignore (Sys.opaque_identity !sink)

(* The oracle floorplan: the linear oracle's placement committed at
   the vector, re-packed on a fallback or out of the domain. *)
let oracle_floorplan structure dims =
  match Structure.query_linear structure dims with
  | Structure.Stored_placement _, s -> Stored.instantiate_auto s dims
  | (Structure.Fallback | Structure.Out_of_domain), s -> Stored.instantiate_repacked s dims

let oracle_id structure dims =
  match fst (Structure.query_linear structure dims) with
  | Structure.Stored_placement id -> id
  | Structure.Fallback -> -1
  | Structure.Out_of_domain -> -2

(* One structure's side of the session traffic below: its engine and
   the vector its walk stands on. *)
type walker = {
  w_structure : Structure.t;
  w_engine : Structure.Engine.t;
  w_stored : Stored.t array;
  w_bounds : Dimbox.t;
  mutable w_at : Dims.t;
}

let walker structure =
  let stored = Structure.placements structure in
  {
    w_structure = structure;
    w_engine = Structure.Engine.create structure;
    w_stored = stored;
    w_bounds = Circuit.dim_bounds (Structure.circuit structure);
    w_at = stored.(0).Stored.best_dims;
  }

(* Move [w] one traffic step: a +-1..3 step on one axis, steps on
   several axes, a jump to a stored best vector, or a vector pushed
   past the designer max.  Steps stay positive and inside the designer
   space. *)
let traffic_step rng w =
  let step d =
    let i = Rng.int rng (Dims.n_blocks d) in
    let delta = (1 + Rng.int rng 3) * if Rng.int rng 2 = 0 then 1 else -1 in
    Dimbox.clamp w.w_bounds
      (if Rng.int rng 2 = 0 then Dims.set_width d i (max 1 (Dims.width d i + delta))
       else Dims.set_height d i (max 1 (Dims.height d i + delta)))
  in
  let d = Dimbox.clamp w.w_bounds w.w_at in
  match Rng.int rng 10 with
  | 0 -> w.w_at <- w.w_stored.(Rng.int rng (Array.length w.w_stored)).Stored.best_dims
  | 1 ->
    let rec several k d = if k = 0 then d else several (k - 1) (step d) in
    w.w_at <- several (2 + Rng.int rng 3) d
  | 2 ->
    let i = Rng.int rng (Dims.n_blocks d) in
    w.w_at <-
      (if Rng.int rng 2 = 0 then
         Dims.set_width d i (Interval.hi (Dimbox.w_interval w.w_bounds i) + 1 + Rng.int rng 4)
       else
         Dims.set_height d i (Interval.hi (Dimbox.h_interval w.w_bounds i) + 1 + Rng.int rng 4))
  | _ -> w.w_at <- step d

(* Arbitrary traffic through one session: walk steps of every shape on
   a structure, [query_id] calls between [instantiate_into] calls, a
   second structure taking turns on the same session (same block count
   two times in three, and then once the same capacity with the
   placements reversed and another backup, so only a rebind can tell
   their placements apart), and a caller scribbling over the returned
   rects.  Every answer must
   be the oracle's, id and floorplan. *)
let prop_session_traffic_matches_oracle =
  QCheck.Test.make ~name:"engine: any session traffic answers like the oracle" ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let all = Lazy.force structures in
      let pick () = snd (List.nth all (Rng.int rng (List.length all))) in
      let b24 = snd (List.find (fun (c, _) -> String.equal c.Circuit.name "benchmark24") all) in
      let first, second =
        match Rng.int rng 3 with
        | 0 -> (b24, Lazy.force Test_pinned.structure)
        | 1 ->
          (* same capacity, so the same placement ids, naming other
             placements, and another backup *)
          let stored = Structure.placements b24 in
          let n = Array.length stored in
          ( b24,
            Structure.of_placements
              ~backup:(Structure.backup (Lazy.force Test_pinned.structure))
              (Structure.circuit b24)
              (Array.init n (fun i -> stored.(n - 1 - i))) )
        | _ -> (pick (), pick ())
      in
      let a = walker first and b = walker second in
      let session = Structure.Engine.new_session () in
      let ok = ref true in
      for _ = 1 to 200 do
        let w = if Rng.int rng 8 = 0 then b else a in
        traffic_step rng w;
        let dims = w.w_at in
        if Rng.int rng 5 = 0 then
          ok := !ok && Structure.Engine.query_id w.w_engine session dims = oracle_id w.w_structure dims
        else begin
          let got = Structure.Engine.instantiate_into w.w_engine session dims in
          let want = oracle_floorplan w.w_structure dims in
          ok :=
            !ok
            && Array.length got = Array.length want
            && Array.for_all2 Rect.equal got want
            && fst (Structure.Engine.query w.w_engine session dims)
               = fst (Structure.query_linear w.w_structure dims);
          if Rng.int rng 4 = 0 then
            Array.iter
              (fun (r : Rect.t) ->
                r.Rect.x <- Rng.int rng 100;
                r.Rect.y <- -7;
                r.Rect.w <- 1 + Rng.int rng 5;
                r.Rect.h <- 3)
              got
        end
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "all benchmarks: engine == linear oracle on 10k probes" `Quick
      (for_all_and_quick test_engine_matches_oracle);
    Alcotest.test_case "session reuse across interleaved engines is safe" `Quick
      test_session_interleaving_safe;
    Alcotest.test_case "all benchmarks: hot-box cache hits and stays exact" `Quick
      (for_all test_hot_box_cache);
    Alcotest.test_case "all benchmarks: instantiate_into matches instantiate" `Quick
      (for_all_and_quick test_instantiate_into_matches);
    Alcotest.test_case "all benchmarks: batch serving matches sequential" `Quick
      (for_all test_batch_matches_sequential);
    Alcotest.test_case "all benchmarks: plan rows partition the axes" `Quick
      (for_all test_plan_accounting);
    Alcotest.test_case "describe reports plan shape and cache counters" `Quick
      test_describe_reports_cache;
    Alcotest.test_case "one session alternating structures re-packs with each engine's order"
      `Quick test_session_alternating_structures;
    Alcotest.test_case "query_id and fallback instantiate_into do not allocate" `Quick
      test_query_path_does_not_allocate;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_session_traffic_matches_oracle ]
