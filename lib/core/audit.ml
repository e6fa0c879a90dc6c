open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_cost

type severity = Info | Degraded | Fatal

type subject =
  | Structure_wide
  | Placement of int
  | Backup

type finding = {
  severity : severity;
  subject : subject;
  code : string;
  detail : string;
}

type report = {
  circuit_name : string;
  placements : int;
  explored : int;
  samples_per_box : int;
  query_samples : int;
  findings : finding list;
}

let severity_rank = function Info -> 0 | Degraded -> 1 | Fatal -> 2

let severity_to_string = function
  | Info -> "info"
  | Degraded -> "degraded"
  | Fatal -> "fatal"

let subject_to_string = function
  | Structure_wide -> "structure"
  | Placement i -> Printf.sprintf "placement %d" i
  | Backup -> "backup"

let clean report =
  List.for_all (fun f -> f.severity = Info) report.findings

let worst report =
  List.fold_left
    (fun acc f ->
      match acc with
      | Some s when severity_rank s >= severity_rank f.severity -> acc
      | _ -> Some f.severity)
    None report.findings

let count severity report =
  List.length (List.filter (fun f -> f.severity = severity) report.findings)

(* The checks.

   Each check appends findings to an accumulator; nothing raises — the
   auditor must survive any structure a salvage pass can produce.  A
   check that raises anyway (a bound no geometry can hold, say) becomes
   a Fatal [audit-exception] finding on the subject it was checking,
   which is what quarantine acts on. *)

let legal_breakdown circuit ~die_w ~die_h rects =
  let b = Cost.evaluate circuit ~die_w ~die_h rects in
  (b.Cost.overlap_area, b.Cost.oob_area)

(* Sizing-walk probe steps per audit. *)
let walk_steps = 256

(* Whole-space query probes per audit. *)
let query_samples = 64

(* Relative tolerance of the cost-field re-verification. *)
let tolerance = 1e-6

let default_seed = 7
let default_samples_per_box = 12

let run ?pool ?(samples_per_box = default_samples_per_box) ?(seed = default_seed) structure =
  let circuit = Structure.circuit structure in
  let die_w, die_h = Structure.die structure in
  let bounds = Circuit.dim_bounds circuit in
  let stored = Structure.placements structure in
  let backup = Structure.backup structure in
  (* Every audited subject samples from its own stream (query probes =
     stream 0, backup = stream 1, placement i = stream 2+i, walk probes
     = stream 2+n), so the per-placement checks can fan out across a
     domain pool and still produce the identical report a sequential
     audit does. *)
  let root = Mps_rng.Rng.create ~seed in
  let add findings severity subject code fmt =
    Printf.ksprintf
      (fun detail -> findings := { severity; subject; code; detail } :: !findings)
      fmt
  in
  (* eq. 5: stored validity boxes pairwise disjoint.  Blame the
     higher-average-cost placement of an overlapping pair — that is the
     one quarantine will drop. *)
  let pair_findings =
    let acc = ref [] in
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b ->
            if i < j && Dimbox.overlaps a.Stored.box b.Stored.box then begin
              let loser = if a.Stored.avg_cost <= b.Stored.avg_cost then j else i in
              let other = if loser = j then i else j in
              add acc Fatal (Placement loser) "box-overlap"
                "validity box overlaps placement %d (eq. 5 violated)" other
            end)
          stored)
      stored;
    List.rev !acc
  in
  (* Per-placement shape and legality checks; [rng] is the subject's
     private stream, [findings] its private accumulator. *)
  let check_placement_exn rng findings subject (s : Stored.t) =
    let add severity subject code fmt = add findings severity subject code fmt in
    let p = s.Stored.placement in
    if p.Placement.die_w <> die_w || p.Placement.die_h <> die_h then
      add Fatal subject "die-mismatch" "placement die %dx%d, structure die %dx%d"
        p.Placement.die_w p.Placement.die_h die_w die_h;
    if Stored.n_blocks s <> Circuit.n_blocks circuit then
      add Fatal subject "block-count-mismatch" "%d blocks, circuit has %d"
        (Stored.n_blocks s) (Circuit.n_blocks circuit)
    else begin
      if
        (not s.Stored.template_like)
        && not (Dimbox.contains_box ~outer:s.Stored.expansion ~inner:s.Stored.box)
      then add Fatal subject "box-exceeds-expansion" "validity box exceeds the expansion box";
      if not (Dimbox.contains s.Stored.box s.Stored.best_dims) then
        add Fatal subject "best-dims-outside-box" "best_dims outside the validity box";
      (match Dimbox.inter s.Stored.box bounds with
      | Some i when Dimbox.equal i s.Stored.box -> ()
      | _ ->
        add Degraded subject "box-outside-domain"
          "validity box leaves the designer dimension space");
      (* Legality at the box corners plus seeded samples.  Inside the
         expansion box the raw coordinates must be legal (monotonicity);
         outside it (template-like territory) the placement answers by
         greedy re-packing, which guarantees no overlap but may exceed
         the die — the template's documented weakness, reported as
         Info. *)
      let check_point tag dims =
        let in_expansion = Dimbox.contains s.Stored.expansion dims in
        let rects =
          if in_expansion then Stored.instantiate s dims
          else Stored.instantiate_repacked s dims
        in
        let overlap, oob = legal_breakdown circuit ~die_w ~die_h rects in
        if overlap > 0 then
          add Fatal subject "illegal-floorplan" "%s: %d units of block overlap" tag overlap;
        if oob > 0 then
          if in_expansion then
            add Fatal subject "illegal-floorplan" "%s: %d units outside the die" tag oob
          else
            add Info subject "repack-outside-die"
              "%s: re-packed floorplan exceeds the die by %d units" tag oob
      in
      check_point "box lower corner" (Dimbox.lower_corner s.Stored.box);
      check_point "box upper corner" (Dimbox.upper_corner s.Stored.box);
      for k = 1 to samples_per_box do
        check_point
          (Printf.sprintf "sample %d" k)
          (Dimbox.random_dims rng s.Stored.box)
      done;
      (* Cost-field re-verification: the recorded best cost must be the
         cost function re-evaluated at the recorded best vector. *)
      if
        (not (Float.is_finite s.Stored.avg_cost))
        || not (Float.is_finite s.Stored.best_cost)
      then add Degraded subject "non-finite-cost" "avg/best cost not finite"
      else begin
        let recomputed = Bdio.cost_of_dims circuit p s.Stored.best_dims in
        if
          Float.abs (recomputed -. s.Stored.best_cost)
          > tolerance *. Float.max 1.0 (Float.abs s.Stored.best_cost)
        then
          add Degraded subject "best-cost-drift"
            "recorded best cost %.6g, re-evaluated %.6g at best_dims" s.Stored.best_cost
            recomputed;
        if s.Stored.avg_cost < s.Stored.best_cost -. 1e-9 then
          add Degraded subject "avg-below-best" "avg cost %.6g below best cost %.6g"
            s.Stored.avg_cost s.Stored.best_cost
      end
    end
  in
  let check_placement rng findings subject s =
    try check_placement_exn rng findings subject s
    with e ->
      add findings Fatal subject "audit-exception" "checking it raised %s"
        (Printexc.to_string e)
  in
  (* The per-placement sweep is the audit's O(n · samples) hot loop;
     with a pool it fans out one task per stored placement, merged back
     in placement order. *)
  let placement_findings =
    let check i =
      let acc = ref [] in
      let s = stored.(i) in
      check_placement (Mps_rng.Rng.split root (2 + i)) acc (Placement i) s;
      if not (Stored.follows_backup ~backup s) then
        add acc Fatal (Placement i) "template-piece-not-backup"
          "template-like piece carries a placement other than the backup's";
      List.rev !acc
    in
    let tasks = Array.init (Array.length stored) Fun.id in
    match pool with
    | Some pool -> Mps_parallel.Pool.map pool (fun ~worker:_ -> check) tasks
    | None -> Array.map check tasks
  in
  let backup_findings =
    let acc = ref [] in
    check_placement (Mps_rng.Rng.split root 1) acc Backup backup;
    (* The backup is the quality floor for every uncovered query: it
       must at least be legal at the circuit's minimum dimensions, the
       anchor of the re-packing monotonicity argument. *)
    if Stored.n_blocks backup = Circuit.n_blocks circuit then begin
      if not (Placement.is_legal backup.Stored.placement (Circuit.min_dims circuit))
      then
        add acc Fatal Backup "backup-illegal-at-min"
          "backup placement illegal at the minimum dimension vector"
    end;
    List.rev !acc
  in
  (* Whole-space query probes, run through the compiled engine (the
     path production queries take): answering must be total, every
     answer must instantiate without block overlap, and the engine must
     agree with the linear reference oracle on every probe. *)
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  let query_findings =
    let acc = ref [] in
    let rng = Mps_rng.Rng.split root 0 in
    for k = 1 to query_samples do
      let dims = Dimbox.random_dims rng bounds in
      (match Structure.Engine.instantiate_into engine session dims with
      | rects -> (
        match Rect.any_overlap rects with
        | Some (a, b) ->
          add acc Fatal Structure_wide "query-overlap"
            "query sample %d: blocks %d and %d overlap in the answer" k a b
        | None -> ())
      | exception e ->
        add acc Fatal Structure_wide "query-exception" "query sample %d raised %s" k
          (Printexc.to_string e));
      match
        ( fst (Structure.Engine.query engine session dims),
          fst (Structure.query_linear structure dims) )
      with
      | a1, a2 when a1 = a2 -> ()
      | a1, a2 ->
        add acc Fatal Structure_wide "engine-mismatch"
          "query sample %d: engine answered %s, linear oracle %s" k
          (Structure.answer_to_string a1)
          (Structure.answer_to_string a2)
      | exception e ->
        add acc Fatal Structure_wide "query-exception"
          "query sample %d: oracle comparison raised %s" k (Printexc.to_string e)
    done;
    List.rev !acc
  in
  (* Sizing-walk probes on the same session: unit steps from a stored
     best vector, a jump every 64 steps.  Uniform probes never repeat
     a placement or stay near one, so only these reach the session's
     step-to-step paths (row memo, raw fill re-testing moved axes,
     warm re-pack); each floorplan must equal the oracle's, rect for
     rect.  Stream [2 + n], after the placement streams. *)
  let walk_findings =
    let acc = ref [] in
    let rng = Mps_rng.Rng.split root (2 + Array.length stored) in
    let jump () = stored.(Mps_rng.Rng.int rng (Array.length stored)).Stored.best_dims in
    let current = ref (jump ()) in
    for k = 1 to walk_steps do
      (if k mod 64 = 0 then current := jump ()
       else
         let d = !current in
         let i = Mps_rng.Rng.int rng (Dims.n_blocks d) in
         let delta = if Mps_rng.Rng.int rng 2 = 0 then 1 else -1 in
         current :=
           Dimbox.clamp bounds
             (if Mps_rng.Rng.int rng 2 = 0 then Dims.set_width d i (max 1 (Dims.width d i + delta))
              else Dims.set_height d i (max 1 (Dims.height d i + delta))));
      let dims = !current in
      match
        let got = Structure.Engine.instantiate_into engine session dims in
        let want =
          match Structure.query_linear structure dims with
          | Structure.Stored_placement _, s -> Stored.instantiate_auto s dims
          | (Structure.Fallback | Structure.Out_of_domain), s -> Stored.instantiate_repacked s dims
        in
        Array.length got = Array.length want && Array.for_all2 Rect.equal got want
      with
      | true -> ()
      | false ->
        add acc Fatal Structure_wide "engine-floorplan-mismatch"
          "walk step %d: the engine's floorplan differs from the oracle's" k
      | exception e ->
        add acc Fatal Structure_wide "query-exception" "walk step %d raised %s" k
          (Printexc.to_string e)
    done;
    List.rev !acc
  in
  let ordered =
    List.stable_sort
      (fun a b -> Int.compare (severity_rank b.severity) (severity_rank a.severity))
      (pair_findings
      @ List.concat (Array.to_list placement_findings)
      @ backup_findings @ query_findings @ walk_findings)
  in
  {
    circuit_name = circuit.Circuit.name;
    placements = Array.length stored;
    explored = Structure.n_explored structure;
    samples_per_box;
    query_samples;
    findings = ordered;
  }

let to_string report =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "audit of %s: %s" report.circuit_name
    (if clean report then "CLEAN" else "FINDINGS");
  line "  placements: %d (%d explored)" report.placements report.explored;
  line "  checks: %d samples/box, %d query probes" report.samples_per_box
    report.query_samples;
  line "  findings: %d fatal, %d degraded, %d info" (count Fatal report)
    (count Degraded report) (count Info report);
  List.iter
    (fun f ->
      line "  [%s] %s: %s: %s"
        (String.uppercase_ascii (severity_to_string f.severity))
        (subject_to_string f.subject) f.code f.detail)
    report.findings;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json report =
  let finding f =
    Printf.sprintf
      "    { \"severity\": \"%s\", \"subject\": \"%s\", \"code\": \"%s\", \"detail\": \
       \"%s\" }"
      (severity_to_string f.severity)
      (json_escape (subject_to_string f.subject))
      (json_escape f.code) (json_escape f.detail)
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"circuit\": \"%s\"," (json_escape report.circuit_name);
      Printf.sprintf "  \"clean\": %b," (clean report);
      Printf.sprintf "  \"placements\": %d," report.placements;
      Printf.sprintf "  \"explored\": %d," report.explored;
      Printf.sprintf "  \"samples_per_box\": %d," report.samples_per_box;
      Printf.sprintf "  \"query_samples\": %d," report.query_samples;
      Printf.sprintf "  \"fatal\": %d," (count Fatal report);
      Printf.sprintf "  \"degraded\": %d," (count Degraded report);
      Printf.sprintf "  \"info\": %d," (count Info report);
      "  \"findings\": [";
      String.concat ",\n" (List.map finding report.findings);
      "  ]";
      "}";
      "";
    ]
