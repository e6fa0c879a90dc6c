open Mps_geometry
open Mps_netlist
open Mps_placement

type outcome = {
  structure : Structure.t;
  before : Audit.report;
  after : Audit.report;
  quarantined : int list;
  repaired_in_place : int;
  backup_rebuilt : bool;
}

let clean outcome = Audit.clean outcome.after

(* Findings indexed by subject. *)
let findings_for subject report =
  List.filter (fun f -> f.Audit.subject = subject) report.Audit.findings

let has_fatal subject report =
  List.exists (fun f -> f.Audit.severity = Audit.Fatal) (findings_for subject report)

let has_degraded subject report =
  List.exists (fun f -> f.Audit.severity = Audit.Degraded) (findings_for subject report)

(* In-place repair of Degraded cost/box findings: clamp the box into the
   designer domain and re-evaluate the cost fields at (the possibly
   re-clamped) best_dims. *)
let refresh circuit bounds (s : Stored.t) =
  match Dimbox.inter s.Stored.box bounds with
  | None -> None (* box entirely outside the domain: unrepairable in place *)
  | Some box ->
    let best_dims = Dimbox.clamp box s.Stored.best_dims in
    let best_cost = Bdio.cost_of_dims circuit s.Stored.placement best_dims in
    if not (Float.is_finite best_cost) then None
    else
      let avg_cost =
        if Float.is_finite s.Stored.avg_cost then Float.max s.Stored.avg_cost best_cost
        else best_cost
      in
      (match
         Stored.make ~template_like:s.Stored.template_like ~placement:s.Stored.placement
           ~box ~expansion:s.Stored.expansion ~avg_cost ~best_cost ~best_dims
       with
      | repaired -> Some repaired
      | exception Invalid_argument _ -> None)

(* Promote the best surviving min-legal placement to template duty. *)
let promote_backup circuit bounds survivors =
  let candidates =
    List.filter
      (fun (s : Stored.t) ->
        Stored.n_blocks s = Circuit.n_blocks circuit
        && Placement.is_legal s.Stored.placement (Circuit.min_dims circuit))
      survivors
  in
  match
    List.sort
      (fun (a : Stored.t) b -> Float.compare a.Stored.best_cost b.Stored.best_cost)
      candidates
  with
  | [] -> None
  | best :: _ ->
    Some
      (Stored.make ~template_like:true ~placement:best.Stored.placement ~box:bounds
         ~expansion:best.Stored.expansion ~avg_cost:best.Stored.avg_cost
         ~best_cost:best.Stored.best_cost
         ~best_dims:(Dimbox.clamp bounds best.Stored.best_dims))

let unrepaired structure before =
  {
    structure;
    before;
    after = before;
    quarantined = [];
    repaired_in_place = 0;
    backup_rebuilt = false;
  }

let run ?pool structure =
  let before = Audit.run ?pool structure in
  if Audit.clean before then unrepaired structure before
  else
    try
    begin
    let circuit = Structure.circuit structure in
    let bounds = Circuit.dim_bounds circuit in
    let stored = Structure.placements structure in
    let quarantined = ref [] and repaired_in_place = ref 0 in
    (* 1. Quarantine Fatal placements; repair Degraded ones in place. *)
    let survivors =
      Array.to_list stored
      |> List.mapi (fun i s -> (i, s))
      |> List.filter_map (fun (i, s) ->
             if has_fatal (Audit.Placement i) before then begin
               quarantined := i :: !quarantined;
               None
             end
             else if has_degraded (Audit.Placement i) before then
               match refresh circuit bounds s with
               | Some repaired ->
                 incr repaired_in_place;
                 Some (i, repaired)
               | None ->
                 quarantined := i :: !quarantined;
                 None
             else Some (i, s))
    in
    (* 2. Replace a broken backup: promote the best survivor, else
       build a fresh one the way the generator does. *)
    let backup0 = Structure.backup structure in
    let backup, backup_rebuilt =
      if has_fatal Audit.Backup before then
        match promote_backup circuit bounds (List.map snd survivors) with
        | Some b -> (b, true)
        | None ->
          let die_w, die_h = Structure.die structure in
          (Generator.backup ?pool circuit ~die_w ~die_h, true)
      else if has_degraded Audit.Backup before then
        match refresh circuit bounds backup0 with
        | Some b -> (b, true)
        | None -> (backup0, false)
      else (backup0, false)
    in
    (* 3. Template-like pieces follow the backup: a piece left with
       another placement (the replaced backup's) loses its territory
       to it. *)
    let survivors, stale =
      List.partition (fun (_, s) -> Stored.follows_backup ~backup s) survivors
    in
    quarantined := List.map fst stale @ !quarantined;
    (* 4. Recompile leniently — belt and braces against residual
       overlaps — and re-audit.  Quarantined territory falls to the
       backup; [Generator.extend] re-covers it. *)
    let admitted = Array.of_list (List.map snd survivors) in
    let structure' =
      match Structure.of_placements_lenient ~backup circuit admitted with
      | s, _residual -> s
      | exception Invalid_argument _ -> (
        (* nothing admissible at all: serve the backup alone if it is
           well-formed, else give the original back un-repaired *)
        match Structure.of_placements ~backup circuit [| backup |] with
        | s -> s
        | exception Invalid_argument _ -> structure)
    in
    {
      structure = structure';
      before;
      after = Audit.run ?pool structure';
      quarantined = List.sort Int.compare !quarantined;
      repaired_in_place = !repaired_in_place;
      backup_rebuilt;
    }
    end
    with _ ->
      (* the repair pass must never raise: an unexpected failure leaves
         the original structure un-repaired, visibly non-clean *)
      unrepaired structure before

let describe outcome =
  Printf.sprintf
    "repair: %d quarantined, %d repaired in place, backup %s; before: %d fatal / %d \
     degraded; after: %s"
    (List.length outcome.quarantined)
    outcome.repaired_in_place
    (if outcome.backup_rebuilt then "rebuilt" else "kept")
    (Audit.count Audit.Fatal outcome.before)
    (Audit.count Audit.Degraded outcome.before)
    (if Audit.clean outcome.after then "CLEAN" else "still flawed")

(* Salvage: rebuild a structure from what survives of a damaged
   container. *)

type salvage = {
  outcome : outcome;
  recovered : int;
  dropped : int;
  backup_recovered : bool;
  checksum_ok : bool;
}

(* Recompile the intact records through the lenient rule (lower
   average cost wins contested territory, ill-formed records drop),
   then audit and repair — syntactically intact is not semantically
   sound. *)
let salvage_string ~circuit raw =
  match
    Zcodec.salvage_parts ~circuit (Zcodec.words_of_string raw) ~bytes:(String.length raw)
  with
  | Error e -> Error e
  | Ok r -> (
    let stored = Array.of_list r.Zcodec.r_stored in
    match Structure.of_placements_lenient ?backup:r.Zcodec.r_backup circuit stored with
    | exception Invalid_argument _ ->
      Error (Zcodec.Corrupt { section = "PLCT"; reason = "no intact placement recovered" })
    | structure, dropped ->
      let recovered = Array.length stored - List.length dropped in
      Ok
        {
          outcome = run structure;
          recovered;
          dropped = max (r.Zcodec.r_claimed - recovered) 0;
          backup_recovered = r.Zcodec.r_backup <> None;
          checksum_ok = r.Zcodec.r_crc_ok;
        })

let salvage ~circuit ~path =
  match Persist.read_file ~path with
  | raw -> salvage_string ~circuit raw
  | exception Sys_error msg -> Error (Zcodec.Io_error msg)
