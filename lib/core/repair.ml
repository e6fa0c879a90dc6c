open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_cost

(* At most this many quarantined boxes are re-annealed and re-admitted. *)
let max_reanneals = 4

type outcome = {
  structure : Structure.t;
  before : Audit.report;
  after : Audit.report;
  quarantined : int list;
  repaired_in_place : int;
  reannealed : int;
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

(* A fresh template-like backup: coordinates annealed at the nominal
   dimensions under the given budget, claiming the whole designer
   space.  Mirrors Generator.build_backup, with a bounded budget. *)
let reanneal_backup ~iterations rng circuit ~die_w ~die_h =
  let bounds = Circuit.dim_bounds circuit in
  let nominal = Dimbox.center bounds in
  let coord_config = { Coord_opt.default_config with Coord_opt.iterations } in
  let r = Coord_opt.optimize ~config:coord_config ~rng circuit ~die_w ~die_h nominal in
  let placement =
    if Placement.is_legal r.Coord_opt.placement (Circuit.min_dims circuit) then
      Some r.Coord_opt.placement
    else
      (* bounded budget may not reach legality; fall back to rejection
         sampling, which raises only on an impossible die *)
      (try Some (Placement.random rng circuit ~die_w ~die_h) with Failure _ -> None)
  in
  match placement with
  | None -> None
  | Some placement ->
    let expansion = Expand.expand circuit placement in
    let best_dims = Dimbox.clamp expansion nominal in
    let best_cost = Bdio.cost_of_dims circuit placement best_dims in
    let avg_cost =
      let samples = 32 in
      let total = ref 0.0 in
      for _ = 1 to samples do
        let dims = Dimbox.random_dims rng bounds in
        let rects =
          Repack.instantiate ~die:(die_w, die_h) ~coords:placement.Placement.coords dims
        in
        total := !total +. Cost.total circuit ~die_w ~die_h rects
      done;
      Float.max (!total /. float_of_int samples) best_cost
    in
    Some
      (Stored.make ~template_like:true ~placement ~box:bounds ~expansion ~avg_cost
         ~best_cost ~best_dims)

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

(* Re-anneal one quarantined box: short coordinate annealing toward the
   box center (on the incremental delta-cost engine inside Coord_opt),
   admitted back only when legal, expandable and disjoint from every
   kept box. *)
let reanneal_box ~iterations rng circuit ~die_w ~die_h kept_boxes (lost : Stored.t) =
  let bounds = Circuit.dim_bounds circuit in
  match Dimbox.inter lost.Stored.box bounds with
  | None -> None
  | Some territory ->
    if List.exists (Dimbox.overlaps territory) kept_boxes then None
    else
      let target = Dimbox.center territory in
      let coord_config = { Coord_opt.default_config with Coord_opt.iterations } in
      let r =
        Coord_opt.optimize ~config:coord_config
          ~initial:lost.Stored.placement.Placement.coords ~rng circuit ~die_w ~die_h
          target
      in
      if not (Placement.is_legal r.Coord_opt.placement (Circuit.min_dims circuit)) then
        None
      else
        let placement = r.Coord_opt.placement in
        let expansion = Expand.expand circuit placement in
        (match Dimbox.inter territory expansion with
        | None -> None
        | Some box ->
          let best_dims = Dimbox.clamp box target in
          let best_cost = Bdio.cost_of_dims circuit placement best_dims in
          let avg_cost =
            let samples = 16 in
            let total = ref 0.0 in
            for _ = 1 to samples do
              let dims = Dimbox.random_dims rng box in
              total := !total +. Bdio.cost_of_dims circuit placement dims
            done;
            Float.max (!total /. float_of_int samples) best_cost
          in
          Some
            (Stored.make ~template_like:false ~placement ~box ~expansion ~avg_cost
               ~best_cost ~best_dims))

let run ?pool ?(reanneal_iterations = 0) structure =
  let before = Audit.run ?pool structure in
  if Audit.clean before then
    {
      structure;
      before;
      after = before;
      quarantined = [];
      repaired_in_place = 0;
      reannealed = 0;
      backup_rebuilt = false;
    }
  else
    try
    begin
    let circuit = Structure.circuit structure in
    let bounds = Circuit.dim_bounds circuit in
    let die_w, die_h = Structure.die structure in
    let stored = Structure.placements structure in
    (* Stream scheme mirroring the auditor: backup rebuild = stream 0,
       quarantined placement i = stream 1+i — so the reanneal fan-out
       below gives the same result with or without a pool. *)
    let root = Mps_rng.Rng.create ~seed:Audit.default_seed in
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
    (* 2. Rebuild the backup when it failed its audit. *)
    let backup0 = Structure.backup structure in
    let backup, backup_rebuilt =
      if has_fatal Audit.Backup before then
        let rebuilt =
          if reanneal_iterations > 0 then
            reanneal_backup ~iterations:reanneal_iterations (Mps_rng.Rng.split root 0)
              circuit ~die_w ~die_h
          else None
        in
        match rebuilt with
        | Some b -> (b, true)
        | None -> (
          match promote_backup circuit bounds (List.map snd survivors) with
          | Some b -> (b, true)
          | None -> (backup0, false) (* nothing better: keep, stays non-clean *))
      else if has_degraded Audit.Backup before then
        match refresh circuit bounds backup0 with
        | Some b -> (b, true)
        | None -> (backup0, false)
      else (backup0, false)
    in
    (* 3. Optionally re-anneal quarantined territory under the bounded
       budget and re-admit what comes back legal and disjoint. *)
    let reannealed = ref 0 in
    let recovered =
      if reanneal_iterations <= 0 then []
      else begin
        (* Fan the annealing runs out (one task per quarantined box, on
           its own stream, against the survivors' boxes), then admit
           sequentially in ascending quarantine order.  Admission
           re-checks disjointness against everything already kept —
           quarantined boxes may overlap each other — and enforces the
           [max_reanneals] cap, so the outcome matches at any job
           count. *)
        let survivor_boxes = List.map (fun (_, s) -> s.Stored.box) survivors in
        let order = Array.of_list (List.rev !quarantined) in
        let candidate i =
          let s = stored.(i) in
          if s.Stored.template_like then None
          else
            reanneal_box ~iterations:reanneal_iterations
              (Mps_rng.Rng.split root (1 + i))
              circuit ~die_w ~die_h survivor_boxes s
        in
        let candidates =
          match pool with
          | Some pool -> Mps_parallel.Pool.map pool (fun ~worker:_ -> candidate) order
          | None -> Array.map candidate order
        in
        let kept_boxes = ref survivor_boxes in
        Array.to_list candidates
        |> List.filter_map (fun c ->
               match c with
               | Some fresh
                 when !reannealed < max_reanneals
                      && not
                           (List.exists
                              (Dimbox.overlaps fresh.Stored.box)
                              !kept_boxes) ->
                 incr reannealed;
                 kept_boxes := fresh.Stored.box :: !kept_boxes;
                 Some fresh
               | _ -> None)
      end
    in
    (* 4. Recompile leniently — belt and braces against residual
       overlaps — and re-audit. *)
    let admitted = Array.of_list (List.map snd survivors @ recovered) in
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
    let after = Audit.run ?pool structure' in
    {
      structure = structure';
      before;
      after;
      quarantined = List.sort Int.compare !quarantined;
      repaired_in_place = !repaired_in_place;
      reannealed = !reannealed;
      backup_rebuilt;
    }
    end
    with _ ->
      (* the repair pass must never raise: an unexpected failure leaves
         the original structure un-repaired, visibly non-clean *)
      {
        structure;
        before;
        after = before;
        quarantined = [];
        repaired_in_place = 0;
        reannealed = 0;
        backup_rebuilt = false;
      }

let describe outcome =
  Printf.sprintf
    "repair: %d quarantined, %d repaired in place, %d re-annealed, backup %s; before: \
     %d fatal / %d degraded; after: %s"
    (List.length outcome.quarantined)
    outcome.repaired_in_place outcome.reannealed
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

(* Keep the intact records (file order) whose boxes are disjoint from
   every one kept before, so the result never violates eq. 5,
   recompile, then audit and repair — syntactically intact is not
   semantically sound (re-annealing stays off on the load path). *)
let salvage_string ~circuit raw =
  match
    Zcodec.salvage_parts ~circuit (Zcodec.words_of_string raw) ~bytes:(String.length raw)
  with
  | Error e -> Error e
  | Ok r ->
    let kept =
      List.rev
        (List.fold_left
           (fun kept (s : Stored.t) ->
             if List.exists (fun k -> Dimbox.overlaps k.Stored.box s.Stored.box) kept then
               kept
             else s :: kept)
           [] r.Zcodec.r_stored)
    in
    let backup = r.Zcodec.r_backup in
    let stored =
      match (kept, backup) with [], Some b -> [| b |] | ks, _ -> Array.of_list ks
    in
    if Array.length stored = 0 then
      Error (Zcodec.Corrupt { section = "PLCT"; reason = "no intact placement recovered" })
    else
      let structure =
        match Structure.of_placements ?backup circuit stored with
        | s -> s
        | exception Invalid_argument _ ->
          (* kept boxes are pairwise disjoint by construction — but
             never let salvage blow up *)
          Structure.of_placements circuit [| stored.(0) |]
      in
      let recovered = List.length kept in
      Ok
        {
          outcome = run structure;
          recovered;
          dropped = max (r.Zcodec.r_claimed - recovered) 0;
          backup_recovered = backup <> None;
          checksum_ok = r.Zcodec.r_crc_ok;
        }

let salvage ~circuit ~path =
  match Persist.read_file ~path with
  | raw -> salvage_string ~circuit raw
  | exception Sys_error msg -> Error (Zcodec.Io_error msg)
