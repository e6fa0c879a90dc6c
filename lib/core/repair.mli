(** Quarantine & repair for flawed multi-placement structures.

    Takes any {!Structure.t} — typically one recovered from a damaged
    container by {!salvage} — and drives it toward an audit-clean
    state:

    - placements with [Fatal] findings ({!Audit}) are quarantined
      (dropped); their dimension territory falls to the backup template,
      the paper's §3.1.4 answer for uncovered space (greedy re-packing),
      and {!Generator.extend} re-covers it with the explorer and its
      admission test;
    - [Degraded] cost-field findings are repaired in place: the box is
      clamped into the designer domain and [best_cost] is re-evaluated
      at [best_dims];
    - a broken backup is replaced: the best surviving placement that is
      legal at the minimum dimensions is promoted to template duty,
      else {!Generator.backup} builds a fresh one;
    - template-like pieces follow the backup: one whose placement is
      not the (possibly new) backup's is dropped, and its territory
      falls to the backup;
    - the rebuilt structure is re-audited.

    Never raises: when nothing at all can be rebuilt the original
    structure is returned with a non-clean [after] report. *)

type outcome = {
  structure : Structure.t;  (** The repaired structure. *)
  before : Audit.report;
  after : Audit.report;  (** Audit of [structure]. *)
  quarantined : int list;
      (** Indices (into the input structure's placement array) that
          were dropped. *)
  repaired_in_place : int;  (** Placements with refreshed cost fields/boxes. *)
  backup_rebuilt : bool;
}

val clean : outcome -> bool
(** The [after] report is audit-clean. *)

val run : ?pool:Mps_parallel.Pool.t -> Structure.t -> outcome
(** Audit, quarantine, repair, re-audit.  The input structure is not
    mutated.  Returns the input structure unchanged (with [after =
    before]) when it is already clean.  Both audits are {!Audit.run}
    with its defaults.  [pool] fans out the audits (per stored
    placement) and a backup rebuild (per annealing restart); the
    outcome is identical with or without a pool, at any job count. *)

val describe : outcome -> string
(** One-paragraph human-readable summary. *)

(** Result of a graceful-degradation load from a damaged container. *)
type salvage = {
  outcome : outcome;
      (** {!run} over the structure recompiled from the intact records:
          [outcome.structure] answers queries (over dropped or
          quarantined territory, from the backup placement) and
          [outcome.after] is its audit. *)
  recovered : int;  (** Intact stored records kept. *)
  dropped : int;  (** Stored records lost to damage or overlap. *)
  backup_recovered : bool;
      (** Whether the backup record survived; when [false] the best
          recovered placement stands in. *)
  checksum_ok : bool;
      (** The header and every section CRC matched — i.e. a strict
          load would not have refused the file for damage. *)
}

val salvage_string :
  circuit:Mps_netlist.Circuit.t -> string -> (salvage, Zcodec.error) result
(** Best-effort read of an MPSZ container: collect the records that
    still decode ({!Zcodec.salvage_parts}), recompile them with
    {!Structure.of_placements_lenient} — the result never violates
    eq. 5 — then {!run}.  [Error] when the header is unusable
    ([Corrupt]), the circuit does not match ([Circuit_mismatch]), or
    not a single placement survived.  Never raises. *)

val salvage :
  circuit:Mps_netlist.Circuit.t -> path:string -> (salvage, Zcodec.error) result
(** {!salvage_string} on a file; [Error (Io_error _)] when it cannot be
    read. *)
