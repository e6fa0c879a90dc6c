(** The v2 text document: a line-oriented dump of a structure.

    The structure file every command writes and the daemon serves is
    the MPSZ container ({!Zcodec}).  This codec is its human-readable
    counterpart: [mpsgen pack] converts between the two (for diffs and
    debugging), {!Checkpoint} embeds it, and the pinned structure hash
    is taken over it.  The circuit itself is not stored — parsing
    requires the same circuit and validates its identity (name, block
    count, net count).

    {v
    mps-structure v2
    checksum <8 hex digits>      CRC-32 of every byte after this line
    circuit <blocks> <nets> <name>
    die <w> <h>
    placements <count>
    <placement sections...>
    backup
    <placement section>
    v}

    Any other first line fails with a clean one-line [Corrupt].
    {!save} is atomic — a crash mid-save leaves the previous complete
    file in place, never a truncated mix.

    {!load_salvage} is the one recovery entry point for either format:
    it sniffs the MPSZ magic, and for a container scans its record
    table, for a text document its placement sections; both feed the
    same overlap filter, recompile and audit-and-repair pass. *)

open Mps_netlist

(** Why a document could not be decoded. *)
type error =
  | Io_error of string  (** The file could not be read or written. *)
  | Corrupt of { lineno : int; reason : string }
      (** Malformed content: checksum mismatch, truncation, or a bad
          line.  [lineno] is 1-based in the physical file; [0] when
          a salvaged MPSZ container was beyond recovery. *)
  | Circuit_mismatch of string
      (** The document is intact but was generated for another
          circuit. *)

exception Error of error

val error_to_string : error -> string
(** One-line human-readable rendering (used verbatim by the CLI). *)

val format_version : int
(** The version number {!to_string} writes (currently 2). *)

val to_string : Structure.t -> string
(** Serialize: version + checksum header, identity, die, every stored
    placement, backup. *)

val of_string : circuit:Circuit.t -> string -> Structure.t
(** Parse and recompile.  @raise Error on a malformed document
    ([Corrupt]) or a circuit mismatch ([Circuit_mismatch]). *)

val save : Structure.t -> path:string -> unit
(** Atomic replace: temp file in the same directory, fsync, rename.
    @raise Error ([Io_error]) when the file cannot be written. *)

val load : circuit:Circuit.t -> path:string -> Structure.t
(** @raise Error — [Io_error] when the file cannot be read, [Corrupt]
    on a malformed document, [Circuit_mismatch] on the wrong
    circuit. *)

(** Result of a graceful-degradation load from a damaged file. *)
type salvage = {
  structure : Structure.t;
      (** Recompiled from the intact placements only, then audited and
          repaired ({!Audit}, {!Repair}); queries over dropped or
          quarantined territory fall back to the backup placement. *)
  recovered : int;  (** Syntactically intact stored placements kept. *)
  dropped : int;  (** Stored placements lost to corruption or overlap. *)
  quarantined : int;
      (** Recovered placements that failed the semantic audit and were
          quarantined by the repair pass. *)
  backup_recovered : bool;
      (** Whether the backup section itself survived; when [false] the
          best recovered placement stands in. *)
  checksum_ok : bool;
      (** [false] when the checksum line is absent, unparseable or does
          not match — i.e. whenever {!load} would have refused; for a
          container, when the header or any section CRC fails. *)
  audit : Audit.report;
      (** Post-repair audit of [structure]; {!Audit.clean} here means
          the salvaged structure re-proves every invariant. *)
}

val salvage_of_string : circuit:Circuit.t -> string -> (salvage, error) result
(** Best-effort parse of a text document or an MPSZ container: collect
    the intact placements (a text scan resynchronizes on the next
    [placement] line past a damaged section; a container scan skips
    records that fail to decode, {!Zcodec.salvage_parts}), drop any
    placement whose validity box overlaps an already-recovered one —
    the result never violates eq. 5 — and recompile via
    {!Structure.of_placements}.  [Error] only when the identity header
    is unusable ([Corrupt]), the circuit does not match
    ([Circuit_mismatch]), or not a single placement survived. *)

val load_salvage : circuit:Circuit.t -> path:string -> (salvage, error) result
(** {!salvage_of_string} on a file; [Error (Io_error _)] when it cannot
    be read. *)
