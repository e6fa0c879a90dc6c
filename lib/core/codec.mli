(** The v2 text document: a line-oriented dump of a structure.

    The structure file every command writes, the daemon serves and a
    checkpoint is made of is the MPSZ container ({!Zcodec}); it is the
    one format the program reads back.  This codec is its
    human-readable dump: [mpsgen dump] writes it (for diffs and
    debugging), and every pinned structure hash is a CRC of
    {!to_string}.  {!of_string} / {!load} stay as a strict reader for
    tools that keep a text cache; nothing in the program reads a text
    document, and there is no text salvage.  The circuit itself is not
    stored — parsing requires the same circuit and validates its
    identity (name, block count, net count).

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
    file in place, never a truncated mix. *)

open Mps_netlist

(** Why a document could not be decoded. *)
type error =
  | Io_error of string  (** The file could not be read or written. *)
  | Corrupt of { lineno : int; reason : string }
      (** Malformed content: checksum mismatch, truncation, or a bad
          line.  [lineno] is 1-based in the physical file. *)
  | Circuit_mismatch of string
      (** The document is intact but was generated for another
          circuit. *)

exception Error of error

val error_to_string : error -> string
(** One-line human-readable rendering (used verbatim by the CLI). *)

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
