(** MPSZ: the structure file — the zero-copy binary container every
    [mpsgen] command writes, the daemon serves and a checkpoint
    ({!Checkpoint}) is made of (DESIGN.md §12).  It is the one format
    the program reads back; the v2 text document ({!Codec}) is a
    write-only dump ([mpsgen dump]).

    A text document stores placements and recompiles on parse — O(n²)
    overlap validation, plan compilation.  MPSZ stores the {e compiled
    engine} itself: the flat
    int vectors of {!Structure.Engine} as little-endian 8-byte words,
    prefixed by a self-describing section table.  Loading maps the file
    read-only ({!Persist.map_words}) and wraps the mapped words as an
    engine ({!Structure.Engine.of_flat}) — no parsing, no
    recompilation, O(placements) work to rebuild the small
    {!Stored.t} records and O(1) for the bulk interval/bitset tables,
    which stay on the page cache and are shared by every process
    mapping the same file.

    Layout (every value one 8-byte little-endian word; ASCII tags and
    the circuit name are packed 4 bytes per word so no stored word ever
    sets bit 63, which the int-bigarray lens would drop):

    {v
    word 0   magic "MPSZ0001"
    word 1   format version (1)
    word 2   total words      word 3   header words
    word 4   n_blocks         word 5   n_nets
    word 6   die_w            word 7   die_h
    word 8   n_stored         word 9   n_pool
    word 10  words_per_set    word 11  skipped_rows
    word 12  name bytes, then the packed name
    section table: 12 or 13 x (tag, offset, length, crc32)
    header crc32, then the sections, contiguous and in table order
    v}

    Sections [ROWA ROWO LOWS HIGH SETW DOML DOMH BOXL BOXH BIND] are
    the {!Structure.Engine.flat} vectors verbatim.  [POOL] holds the
    coordinate pool, deduplicated by content: placements with equal
    coordinates (the backup's template pieces) store them once, so
    equal structures pack to the same bytes however their arrays are
    shared.  [PLCT] holds one fixed-stride record per placement — pool
    index, template flag, costs as split IEEE-754 words, best dims,
    validity and expansion boxes — with the backup template as the
    final record.  Every table slot must carry exactly its tag.  A checkpoint
    appends a thirteenth section, [GENS]: the generator's resumable
    state, opaque words under the same CRC discipline ({!to_string}
    with [~state]).  A plain structure has no [GENS] slot, so its bytes
    do not depend on this option.

    Every CRC is computed through the same int lens the loader reads
    with ({!Persist.crc32_words}), so save-side and mapped-side
    checksums agree bit for bit.  A corrupted file is detected at load
    (every load checks the header and every section CRC) or, when
    damage lands {e under a live mapping}, degrades to
    wrong-but-in-bounds answers: the engine's shape guards make that
    memory-safe, and remapping re-verifies. *)

open Mps_netlist

(** Why a container could not be decoded. *)
type error =
  | Io_error of string  (** The file could not be read or mapped. *)
  | Corrupt of { section : string; reason : string }
      (** Malformed content; [section] is a table tag, ["header"] or
          ["engine"]. *)
  | Circuit_mismatch of string
      (** The container is intact but was generated for another
          circuit. *)

exception Error of error

val error_to_string : error -> string
(** One-line human-readable rendering (used verbatim by the CLI). *)

val format_version : int
(** The version {!to_string} writes (currently 1); any other version is
    refused as [Corrupt]. *)

val magic : string
(** The 8-byte container magic, ["MPSZ0001"]. *)

val float_words : float -> int * int
(** A float's IEEE-754 image as (high, low) 32-bit words — how the
    container stores costs bit-exactly. *)

val float_of_words : int -> int -> float
(** Inverse of {!float_words}. *)

val string_words : string -> int array
(** ASCII packed 4 bytes per word, low byte first (the circuit name's
    layout). *)

val string_of_words : Persist.words -> pos:int -> len:int -> string
(** Inverse of {!string_words}: [len] bytes from the words at [pos]. *)

(** One section-table entry, for size accounting ([mpsgen stats]). *)
type section = { tag : string; off_words : int; len_words : int }

(** A loaded container: a ready engine plus the size breakdown. *)
type view = {
  engine : Structure.Engine.t;
      (** Query-ready; {!Structure.Engine.structure} runs the eq. 5
          check once and hands it out as a structure. *)
  n_stored : int;  (** Stored placements (backup excluded). *)
  n_pool : int;  (** Distinct coordinate arrays in the pool. *)
  bytes : int;  (** Container size on disk. *)
  sections : section list;  (** In file order. *)
  state : Persist.words option;
      (** The CRC-verified [GENS] section, when the container is a
          checkpoint ({!Checkpoint}). *)
}

val to_string : ?state:int array -> Structure.t -> string
(** Serialize: compiles the engine ({!Structure.Engine.create}) and
    writes its flat vectors plus the pooled placement records.

    [state] appends the words as the [GENS] section; only
    {!Checkpoint} writes one. *)

val save : ?state:int array -> Structure.t -> path:string -> unit
(** {!to_string} through {!Persist.atomic_write}: crash-safe replace.
    @raise Error ([Io_error]) when the file cannot be written. *)

val of_string : circuit:Circuit.t -> string -> view
(** Decode from bytes already in memory (copied into a private word
    array; the zero-copy path is {!load}).  Checks the header CRC and
    every section CRC.
    @raise Error on damage ([Corrupt]) or the wrong circuit
    ([Circuit_mismatch]). *)

val load : circuit:Circuit.t -> string -> view
(** [load ~circuit path]: map the file at [path] and wrap it as an
    engine.  The bulk engine tables are
    zero-copy views of the mapping; only the per-placement records are
    materialized.  @raise Error — [Io_error] when the file cannot be
    mapped, otherwise as {!of_string}. *)

(** What a best-effort scan of a damaged container recovered; feed to
    {!Repair} to rebuild (that is what {!Repair.salvage} does). *)
type recovered = {
  r_stored : Stored.t list;  (** Intact stored-placement records, file order. *)
  r_backup : Stored.t option;  (** The backup record (the last), if intact. *)
  r_claimed : int;  (** Stored-placement count the header claims. *)
  r_crc_ok : bool;  (** Header and every section CRC matched. *)
}

val words_of_string : string -> Persist.words
(** The in-memory counterpart of {!Persist.map_words}: copy a byte
    string into a word array through the same int lens a mapping uses
    (bit 63 of each stored word is dropped), so string and mapped
    parses agree on any input.  For feeding already-read bytes to
    {!salvage_parts}. *)

val salvage_parts :
  circuit:Circuit.t -> Persist.words -> bytes:int -> (recovered, error) result
(** Scan a (possibly damaged) container for intact placement records,
    skipping records that fail to decode (a box bound outside
    [1 .. 2{^30}] counts as a failure).  Only the fixed header and
    the [POOL]/[PLCT] table entries must be usable; the engine sections
    may be arbitrarily damaged (salvage recompiles from placements
    anyway), and a pool or record table cut short by truncation yields
    the whole records still present.  [Error] when the header or the
    [POOL]/[PLCT] table entries are unusable ([Corrupt], naming the
    section) or the circuit does not match ([Circuit_mismatch]). *)
