(** Low-level durability primitives shared by {!Codec} and
    {!Checkpoint}: payload checksums and crash-safe file replacement.

    Nothing here knows about the structure format; it only moves bytes
    safely.  All file errors surface as [Sys_error] so callers can map
    them into their own typed errors.

    Every file operation routes through an injectable {!io} backend so
    a fault-injection harness ({!Mps_fault.Fault}) can deterministically
    fail, truncate or corrupt any single primitive — the foundation of
    the chaos test suite. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG checksum) of the whole
    string. *)

val crc32_hex : string -> string
(** {!crc32} rendered as 8 lowercase hex digits — the token written on
    checksum lines. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A read-only word view of a file: every 8 little-endian bytes is one
    OCaml int.  The substrate of the MPSZ zero-copy format
    ({!Zcodec}). *)

val crc32_words : words -> pos:int -> len:int -> int32
(** CRC-32 of [len] words starting at [pos], each word contributing the
    8 little-endian bytes of its [Int64.of_int] image — byte-identical
    to {!crc32} of the same range as serialized by the MPSZ writer, so
    save-side (string) and load-side (mapped ints) checksums agree. *)

(** The pluggable I/O backend.  Each primitive raises [Sys_error] on
    failure, like its stdlib counterpart. *)
type io = {
  read_file : string -> string;  (** Whole file as a string. *)
  write_file : string -> string -> unit;
      (** Create/truncate and write all bytes, flushed and fsynced. *)
  rename : string -> string -> unit;
  fsync_dir : string -> unit;
      (** Fsync a directory so a completed rename survives power loss;
          best effort where unsupported. *)
  remove : string -> unit;
  map_words : string -> words * int;
      (** Map the whole file read-only as little-endian 8-byte words
          (a private mapping: the file cannot be modified through the
          view, and an {!atomic_write} rename replaces the inode
          without disturbing existing views).  Returns the view and
          the exact file size in bytes (the view covers the largest
          whole-word prefix). *)
}

val default_io : io
(** The real filesystem. *)

val with_io : io -> (unit -> 'a) -> 'a
(** Run a thunk with the given backend installed, restoring the
    previous backend afterwards (also on exceptions). *)

val atomic_write : path:string -> string -> unit
(** Replace the file at [path] with the given contents atomically:
    write a fresh temporary file in the {e same} directory, flush and
    fsync it, [rename] over the destination, then fsync the containing
    directory so the replacement itself is durable.  A crash at any
    point leaves either the old complete file or the new complete file,
    never a truncated mix; a failed write or rename unlinks the
    temporary file before the error surfaces (no [*.tmp] litter).
    Temporary names embed the writer's pid and a process-wide atomic
    counter, so concurrent writers — threads, domains or separate
    processes racing on the same [path] — never share a temporary
    file: the destination always ends up as {e some} writer's complete
    document.
    @raise Sys_error when the directory is not writable or the rename
    fails. *)

val read_file : path:string -> string
(** The whole file as a string.  @raise Sys_error when the file is
    missing or unreadable. *)

val map_words : path:string -> words * int
(** The whole file as a mapped word view plus its byte size, through
    the current {!io} backend.  @raise Sys_error when the file is
    missing or the mapping fails. *)

val map_shared : ?size:int -> path:string -> unit -> words * int
(** A {e read-write, MAP_SHARED} word view of the file: stores through
    the view land in the shared pages and are visible to every other
    process mapping the same file — the substrate of the shm ring
    transport ({!Mps_serve.Shm}).  [size = Some n] creates the file if
    needed and truncates it to [n] bytes first (the ring owner);
    [size = None] maps the existing file as-is (the attaching peer).
    Bypasses the injectable {!io} backend on purpose: ring faults are
    injected at the frame level, not the mapping level.
    @raise Sys_error when the open, truncate or mapping fails. *)
