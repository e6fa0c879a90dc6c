(* CRC-32, IEEE 802.3 reflected polynomial 0xedb88320 (the zlib/PNG
   variant), table-driven one byte at a time.  The state and the table
   live in unboxed native ints (the value always fits 32 bits) — this
   is the hot loop of container verification, and boxed [Int32]
   arithmetic costs an allocation per byte. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFF_FFFF in
  for p = 0 to String.length s - 1 do
    crc := Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s p)) land 0xff) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFF_FFFF)

let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

(* A read-only word view of a file: every 8 bytes, little-endian, is
   one OCaml int.  This is the substrate of the MPSZ zero-copy format
   (Zcodec): the file is mapped once and the engine's flat arrays are
   [Array1.sub] views into it. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* CRC-32 of a word range "through the int lens": each word contributes
   the 8 little-endian bytes of its [Int64.of_int] image.  The writer
   serializes words exactly that way ([Buffer.add_int64_le] of
   [Int64.of_int v]), so the CRC of the stored bytes and the CRC of the
   mapped ints agree for every value that round-trips through the
   63-bit int kind — and a stored word whose top bit is set (never
   produced by the writer, only by corruption) fails the comparison,
   which is exactly what we want. *)
(* Slicing-by-8: [tables.(k).(b)] is the CRC contribution of byte [b]
   followed by [k] zero bytes.  One 8-byte word per iteration, eight
   independent lookups — container verification is the cold-load hot
   loop, and the byte-at-a-time dependency chain would dominate it. *)
let crc_tables8 =
  lazy
    (let t0 = Lazy.force crc_table in
     let t = Array.init 8 (fun k -> if k = 0 then t0 else Array.make 256 0) in
     for k = 1 to 7 do
       for i = 0 to 255 do
         let p = t.(k - 1).(i) in
         t.(k).(i) <- (p lsr 8) lxor t0.(p land 0xff)
       done
     done;
     t)

let crc32_words (w : words) ~pos ~len =
  let t = Lazy.force crc_tables8 in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let g = Array.unsafe_get in
  let crc = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    let v = w.{i} in
    let x = !crc lxor (v land 0xFFFF_FFFF) in
    crc :=
      g t7 (x land 0xff)
      lxor g t6 ((x lsr 8) land 0xff)
      lxor g t5 ((x lsr 16) land 0xff)
      lxor g t4 ((x lsr 24) land 0xff)
      lxor g t3 ((v lsr 32) land 0xff)
      lxor g t2 ((v lsr 40) land 0xff)
      lxor g t1 ((v lsr 48) land 0xff)
      (* byte 7 of the [Int64.of_int] image: bits 56..62 plus the
         sign bit replicated into bit 63 — [asr] reproduces it *)
      lxor g t0 ((v asr 56) land 0xff)
  done;
  Int32.of_int (!crc lxor 0xFFFF_FFFF)

(* Injectable I/O backend.  Every primitive the persistence stack
   touches goes through the current [io] record, so a fault-injection
   harness (Mps_fault) can deterministically fail or corrupt any single
   operation without patching syscalls.  All primitives raise
   [Sys_error] on failure, like their stdlib counterparts. *)

type io = {
  read_file : string -> string;
  write_file : string -> string -> unit;
      (** Create/truncate the file and write all bytes, flushed and
          fsynced. *)
  rename : string -> string -> unit;
  fsync_dir : string -> unit;
  remove : string -> unit;
  map_words : string -> words * int;
      (** Map the whole file read-only as little-endian 8-byte words,
          returning the view and the exact file size in bytes. *)
}

let real_read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let real_write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      flush oc;
      (* fsync before rename: the rename must not become durable
         before the data it points at. *)
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> () (* fsync unsupported (some FS): best effort *))

let real_fsync_dir dir =
  (* Durability of the rename itself: without a directory fsync the
     new directory entry can be lost on power failure even though the
     file data was synced.  Best effort where unsupported. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* The mapping is private (MAP_PRIVATE over an O_RDONLY fd — the only
   read-only mapping [Unix.map_file] can express, since it always asks
   for write protection): nothing we do can reach the file through the
   view, and [atomic_write]'s rename-replacement leaves existing
   mappings on the old inode untouched (hot reload simply maps the new
   file).  The fault suite models damage landing under an active
   mapping by flipping words of a private copy, not the file. *)
let real_map_words path =
  let fd =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | fd -> fd
    | exception Unix.Unix_error (err, fn, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s(%s)" path (Unix.error_message err) fn))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let bytes =
        match (Unix.fstat fd).Unix.st_size with
        | n -> n
        | exception Unix.Unix_error (err, fn, _) ->
          raise (Sys_error (Printf.sprintf "%s: %s(%s)" path (Unix.error_message err) fn))
      in
      let nwords = bytes / 8 in
      match Unix.map_file fd Bigarray.int Bigarray.c_layout false [| nwords |] with
      | genarray -> (Bigarray.array1_of_genarray genarray, bytes)
      | exception Unix.Unix_error (err, fn, _) ->
        raise (Sys_error (Printf.sprintf "%s: %s(%s)" path (Unix.error_message err) fn)))

(* A read-write MAP_SHARED word view — the substrate of the shm ring
   transport (Mps_serve.Shm): both sides of a session map the same
   file-backed ring and stores become visible to the peer without a
   syscall.  [size = Some n] creates (or truncates) the file at [n]
   bytes first, which is the server/owner side; [size = None] maps an
   existing file as-is, the client/attach side.  Deliberately NOT part
   of the injectable {!io} record: ring faults are modelled at the
   frame level (Mps_serve.Shm hooks), not the mapping level. *)
let map_shared ?size ~path () =
  let flags, perm =
    match size with
    | Some _ -> ([ Unix.O_RDWR; Unix.O_CREAT ], 0o600)
    | None -> ([ Unix.O_RDWR ], 0)
  in
  let fd =
    match Unix.openfile path flags perm with
    | fd -> fd
    | exception Unix.Unix_error (err, fn, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s(%s)" path (Unix.error_message err) fn))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        let bytes =
          match size with
          | Some n ->
            Unix.ftruncate fd n;
            n
          | None -> (Unix.fstat fd).Unix.st_size
        in
        let nwords = bytes / 8 in
        ( Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| nwords |]),
          bytes )
      with
      | view -> view
      | exception Unix.Unix_error (err, fn, _) ->
        raise (Sys_error (Printf.sprintf "%s: %s(%s)" path (Unix.error_message err) fn)))

let default_io =
  {
    read_file = real_read_file;
    write_file = real_write_file;
    rename = Sys.rename;
    fsync_dir = real_fsync_dir;
    remove = Sys.remove;
    map_words = real_map_words;
  }

let io_ref = ref default_io

let with_io io f =
  let saved = !io_ref in
  io_ref := io;
  Fun.protect ~finally:(fun () -> io_ref := saved) f

(* Temp names must be unique per writer: pid separates processes,
   the atomic counter separates threads and domains within one.  (The
   previous Filename.temp_file scheme also pre-created the file
   through the real filesystem, bypassing the injected io.) *)
let tmp_counter = Atomic.make 0

let atomic_write ~path content =
  let io = !io_ref in
  let dir = Filename.dirname path in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    io.write_file tmp content;
    io.rename tmp path;
    io.fsync_dir dir
  with
  | () -> ()
  | exception e ->
    (* No stale temp litter: whether the write or the rename failed,
       the temporary file is unlinked before the error surfaces.  Use
       the real remove — the injected one may be the failing op. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    (match e with
    | Sys_error _ -> raise e
    | Unix.Unix_error (err, fn, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s(%s)" path (Unix.error_message err) fn))
    | e -> raise e)

let read_file ~path = !io_ref.read_file path
let map_words ~path = !io_ref.map_words path
