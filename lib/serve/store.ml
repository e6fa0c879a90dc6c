open Mps_netlist
open Mps_core

type error =
  | Unknown_circuit of string
  | Unreadable of { path : string; reason : string }
  | Corrupt of { path : string; reason : string }

let error_to_string = function
  | Unknown_circuit name -> Printf.sprintf "unknown circuit %S" name
  | Unreadable { path; reason } -> Printf.sprintf "%s: unreadable: %s" path reason
  | Corrupt { path; reason } -> Printf.sprintf "%s: corrupt: %s" path reason

type entry = {
  name : string;
  path : string;
  circuit : Circuit.t;
  engine : Structure.Engine.t;
  epoch : int;
  degraded : bool;
  backup_only : bool;
  findings : int;
  salvaged : bool;
  bytes : int;
  mtime : float;
}

(* A loaded entry with its bookkeeping, all under the store lock. *)
type ready = {
  entry : entry;
  mutable used : int;  (* LRU stamp *)
  mutable checked : float;  (* last staleness stat *)
  mutable changed : bool;  (* the refresher saw the file change *)
}

(* A slot is [Loading] while some thread builds the entry outside the
   lock; everyone else waits on [cond] instead of loading twice. *)
type slot = Ready of ready | Loading

type stat_counts = { refresher : int; request_path : int }

type t = {
  dir : string;
  capacity : int;
  stat_interval : float;
  mutex : Mutex.t;
  cond : Condition.t;
  slots : (string, slot) Hashtbl.t;
  epochs : (string, int) Hashtbl.t;  (* survives eviction *)
  clock : int ref;  (* LRU stamp source *)
  refresher_stats : int Atomic.t;
  request_stats : int Atomic.t;
}

(* On-disk bytes of mapped containers the store keeps referenced
   before it evicts mapped entries. *)
let max_mapped_bytes = 512 * 1024 * 1024

let create ?(capacity = 8) ?(stat_interval = 0.0) ~dir () =
  if capacity < 1 then invalid_arg "Store.create: capacity < 1";
  if stat_interval < 0.0 then invalid_arg "Store.create: stat_interval < 0";
  {
    dir;
    capacity;
    stat_interval;
    mutex = Mutex.create ();
    cond = Condition.create ();
    slots = Hashtbl.create 16;
    epochs = Hashtbl.create 16;
    clock = ref 0;
    refresher_stats = Atomic.make 0;
    request_stats = Atomic.make 0;
  }

let dir t = t.dir

let stat_counts t =
  { refresher = Atomic.get t.refresher_stats; request_path = Atomic.get t.request_stats }

let zpath_for t name =
  Filename.concat t.dir (String.map (function ' ' -> '_' | c -> c) name ^ ".mpsz")

(* Build an entry from disk.  Runs outside the store lock — salvage may
   take a while on big structures.

   The container maps zero-copy ({!Zcodec.load}) instead of
   recompiling, and its CRC verification stands in for a load-time
   audit: it stores the already-audited compiled engine bit-exact, so
   re-auditing would re-prove what the checksum just proved.  A
   damaged container is salvaged from its own record table, typed and
   flagged degraded; every step is typed, never a crash. *)
let build t name =
  match Benchmarks.by_name name with
  | exception Not_found -> Error (Unknown_circuit name)
  | circuit -> (
    let path = zpath_for t name in
    match Unix.stat path with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Unreadable { path; reason = Unix.error_message err })
    | st -> (
      let mtime = st.Unix.st_mtime in
      match Zcodec.load ~circuit path with
      | view ->
        Ok
          {
            name;
            path;
            circuit;
            engine = view.Zcodec.engine;
            epoch = 0 (* stamped under the lock *);
            degraded = false;
            backup_only = false;
            findings = 0;
            salvaged = false;
            bytes = view.Zcodec.bytes;
            mtime;
          }
      | exception Zcodec.Error (Zcodec.Io_error reason) -> Error (Unreadable { path; reason })
      | exception Zcodec.Error (Zcodec.Circuit_mismatch reason) ->
        Error (Corrupt { path; reason })
      | exception Zcodec.Error (Zcodec.Corrupt _) -> (
        (* the salvage pass audits and repairs internally; territory
           was lost, so the entry is degraded even when it audits
           clean, and backup-only when it does not *)
        match Repair.salvage ~circuit ~path with
        | Ok sv ->
          let outcome = sv.Repair.outcome in
          Ok
            {
              name;
              path;
              circuit;
              engine = Structure.Engine.create outcome.Repair.structure;
              epoch = 0;
              degraded = true;
              backup_only = not (Repair.clean outcome);
              findings = List.length outcome.Repair.after.Audit.findings;
              salvaged = true;
              bytes = st.Unix.st_size;
              mtime;
            }
        | Error (Zcodec.Io_error reason) -> Error (Unreadable { path; reason })
        | Error e -> Error (Corrupt { path; reason = Zcodec.error_to_string e }))))

let touch t r =
  incr t.clock;
  r.used <- !(t.clock)

(* LRU eviction on two budgets: entry count and total mapped bytes.
   Evicting only drops the table's reference — an engine (and its
   file mapping) stays alive exactly as long as some in-flight request
   still holds the entry; the mapping is released when the last
   reference dies.  The most recently used entry is never evicted, so
   a single container bigger than the byte budget still serves. *)
let evict_beyond_capacity t =
  let ready = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Ready r -> ready := (name, r.used, r.entry) :: !ready
      | Loading -> ())
    t.slots;
  let by_lru =
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) !ready
    (* oldest first *)
  in
  let total = List.length by_lru in
  let mapped e = not e.salvaged in
  let mapped_bytes =
    List.fold_left (fun acc (_, _, e) -> if mapped e then acc + e.bytes else acc) 0 by_lru
  in
  let excess_entries = ref (total - t.capacity) in
  let excess_bytes = ref (mapped_bytes - max_mapped_bytes) in
  List.iteri
    (fun i (name, _, e) ->
      let keep_last = i = total - 1 in
      if
        (not keep_last)
        && (!excess_entries > 0 || (!excess_bytes > 0 && mapped e))
      then begin
        decr excess_entries;
        if mapped e then excess_bytes := !excess_bytes - e.bytes;
        Hashtbl.remove t.slots name
      end)
    by_lru

(* Publish a finished load (or clear the Loading marker on failure)
   and wake the waiters. *)
let publish t name result =
  Mutex.lock t.mutex;
  let result =
    match result with
    | Ok entry ->
      let epoch = 1 + (try Hashtbl.find t.epochs name with Not_found -> 0) in
      Hashtbl.replace t.epochs name epoch;
      let entry = { entry with epoch } in
      let r = { entry; used = 0; checked = Unix.gettimeofday (); changed = false } in
      touch t r;
      Hashtbl.replace t.slots name (Ready r);
      evict_beyond_capacity t;
      Ok entry
    | Error _ ->
      Hashtbl.remove t.slots name;
      result
  in
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  result

(* Never leave a [Loading] marker behind: an unexpected exception out
   of the load path becomes a typed [Corrupt] error (the server maps it
   to an [Err_store] reply) instead of wedging every waiter. *)
let load_and_publish t name =
  let result =
    try build t name
    with e ->
      Error
        (Corrupt
           { path = zpath_for t name; reason = "load exception: " ^ Printexc.to_string e })
  in
  publish t name result

(* One staleness stat: the file's mtime moved, or it vanished (reload
   to surface the typed error). *)
let changed_since t r =
  match Unix.stat (zpath_for t r.entry.name) with
  | st -> st.Unix.st_mtime <> r.entry.mtime
  | exception Unix.Unix_error _ -> true

let rec get_with ~force t name =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.slots name with
  | Some Loading ->
    (* someone else is loading this circuit: wait for the publish *)
    Condition.wait t.cond t.mutex;
    Mutex.unlock t.mutex;
    get_with ~force t name
  | Some (Ready r) ->
    let stale =
      force || r.changed
      ||
      (* A container rewritten in place (a repair, a regeneration)
         triggers a hot reload, which remaps it in O(1).  The stat is
         debounced to one per [stat_interval] per entry, and {!refresh}
         keeps it fresh off the request path, so a request stats only
         when a check is overdue: at serving rates a syscall on the
         request path is the single largest non-engine cost, and a
         reload picked up within the interval is all hot reload ever
         promised. *)
      let now = Unix.gettimeofday () in
      if t.stat_interval > 0.0 && now -. r.checked < t.stat_interval then false
      else begin
        r.checked <- now;
        Atomic.incr t.request_stats;
        changed_since t r
      end
    in
    if not stale then begin
      touch t r;
      Mutex.unlock t.mutex;
      Ok r.entry
    end
    else begin
      Hashtbl.replace t.slots name Loading;
      Mutex.unlock t.mutex;
      load_and_publish t name
    end
  | None ->
    Hashtbl.replace t.slots name Loading;
    Mutex.unlock t.mutex;
    load_and_publish t name

let get t name = get_with ~force:false t name
let reload t name = get_with ~force:true t name

(* Stat every entry whose last check is half an interval old, outside
   the lock, and mark a changed one for the next [get] to reload.  A
   record replaced meanwhile (a reload, an eviction) is never read
   again, so marking it is harmless. *)
let refresh t =
  if t.stat_interval > 0.0 then begin
    let now = Unix.gettimeofday () in
    Mutex.lock t.mutex;
    let due =
      Hashtbl.fold
        (fun _ slot acc ->
          match slot with
          | Ready r when (not r.changed) && now -. r.checked >= t.stat_interval /. 2.0 ->
            r :: acc
          | Ready _ | Loading -> acc)
        t.slots []
    in
    Mutex.unlock t.mutex;
    if due <> [] then begin
      let checked = List.map (fun r -> (r, changed_since t r)) due in
      ignore (Atomic.fetch_and_add t.refresher_stats (List.length due));
      Mutex.lock t.mutex;
      List.iter
        (fun (r, changed) ->
          r.checked <- now;
          r.changed <- changed)
        checked;
      Mutex.unlock t.mutex
    end
  end

(* Live entries, most recently used first. *)
let loaded t =
  Mutex.lock t.mutex;
  let entries = ref [] in
  Hashtbl.iter
    (fun _ -> function Ready r -> entries := (r.entry, r.used) :: !entries
      | Loading -> ())
    t.slots;
  Mutex.unlock t.mutex;
  List.sort (fun (_, a) (_, b) -> compare b a) !entries |> List.map fst

let describe t =
  let lines =
    loaded t
    |> List.map (fun e ->
           Printf.sprintf "%s: epoch %d, %s%s%d findings, %d placements, %d bytes"
             e.name e.epoch
             (if e.backup_only then "backup-only, "
              else if e.degraded then "degraded, "
              else "serving, ")
             (if e.salvaged then "salvaged, " else "mapped, ")
             e.findings
             (Structure.Engine.n_stored e.engine)
             e.bytes)
  in
  match lines with
  | [] -> Printf.sprintf "store %s: no circuits loaded\n" t.dir
  | ls -> String.concat "\n" ls ^ "\n"
