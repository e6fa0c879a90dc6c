open Mps_core

type op =
  | Read
  | Write
  | Rename
  | Fsync_dir
  | Remove
  | Map
  | Net_recv
  | Net_send
  | Net_accept
  | Worker_crash
  | Worker_stall
  | Shm_publish

type action =
  | Fail
  | Truncate of float
  | Corrupt of int
  | Vanish
  | Stall of float

type injection = {
  op : op;
  skip : int;
  action : action;
  seed : int;
}

type plan = injection list

let op_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Rename -> "rename"
  | Fsync_dir -> "fsync-dir"
  | Remove -> "remove"
  | Map -> "map"
  | Net_recv -> "net-recv"
  | Net_send -> "net-send"
  | Net_accept -> "net-accept"
  | Worker_crash -> "worker-crash"
  | Worker_stall -> "worker-stall"
  | Shm_publish -> "shm-publish"

let action_to_string = function
  | Fail -> "fail"
  | Truncate f -> Printf.sprintf "truncate to %.0f%%" (100.0 *. f)
  | Corrupt n -> Printf.sprintf "flip %d bits" n
  | Vanish -> "vanish"
  | Stall s -> Printf.sprintf "stall %.0f ms" (1000.0 *. s)

let describe plan =
  String.concat "\n"
    (List.map
       (fun inj ->
         Printf.sprintf "fault: %s #%d: %s (seed %d)" (op_to_string inj.op)
           (inj.skip + 1)
           (action_to_string inj.action)
           inj.seed)
       plan)

let flip_bits ~seed ~flips ?(from = 0) s =
  let len = String.length s in
  if len <= from then s
  else begin
    let rng = Mps_rng.Rng.create ~seed in
    let bytes = Bytes.of_string s in
    for _ = 1 to flips do
      let pos = from + Mps_rng.Rng.int rng (len - from) in
      let bit = Mps_rng.Rng.int rng 8 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)))
    done;
    Bytes.to_string bytes
  end

let truncated fraction s =
  let keep = int_of_float (fraction *. float_of_int (String.length s)) in
  String.sub s 0 (max 0 (min keep (String.length s)))

(* Seeded bit flips over a word view — the mmap-path counterpart of
   {!flip_bits}.  Flips land on bits 0..62 of each word (the 63 bits a
   stored word round-trips through the int bigarray kind), which is
   exactly the damage an in-place file flip produces as seen through
   an active mapping. *)
let flip_words ~seed ~flips (w : Mps_core.Persist.words) =
  let n = Bigarray.Array1.dim w in
  if n > 0 then begin
    let rng = Mps_rng.Rng.create ~seed in
    for _ = 1 to flips do
      let pos = Mps_rng.Rng.int rng n in
      let bit = Mps_rng.Rng.int rng 63 in
      w.{pos} <- w.{pos} lxor (1 lsl bit)
    done
  end

let random_action rng =
  match Mps_rng.Rng.int rng 4 with
  | 0 -> Fail
  | 1 -> Truncate (Mps_rng.Rng.float rng 0.95)
  | 2 -> Corrupt (1 + Mps_rng.Rng.int rng 16)
  | _ -> Vanish

let random_injection rng ops =
  {
    op = Mps_rng.Rng.choose rng ops;
    skip = Mps_rng.Rng.int rng 3;
    action = random_action rng;
    seed = Mps_rng.Rng.int rng 1_000_000;
  }

let plan_of rng ops =
  List.init (1 + Mps_rng.Rng.int rng 3) (fun _ -> random_injection rng ops)

let random_save_plan rng = plan_of rng [| Write; Rename; Fsync_dir |]
let random_read_plan rng = plan_of rng [| Read |]

let io_of_plan ?(base = Persist.default_io) plan =
  let counters = Hashtbl.create 8 in
  let fired = ref 0 in
  let pending = ref plan in
  (* Which injection, if any, fires on this invocation of [op]?  Each
     injection is armed for exactly one occurrence and then spent. *)
  let firing op =
    let n = try Hashtbl.find counters op with Not_found -> 0 in
    Hashtbl.replace counters op (n + 1);
    let rec pick acc = function
      | [] -> None
      | inj :: rest when inj.op = op && inj.skip = n ->
        pending := List.rev_append acc rest;
        incr fired;
        Some inj
      | inj :: rest -> pick (inj :: acc) rest
    in
    pick [] !pending
  in
  let fail path = raise (Sys_error (path ^ ": injected fault")) in
  let io =
    {
      Persist.read_file =
        (fun path ->
          match firing Read with
          | None -> base.Persist.read_file path
          | Some { action = Fail; _ } | Some { action = Vanish; _ } -> fail path
          | Some { action = Truncate f; _ } -> truncated f (base.Persist.read_file path)
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.Persist.read_file path
          | Some { action = Corrupt n; seed; _ } ->
            flip_bits ~seed ~flips:n (base.Persist.read_file path));
      write_file =
        (fun path content ->
          match firing Write with
          | None -> base.Persist.write_file path content
          | Some { action = Fail; _ } | Some { action = Vanish; _ } -> fail path
          | Some { action = Truncate f; _ } ->
            (* crash mid-write: the prefix lands, then the failure *)
            base.Persist.write_file path (truncated f content);
            fail path
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.Persist.write_file path content
          | Some { action = Corrupt n; seed; _ } ->
            (* crash with media corruption, before any rename publishes it *)
            base.Persist.write_file path (flip_bits ~seed ~flips:n content);
            fail path);
      rename =
        (fun src dst ->
          match firing Rename with
          | None -> base.Persist.rename src dst
          | Some { action = Vanish; _ } -> () (* rename silently lost *)
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.Persist.rename src dst
          | Some _ -> fail dst);
      fsync_dir =
        (fun dir ->
          match firing Fsync_dir with
          | None -> base.Persist.fsync_dir dir
          | Some { action = Vanish; _ } -> () (* fsync silently skipped *)
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.Persist.fsync_dir dir
          | Some _ -> fail dir);
      remove =
        (fun path ->
          match firing Remove with
          | None -> base.Persist.remove path
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.Persist.remove path
          | Some _ -> fail path);
      map_words =
        (fun path ->
          match firing Map with
          | None -> base.Persist.map_words path
          | Some { action = Fail; _ } | Some { action = Vanish; _ } -> fail path
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.Persist.map_words path
          | Some { action = Truncate f; _ } ->
            (* a short mapping: the file lost its tail (truncated
               section table and all) *)
            let w, bytes = base.Persist.map_words path in
            let keep_bytes =
              max 0 (min (int_of_float (f *. float_of_int bytes)) bytes)
            in
            (Bigarray.Array1.sub w 0 (keep_bytes / 8), keep_bytes)
          | Some { action = Corrupt n; seed; _ } ->
            (* media corruption under the mapping: hand out a private
               flipped copy, so the damage is live in the very words
               the engine will read — the on-disk file is untouched *)
            let w, bytes = base.Persist.map_words path in
            let copy =
              Bigarray.Array1.create Bigarray.int Bigarray.c_layout
                (Bigarray.Array1.dim w)
            in
            Bigarray.Array1.blit w copy;
            flip_words ~seed ~flips:n copy;
            (copy, bytes));
    }
  in
  (io, fun () -> !fired)

module T = Mps_serve.Transport

(* Same firing bookkeeping as [io_of_plan] but behind a mutex: a
   transport is shared by the accept loop and every connection
   handler. *)
let make_firing plan =
  let mutex = Mutex.create () in
  let counters = Hashtbl.create 8 in
  let fired = ref 0 in
  let pending = ref plan in
  let firing op =
    Mutex.lock mutex;
    let n = try Hashtbl.find counters op with Not_found -> 0 in
    Hashtbl.replace counters op (n + 1);
    let rec pick acc = function
      | [] -> None
      | inj :: rest when inj.op = op && inj.skip = n ->
        pending := List.rev_append acc rest;
        incr fired;
        Some inj
      | inj :: rest -> pick (inj :: acc) rest
    in
    let hit = pick [] !pending in
    Mutex.unlock mutex;
    hit
  in
  let count () =
    Mutex.lock mutex;
    let n = !fired in
    Mutex.unlock mutex;
    n
  in
  (firing, count)

let transport_of_plan ?(base = T.default) plan =
  let firing, fired = make_firing plan in
  let short_len f len = min len (max 1 (int_of_float (f *. float_of_int len))) in
  let transport =
    {
      T.recv =
        (fun fd buf off len ->
          match firing Net_recv with
          | None -> base.T.recv fd buf off len
          | Some { action = Fail | Corrupt _; _ } ->
            (* no wire corruption in the model: a damaged segment is a
               dead connection, not flipped bits *)
            raise (Unix.Unix_error (Unix.ECONNRESET, "recv", "injected fault"))
          | Some { action = Vanish; _ } -> 0 (* peer gone: EOF *)
          | Some { action = Truncate f; _ } -> base.T.recv fd buf off (short_len f len)
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.T.recv fd buf off len);
      send =
        (fun fd buf off len ->
          match firing Net_send with
          | None -> base.T.send fd buf off len
          | Some { action = Fail | Corrupt _; _ } ->
            raise (Unix.Unix_error (Unix.EPIPE, "send", "injected fault"))
          | Some { action = Vanish; _ } -> len (* bytes silently lost *)
          | Some { action = Truncate f; _ } -> base.T.send fd buf off (short_len f len)
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.T.send fd buf off len);
      accept =
        (fun fd ->
          match firing Net_accept with
          | None -> base.T.accept fd
          | Some { action = Vanish; _ } ->
            (* the connection was there and is gone: accept it, drop it *)
            let conn, _ = base.T.accept fd in
            (try Unix.close conn with Unix.Unix_error _ -> ());
            raise (Unix.Unix_error (Unix.ECONNABORTED, "accept", "injected fault"))
          | Some { action = Stall s; _ } ->
            Thread.delay s;
            base.T.accept fd
          | Some _ ->
            raise (Unix.Unix_error (Unix.EMFILE, "accept", "injected fault")));
    }
  in
  (transport, fired)

(* Worker-level faults ride the daemon's per-request hook.  A
   [Worker_stall] sleeps in the serving worker (exercising deadlines,
   dispatch and health probes around a wedged domain); a [Worker_crash]
   raises {!Mps_serve.Server.Worker_killed}, which the daemon turns
   into a typed [Err_worker_lost] reply plus a supervised restart.
   The [~worker] slot is deliberately ignored for firing —
   the plan speaks in occurrences ("the 3rd request served"), not
   slots, so a scenario stays deterministic under any dispatch. *)
let worker_hook_of_plan plan =
  let firing, fired = make_firing plan in
  let hook ~worker:_ =
    (match firing Worker_stall with
    | Some { action = Stall s; _ } -> Thread.delay s
    | Some _ -> Thread.delay 0.05
    | None -> ());
    match firing Worker_crash with
    | Some _ -> raise Mps_serve.Server.Worker_killed
    | None -> ()
  in
  (hook, fired)

(* Ring-level faults for the shm fast path (DESIGN.md §13), riding the
   session's publish hook.  A [Shm_publish] injection damages exactly
   one published frame — [Corrupt] flips stored bits, [Stall] delays
   the tail publication, and anything else tears the frame (a CRC that
   can never verify, the signature of a producer dead mid-write). *)
let shm_hooks_of_plan plan =
  let firing, fired = make_firing plan in
  let hooks =
    {
      Mps_serve.Shm.on_publish =
        (fun () ->
          match firing Shm_publish with
          | None -> None
          | Some { action = Corrupt n; seed; _ } ->
            Some (Mps_serve.Shm.Publish_corrupt (seed, n))
          | Some { action = Stall s; _ } -> Some (Mps_serve.Shm.Publish_stall s)
          | Some { action = Fail | Vanish | Truncate _; _ } ->
            Some Mps_serve.Shm.Publish_torn);
    }
  in
  (hooks, fired)

let with_plan ?base plan f =
  let io, fired = io_of_plan ?base plan in
  let result =
    Persist.with_io io (fun () -> match f () with v -> Ok v | exception e -> Error e)
  in
  (result, fired ())
