(* The export gate: every [val] a library interface declares must be
   named by some other source file — in lib/, bin/, examples/,
   perfbench/ or test/.  An export nothing else mentions is dead API:
   delete it, or drop it from the .mli if its own module still uses it.

   The scan is textual: a whole-word mention anywhere in another file
   counts, comments and strings included, so it catches exports that
   are mentioned nowhere rather than proving every export is called.
   The test stanza lists these files as dependencies, so the scan reruns
   whenever any of them changes. *)

let check_bool = Alcotest.(check bool)

(* Exports kept on purpose although nothing else names them yet, as
   (interface file, value).  The [Fault] plan generators wait on the
   decision whether the chaos suite draws random plans (ROADMAP item 7);
   [Client.server_stats] waits on the client-side stats API (ROADMAP
   item 2). *)
let allowed =
  [
    ("fault.mli", "random_plan");
    ("fault.mli", "random_net_plan");
    ("fault.mli", "random_worker_plan");
    ("client.mli", "server_stats");
  ]

(* Under dune the test runs in the build copy of test/; run by hand, it
   runs from the repository root. *)
let root = if Sys.file_exists "lib" && Sys.file_exists "test" then "." else ".."

let rec sources dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if entry <> "" && entry.[0] = '.' then []
           else if Sys.is_directory path then sources path
           else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
           then [ path ]
           else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Every maximal identifier-character run of a file. *)
let words text =
  let tbl = Hashtbl.create 1024 in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_ident_char text.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      Hashtbl.replace tbl (String.sub text !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  tbl

(* The names an interface declares with [val], nested signatures
   included. *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line > 4 && String.sub line 0 4 = "val " then begin
           let rest = String.sub line 4 (String.length line - 4) in
           let k = ref 0 in
           while !k < String.length rest && is_ident_char rest.[!k] do
             incr k
           done;
           if !k > 0 then Some (String.sub rest 0 !k) else None
         end
         else None)

let test_every_export_is_named () =
  (* this file names the allow-listed exports itself: it does not count *)
  let indexed =
    List.concat_map
      (fun d -> sources (Filename.concat root d))
      [ "lib"; "bin"; "examples"; "perfbench"; "test" ]
    |> List.filter (fun f -> Filename.basename f <> "test_exports.ml")
    |> List.map (fun f -> (f, words (read f)))
  in
  let named_elsewhere mli name =
    let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
    List.exists (fun (f, ws) -> (not (List.mem f own)) && Hashtbl.mem ws name) indexed
  in
  let interfaces =
    List.filter
      (fun f -> Filename.check_suffix f ".mli")
      (sources (Filename.concat root "lib"))
  in
  check_bool "found the library interfaces" true (List.length interfaces > 40);
  let unnamed =
    List.concat_map
      (fun mli ->
        vals (read mli)
        |> List.filter (fun name ->
               (not (List.mem (Filename.basename mli, name) allowed))
               && not (named_elsewhere mli name))
        |> List.map (fun name -> Printf.sprintf "%s: val %s" mli name))
      interfaces
  in
  Alcotest.(check (list string)) "exports no other file names" [] unnamed;
  (* an allow-listed export that is gone, or named by now, leaves the list *)
  List.iter
    (fun (base, name) ->
      let stale =
        match List.find_opt (fun f -> Filename.basename f = base) interfaces with
        | Some mli -> (not (List.mem name (vals (read mli)))) || named_elsewhere mli name
        | None -> true
      in
      check_bool (Printf.sprintf "%s: val %s still needs its allowance" base name) false
        stale)
    allowed

let suite = [ ("every lib export is named elsewhere", `Quick, test_every_export_is_named) ]
