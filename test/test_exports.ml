(* The export gate: every [val] a library interface declares must be
   named by some other source file — in lib/, bin/, examples/,
   perfbench/ or test/.  An export nothing else mentions is dead API:
   delete it, or drop it from the .mli if its own module still uses it.

   The scan is textual: a whole-word mention in the code of another
   file counts — comments and string literals are blanked out first —
   so it catches exports that no code mentions rather than proving
   every export is called.
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

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [text] with its comments (nested, with the string and character
   literals inside them lexed as OCaml does) and its string literals,
   quoted ones included, blanked out; newlines stay, so lines keep
   their numbers. *)
let code_only text =
  let n = String.length text in
  let out = Bytes.of_string text in
  let blank a b =
    for k = a to min n b - 1 do
      if text.[k] <> '\n' then Bytes.set out k ' '
    done
  in
  let at i c = i < n && text.[i] = c in
  (* past the closing quote of the string whose body starts at [i] *)
  let rec string_end i =
    if i >= n then n
    else if text.[i] = '\\' then string_end (i + 2)
    else if text.[i] = '"' then i + 1
    else string_end (i + 1)
  in
  (* past the character literal opening at [i], if one does *)
  let char_end i =
    if i + 3 < n && at (i + 1) '\\' then
      match String.index_from_opt text (i + 3) '\'' with
      | Some j when j <= i + 5 -> Some (j + 1)
      | _ -> None
    else if i + 2 < n && at (i + 2) '\'' then Some (i + 3)
    else None
  in
  (* past the quoted string [{id|...|id}] opening at [i], if one does *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if not (at !j '|') then None
    else begin
      let close = "|" ^ String.sub text (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n else if String.sub text k m = close then k + m else find (k + 1)
      in
      Some (find (!j + 1))
    end
  in
  let rec comment_end i depth =
    if i >= n then n
    else if at i '(' && at (i + 1) '*' then comment_end (i + 2) (depth + 1)
    else if at i '*' && at (i + 1) ')' then
      if depth = 0 then i + 2 else comment_end (i + 2) (depth - 1)
    else if at i '"' then comment_end (string_end (i + 1)) depth
    else if at i '\'' then
      comment_end (match char_end i with Some j -> j | None -> i + 1) depth
    else comment_end (i + 1) depth
  in
  let rec scan i =
    if i < n then
      match text.[i] with
      | '(' when at (i + 1) '*' ->
        let j = comment_end (i + 2) 0 in
        blank i j;
        scan j
      | '"' ->
        let j = string_end (i + 1) in
        blank i j;
        scan j
      | '{' -> (
        match quoted_end i with
        | Some j ->
          blank i j;
          scan j
        | None -> scan (i + 1))
      | '\'' -> (
        match char_end i with
        | Some j ->
          blank i j;
          scan j
        | None -> scan (i + 1))
      | c when is_ident_char c ->
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        scan !j
      | _ -> scan (i + 1)
  in
  scan 0;
  Bytes.to_string out

let read path = code_only (In_channel.with_open_bin path In_channel.input_all)

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
