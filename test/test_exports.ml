(* The export gate: every [val v] a library interface declares for a
   module [M] must be used by some other source file — in lib/, bin/,
   examples/, perfbench/ or test/.  An export nothing else uses is dead
   API: delete it, or drop it from the .mli if its own module still
   uses it.

   A use names the module: [M.v] (M the file's module, or the submodule
   whose [sig] holds the [val]), [X.v] after [module X = ...M], any [v]
   inside a local open [M.( ... )], or a bare [v] in a file that opens
   or includes [M].  Another module's export of the same name does not
   count.  The scan is textual — comments and string literals are
   blanked out first — so it catches exports that no code uses rather
   than proving every export is called.
   The test stanza lists these files as dependencies, so the scan reruns
   whenever any of them changes. *)

let check_bool = Alcotest.(check bool)

(* Exports kept on purpose although nothing else uses them yet, as
   (interface file, value).  [Client.server_stats] waits on the
   client-side stats API (ROADMAP item 2). *)
let allowed = [ ("client.mli", "server_stats") ]

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

type token = Id of string | Sym of char

let tokens text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | c when is_ident_char c ->
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        go !j (Id (String.sub text i (!j - i)) :: acc)
      | c -> go (i + 1) (Sym c :: acc)
  in
  Array.of_list (go 0 [])

let is_module_name s = s <> "" && match s.[0] with 'A' .. 'Z' -> true | _ -> false
let is_value_name s = s <> "" && match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false

(* Token [i], or a blank past either end. *)
let tok toks i = if i >= 0 && i < Array.length toks then toks.(i) else Sym ' '

let is_module toks i = match tok toks i with Id m -> is_module_name m | Sym _ -> false

(* The last name of the module path [M1.M2...] starting at token [i]. *)
let path_end toks i =
  if not (is_module toks i) then None
  else begin
    let k = ref i in
    while tok toks (!k + 1) = Sym '.' && is_module toks (!k + 2) do
      k := !k + 2
    done;
    match tok toks !k with Id m -> Some m | Sym _ -> None
  end

(* What a file uses, by the module that names it: [(M, v)] for [M.v]
   (through [module X = ...M] aliases too, and for every value inside a
   local open [M.( ... )]), the values it names unqualified, and the
   modules it opens ([open], [let open], [include]). *)
type uses = {
  qualified : (string * string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
  opens : string list;
}

let uses text =
  let toks = tokens text in
  let tok = tok toks in
  let aliases = Hashtbl.create 8 in
  Array.iteri
    (fun i t ->
      match (t, tok (i + 1), tok (i + 2)) with
      | Id "module", Id x, Sym '=' -> (
        match path_end toks (i + 3) with
        | Some m -> Hashtbl.add aliases x m
        | None -> ())
      | _ -> ())
    toks;
  let resolve m = m :: Hashtbl.find_all aliases m in
  let qualified = Hashtbl.create 256 and bare = Hashtbl.create 1024 in
  let opens = ref [] in
  (* the local opens around the current token, with the paren depth
     that closes each *)
  let local = ref [] and depth = ref 0 in
  Array.iteri
    (fun i t ->
      match t with
      | Sym '(' ->
        incr depth;
        (match (tok (i - 1), tok (i - 2)) with
        | Sym '.', Id m when is_module_name m -> local := (resolve m, !depth) :: !local
        | _ -> ())
      | Sym ')' ->
        local := List.filter (fun (_, d) -> d <> !depth) !local;
        decr depth
      | Id ("open" | "include") -> (
        let start = match tok (i + 1) with Sym '!' -> i + 2 | _ -> i + 1 in
        match path_end toks start with
        | Some m -> opens := resolve m @ !opens
        | None -> ())
      | Id v when is_value_name v -> (
        match (tok (i - 1), tok (i - 2)) with
        | Sym '.', Id m when is_module_name m ->
          List.iter (fun m -> Hashtbl.replace qualified (m, v) ()) (resolve m)
        | Sym '.', _ -> ()
        | _ ->
          Hashtbl.replace bare v ();
          List.iter
            (fun (ms, _) -> List.iter (fun m -> Hashtbl.replace qualified (m, v) ()) ms)
            !local)
      | _ -> ())
    toks;
  { qualified; bare; opens = !opens }

(* The values an interface declares, each with the module that holds
   it: the file's own module, or the submodule whose [sig ... end]
   encloses the [val]. *)
let vals mli text =
  let own = String.capitalize_ascii (Filename.chop_suffix (Filename.basename mli) ".mli") in
  let toks = tokens text in
  let stack = ref [ own ] in
  let found = ref [] in
  Array.iteri
    (fun i t ->
      match (t, tok toks (i + 1)) with
      | Id "sig", _ ->
        let name =
          match (tok toks (i - 3), tok toks (i - 2), tok toks (i - 1)) with
          | Id "module", Id m, Sym ':' -> m
          | _ -> List.hd !stack
        in
        stack := name :: !stack
      | Id "end", _ -> stack := List.tl !stack
      | Id "val", Id v -> found := (List.hd !stack, v) :: !found
      | _ -> ())
    toks;
  List.rev !found

let test_every_export_is_named () =
  (* this file names the allow-listed exports itself: it does not count *)
  let indexed =
    List.concat_map
      (fun d -> sources (Filename.concat root d))
      [ "lib"; "bin"; "examples"; "perfbench"; "test" ]
    |> List.filter (fun f -> Filename.basename f <> "test_exports.ml")
    |> List.map (fun f -> (f, uses (read f)))
  in
  let used_elsewhere mli (m, v) =
    let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
    List.exists
      (fun (f, u) ->
        (not (List.mem f own))
        && (Hashtbl.mem u.qualified (m, v) || (List.mem m u.opens && Hashtbl.mem u.bare v)))
      indexed
  in
  let interfaces =
    List.filter
      (fun f -> Filename.check_suffix f ".mli")
      (sources (Filename.concat root "lib"))
  in
  check_bool "found the library interfaces" true (List.length interfaces > 40);
  let unused =
    List.concat_map
      (fun mli ->
        vals mli (read mli)
        |> List.filter (fun (m, v) ->
               (not (List.mem (Filename.basename mli, v) allowed))
               && not (used_elsewhere mli (m, v)))
        |> List.map (fun (m, v) -> Printf.sprintf "%s: val %s.%s" mli m v))
      interfaces
  in
  Alcotest.(check (list string)) "exports no other file uses" [] unused;
  (* an allow-listed export that is gone, or used by now, leaves the list *)
  List.iter
    (fun (base, name) ->
      let stale =
        match List.find_opt (fun f -> Filename.basename f = base) interfaces with
        | Some mli -> (
          match List.find_opt (fun (_, v) -> v = name) (vals mli (read mli)) with
          | Some mv -> used_elsewhere mli mv
          | None -> true)
        | None -> true
      in
      check_bool (Printf.sprintf "%s: val %s still needs its allowance" base name) false
        stale)
    allowed

let suite = [ ("every lib export is named elsewhere", `Quick, test_every_export_is_named) ]
