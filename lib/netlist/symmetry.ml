type group =
  | Pair of { left : int; right : int }
  | Self of int

let members = function
  | Pair { left; right } -> [ left; right ]
  | Self i -> [ i ]

let validate ~n_blocks groups =
  let seen = Hashtbl.create 8 in
  let check_index i =
    if i < 0 || i >= n_blocks then
      invalid_arg (Printf.sprintf "Symmetry: block %d out of range" i);
    if Hashtbl.mem seen i then
      invalid_arg (Printf.sprintf "Symmetry: block %d in more than one group" i);
    Hashtbl.add seen i ()
  in
  List.iter
    (fun g ->
      (match g with
      | Pair { left; right } when left = right ->
        invalid_arg "Symmetry: degenerate pair"
      | Pair _ | Self _ -> ());
      List.iter check_index (members g))
    groups
