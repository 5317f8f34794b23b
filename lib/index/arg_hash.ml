
(* Keys are short lists of outer symbols, one per indexed field. *)
type key = Symbol.t list

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = List.equal Symbol.equal
  let hash (k : t) = Hashtbl.hash k
end)

type t = {
  fields : int list;  (* 1-based *)
  buckets : int list ref Key_tbl.t;  (* clause ids, reverse order *)
  mutable catch_all : int list;  (* reverse order *)
}

let fields t = t.fields

let create ?(size_hint = 64) fields =
  match fields with
  | [] -> invalid_arg "Arg_hash.create: no fields"
  | _ :: _ :: _ :: _ :: _ -> invalid_arg "Arg_hash.create: more than three fields"
  | _ -> { fields; buckets = Key_tbl.create size_hint; catch_all = [] }

let key_of_args t args =
  let rec go = function
    | [] -> Some []
    | f :: rest -> (
        if f < 1 || f > Array.length args then None
        else
          match Symbol.of_term args.(f - 1) with
          | None -> None
          | Some s -> ( match go rest with None -> None | Some k -> Some (s :: k)))
  in
  go t.fields

(* Bucket lists are kept strictly decreasing so that lookups can merge
   them in clause order; asserta inserts ids below all existing ones, so
   insertion is O(1) in the common cases and linear at worst. *)
let rec insert_sorted id = function
  | [] -> [ id ]
  | x :: rest as l -> if id > x then id :: l else if id = x then l else x :: insert_sorted id rest

let insert t id args =
  match key_of_args t args with
  | None -> t.catch_all <- insert_sorted id t.catch_all
  | Some key -> (
      match Key_tbl.find_opt t.buckets key with
      | Some cell -> cell := insert_sorted id !cell
      | None -> Key_tbl.add t.buckets key (ref [ id ]))

let usable t args = key_of_args t args <> None

(* Merge two strictly-decreasing id lists into one increasing list. *)
let merge_rev xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append rest acc
    | x :: xs', y :: ys' ->
        if x > y then go (x :: acc) xs' ys
        else if y > x then go (y :: acc) xs ys'
        else go (x :: acc) xs' ys'
  in
  go [] xs ys

let lookup t args =
  match key_of_args t args with
  | None -> None
  | Some key ->
      let bucket = match Key_tbl.find_opt t.buckets key with Some cell -> !cell | None -> [] in
      Some (merge_rev bucket t.catch_all)
