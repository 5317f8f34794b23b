type t =
  | CVar of int
  | CAtom of string
  | CInt of int
  | CFloat of float
  | CStruct of string * t array

let of_term term =
  let numbering = Hashtbl.create 8 in
  let rec go term =
    match Term.deref term with
    | Term.Atom a -> CAtom a
    | Term.Int i -> CInt i
    | Term.Float x -> CFloat x
    | Term.Var v -> (
        match Hashtbl.find_opt numbering v.Term.vid with
        | Some n -> CVar n
        | None ->
            let n = Hashtbl.length numbering in
            Hashtbl.add numbering v.Term.vid n;
            CVar n)
    | Term.Struct (f, args) -> CStruct (f, Array.map go args)
  in
  go term

let to_term c =
  let fresh = Hashtbl.create 8 in
  let rec go = function
    | CAtom a -> Term.Atom a
    | CInt i -> Term.Int i
    | CFloat x -> Term.Float x
    | CVar n -> (
        match Hashtbl.find_opt fresh n with
        | Some v -> v
        | None ->
            let v = Term.fresh_var () in
            Hashtbl.add fresh n v;
            v)
    | CStruct (f, args) -> Term.Struct (f, Array.map go args)
  in
  go c

let rec max_var acc = function
  | CVar n -> max acc (n + 1)
  | CAtom _ | CInt _ | CFloat _ -> acc
  | CStruct (_, args) -> Array.fold_left max_var acc args

let nvars c = max_var 0 c

let rec is_ground = function
  | CVar _ -> false
  | CAtom _ | CInt _ | CFloat _ -> true
  | CStruct (_, args) -> Array.for_all is_ground args

let equal (a : t) (b : t) = a = b

(* structural, so orderings built on it (delay-list normalization, answer
   dedup) survive a change of physical representation such as interning *)
let rec compare (a : t) (b : t) =
  match (a, b) with
  | CVar m, CVar n -> Int.compare m n
  | CVar _, _ -> -1
  | _, CVar _ -> 1
  | CAtom x, CAtom y -> String.compare x y
  | CAtom _, _ -> -1
  | _, CAtom _ -> 1
  | CInt i, CInt j -> Int.compare i j
  | CInt _, _ -> -1
  | _, CInt _ -> 1
  | CFloat x, CFloat y -> Float.compare x y
  | CFloat _, _ -> -1
  | _, CFloat _ -> 1
  | CStruct (f, xs), CStruct (g, ys) -> (
      match String.compare f g with
      | 0 -> (
          match Int.compare (Array.length xs) (Array.length ys) with
          | 0 ->
              let rec args i =
                if i = Array.length xs then 0
                else match compare xs.(i) ys.(i) with 0 -> args (i + 1) | c -> c
              in
              args 0
          | c -> c)
      | c -> c)

let hash (c : t) = Hashtbl.hash c

(* Estimated heap footprint in bytes (64-bit words): constructor blocks
   plus string payloads. Atom and functor names are counted in full even
   though the runtime may share them — table-space accounting wants an
   upper bound that tracks growth, not an exact liveness measure. *)
let word = 8

let string_bytes s = word + ((String.length s / word) + 1) * word

let rec size_bytes = function
  | CVar _ | CInt _ -> 2 * word  (* one-field block *)
  | CFloat _ -> 2 * word
  | CAtom a -> (2 * word) + string_bytes a
  | CStruct (f, args) ->
      (* the pair block + the args array + the functor name *)
      (3 * word) + ((Array.length args + 1) * word) + string_bytes f
      + Array.fold_left (fun acc a -> acc + size_bytes a) 0 args

(* a stdlib hashtable of [n] bindings, keys and values aside: the record,
   the bucket array (16 buckets at least, doubled whenever the bindings
   outnumber the buckets twice) and one bucket cell per binding *)
let hashtbl_bytes n =
  let rec buckets b = if n > 2 * b then buckets (2 * b) else b in
  (5 * word) + ((1 + buckets 16) * word) + (n * 4 * word)

let rec pp ppf = function
  | CVar n -> Fmt.pf ppf "_%d" n
  | CAtom a -> Fmt.string ppf a
  | CInt i -> Fmt.int ppf i
  | CFloat x -> Fmt.float ppf x
  | CStruct (f, args) -> Fmt.pf ppf "%s(%a)" f Fmt.(array ~sep:(any ",") pp) args

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
