type t =
  | CVar of int
  | CAtom of string
  | CInt of int
  | CFloat of float
  | CStruct of string * t array

(* Variable numbering for [of_term], without a hashtable in the common
   case: the ids seen so far, in first-occurrence order, found again by a
   linear scan. Past [scan_limit] variables a hashtable takes over, so a
   term with many variables stays linear. *)
let scan_limit = 32

type numbering = {
  mutable seen : int array;  (* vids by number; the first [count] are used *)
  mutable count : int;
  mutable table : (int, int) Hashtbl.t option;  (* past [scan_limit] only *)
}

let rec scan nb vid i =
  if i = nb.count then -1 else if nb.seen.(i) = vid then i else scan nb vid (i + 1)

let number nb vid =
  let found =
    match nb.table with
    | Some tbl -> Option.value ~default:(-1) (Hashtbl.find_opt tbl vid)
    | None -> scan nb vid 0
  in
  if found >= 0 then found
  else begin
    let n = nb.count in
    if n = Array.length nb.seen then begin
      let seen = Array.make (max 8 (2 * n)) 0 in
      Array.blit nb.seen 0 seen 0 n;
      nb.seen <- seen
    end;
    nb.seen.(n) <- vid;
    nb.count <- n + 1;
    (match nb.table with
    | Some tbl -> Hashtbl.add tbl vid n
    | None when n = scan_limit ->
        let tbl = Hashtbl.create (4 * scan_limit) in
        for i = 0 to n do
          Hashtbl.add tbl nb.seen.(i) i
        done;
        nb.table <- Some tbl
    | None -> ());
    n
  end

let rec canon nb term =
  match Term.deref term with
  | Term.Atom a -> CAtom a
  | Term.Int i -> CInt i
  | Term.Float x -> CFloat x
  | Term.Var v -> CVar (number nb v.Term.vid)
  | Term.Struct (f, args) ->
      let out = Array.make (Array.length args) (CInt 0) in
      for i = 0 to Array.length args - 1 do
        out.(i) <- canon nb args.(i)
      done;
      CStruct (f, out)

let numbering () = { seen = [||]; count = 0; table = None }
let of_term term = canon (numbering ()) term

let of_terms terms =
  let nb = numbering () in
  let out = Array.make (Array.length terms) (CInt 0) in
  for i = 0 to Array.length terms - 1 do
    out.(i) <- canon nb terms.(i)
  done;
  out

(* Fresh variables for [to_term], by number. Canonical terms number
   their variables densely from 0, so the array grows one slot at a
   time; [unset] marks a slot of a number not met yet. *)
let unset = Term.Atom "$unset"

type fresh = { mutable vars : Term.t array }

let rec build fr = function
  | CAtom a -> Term.Atom a
  | CInt i -> Term.Int i
  | CFloat x -> Term.Float x
  | CVar n ->
      if n >= Array.length fr.vars then begin
        let vars = Array.make (max (n + 1) (2 * Array.length fr.vars)) unset in
        Array.blit fr.vars 0 vars 0 (Array.length fr.vars);
        fr.vars <- vars
      end;
      let v = fr.vars.(n) in
      if v != unset then v
      else begin
        let v = Term.fresh_var () in
        fr.vars.(n) <- v;
        v
      end
  | CStruct (f, args) ->
      let out = Array.make (Array.length args) unset in
      for i = 0 to Array.length args - 1 do
        out.(i) <- build fr args.(i)
      done;
      Term.Struct (f, out)

let to_term c = build { vars = [||] } c

let to_terms cs =
  let fr = { vars = [||] } in
  let out = Array.make (Array.length cs) unset in
  for i = 0 to Array.length cs - 1 do
    out.(i) <- build fr cs.(i)
  done;
  out

let rec max_var acc = function
  | CVar n -> max acc (n + 1)
  | CAtom _ | CInt _ | CFloat _ -> acc
  | CStruct (_, args) -> Array.fold_left max_var acc args

let nvars c = max_var 0 c

let rec instantiate key tuple =
  match key with
  | CVar i -> tuple.(i)
  | CAtom _ | CInt _ | CFloat _ -> key
  | CStruct (f, args) -> CStruct (f, Array.map (fun a -> instantiate a tuple) args)

(* A canonical key meets its variable [i] for the first time exactly when
   [i] variables have been met before, so the walks below fill the tuple
   in order and compare repeated occurrences against the first. *)
let factor key inst =
  let tuple = Array.make (nvars key) (CInt 0) in
  let next = ref 0 in
  let rec go k x =
    match (k, x) with
    | CVar i, _ ->
        if i = !next then begin
          tuple.(i) <- x;
          incr next;
          true
        end
        else tuple.(i) = x
    | CStruct (f, ks), CStruct (g, xs) ->
        String.equal f g
        && Array.length ks = Array.length xs
        &&
        let rec args j = j = Array.length ks || (go ks.(j) xs.(j) && args (j + 1)) in
        args 0
    | CAtom a, CAtom b -> String.equal a b
    | CInt a, CInt b -> a = b
    | CFloat a, CFloat b -> a = b
    | _ -> false
  in
  if go key inst then Some tuple else None

let factor_term key term =
  let tuple = Array.make (nvars key) unset in
  let rec go k x =
    match k with
    | CVar i -> if tuple.(i) == unset then tuple.(i) <- x
    | CAtom _ | CInt _ | CFloat _ -> ()
    | CStruct (_, ks) -> (
        match Term.deref x with
        | Term.Struct (_, xs) when Array.length xs = Array.length ks ->
            for j = 0 to Array.length ks - 1 do
              go ks.(j) xs.(j)
            done
        | _ -> invalid_arg "Canon.factor_term: not an instance of the key")
  in
  go key term;
  tuple

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

(* the array block and its elements; the empty array is a shared atom *)
let tuple_bytes tuple =
  if Array.length tuple = 0 then 0
  else Array.fold_left (fun acc c -> acc + size_bytes c) ((1 + Array.length tuple) * word) tuple

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
