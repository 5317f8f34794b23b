type t =
  | Atom of string
  | Int of int
  | Float of float
  | Var of var
  | Struct of string * t array

and var = { vid : int; mutable binding : t option; vname : string option }

(* atomic: the only process-global mutable state in the engine, and the
   query server allocates variables from concurrent worker threads *)
let counter = Atomic.make 0

let var ?name () = { vid = Atomic.fetch_and_add counter 1 + 1; binding = None; vname = name }

let fresh_vids n = Atomic.fetch_and_add counter n + 1

let fresh_var ?name () = Var (var ?name ())
let atom name = Atom name
let int i = Int i

let struct_ name args = if Array.length args = 0 then Atom name else Struct (name, args)

let app name args = struct_ name (Array.of_list args)

let nil = Atom "[]"
let cons h t = Struct (".", [| h; t |])

let list_ elements = List.fold_right cons elements nil

let rec deref t =
  match t with
  | Var { binding = Some t'; _ } -> deref t'
  | _ -> t

let to_list t =
  let rec go acc t =
    match deref t with
    | Atom "[]" -> Some (List.rev acc)
    | Struct (".", [| h; tl |]) -> go (h :: acc) tl
    | _ -> None
  in
  go [] t

let bind trail v t =
  match v.binding with
  | Some _ -> invalid_arg "Term.bind: variable already bound"
  | None ->
      v.binding <- Some t;
      Trail.push trail (fun () -> v.binding <- None)

let rec is_ground t =
  match deref t with
  | Atom _ | Int _ | Float _ -> true
  | Var _ -> false
  | Struct (_, args) ->
      let rec go i = i >= Array.length args || (is_ground args.(i) && go (i + 1)) in
      go 0

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go t =
    match deref t with
    | Atom _ | Int _ | Float _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v.vid) then begin
          Hashtbl.add seen v.vid ();
          acc := v :: !acc
        end
    | Struct (_, args) -> Array.iter go args
  in
  go t;
  List.rev !acc

let functor_of t =
  match deref t with
  | Atom name -> Some (name, 0)
  | Struct (name, args) -> Some (name, Array.length args)
  | Int _ | Float _ | Var _ -> None

let size t =
  let rec go n t =
    match deref t with
    | Atom _ | Int _ | Float _ | Var _ -> n + 1
    | Struct (_, args) -> Array.fold_left go (n + 1) args
  in
  go 0 t

let copy_with mapping t =
  let rec go t =
    match deref t with
    | (Atom _ | Int _ | Float _) as t -> t
    | Var v -> (
        match Hashtbl.find_opt mapping v.vid with
        | Some fresh -> fresh
        | None ->
            let fresh = fresh_var ?name:v.vname () in
            Hashtbl.add mapping v.vid fresh;
            fresh)
    | Struct (name, args) -> Struct (name, Array.map go args)
  in
  go t

let copy t = copy_with (Hashtbl.create 8) t

let copy2 t u =
  let mapping = Hashtbl.create 8 in
  (copy_with mapping t, copy_with mapping u)

(* Standard order of terms: Var < Number < Atom < Compound. *)
let rec compare t u =
  let rank = function
    | Var _ -> 0
    | Int _ | Float _ -> 1
    | Atom _ -> 2
    | Struct _ -> 3
  in
  let t = deref t and u = deref u in
  match (t, u) with
  | Var v, Var w -> Int.compare v.vid w.vid
  | Int i, Int j -> Int.compare i j
  | Float x, Float y -> Float.compare x y
  | Int i, Float y -> Float.compare (float_of_int i) y
  | Float x, Int j -> Float.compare x (float_of_int j)
  | Atom a, Atom b -> String.compare a b
  | Struct (f, args), Struct (g, brgs) ->
      let c = Int.compare (Array.length args) (Array.length brgs) in
      if c <> 0 then c
      else
        let c = String.compare f g in
        if c <> 0 then c
        else
          let rec go i =
            if i >= Array.length args then 0
            else
              let c = compare args.(i) brgs.(i) in
              if c <> 0 then c else go (i + 1)
          in
          go 0
  | _ -> Int.compare (rank t) (rank u)

let equal t u = compare t u = 0

let atom_needs_quotes name =
  let solo = function "[]" | "{}" | "!" | ";" | "," -> true | _ -> false in
  let symbolic c = String.contains "+-*/\\^<>=~:.?@#&$" c in
  if name = "" then true
  else if solo name then false
  else
    let c0 = name.[0] in
    if c0 >= 'a' && c0 <= 'z' then
      not
        (String.for_all
           (fun c ->
             (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
           name)
    else not (String.for_all symbolic name)

let add_atom b name =
  if atom_needs_quotes name then begin
    Buffer.add_char b '\'';
    String.iter
      (fun c ->
        match c with
        | '\'' -> Buffer.add_string b "\\'"
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      name;
    Buffer.add_char b '\''
  end
  else Buffer.add_string b name

let pp_atom ppf name =
  if atom_needs_quotes name then begin
    let buf = Buffer.create (String.length name + 2) in
    add_atom buf name;
    Fmt.string ppf (Buffer.contents buf)
  end
  else Fmt.string ppf name

let rec pp ppf t =
  match deref t with
  | Atom name -> pp_atom ppf name
  | Int i -> Fmt.int ppf i
  | Float x -> Fmt.float ppf x
  | Var v -> (
      match v.vname with
      | Some name -> Fmt.pf ppf "_%s%d" name v.vid
      | None -> Fmt.pf ppf "_G%d" v.vid)
  | Struct (".", [| _; _ |]) as t -> pp_list ppf t
  | Struct (name, args) ->
      pp_atom ppf name;
      Fmt.pf ppf "(%a)" Fmt.(array ~sep:(Fmt.any ",") pp) args

and pp_list ppf t =
  let rec elements ppf t =
    match deref t with
    | Struct (".", [| h; tl |]) -> (
        pp ppf h;
        match deref tl with
        | Atom "[]" -> ()
        | Struct (".", [| _; _ |]) ->
            Fmt.string ppf ",";
            elements ppf tl
        | rest -> Fmt.pf ppf "|%a" pp rest)
    | _ -> assert false
  in
  Fmt.pf ppf "[%a]" elements t

let to_string t = Fmt.str "%a" pp t
