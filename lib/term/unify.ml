open Term

let rec occurs v t =
  match deref t with
  | Var w -> w == v
  | Atom _ | Int _ | Float _ -> false
  | Struct (_, args) -> Array.exists (occurs v) args

let unify ?(occurs_check = false) trail t u =
  let rec go t u =
    let t = deref t and u = deref u in
    match (t, u) with
    | Var v, Var w when v == w -> true
    | Var v, u ->
        if occurs_check && occurs v u then false
        else begin
          bind trail v u;
          true
        end
    | t, Var w ->
        if occurs_check && occurs w t then false
        else begin
          bind trail w t;
          true
        end
    | Atom a, Atom b -> String.equal a b
    | Int i, Int j -> Int.equal i j
    | Float x, Float y -> Float.equal x y
    | Struct (f, args), Struct (g, brgs) ->
        Array.length args = Array.length brgs
        && String.equal f g
        &&
        let rec all i = i >= Array.length args || (go args.(i) brgs.(i) && all (i + 1)) in
        all 0
    | _ -> false
  in
  let m = Trail.mark trail in
  let ok = go t u in
  if not ok then Trail.undo_to trail m;
  ok

let clash t u =
  match (deref t, deref u) with
  | Var _, _ | _, Var _ -> false
  | Atom a, Atom b -> not (String.equal a b)
  | Int i, Int j -> not (Int.equal i j)
  | Float x, Float y -> not (Float.equal x y)
  | Struct (f, args), Struct (g, brgs) ->
      Array.length args <> Array.length brgs || not (String.equal f g)
  | _ -> true

(* Variant check by parallel traversal with a consistent variable pairing. *)
let variant t u =
  let left = Hashtbl.create 8 and right = Hashtbl.create 8 in
  let rec go t u =
    let t = deref t and u = deref u in
    match (t, u) with
    | Var v, Var w -> (
        match (Hashtbl.find_opt left v.vid, Hashtbl.find_opt right w.vid) with
        | None, None ->
            Hashtbl.add left v.vid w.vid;
            Hashtbl.add right w.vid v.vid;
            true
        | Some w', Some v' -> w' = w.vid && v' = v.vid
        | _ -> false)
    | Atom a, Atom b -> String.equal a b
    | Int i, Int j -> Int.equal i j
    | Float x, Float y -> Float.equal x y
    | Struct (f, args), Struct (g, brgs) ->
        Array.length args = Array.length brgs
        && String.equal f g
        &&
        let rec all i = i >= Array.length args || (go args.(i) brgs.(i) && all (i + 1)) in
        all 0
    | _ -> false
  in
  go t u

let instance_of _trail ~instance ~general =
  (* a variable of [general] takes the instance subterm it meets first,
     and every later occurrence must meet an equal subterm. The
     assignments are kept aside rather than bound: a binding would let a
     later occurrence dereference into [instance] and then bind one of
     the instance's own variables *)
  let assigned = Hashtbl.create 8 in
  let rec go general instance =
    match (deref general, deref instance) with
    | Var v, instance -> (
        match Hashtbl.find_opt assigned v.vid with
        | Some t -> Term.equal t instance
        | None ->
            Hashtbl.add assigned v.vid instance;
            true)
    | _, Var _ -> false
    | Atom a, Atom b -> String.equal a b
    | Int i, Int j -> Int.equal i j
    | Float x, Float y -> Float.equal x y
    | Struct (f, args), Struct (g, brgs) ->
        Array.length args = Array.length brgs
        && String.equal f g
        &&
        let rec all i = i >= Array.length args || (go args.(i) brgs.(i) && all (i + 1)) in
        all 0
    | _ -> false
  in
  go general instance
