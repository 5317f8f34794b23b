open Xsb_term
open Xsb_index

type kind = Static | Dynamic

(* How a tabled predicate's tables behave across database mutations and
   duplicate-key answers:
   - [Variant]: plain variant tabling (the default).
   - [Incremental]: completed tables record what they read; a mutation
     of a read predicate invalidates (or, for pure additions to definite
     programs, repairs) only the dependent tables.
   - [Subsumptive op]: answers sharing key columns (all but the last
     argument) fold into one answer under the lattice operation.
   - [Subsumption]: call-subsumption tabling — a call whose subgoal is
     an instance of an existing table's subgoal consumes that table's
     answers (filtered by unification) instead of creating a new
     generator. *)
type table_mode =
  | Variant
  | Incremental
  | Subsumptive of Answer_store.Subsumption.op
  | Subsumption

let table_mode_to_string = function
  | Variant -> "variant"
  | Incremental -> "incremental"
  | Subsumptive op ->
      Printf.sprintf "subsumptive(%s)" (Answer_store.Subsumption.op_to_string op)
  | Subsumption -> "subsumption"

type clause = { id : int; head : Term.t; body : Term.t }

type index_spec = Fields of int list list | First_string_index | Disc_tree_index

(* Clause storage. A clause's id is its position: [assertz] puts id [i]
   at position [i] of [back], [asserta] puts id [-1-i] at position [i] of
   [front]. Clause order is [front] reversed, then [back]. A retracted
   clause leaves [tombstone] in its slot; slots are never reclaimed
   (abolishing a predicate drops its whole store). *)
type t = {
  name : string;
  arity : int;
  mutable kind : kind;
  mutable tabled : bool;
  mutable table_mode : table_mode;
  front : clause Vec.t;
  back : clause Vec.t;
  mutable nlive : int;
  mutable spec : index_spec;
  mutable hash_indexes : Arg_hash.t list;
  mutable first_string : First_string.t option;
  mutable disc_tree : Disc_tree.t option;
}

(* Compared physically: no stored clause is this record. *)
let tombstone = { id = min_int; head = Term.Atom "true"; body = Term.Atom "true" }

let create ?(kind = Static) name arity =
  {
    name;
    arity;
    kind;
    tabled = false;
    table_mode = Variant;
    front = Vec.create ();
    back = Vec.create ();
    nlive = 0;
    spec = Fields [ [ 1 ] ];
    hash_indexes = (if arity >= 1 then [ Arg_hash.create [ 1 ] ] else []);
    first_string = None;
    disc_tree = None;
  }

let name t = t.name
let arity t = t.arity
let kind t = t.kind
let set_kind t kind = t.kind <- kind
let tabled t = t.tabled
let set_tabled t flag = t.tabled <- flag
let table_mode t = t.table_mode
let set_table_mode t mode = t.table_mode <- mode
let index_spec t = t.spec
let clause_count t = t.nlive

let head_args clause =
  match Term.deref clause.head with
  | Term.Struct (_, args) -> args
  | Term.Atom _ | Term.Int _ | Term.Float _ | Term.Var _ -> [||]

let index_insert t clause =
  let args = head_args clause in
  List.iter (fun idx -> Arg_hash.insert idx clause.id args) t.hash_indexes;
  (match t.first_string with
  | Some trie -> First_string.insert trie clause.id args
  | None -> ());
  match t.disc_tree with
  | Some tree -> Disc_tree.insert tree clause.id args
  | None -> ()

let vec t id = if id >= 0 then t.back else t.front
let pos id = if id >= 0 then id else -1 - id

(* The clause with [id], or [tombstone] if it is retracted or [id] is
   past the end of its vector. *)
let get t id =
  let v = vec t id and i = pos id in
  if i < Vec.length v then Vec.get v i else tombstone

let clauses t =
  let acc = ref [] in
  for i = Vec.length t.back - 1 downto 0 do
    let c = Vec.get t.back i in
    if c != tombstone then acc := c :: !acc
  done;
  Vec.fold_left (fun acc c -> if c == tombstone then acc else c :: acc) !acc t.front

let rebuild_indexes t ?size_hint () =
  (match t.spec with
  | Fields combos ->
      t.hash_indexes <-
        List.filter_map
          (fun combo ->
            let n = List.length combo in
            if n >= 1 && n <= 3 && List.for_all (fun f -> f >= 1 && f <= t.arity) combo then
              Some (Arg_hash.create ?size_hint combo)
            else None)
          combos;
      t.first_string <- None;
      t.disc_tree <- None
  | First_string_index ->
      t.hash_indexes <- [];
      t.first_string <- Some (First_string.create ());
      t.disc_tree <- None
  | Disc_tree_index ->
      t.hash_indexes <- [];
      t.first_string <- None;
      t.disc_tree <- Some (Disc_tree.create ()));
  List.iter (fun c -> index_insert t c) (clauses t)

let set_index t ?size_hint spec =
  t.spec <- spec;
  rebuild_indexes t ?size_hint ()

let push t v clause =
  Vec.push v clause;
  t.nlive <- t.nlive + 1;
  index_insert t clause;
  clause

let assertz t ~head ~body = push t t.back { id = Vec.length t.back; head; body }
let asserta t ~head ~body = push t t.front { id = -1 - Vec.length t.front; head; body }

let remove t clause =
  let c = get t clause.id in
  if c != tombstone then begin
    Vec.set (vec t c.id) (pos c.id) tombstone;
    t.nlive <- t.nlive - 1;
    let args = head_args c in
    List.iter (fun idx -> Arg_hash.remove idx c.id args) t.hash_indexes;
    (* tries do not support removal: static predicates are never
       retracted clause-by-clause; if it ever happens, rebuild *)
    if t.first_string <> None || t.disc_tree <> None then rebuild_indexes t ()
  end

let[@tail_mod_cons] rec by_ids t = function
  | [] -> []
  | id :: ids ->
      let c = get t id in
      if c == tombstone then by_ids t ids else c :: by_ids t ids

let demand_index_min_clauses = 8

(* Just-in-time argument indexing (see [lookup] in the interface). The
   first bound argument has no single-field index yet, or that index
   would have served the call. Appended after the declared indexes, so
   those keep their priority; [index_insert] and [remove] keep it up to
   date, and [rebuild_indexes] drops it. *)
let demand_index t call_args =
  let rec first_bound i =
    if i >= t.arity then None
    else match Term.deref call_args.(i) with Term.Var _ -> first_bound (i + 1) | _ -> Some (i + 1)
  in
  match t.spec with
  | First_string_index | Disc_tree_index -> None
  | Fields _ when t.nlive <= demand_index_min_clauses -> None
  | Fields _ ->
      Option.map
        (fun field ->
          let idx = Arg_hash.create ~size_hint:t.nlive [ field ] in
          List.iter (fun c -> Arg_hash.insert idx c.id (head_args c)) (clauses t);
          t.hash_indexes <- t.hash_indexes @ [ idx ];
          idx)
        (first_bound 0)

let hash_index_fields t = List.map Arg_hash.fields t.hash_indexes

let lookup t call_args =
  if Array.length call_args <> t.arity then []
  else
    let rec try_hash = function
      | [] -> None
      | idx :: rest -> (
          match Arg_hash.lookup idx call_args with
          | Some ids -> Some ids
          | None -> try_hash rest)
    in
    match try_hash t.hash_indexes with
    | Some ids -> by_ids t ids
    | None -> (
        match (t.first_string, t.disc_tree) with
        | Some trie, _ -> by_ids t (First_string.lookup trie call_args)
        | None, Some tree -> by_ids t (Disc_tree.lookup tree call_args)
        | None, None -> (
            match Option.bind (demand_index t call_args) (fun i -> Arg_hash.lookup i call_args) with
            | Some ids -> by_ids t ids
            | None -> clauses t))

let clashes call_args clause =
  let args = head_args clause in
  let n = Array.length args in
  let rec go i = i < n && (Unify.clash call_args.(i) args.(i) || go (i + 1)) in
  Array.length call_args = n && go 0

let renamed clause =
  if Term.is_ground clause.head && Term.is_ground clause.body then (clause.head, clause.body)
  else Term.copy2 clause.head clause.body
