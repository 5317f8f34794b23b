open Xsb_term

(* Pre-order token string of a canonical term. Variables are tokens too
   (they are canonically numbered), so each answer has exactly one
   terminal node in a trie built over these strings. *)
type tok = TVar of int | TAtom of string | TInt of int | TFloat of float | TStruct of string * int

module Tok_tbl = Hashtbl.Make (struct
  type t = tok

  let equal (a : t) (b : t) = a = b
  let hash (t : t) = Hashtbl.hash t
end)

let tokens answer =
  let acc = ref [] in
  let rec go = function
    | Canon.CVar n -> acc := TVar n :: !acc
    | Canon.CAtom a -> acc := TAtom a :: !acc
    | Canon.CInt i -> acc := TInt i :: !acc
    | Canon.CFloat x -> acc := TFloat x :: !acc
    | Canon.CStruct (f, args) ->
        acc := TStruct (f, Array.length args) :: !acc;
        Array.iter go args
  in
  go answer;
  List.rev !acc

(* arity of the subterm a token opens: how many further subterms must be
   consumed before this one is complete *)
let opens = function TVar _ | TAtom _ | TInt _ | TFloat _ -> 0 | TStruct (_, n) -> n

module Index = struct
  (* Discrimination trie over the pre-order token string of the canonical
     answer: variables are tokens too, so each answer template has
     exactly one terminal node, and storage and index are one structure.
     Each terminal keeps a payload per answer *clause* (the same template
     can be stored several times, e.g. under different delay lists), and
     the trie supports retrieval by the bound-argument skeleton of a
     call: [lookup] walks only the branches whose token prefix can unify
     with the skeleton, so a bound call retrieves candidates without
     scanning the whole table (paper §4.5). *)
  type 'a node = {
    mutable entries : (int * 'a) list;  (* in reverse insertion order *)
    mutable latest : int;
        (* time stamp: the largest insertion position anywhere in this
           subtree, [-1] when empty.  Lets a stamped retrieval skip whole
           branches that hold nothing newer than the consumer's last
           poll. *)
    mutable children : 'a node Tok_tbl.t option;
        (* made on the first child: most nodes of an answer trie are
           terminals without children, and an empty table would cost each
           of them a 16-bucket array *)
  }

  type 'a t = { root : 'a node; order : 'a Vec.t }

  let fresh_node () = { entries = []; latest = -1; children = None }

  let create ?size_hint:_ () = { root = fresh_node (); order = Vec.create () }

  let size t = Vec.length t.order
  let get t i = Vec.get t.order i
  let iter f t = Vec.iter f t.order
  let fold_left f acc t = Vec.fold_left f acc t.order

  let child node tok =
    match node.children with Some tbl -> Tok_tbl.find_opt tbl tok | None -> None

  let child_or_add node tok =
    let tbl =
      match node.children with
      | Some tbl -> tbl
      | None ->
          let tbl = Tok_tbl.create 4 in
          node.children <- Some tbl;
          tbl
    in
    match Tok_tbl.find_opt tbl tok with
    | Some child -> child
    | None ->
        let child = fresh_node () in
        Tok_tbl.add tbl tok child;
        child

  let iter_children f node = Option.iter (Tok_tbl.iter f) node.children

  let fold_children f node acc =
    match node.children with Some tbl -> Tok_tbl.fold f tbl acc | None -> acc

  (* One walk to the terminal of [key], making the path as it goes. A
     path made here ends in an empty terminal, so [absorbed] can only
     refuse an insertion whose path already existed; an accepted one
     raises the time stamps of the whole path on the way back. *)
  let insert t key ~absorbed payload =
    let pos = Vec.length t.order in
    let rec go node = function
      | [] ->
          if List.exists (fun (_, x) -> absorbed x) node.entries then false
          else begin
            node.entries <- (pos, payload) :: node.entries;
            node.latest <- pos;
            true
          end
      | tok :: rest ->
          let fresh = go (child_or_add node tok) rest in
          if fresh then node.latest <- pos;
          fresh
    in
    if go t.root (tokens key) then begin
      Vec.push t.order payload;
      Some pos
    end
    else None

  let add t key payload = Option.get (insert t key ~absorbed:(fun _ -> false) payload)

  let find t key =
    let rec go node = function
      | [] -> List.rev_map snd node.entries
      | tok :: rest -> ( match child node tok with Some c -> go c rest | None -> [])
    in
    go t.root (tokens key)

  (* all nodes reachable from [node] by consuming exactly [k] whole
     stored subterms (used when the skeleton has a variable); branches
     whose time stamp is older than [from] are pruned *)
  let rec skip ~from node k acc =
    if k = 0 then if node.latest >= from then node :: acc else acc
    else
      fold_children
        (fun tok child acc ->
          if child.latest < from then acc else skip ~from child (k - 1 + opens tok) acc)
        node acc

  let lookup_from ~from t skeleton =
    let acc = ref [] in
    let rec go node agenda =
      if node.latest >= from then
        match agenda with
        | [] -> List.iter (fun (i, x) -> if i >= from then acc := (i, x) :: !acc) node.entries
        | q :: rest -> (
            match q with
            | Canon.CVar _ ->
                (* skeleton variable: matches one whole stored subterm
                   along every branch (including stored variables) *)
                List.iter (fun n -> go n rest) (skip ~from node 1 [])
            | _ ->
                (* a stored variable absorbs the whole skeleton subterm *)
                iter_children
                  (fun tok child -> match tok with TVar _ -> go child rest | _ -> ())
                  node;
                let descend tok sub =
                  match child node tok with Some c -> go c (sub @ rest) | None -> ()
                in
                (match q with
                | Canon.CVar _ -> assert false
                | Canon.CAtom a -> descend (TAtom a) []
                | Canon.CInt i -> descend (TInt i) []
                | Canon.CFloat x -> descend (TFloat x) []
                | Canon.CStruct (f, args) ->
                    descend (TStruct (f, Array.length args)) (Array.to_list args)))
    in
    go t.root [ skeleton ];
    List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) !acc

  let lookup t skeleton = lookup_from ~from:0 t skeleton

  let iter_matching ?(from = 0) t skeleton f =
    List.iter (fun (i, x) -> f i x) (lookup_from ~from t skeleton)

  (* Estimated heap bytes of the whole index, on the same model as
     [Canon.size_bytes]: trie nodes, their child tables and edges (with
     the token payloads), entry cells, the insertion-order vector, and
     the stored payloads through the caller's sizer. *)
  let footprint payload_bytes t =
    let word = 8 in
    let tok_bytes = function
      | TVar _ | TInt _ -> 2 * word
      | TFloat _ -> 4 * word  (* the constructor block and the boxed float *)
      | TAtom s -> (2 * word) + Canon.string_bytes s
      | TStruct (s, _) -> (3 * word) + Canon.string_bytes s
    in
    let total = ref 0 in
    let rec node n =
      (* the node record and one cons + pair per entry *)
      total := !total + (4 * word) + (List.length n.entries * 6 * word);
      match n.children with
      | None -> ()
      | Some tbl ->
          (* the option block, then the table; its bucket cells are the edges *)
          total := !total + (2 * word) + Canon.hashtbl_bytes (Tok_tbl.length tbl);
          Tok_tbl.iter
            (fun tok child ->
              total := !total + tok_bytes tok;
              node child)
            tbl
    in
    node t.root;
    total := !total + (4 * word) + (Vec.capacity t.order * word);
    Vec.iter (fun p -> total := !total + payload_bytes p) t.order;
    !total

  (* Call-subsumption retrieval (Cruz & Rocha): the entries whose stored
     key is at least as general as [probe] — i.e. [probe] is an instance
     of the key.  The walk is exact, not a candidate superset: stored
     variables absorb whole probe subterms through a persistent binding
     environment, so a non-linear stored key like p(X,X) only matches
     probes whose corresponding subterms are equal. *)
  let retrieve_subsuming t probe =
    let acc = ref [] in
    let rec go node bindings agenda =
      match agenda with
      | [] -> acc := List.rev_append node.entries !acc
      | q :: rest ->
          (* a stored variable generalizes the whole probe subterm,
             consistently across repeated occurrences *)
          iter_children
            (fun tok child ->
              match tok with
              | TVar n -> (
                  match List.assoc_opt n bindings with
                  | Some prev -> if Canon.equal prev q then go child bindings rest
                  | None -> go child ((n, q) :: bindings) rest)
              | _ -> ())
            node;
          let descend tok sub =
            match child node tok with Some c -> go c bindings (sub @ rest) | None -> ()
          in
          (match q with
          | Canon.CVar _ ->
              (* only a stored variable is at least as general as a
                 probe variable; handled above *)
              ()
          | Canon.CAtom a -> descend (TAtom a) []
          | Canon.CInt i -> descend (TInt i) []
          | Canon.CFloat x -> descend (TFloat x) []
          | Canon.CStruct (f, args) ->
              descend (TStruct (f, Array.length args)) (Array.to_list args))
    in
    go t.root [] [ probe ];
    List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) !acc
end

(* ------------------------------------------------------------------ *)

module Subsumption = struct
  (* Answer subsumption (lattice tabling): a table declared
     [:- table p/N as subsumptive(Op)] keeps one answer per combination
     of its first N-1 ("key") arguments; the last argument is the value
     column, folded under [Op] when another answer with the same key
     arrives. [split]/[rebuild] factor a canonical answer template into
     its key part and value column; [fold] is the lattice operation. The
     SLG machine owns the per-table bookkeeping (which answer holds each
     key, consumer rewinds when a value improves); the column algebra
     lives here with the rest of the answer-store machinery. *)

  type op = Min | Max | Sum | Count | First

  let op_of_string = function
    | "min" -> Some Min
    | "max" -> Some Max
    | "sum" -> Some Sum
    | "count" -> Some Count
    | "first" -> Some First
    | _ -> None

  let op_to_string = function
    | Min -> "min"
    | Max -> "max"
    | Sum -> "sum"
    | Count -> "count"
    | First -> "first"

  exception Not_numeric of Canon.t

  (* the key of an answer: its functor and all arguments but the last,
     wrapped so arity-1 answers (empty key) still make a hashable term *)
  let split template =
    match template with
    | Canon.CStruct (_, args) when Array.length args >= 1 ->
        let n = Array.length args in
        Some (Canon.CStruct ("$subsume_key", Array.sub args 0 (n - 1)), args.(n - 1))
    | _ -> None

  let rebuild functor_name key value =
    match key with
    | Canon.CStruct ("$subsume_key", prefix) ->
        Canon.CStruct (functor_name, Array.append prefix [| value |])
    | _ -> invalid_arg "Subsumption.rebuild: not a key"

  (* numeric comparison when both sides are numbers, standard order of
     canonical terms otherwise (so min/max also work over atoms) *)
  let compare_values a b =
    match (a, b) with
    | Canon.CInt x, Canon.CInt y -> Int.compare x y
    | Canon.CFloat x, Canon.CFloat y -> Float.compare x y
    | Canon.CInt x, Canon.CFloat y -> Float.compare (float_of_int x) y
    | Canon.CFloat x, Canon.CInt y -> Float.compare x (float_of_int y)
    | _ -> Canon.compare a b

  let add_values a b =
    match (a, b) with
    | Canon.CInt x, Canon.CInt y -> Canon.CInt (x + y)
    | Canon.CFloat x, Canon.CFloat y -> Canon.CFloat (x +. y)
    | Canon.CInt x, Canon.CFloat y -> Canon.CFloat (float_of_int x +. y)
    | Canon.CFloat x, Canon.CInt y -> Canon.CFloat (x +. float_of_int y)
    | (Canon.CInt _ | Canon.CFloat _), other | other, _ -> raise (Not_numeric other)

  (* the value column of the very first answer for a key *)
  let initial op value =
    match op with
    | Min | Max | First -> value
    | Count -> Canon.CInt 1
    | Sum -> add_values (Canon.CInt 0) value

  (* fold an incoming value into the current one; [None] means the
     stored answer already subsumes the new one (no change) *)
  let fold op ~current value =
    match op with
    | First -> None
    | Min -> if compare_values value current < 0 then Some value else None
    | Max -> if compare_values value current > 0 then Some value else None
    | Count -> Some (add_values current (Canon.CInt 1))
    | Sum ->
        let sum = add_values current value in
        if Canon.equal sum current then None else Some sum
end
