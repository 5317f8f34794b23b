open Xsb_term

(* Pre-order token string of a canonical term. Variables are tokens too
   (they are canonically numbered), so each answer has exactly one
   terminal node in a trie built over these strings. *)
type tok = TVar of int | TAtom of string | TInt of int | TFloat of float | TStruct of string * int

module Tok = struct
  type t = tok

  let equal (a : t) (b : t) =
    match (a, b) with
    | TVar m, TVar n -> Int.equal m n
    | TInt i, TInt j -> Int.equal i j
    | TAtom x, TAtom y -> String.equal x y
    | TFloat x, TFloat y -> Float.equal x y
    | TStruct (f, m), TStruct (g, n) -> Int.equal m n && String.equal f g
    | _ -> false

  let hash = function
    | TVar n -> -1 - n
    | TInt i -> i
    | TAtom s -> Hashtbl.hash s
    | TFloat x -> Hashtbl.hash x
    | TStruct (f, n) -> Hashtbl.hash f + n
end

module Tok_tbl = Hashtbl.Make (Tok)

(* the token that opens a canonical subterm *)
let tok_of = function
  | Canon.CVar n -> TVar n
  | Canon.CAtom a -> TAtom a
  | Canon.CInt i -> TInt i
  | Canon.CFloat x -> TFloat x
  | Canon.CStruct (f, args) -> TStruct (f, Array.length args)

(* arity of the subterm a token opens: how many further subterms must be
   consumed before this one is complete *)
let opens = function TVar _ | TAtom _ | TInt _ | TFloat _ -> 0 | TStruct (_, n) -> n

module Index = struct
  (* Discrimination trie over the pre-order token string of the canonical
     key (the machine's: an answer's substitution): variables are tokens
     too, so each key has exactly one terminal node, and storage and
     index are one structure. Each terminal keeps a payload per answer
     *clause* (the same key can be stored several times, e.g. under
     different delay lists), and
     the trie supports retrieval by the bound-argument skeleton of a
     call: [lookup] walks only the branches whose token prefix can unify
     with the skeleton, so a bound call retrieves candidates without
     scanning the whole table (paper §4.5). *)
  type node = {
    mutable entries : int list;
        (* insertion positions of the entries stored here, newest first *)
    mutable latest : int;
        (* time stamp: the largest insertion position anywhere in this
           subtree, [-1] when empty.  Lets a stamped retrieval skip whole
           branches that hold nothing newer than the consumer's last
           poll. *)
    mutable children : children;
  }

  (* Most nodes of an answer trie are terminals or have one child (a
     list's cells, a ground argument): a table, with its 16-bucket array,
     is made only for a second child. *)
  and children = Leaf | One of tok * node | Many of node Tok_tbl.t

  type 'a t = {
    root : node;
    order : 'a Vec.t;
    mutable path : node array;
    mutable depth : int;
        (* scratch for [insert]: the nodes of the path it walks, whose
           time stamps it raises only once the insertion is accepted, and
           how many of them it has recorded *)
  }

  let fresh_node () = { entries = []; latest = -1; children = Leaf }
  let create () = { root = fresh_node (); order = Vec.create (); path = [||]; depth = 0 }

  let size t = Vec.length t.order
  let get t i = Vec.get t.order i
  let iter f t = Vec.iter f t.order
  let fold_left f acc t = Vec.fold_left f acc t.order

  let child node tok =
    match node.children with
    | Leaf -> None
    | One (t, c) -> if Tok.equal t tok then Some c else None
    | Many tbl -> Tok_tbl.find_opt tbl tok

  let add_child node tok =
    let c = fresh_node () in
    (match node.children with
    | Leaf -> node.children <- One (tok, c)
    | One (t, c0) ->
        let tbl = Tok_tbl.create 4 in
        Tok_tbl.add tbl t c0;
        Tok_tbl.add tbl tok c;
        node.children <- Many tbl
    | Many tbl -> Tok_tbl.add tbl tok c);
    c

  let child_or_add node tok =
    match node.children with
    | Leaf -> add_child node tok
    | One (t, c) -> if Tok.equal t tok then c else add_child node tok
    | Many tbl -> ( match Tok_tbl.find_opt tbl tok with Some c -> c | None -> add_child node tok)

  let iter_children f node =
    match node.children with Leaf -> () | One (t, c) -> f t c | Many tbl -> Tok_tbl.iter f tbl

  let fold_children f node acc =
    match node.children with
    | Leaf -> acc
    | One (t, c) -> f t c acc
    | Many tbl -> Tok_tbl.fold f tbl acc

  (* the entries of a node with insertion position [>= from], newest
     first, consed onto [acc] *)
  let entries_from t ~from node acc =
    List.fold_left
      (fun acc i -> if i >= from then (i, Vec.get t.order i) :: acc else acc)
      acc node.entries

  let record_path t node =
    let d = t.depth in
    if d = Array.length t.path then begin
      let path = Array.make (max 16 (2 * d)) node in
      Array.blit t.path 0 path 0 d;
      t.path <- path
    end;
    t.path.(d) <- node;
    t.depth <- d + 1

  (* The walk of [c] from [node] in token order, making the path as it
     goes and recording it; returns the node the walk ends at. *)
  let rec descend t node c =
    let next = child_or_add node (tok_of c) in
    record_path t next;
    match c with
    | Canon.CStruct (_, args) -> descend_args t next args 0
    | _ -> next

  and descend_args t node args i =
    if i = Array.length args then node else descend_args t (descend t node args.(i)) args (i + 1)

  let rec absorbed_in t absorbed = function
    | [] -> false
    | i :: rest -> absorbed (Vec.get t.order i) || absorbed_in t absorbed rest

  (* One walk to the terminal of [key]. A path made here ends in an empty
     terminal, so [absorbed] can only refuse an insertion whose path
     already existed; an accepted one raises the time stamps of the whole
     path. *)
  let insert t key ~absorbed payload =
    t.depth <- 0;
    let terminal = descend t t.root key in
    if absorbed_in t absorbed terminal.entries then None
    else begin
      let pos = Vec.length t.order in
      terminal.entries <- pos :: terminal.entries;
      t.root.latest <- pos;
      for i = 0 to t.depth - 1 do
        t.path.(i).latest <- pos
      done;
      Vec.push t.order payload;
      Some pos
    end

  let add t key payload = Option.get (insert t key ~absorbed:(fun _ -> false) payload)

  let find t key =
    let rec descend node c =
      match node with
      | None -> None
      | Some node -> (
          let next = child node (tok_of c) in
          match c with
          | Canon.CStruct (_, args) -> Array.fold_left descend next args
          | _ -> next)
    in
    match descend (Some t.root) key with
    | Some terminal -> List.rev_map (Vec.get t.order) terminal.entries
    | None -> []

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
        | [] -> acc := entries_from t ~from node !acc
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
      (* the node record and one cons cell per entry *)
      total := !total + (4 * word) + (List.length n.entries * 3 * word);
      (match n.children with
      | Leaf -> ()
      | One _ -> total := !total + (3 * word)
      | Many tbl ->
          (* the constructor block, then the table; its bucket cells are
             the edges *)
          total := !total + (2 * word) + Canon.hashtbl_bytes (Tok_tbl.length tbl));
      iter_children
        (fun tok child ->
          total := !total + tok_bytes tok;
          node child)
        n
    in
    node t.root;
    (* the index record, the order vector and the path scratch *)
    total := !total + (9 * word) + ((Vec.capacity t.order + Array.length t.path) * word);
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
      | [] -> acc := entries_from t ~from:0 node !acc
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
