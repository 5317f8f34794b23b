open Xsb_term
open Xsb_parse

type result = {
  clauses_loaded : int;
  deferred_goals : Term.t list;
  defined : (string * int) list;
  table_all_requested : bool;
}

exception Load_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Load_error s)) fmt

(* A conjunction, disjunction or list of items, flattened. *)
let rec items_of term =
  match Term.deref term with
  | Term.Struct ((("," | ";") as _c), [| l; r |]) -> items_of l @ items_of r
  | t -> ( match Term.to_list t with Some l -> List.concat_map items_of l | None -> [ t ])

let pred_indicator term =
  match Term.deref term with
  | Term.Struct ("/", [| n; a |]) -> (
      match (Term.deref n, Term.deref a) with
      | Term.Atom name, Term.Int arity when arity >= 0 -> (name, arity)
      | _ -> fail "bad predicate indicator: %a" Term.pp term)
  | t -> fail "bad predicate indicator: %a" Term.pp t

(* Index specifications: an integer field, [1,2,3+5]-style lists, or the
   atoms [str] / [first_string] / [trie] for first-string indexing. A
   combination names one to three arguments, the most a hash index keys on. *)
let index_spec_of arity term =
  let combo_of item =
    let rec fields t =
      match Term.deref t with
      | Term.Int f when f >= 1 && f <= arity -> [ f ]
      | Term.Struct ("+", [| l; r |]) -> fields l @ fields r
      | t -> fail "bad index field: %a" Term.pp t
    in
    let combo = fields item in
    if List.length combo > 3 then fail "index on more than three fields: %a" Term.pp item;
    combo
  in
  match Term.deref term with
  | Term.Int _ -> Pred.Fields [ combo_of term ]
  | Term.Atom ("str" | "first_string" | "trie") -> Pred.First_string_index
  | Term.Atom ("disc" | "dtree" | "disc_tree") -> Pred.Disc_tree_index
  | t -> (
      match Term.to_list t with
      | Some combos -> Pred.Fields (List.map combo_of combos)
      | None -> fail "bad index specification: %a" Term.pp t)

(* A tabling mode annotation: [:- table p/2 as incremental],
   [:- table p/2 as subsumption], or [:- table p/3 as subsumptive(min)]. *)
let table_mode_of term =
  match Term.deref term with
  | Term.Atom ("incremental" | "opaque") -> Pred.Incremental
  | Term.Atom "variant" -> Pred.Variant
  | Term.Atom "subsumption" -> Pred.Subsumption
  | Term.Struct ("subsumptive", [| op |]) -> (
      match Term.deref op with
      | Term.Atom name -> (
          match Xsb_index.Answer_store.Subsumption.op_of_string name with
          | Some op -> Pred.Subsumptive op
          | None -> fail "unknown subsumption operation: %s" name)
      | t -> fail "bad subsumption operation: %a" Term.pp t)
  | t -> fail "bad tabling mode: %a" Term.pp t

let process_directive db directive =
  match Term.deref directive with
  | Term.Atom "table_all" -> `Table_all
  | Term.Struct ("table", [| spec |]) ->
      List.iter
        (fun item ->
          match Term.deref item with
          | Term.Struct ("as", [| pi; mode |]) ->
              let name, arity = pred_indicator pi in
              Database.set_table_mode db name arity (table_mode_of mode)
          | pi ->
              let name, arity = pred_indicator pi in
              Database.set_tabled db name arity)
        (items_of spec);
      `Handled
  | Term.Struct ("dynamic", [| spec |]) ->
      List.iter
        (fun pi ->
          let name, arity = pred_indicator pi in
          ignore (Database.set_dynamic db name arity))
        (items_of spec);
      `Handled
  | Term.Struct ("hilog", [| spec |]) ->
      List.iter
        (fun s ->
          match Term.deref s with
          | Term.Atom name -> Database.declare_hilog db name
          | t -> fail "bad hilog declaration: %a" Term.pp t)
        (items_of spec);
      `Handled
  | Term.Struct ("index", [| pi; spec |]) ->
      let name, arity = pred_indicator pi in
      Database.set_index db name arity (index_spec_of arity spec);
      `Handled
  | Term.Struct ("index", [| pi; spec; size |]) ->
      let name, arity = pred_indicator pi in
      let size_hint =
        match Term.deref size with
        | Term.Int n when n > 0 -> Some n
        | t -> fail "bad index hash size: %a" Term.pp t
      in
      Database.set_index db ?size_hint name arity (index_spec_of arity spec);
      `Handled
  | Term.Struct ("op", [| p; f; names |]) -> (
      match (Term.deref p, Term.deref f) with
      | Term.Int priority, Term.Atom fixity -> (
          match Ops.fixity_of_string fixity with
          | Some fixity ->
              List.iter
                (fun name ->
                  match Term.deref name with
                  | Term.Atom name -> Database.add_op db priority fixity name
                  | t -> fail "bad operator name: %a" Term.pp t)
                (items_of names);
              `Handled
          | None -> fail "bad operator fixity: %s" fixity)
      | _ -> fail "bad op/3 directive")
  | Term.Struct ("module", [| name; exports |]) -> (
      match Term.deref name with
      | Term.Atom m ->
          let exports =
            match Term.to_list (Term.deref exports) with
            | Some l -> List.map pred_indicator l
            | None -> []
          in
          Database.declare_module db m exports;
          Database.set_current_module db m;
          `Handled
      | t -> fail "bad module name: %a" Term.pp t)
  | Term.Struct (("import" | "export" | "discontiguous"), _) ->
      (* recorded for compatibility; predicates live in one global space *)
      `Handled
  | goal -> `Deferred goal

let consult_lexer db lexer =
  let deferred = ref [] in
  let defined = ref [] in
  let count = ref 0 in
  let table_all = ref false in
  let note_defined key = if not (List.mem key !defined) then defined := key :: !defined in
  let rec go () =
    match Parser.read_term ~ops:(Database.ops db) lexer with
    | None -> ()
    | Some (term, _) ->
        (match Term.deref term with
        | Term.Struct (":-", [| directive |]) -> (
            match process_directive db directive with
            | `Handled -> ()
            | `Table_all -> table_all := true
            | `Deferred goal -> deferred := goal :: !deferred)
        | Term.Struct ("?-", [| goal |]) -> deferred := Database.encode db goal :: !deferred
        | clause ->
            let clause = if Dcg.is_dcg_rule clause then Dcg.translate clause else clause in
            let pred, _ = Database.add_clause db clause in
            note_defined (Pred.name pred, Pred.arity pred);
            incr count);
        go ()
  in
  go ();
  let defined = List.rev !defined in
  if !table_all then Table_all.apply db ~scope:defined;
  {
    clauses_loaded = !count;
    deferred_goals = List.rev !deferred;
    defined;
    table_all_requested = !table_all;
  }

let consult_string db source = consult_lexer db (Lexer.of_string source)

let consult_file db path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> consult_lexer db (Lexer.of_channel ic))
