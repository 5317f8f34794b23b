open Xsb_term

type t =
  | Add_clause of {
      name : string;
      arity : int;
      front : bool;
      dynamic : bool;
      clause : Canon.t;
    }
  | Retract_clause of { name : string; arity : int; clause : Canon.t }
  | Remove_pred of { name : string; arity : int }
  | Set_tabled of { name : string; arity : int }
  | Set_table_mode of { name : string; arity : int; mode : Pred.table_mode }
  | Set_dynamic of { name : string; arity : int }
  | Set_index of {
      name : string;
      arity : int;
      spec : Pred.index_spec;
      size_hint : int option;
    }
  | Declare_hilog of string
  | Declare_module of { module_name : string; exports : (string * int) list }
  | Declare_op of { priority : int; fixity : string; op_name : string }

exception Corrupt_record of string

let clause_canon (c : Pred.clause) =
  Canon.of_term (Term.Struct (":-", [| c.Pred.head; c.Pred.body |]))

let of_db_mutation : Database.mutation -> t = function
  | Database.Added_clause { pred; clause; front } ->
      Add_clause
        {
          name = Pred.name pred;
          arity = Pred.arity pred;
          front;
          dynamic = Pred.kind pred = Pred.Dynamic;
          clause = clause_canon clause;
        }
  | Database.Retracted_clause { pred; clause } ->
      Retract_clause
        { name = Pred.name pred; arity = Pred.arity pred; clause = clause_canon clause }
  | Database.Removed_pred { name; arity } -> Remove_pred { name; arity }
  | Database.Tabled_pred { name; arity } -> Set_tabled { name; arity }
  | Database.Table_mode_pred { name; arity; mode } -> Set_table_mode { name; arity; mode }
  | Database.Dynamic_pred { name; arity } -> Set_dynamic { name; arity }
  | Database.Indexed_pred { name; arity; spec; size_hint } ->
      Set_index { name; arity; spec; size_hint }
  | Database.Hilog_symbol name -> Declare_hilog name
  | Database.Module_decl { Database.module_name; exports } ->
      Declare_module { module_name; exports }
  | Database.Op_decl { priority; fixity; op_name } ->
      Declare_op { priority; fixity = Xsb_parse.Ops.fixity_to_string fixity; op_name }

let of_pred pred =
  let name = Pred.name pred and arity = Pred.arity pred in
  let dynamic = Pred.kind pred = Pred.Dynamic in
  (Remove_pred { name; arity }
  :: Set_index { name; arity; spec = Pred.index_spec pred; size_hint = None }
  :: (if dynamic then [ Set_dynamic { name; arity } ] else []))
  @ (match Pred.table_mode pred with
    | _ when not (Pred.tabled pred) -> []
    | Pred.Variant -> [ Set_tabled { name; arity } ]
    | mode -> [ Set_table_mode { name; arity; mode } ])
  @ List.map
      (fun c -> Add_clause { name; arity; front = false; dynamic; clause = clause_canon c })
      (Pred.clauses pred)

(* The records carry post-encoding clauses: nothing re-runs HiLog
   encoding, and the database ends up identical to the one that
   produced the stream. Retractions and removals of already-gone
   targets are no-ops, keeping replay deterministic. A decoded record
   always has a well-formed clause (see [get]); only one built in code
   can fail here. *)
let head_body clause =
  match Term.deref (Canon.to_term clause) with
  | Term.Struct (":-", [| head; body |]) -> (head, body)
  | _ -> raise (Corrupt_record "clause record is not a ':-'/2 term")

let apply db = function
  | Add_clause { name; arity; front; dynamic; clause } ->
      let kind = if dynamic then Pred.Dynamic else Pred.Static in
      let pred = Database.declare db ~kind name arity in
      if dynamic && Pred.kind pred <> Pred.Dynamic then Pred.set_kind pred Pred.Dynamic;
      let head, body = head_body clause in
      ignore (Database.insert_clause db ~front pred ~head ~body)
  | Retract_clause { name; arity; clause } -> (
      match Database.find db name arity with
      | None -> ()
      | Some pred -> (
          (* the index narrows the candidates to a superset of the clauses
             whose head unifies with the record's, in clause order *)
          let args =
            match Term.deref (fst (head_body clause)) with
            | Term.Struct (_, args) -> args
            | _ -> [||]
          in
          let same c = Canon.equal (clause_canon c) clause in
          match List.find_opt same (Pred.lookup pred args) with
          | Some c -> Database.retract_clause db pred c
          | None -> ()))
  | Remove_pred { name; arity } -> Database.remove_pred db name arity
  | Set_tabled { name; arity } -> Database.set_tabled db name arity
  | Set_table_mode { name; arity; mode } -> Database.set_table_mode db name arity mode
  | Set_dynamic { name; arity } -> ignore (Database.set_dynamic db name arity)
  | Set_index { name; arity; spec; size_hint } ->
      Database.set_index db ?size_hint name arity spec
  | Declare_hilog name -> Database.declare_hilog db name
  | Declare_module { module_name; exports } -> Database.declare_module db module_name exports
  | Declare_op { priority; fixity; op_name } -> (
      match Xsb_parse.Ops.fixity_of_string fixity with
      | Some f -> Database.add_op db priority f op_name
      | None -> raise (Corrupt_record ("bad operator fixity " ^ fixity)))

(* ---------- the codec ---------- *)

let put_index_spec b spec size_hint =
  (match spec with
  | Pred.Fields combos ->
      Codec.put_u8 b 0;
      Codec.put_u32 b (List.length combos);
      List.iter
        (fun combo ->
          Codec.put_u32 b (List.length combo);
          List.iter (Codec.put_u32 b) combo)
        combos
  | Pred.First_string_index -> Codec.put_u8 b 1
  | Pred.Disc_tree_index -> Codec.put_u8 b 2);
  match size_hint with
  | None -> Codec.put_bool b false
  | Some n ->
      Codec.put_bool b true;
      Codec.put_u32 b n

let get_index_spec c =
  let spec =
    match Codec.get_u8 c with
    | 0 -> Pred.Fields (Codec.get_list c (fun c -> Codec.get_list c Codec.get_u32))
    | 1 -> Pred.First_string_index
    | 2 -> Pred.Disc_tree_index
    | _ -> Codec.decode_error "bad index tag"
  in
  let size_hint = if Codec.get_bool c then Some (Codec.get_u32 c) else None in
  (spec, size_hint)

(* the tag byte of each table mode *)
let table_modes =
  let open Xsb_index.Answer_store.Subsumption in
  Pred.
    [
      (0, Variant);
      (1, Incremental);
      (2, Subsumptive Min);
      (3, Subsumptive Max);
      (4, Subsumptive Sum);
      (5, Subsumptive Count);
      (6, Subsumptive First);
      (7, Subsumption);
    ]

(* tag 9 is retired (it held a whole object image), so an old
   snapshot's image record cannot decode as another record *)
let put b m =
  match m with
  | Add_clause { name; arity; front; dynamic; clause } ->
      Codec.put_u8 b 0;
      Codec.put_string b name;
      Codec.put_u32 b arity;
      Codec.put_bool b front;
      Codec.put_bool b dynamic;
      Codec.put_canon b clause
  | Retract_clause { name; arity; clause } ->
      Codec.put_u8 b 1;
      Codec.put_string b name;
      Codec.put_u32 b arity;
      Codec.put_canon b clause
  | Remove_pred { name; arity } ->
      Codec.put_u8 b 2;
      Codec.put_string b name;
      Codec.put_u32 b arity
  | Set_tabled { name; arity } ->
      Codec.put_u8 b 3;
      Codec.put_string b name;
      Codec.put_u32 b arity
  | Set_dynamic { name; arity } ->
      Codec.put_u8 b 4;
      Codec.put_string b name;
      Codec.put_u32 b arity
  | Set_index { name; arity; spec; size_hint } ->
      Codec.put_u8 b 5;
      Codec.put_string b name;
      Codec.put_u32 b arity;
      put_index_spec b spec size_hint
  | Declare_hilog name ->
      Codec.put_u8 b 6;
      Codec.put_string b name
  | Declare_module { module_name; exports } ->
      Codec.put_u8 b 7;
      Codec.put_string b module_name;
      Codec.put_u32 b (List.length exports);
      List.iter
        (fun (n, a) ->
          Codec.put_string b n;
          Codec.put_u32 b a)
        exports
  | Declare_op { priority; fixity; op_name } ->
      Codec.put_u8 b 8;
      Codec.put_u32 b priority;
      Codec.put_string b fixity;
      Codec.put_string b op_name
  | Set_table_mode { name; arity; mode } ->
      Codec.put_u8 b 10;
      Codec.put_string b name;
      Codec.put_u32 b arity;
      Codec.put_u8 b (fst (List.find (fun (_, m) -> m = mode) table_modes))

(* a clause record must hold [':-'(Head, Body)] with a head of the
   record's own name and arity, so that applying it cannot fail or
   file a clause under another predicate *)
let get_clause c ~name ~arity =
  let clause = Codec.get_canon c in
  (match clause with
  | Canon.CStruct (":-", [| head; _ |]) -> (
      match head with
      | Canon.CAtom n when arity = 0 && String.equal n name -> ()
      | Canon.CStruct (n, args) when Array.length args = arity && String.equal n name -> ()
      | _ -> Codec.decode_error "clause head does not match its record")
  | _ -> Codec.decode_error "clause record is not a ':-'/2 term");
  clause

let get c =
  let name_arity () =
    let name = Codec.get_string c in
    let arity = Codec.get_u32 c in
    (name, arity)
  in
  match Codec.get_u8 c with
  | 0 ->
      let name, arity = name_arity () in
      let front = Codec.get_bool c in
      let dynamic = Codec.get_bool c in
      let clause = get_clause c ~name ~arity in
      Add_clause { name; arity; front; dynamic; clause }
  | 1 ->
      let name, arity = name_arity () in
      let clause = get_clause c ~name ~arity in
      Retract_clause { name; arity; clause }
  | 2 ->
      let name, arity = name_arity () in
      Remove_pred { name; arity }
  | 3 ->
      let name, arity = name_arity () in
      Set_tabled { name; arity }
  | 4 ->
      let name, arity = name_arity () in
      Set_dynamic { name; arity }
  | 5 ->
      let name, arity = name_arity () in
      let spec, size_hint = get_index_spec c in
      Set_index { name; arity; spec; size_hint }
  | 6 -> Declare_hilog (Codec.get_string c)
  | 7 ->
      let module_name = Codec.get_string c in
      let exports =
        Codec.get_list c (fun c ->
            let n = Codec.get_string c in
            let a = Codec.get_u32 c in
            (n, a))
      in
      Declare_module { module_name; exports }
  | 8 ->
      let priority = Codec.get_u32 c in
      let fixity = Codec.get_string c in
      let op_name = Codec.get_string c in
      if priority > 1200 then Codec.decode_error "operator priority above 1200";
      if Xsb_parse.Ops.fixity_of_string fixity = None then
        Codec.decode_error ("bad operator fixity " ^ fixity);
      Declare_op { priority; fixity; op_name }
  | 10 ->
      let name, arity = name_arity () in
      let mode =
        match List.assoc_opt (Codec.get_u8 c) table_modes with
        | Some mode -> mode
        | None -> Codec.decode_error "bad table mode tag"
      in
      Set_table_mode { name; arity; mode }
  | _ -> Codec.decode_error "bad record tag"

let encode m =
  let b = Buffer.create 64 in
  put b m;
  Buffer.contents b

let decode payload =
  try
    let c = Codec.cursor payload in
    let m = get c in
    if c.Codec.pos <> String.length payload then
      Codec.decode_error "trailing bytes after record";
    m
  with Codec.Decode_error msg -> raise (Corrupt_record msg)
