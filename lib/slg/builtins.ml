open Xsb_term
open Xsb_db

exception Builtin_error of string

type ctx = { trail : Trail.t; db : Database.t; out : Format.formatter }

type t = ctx -> Term.t array -> (unit -> unit) -> unit

let error fmt = Fmt.kstr (fun s -> raise (Builtin_error s)) fmt

let unify_det ctx a b sk =
  let m = Trail.mark ctx.trail in
  if Unify.unify ctx.trail a b then sk ();
  Trail.undo_to ctx.trail m

let check test sk = if test then sk ()

(* ---- term inspection / construction ---- *)

let functor3 ctx args sk =
  match Term.deref args.(0) with
  | Term.Var _ -> (
      let name = Term.deref args.(1) and arity = Term.deref args.(2) in
      match (name, arity) with
      | _, Term.Int 0 -> unify_det ctx args.(0) name sk
      | Term.Atom f, Term.Int n when n > 0 ->
          unify_det ctx args.(0) (Term.Struct (f, Array.init n (fun _ -> Term.fresh_var ()))) sk
      | _ -> error "functor/3: insufficiently instantiated")
  | Term.Struct (f, fargs) ->
      unify_det ctx
        (Term.Struct (",", [| args.(1); args.(2) |]))
        (Term.Struct (",", [| Term.Atom f; Term.Int (Array.length fargs) |]))
        sk
  | t -> unify_det ctx (Term.Struct (",", [| args.(1); args.(2) |]))
           (Term.Struct (",", [| t; Term.Int 0 |]))
           sk

let arg3 ctx args sk =
  match (Term.deref args.(0), Term.deref args.(1)) with
  | Term.Int n, Term.Struct (_, fargs) when n >= 1 && n <= Array.length fargs ->
      unify_det ctx args.(2) fargs.(n - 1) sk
  | Term.Int _, _ -> ()
  | _ -> error "arg/3: first argument must be an integer"

let univ ctx args sk =
  match Term.deref args.(0) with
  | Term.Struct (f, fargs) ->
      unify_det ctx args.(1) (Term.list_ (Term.Atom f :: Array.to_list fargs)) sk
  | Term.Atom a -> unify_det ctx args.(1) (Term.list_ [ Term.Atom a ]) sk
  | (Term.Int _ | Term.Float _) as t -> unify_det ctx args.(1) (Term.list_ [ t ]) sk
  | Term.Var _ -> (
      match Term.to_list args.(1) with
      | Some (h :: rest) -> (
          match (Term.deref h, rest) with
          | h, [] -> unify_det ctx args.(0) h sk
          | Term.Atom f, rest -> unify_det ctx args.(0) (Term.app f rest) sk
          | _ -> error "=../2: bad list")
      | _ -> error "=../2: insufficiently instantiated")

(* ---- arithmetic ---- *)

let is2 ctx args sk =
  let v = Arith.eval args.(1) in
  unify_det ctx args.(0) (Arith.to_term v) sk

let arith_cmp op _ctx args sk =
  let a = Arith.eval args.(0) and b = Arith.eval args.(1) in
  check (op (Arith.compare_numbers a b) 0) sk

(* ---- enumeration ---- *)

let between ctx args sk =
  match (Term.deref args.(0), Term.deref args.(1)) with
  | Term.Int lo, Term.Int hi -> (
      match Term.deref args.(2) with
      | Term.Int x -> check (lo <= x && x <= hi) sk
      | Term.Var _ ->
          for x = lo to hi do
            let m = Trail.mark ctx.trail in
            if Unify.unify ctx.trail args.(2) (Term.Int x) then sk ();
            Trail.undo_to ctx.trail m
          done
      | _ -> ())
  | _ -> error "between/3: bounds must be integers"

let succ2 ctx args sk =
  match (Term.deref args.(0), Term.deref args.(1)) with
  | Term.Int a, _ -> unify_det ctx args.(1) (Term.Int (a + 1)) sk
  | _, Term.Int b when b > 0 -> unify_det ctx args.(0) (Term.Int (b - 1)) sk
  | _ -> error "succ/2: insufficiently instantiated"

let length2 ctx args sk =
  match Term.to_list args.(0) with
  | Some l -> unify_det ctx args.(1) (Term.Int (List.length l)) sk
  | None -> (
      match (Term.deref args.(0), Term.deref args.(1)) with
      | Term.Var _, Term.Int n when n >= 0 ->
          unify_det ctx args.(0) (Term.list_ (List.init n (fun _ -> Term.fresh_var ()))) sk
      | _ -> error "length/2: insufficiently instantiated")

(* ---- atoms and codes ---- *)

let text_of t =
  match Term.deref t with
  | Term.Atom a -> Some a
  | Term.Int i -> Some (string_of_int i)
  | Term.Float f -> Some (Fmt.str "%g" f)
  | _ -> None

let codes_term s = Term.list_ (List.map (fun c -> Term.Int (Char.code c)) (List.of_seq (String.to_seq s)))
let chars_term s =
  Term.list_ (List.map (fun c -> Term.Atom (String.make 1 c)) (List.of_seq (String.to_seq s)))

let string_of_codes l =
  let buf = Buffer.create 16 in
  let ok =
    List.for_all
      (fun t ->
        match Term.deref t with
        | Term.Int c when c >= 0 && c < 256 ->
            Buffer.add_char buf (Char.chr c);
            true
        | _ -> false)
      l
  in
  if ok then Some (Buffer.contents buf) else None

let string_of_chars l =
  let buf = Buffer.create 16 in
  let ok =
    List.for_all
      (fun t ->
        match Term.deref t with
        | Term.Atom a when String.length a = 1 ->
            Buffer.add_char buf a.[0];
            true
        | _ -> false)
      l
  in
  if ok then Some (Buffer.contents buf) else None

let atom_codes ctx args sk =
  match text_of args.(0) with
  | Some s -> unify_det ctx args.(1) (codes_term s) sk
  | None -> (
      match Option.bind (Term.to_list args.(1)) string_of_codes with
      | Some s -> unify_det ctx args.(0) (Term.Atom s) sk
      | None -> error "atom_codes/2: insufficiently instantiated")

let atom_chars ctx args sk =
  match text_of args.(0) with
  | Some s -> unify_det ctx args.(1) (chars_term s) sk
  | None -> (
      match Option.bind (Term.to_list args.(1)) string_of_chars with
      | Some s -> unify_det ctx args.(0) (Term.Atom s) sk
      | None -> error "atom_chars/2: insufficiently instantiated")

let number_codes ctx args sk =
  match Term.deref args.(0) with
  | Term.Int _ | Term.Float _ ->
      unify_det ctx args.(1) (codes_term (Option.get (text_of args.(0)))) sk
  | _ -> (
      match Option.bind (Term.to_list args.(1)) string_of_codes with
      | Some s -> (
          match int_of_string_opt s with
          | Some i -> unify_det ctx args.(0) (Term.Int i) sk
          | None -> (
              match float_of_string_opt s with
              | Some f -> unify_det ctx args.(0) (Term.Float f) sk
              | None -> ()))
      | None -> error "number_codes/2: insufficiently instantiated")

let atom_number ctx args sk =
  match Term.deref args.(0) with
  | Term.Atom a -> (
      match int_of_string_opt a with
      | Some i -> unify_det ctx args.(1) (Term.Int i) sk
      | None -> (
          match float_of_string_opt a with
          | Some f -> unify_det ctx args.(1) (Term.Float f) sk
          | None -> ()))
  | _ -> (
      match text_of args.(1) with
      | Some s -> unify_det ctx args.(0) (Term.Atom s) sk
      | None -> error "atom_number/2: insufficiently instantiated")

let atom_length ctx args sk =
  match text_of args.(0) with
  | Some s -> unify_det ctx args.(1) (Term.Int (String.length s)) sk
  | None -> error "atom_length/2: first argument must be atomic"

let atom_concat ctx args sk =
  match (text_of args.(0), text_of args.(1)) with
  | Some a, Some b -> unify_det ctx args.(2) (Term.Atom (a ^ b)) sk
  | _ -> (
      match text_of args.(2) with
      | Some s ->
          for i = 0 to String.length s do
            let m = Trail.mark ctx.trail in
            if
              Unify.unify ctx.trail args.(0) (Term.Atom (String.sub s 0 i))
              && Unify.unify ctx.trail args.(1)
                   (Term.Atom (String.sub s i (String.length s - i)))
            then sk ();
            Trail.undo_to ctx.trail m
          done
      | None -> error "atom_concat/3: insufficiently instantiated")

(* ---- output ---- *)

let write_term ctx t = Fmt.pf ctx.out "%a" (Xsb_parse.Pretty.pp ~ops:(Database.ops ctx.db) ()) t

(* ---- clause base updates ---- *)

let split_clause t =
  let t = Term.deref t in
  Database.clause_parts t

let assert_clause ctx ~front args sk =
  let head, _ = split_clause args.(0) in
  let head = Database.encode ctx.db head in
  let name, arity = Database.head_key head in
  (match Database.find ctx.db name arity with
  | Some pred when Pred.kind pred = Pred.Static && Pred.clause_count pred > 0 ->
      error "assert/1: predicate %s/%d is static" name arity
  | _ -> ());
  let pred = Database.set_dynamic ctx.db name arity in
  let head, body = split_clause (Term.copy args.(0)) in
  let head = Database.encode ctx.db head and body = Database.encode ctx.db body in
  ignore (Database.insert_clause ctx.db ~front pred ~head ~body);
  sk ()

(* The clause walk of retract/1 and retractall/1: [f] runs, with the
   bindings in place, on each clause of [pred] whose renamed head and
   body unify with [head] and [body]. Index lookup and the clash check
   skip most clauses without renaming them. *)
let each_unifying ctx pred head body f =
  let args = match Term.deref head with Term.Struct (_, a) -> a | _ -> [||] in
  List.iter
    (fun clause ->
      if not (Pred.clashes args clause) then begin
        let m = Trail.mark ctx.trail in
        let h, b = Pred.renamed clause in
        if Unify.unify ctx.trail head h && Unify.unify ctx.trail body b then f clause;
        Trail.undo_to ctx.trail m
      end)
    (Pred.lookup pred args)

let retract ctx args sk =
  let head, body = split_clause args.(0) in
  let head = Database.encode ctx.db head and body = Database.encode ctx.db body in
  let name, arity = Database.head_key head in
  match Database.find ctx.db name arity with
  | None -> ()
  | Some pred ->
      each_unifying ctx pred head body (fun clause ->
          Database.retract_clause ctx.db pred clause;
          sk ())

let retractall ctx args sk =
  let head = Database.encode ctx.db args.(0) in
  let name, arity = Database.head_key head in
  (match Database.find ctx.db name arity with
  | None -> ()
  | Some pred ->
      each_unifying ctx pred head (Term.fresh_var ()) (Database.retract_clause ctx.db pred));
  sk ()

let abolish ctx args sk =
  (match Term.deref args.(0) with
  | Term.Struct ("/", [| n; a |]) -> (
      match (Term.deref n, Term.deref a) with
      | Term.Atom name, Term.Int arity -> Database.remove_pred ctx.db name arity
      | _ -> error "abolish/1: bad predicate indicator")
  | _ -> error "abolish/1: bad predicate indicator");
  sk ()

(* ---- sorting ---- *)

let sort2 ctx args sk =
  match Term.to_list args.(0) with
  | Some l -> unify_det ctx args.(1) (Term.list_ (List.sort_uniq Term.compare l)) sk
  | None -> error "sort/2: first argument must be a proper list"

let msort2 ctx args sk =
  match Term.to_list args.(0) with
  | Some l -> unify_det ctx args.(1) (Term.list_ (List.stable_sort Term.compare l)) sk
  | None -> error "msort/2: first argument must be a proper list"

let keysort2 ctx args sk =
  match Term.to_list args.(0) with
  | Some l ->
      let key t =
        match Term.deref t with
        | Term.Struct ("-", [| k; _ |]) -> k
        | t -> Fmt.kstr (fun s -> raise (Builtin_error s)) "keysort/2: not a pair: %a" Term.pp t
      in
      let sorted = List.stable_sort (fun a b -> Term.compare (key a) (key b)) l in
      unify_det ctx args.(1) (Term.list_ sorted) sk
  | None -> error "keysort/2: first argument must be a proper list"

(* ---- listing: print clauses back in source form (§4.2's listing) ---- *)

let listing_pred ctx pred =
  let ops = Database.ops ctx.db in
  let pp_term = Xsb_parse.Pretty.pp ~ops () in
  List.iter
    (fun clause ->
      match Term.deref clause.Pred.body with
      | Term.Atom "true" -> Fmt.pf ctx.out "%a.@." pp_term clause.Pred.head
      | body -> Fmt.pf ctx.out "%a :-@.    %a.@." pp_term clause.Pred.head pp_term body)
    (Pred.clauses pred)

let listing1 ctx args sk =
  (match Term.deref args.(0) with
  | Term.Struct ("/", [| n; a |]) -> (
      match (Term.deref n, Term.deref a) with
      | Term.Atom name, Term.Int arity -> (
          match Database.find ctx.db name arity with
          | Some pred -> listing_pred ctx pred
          | None -> ())
      | _ -> error "listing/1: bad predicate indicator")
  | Term.Atom name ->
      List.iter
        (fun pred -> if Pred.name pred = name then listing_pred ctx pred)
        (Database.preds ctx.db)
  | t -> Fmt.kstr (fun s -> raise (Builtin_error s)) "listing/1: bad argument %a" Term.pp t);
  sk ()

(* ---- registry ---- *)

let type_check pred ctx args sk =
  ignore ctx;
  check (pred (Term.deref args.(0))) sk

let is_callable = function Term.Atom _ | Term.Struct _ -> true | _ -> false

let table : (string * int, t) Hashtbl.t = Hashtbl.create 64

let def name arity f = Hashtbl.replace table (name, arity) f

let () =
  def "=" 2 (fun ctx args sk -> unify_det ctx args.(0) args.(1) sk);
  def "\\=" 2 (fun ctx args sk ->
      let m = Trail.mark ctx.trail in
      let unifies = Unify.unify ctx.trail args.(0) args.(1) in
      Trail.undo_to ctx.trail m;
      check (not unifies) sk);
  def "==" 2 (fun _ args sk -> check (Term.compare args.(0) args.(1) = 0) sk);
  def "\\==" 2 (fun _ args sk -> check (Term.compare args.(0) args.(1) <> 0) sk);
  def "@<" 2 (fun _ args sk -> check (Term.compare args.(0) args.(1) < 0) sk);
  def "@>" 2 (fun _ args sk -> check (Term.compare args.(0) args.(1) > 0) sk);
  def "@=<" 2 (fun _ args sk -> check (Term.compare args.(0) args.(1) <= 0) sk);
  def "@>=" 2 (fun _ args sk -> check (Term.compare args.(0) args.(1) >= 0) sk);
  def "compare" 3 (fun ctx args sk ->
      let c = Term.compare args.(1) args.(2) in
      let order = if c < 0 then "<" else if c > 0 then ">" else "=" in
      unify_det ctx args.(0) (Term.Atom order) sk);
  def "var" 1 (type_check (function Term.Var _ -> true | _ -> false));
  def "nonvar" 1 (type_check (function Term.Var _ -> false | _ -> true));
  def "atom" 1 (type_check (function Term.Atom _ -> true | _ -> false));
  def "number" 1 (type_check (function Term.Int _ | Term.Float _ -> true | _ -> false));
  def "integer" 1 (type_check (function Term.Int _ -> true | _ -> false));
  def "float" 1 (type_check (function Term.Float _ -> true | _ -> false));
  def "atomic" 1
    (type_check (function Term.Atom _ | Term.Int _ | Term.Float _ -> true | _ -> false));
  def "compound" 1 (type_check (function Term.Struct _ -> true | _ -> false));
  def "callable" 1 (type_check is_callable);
  def "is_list" 1 (fun _ args sk -> check (Term.to_list args.(0) <> None) sk);
  def "ground" 1 (fun _ args sk -> check (Term.is_ground args.(0)) sk);
  def "functor" 3 functor3;
  def "arg" 3 arg3;
  def "=.." 2 univ;
  def "copy_term" 2 (fun ctx args sk -> unify_det ctx args.(1) (Term.copy args.(0)) sk);
  def "is" 2 is2;
  def "=:=" 2 (arith_cmp ( = ));
  def "=\\=" 2 (arith_cmp ( <> ));
  def "<" 2 (arith_cmp ( < ));
  def ">" 2 (arith_cmp ( > ));
  def "=<" 2 (arith_cmp ( <= ));
  def ">=" 2 (arith_cmp ( >= ));
  def "between" 3 between;
  def "succ" 2 succ2;
  def "length" 2 length2;
  def "atom_codes" 2 atom_codes;
  def "atom_chars" 2 atom_chars;
  def "number_codes" 2 number_codes;
  def "atom_number" 2 atom_number;
  def "atom_length" 2 atom_length;
  def "atom_concat" 3 atom_concat;
  def "write" 1 (fun ctx args sk ->
      write_term ctx args.(0);
      sk ());
  def "print" 1 (fun ctx args sk ->
      write_term ctx args.(0);
      sk ());
  def "writeln" 1 (fun ctx args sk ->
      write_term ctx args.(0);
      Format.pp_print_newline ctx.out ();
      sk ());
  def "write_canonical" 1 (fun ctx args sk ->
      Fmt.pf ctx.out "%a" Term.pp args.(0);
      sk ());
  def "tab" 1 (fun ctx args sk ->
      (match Term.deref args.(0) with
      | Term.Int n -> Fmt.pf ctx.out "%s" (String.make (max 0 n) ' ')
      | _ -> ());
      sk ());
  def "assert" 1 (assert_clause ~front:false);
  def "assertz" 1 (assert_clause ~front:false);
  def "asserta" 1 (assert_clause ~front:true);
  def "retract" 1 retract;
  def "sort" 2 sort2;
  def "msort" 2 msort2;
  def "keysort" 2 keysort2;
  def "listing" 1 listing1;
  def "retractall" 1 retractall;
  def "abolish" 1 abolish

let lookup name arity = Hashtbl.find_opt table (name, arity)

let run b trail db out args sk = b { trail; db; out } args sk
