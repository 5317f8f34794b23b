open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh () = Database.create ()

let load db text = Loader.consult_string db text

let heads pred = List.map (fun c -> Term.to_string c.Pred.head) (Pred.clauses pred)

let cases =
  [
    t "loader separates facts and rules" `Quick (fun () ->
        let db = fresh () in
        let r = load db "p(1). p(2). q(X) :- p(X)." in
        check_int "clauses" 3 r.Loader.clauses_loaded;
        check_int "p facts" 2 (Pred.clause_count (Option.get (Database.find db "p" 1)));
        check_int "q rules" 1 (Pred.clause_count (Option.get (Database.find db "q" 1))));
    t "table directive" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- table path/2.\npath(X,Y) :- edge(X,Y).");
        check_bool "tabled" true (Pred.tabled (Option.get (Database.find db "path" 2))));
    t "table directive with list" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- table [p/1, q/2].");
        check_bool "p" true (Pred.tabled (Option.get (Database.find db "p" 1)));
        check_bool "q" true (Pred.tabled (Option.get (Database.find db "q" 2))));
    t "dynamic directive" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- dynamic emp/2.");
        check_bool "dynamic" true (Pred.kind (Option.get (Database.find db "emp" 2)) = Pred.Dynamic));
    t "index directive shapes retrieval" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- index(p/3, [2]).\np(a,k1,1). p(b,k2,2). p(c,k1,3).");
        let pred = Option.get (Database.find db "p" 3) in
        let args s =
          match Term.deref (Parser.term_of_string s) with
          | Term.Struct (_, args) -> args
          | _ -> [||]
        in
        check_int "second-arg index" 2 (List.length (Pred.lookup pred (args "p(X,k1,Y)")));
        (* all clauses with unbound index field *)
        check_int "fallback" 3 (List.length (Pred.lookup pred (args "p(X,Y,Z)"))));
    t "first-string index directive" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- index(p/2, str).\np(g(a),1). p(g(b),2). p(h(c),3).");
        let pred = Option.get (Database.find db "p" 2) in
        check_bool "spec" true (Pred.index_spec pred = Pred.First_string_index);
        let args s =
          match Term.deref (Parser.term_of_string s) with
          | Term.Struct (_, args) -> args
          | _ -> [||]
        in
        check_int "trie discriminates below functor" 1
          (List.length (Pred.lookup pred (args "p(g(a),X)"))));
    t "op directive affects later clauses" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- op(700, xfx, likes).\nfact(john likes mary).");
        let pred = Option.get (Database.find db "fact" 1) in
        check_int "one clause" 1 (Pred.clause_count pred));
    t "hilog directive encodes clauses" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- hilog h.\nh(1). h(2).");
        check_bool "apply/2 exists" true (Database.find db "apply" 2 <> None);
        check_bool "no h/1" true (Database.find db "h" 1 = None));
    t "module directive recorded" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- module(lists, [append/3, member/2]).");
        let m = Option.get (Database.module_info db "lists") in
        check_int "exports" 2 (List.length m.Database.exports);
        check_bool "current" true (Database.current_module db = "lists"));
    t "deferred goals returned in order" `Quick (fun () ->
        let db = fresh () in
        let r = load db ":- write(hello).\np(1).\n:- write(world)." in
        check_int "two goals" 2 (List.length r.Loader.deferred_goals));
    t "clause order: assertz after asserta" `Quick (fun () ->
        let db = fresh () in
        let pred = Database.declare db "p" 1 in
        ignore (Pred.assertz pred ~head:(Parser.term_of_string "p(1)") ~body:(Term.Atom "true"));
        ignore (Pred.assertz pred ~head:(Parser.term_of_string "p(2)") ~body:(Term.Atom "true"));
        ignore (Pred.asserta pred ~head:(Parser.term_of_string "p(0)") ~body:(Term.Atom "true"));
        Alcotest.(check (list string)) "order" [ "p(0)"; "p(1)"; "p(2)" ] (heads pred));
    t "remove clause" `Quick (fun () ->
        let db = fresh () in
        ignore (load db "p(1). p(2). p(3).");
        let pred = Option.get (Database.find db "p" 1) in
        let second = List.nth (Pred.clauses pred) 1 in
        Pred.remove pred second;
        Alcotest.(check (list string)) "removed middle" [ "p(1)"; "p(3)" ] (heads pred));
    t "fast_load basic facts" `Quick (fun () ->
        let db = fresh () in
        let n = Fast_load.string_ db "e(1,2). e(2,3).\ne(3,4)." in
        check_int "loaded" 3 n;
        check_int "stored" 3 (Pred.clause_count (Option.get (Database.find db "e" 2))));
    t "fast_load nested terms, quoted atoms, lists, floats" `Quick (fun () ->
        let db = fresh () in
        let n =
          Fast_load.string_ db
            "emp(1, 'John Smith', date(1990, 5), [a,b], -3, 2.5).\n% comment\nemp(2, bob, null, [], 0, 1.0)."
        in
        check_int "loaded" 2 n;
        let pred = Option.get (Database.find db "emp" 6) in
        check_int "stored" 2 (Pred.clause_count pred));
    t "fast_load rejects junk" `Quick (fun () ->
        let db = fresh () in
        match Fast_load.string_ db "e(1,2) e(3,4)." with
        | exception Fast_load.Syntax _ -> ()
        | _ -> Alcotest.fail "expected syntax error");
    t "fast_load agrees with the general reader" `Quick (fun () ->
        let text = "f(a, g(1), [x,y]). f(b, h('q q'), []). f(-1, 2.5, [1,[2]])." in
        let db1 = fresh () and db2 = fresh () in
        ignore (Fast_load.string_ db1 text);
        ignore (load db2 text);
        let c1 = Pred.clauses (Option.get (Database.find db1 "f" 3)) in
        let c2 = Pred.clauses (Option.get (Database.find db2 "f" 3)) in
        List.iter2
          (fun a b -> check_bool "same clause" true (Unify.variant a.Pred.head b.Pred.head))
          c1 c2);
    t "obj_file round trip" `Quick (fun () ->
        let db = fresh () in
        ignore (load db ":- table p/1.\np(X) :- q(X).\nq(1). q(2).");
        let path = Filename.temp_file "xsbobj" ".xwam" in
        Obj_file.save_all db path;
        let db2 = fresh () in
        let n = Obj_file.load db2 path in
        Sys.remove path;
        check_int "clauses restored" 3 n;
        check_bool "tabling restored" true (Pred.tabled (Option.get (Database.find db2 "p" 1)));
        check_int "q facts" 2 (Pred.clause_count (Option.get (Database.find db2 "q" 1))));
    t "obj_file rejects garbage" `Quick (fun () ->
        let path = Filename.temp_file "xsbobj" ".bad" in
        Out_channel.with_open_bin path (fun oc -> output_string oc "NOTANOBJ");
        let db = fresh () in
        (match Obj_file.load db path with
        | exception Obj_file.Bad_object_file _ -> ()
        | exception End_of_file -> ()
        | _ -> Alcotest.fail "expected rejection");
        Sys.remove path);
    t "table_all tables exactly the cyclic SCCs" `Quick (fun () ->
        let db = fresh () in
        ignore
          (load db
             ":- table_all.\n\
              path(X,Y) :- edge(X,Y).\n\
              path(X,Y) :- path(X,Z), edge(Z,Y).\n\
              top(X) :- path(1,X).\n\
              even(X) :- odd(Y), X is Y + 1.\n\
              odd(X) :- even(Y), X is Y + 1.\n\
              edge(1,2).");
        check_bool "path tabled (self loop)" true
          (Pred.tabled (Option.get (Database.find db "path" 2)));
        check_bool "top not tabled" false (Pred.tabled (Option.get (Database.find db "top" 1)));
        check_bool "even tabled (mutual)" true
          (Pred.tabled (Option.get (Database.find db "even" 1)));
        check_bool "odd tabled (mutual)" true
          (Pred.tabled (Option.get (Database.find db "odd" 1)));
        check_bool "edge not tabled" false (Pred.tabled (Option.get (Database.find db "edge" 2))));
    t "body_calls sees through control constructs" `Quick (fun () ->
        let body = Parser.term_of_string "(a, \\+ b ; c -> tnot(d)), findall(X, e(X), L)" in
        let calls = Table_all.body_calls body in
        List.iter
          (fun name -> check_bool name true (List.mem (name, 0) calls || List.mem (name, 1) calls))
          [ "a"; "b"; "c"; "d"; "e" ]);
    t "abolish" `Quick (fun () ->
        let db = fresh () in
        ignore (load db "p(1).");
        Database.remove_pred db "p" 1;
        check_bool "gone" true (Database.find db "p" 1 = None));
    t "a dynamic fact/2 costs at most 260 B in its predicate" `Quick (fun () ->
        let db = fresh () in
        let pred = Database.set_dynamic db "fact" 2 in
        let before = Obj.reachable_words (Obj.repr pred) in
        let n = 20_000 in
        for i = 1 to n do
          ignore (Database.add_clause db (Term.Struct ("fact", [| Term.Int i; Term.Int (7 * i) |])))
        done;
        check_int "stored" n (Pred.clause_count pred);
        let words = Obj.reachable_words (Obj.repr pred) - before in
        let bytes_per_fact = float_of_int (words * (Sys.word_size / 8)) /. float_of_int n in
        if bytes_per_fact > 260.0 then
          Alcotest.failf "%.1f B per fact, over the 260 B bound" bytes_per_fact);
    t "an index built on demand costs at most 160 B per fact/2 clause" `Quick (fun () ->
        let db = fresh () in
        let pred = Database.set_dynamic db "fact" 2 in
        let n = 20_000 in
        for i = 1 to n do
          ignore (Database.add_clause db (Term.Struct ("fact", [| Term.Int i; Term.Int (7 * i) |])))
        done;
        let before = Obj.reachable_words (Obj.repr pred) in
        check_int "fact(_,70) through the second argument" 1
          (List.length (Pred.lookup pred [| Term.fresh_var (); Term.Int 70 |]));
        check_bool "an index on argument 2 was built" true
          (Pred.hash_index_fields pred = [ [ 1 ]; [ 2 ] ]);
        let words = Obj.reachable_words (Obj.repr pred) - before in
        let bytes_per_clause = float_of_int (words * (Sys.word_size / 8)) /. float_of_int n in
        if bytes_per_clause > 160.0 then
          Alcotest.failf "%.1f B per clause, over the 160 B bound" bytes_per_clause);
    t "retracting n clauses one at a time from a trie-indexed predicate is linear in n" `Quick
      (fun () ->
        (* a trie that were rebuilt per retracted clause would allocate
           about n^2/2 clause insertions: some 10^8 words here *)
        let n = 2_000 in
        List.iter
          (fun (name, spec) ->
            let pred = Pred.create ~kind:Pred.Dynamic "p" 2 in
            Pred.set_index pred spec;
            let g i = Term.Struct ("g", [| Term.Int i |]) in
            let clauses =
              List.init n (fun i ->
                  Pred.assertz pred
                    ~head:(Term.Struct ("p", [| g i; Term.Struct ("f", [| Term.Int i |]) |]))
                    ~body:(Term.Atom "true"))
            in
            let candidates i = List.length (Pred.lookup pred [| g i; Term.fresh_var () |]) in
            let before = Gc.minor_words () in
            List.iteri
              (fun i c ->
                Pred.remove pred c;
                if i = n / 2 then begin
                  check_int (name ^ ": a retracted clause is no candidate") 0 (candidates 7);
                  check_int (name ^ ": a live clause still is") 1 (candidates (n - 1))
                end)
              clauses;
            let words = Gc.minor_words () -. before in
            check_int (name ^ ": all retracted") 0 (Pred.clause_count pred);
            if words > 200.0 *. float_of_int n then
              Alcotest.failf "%s: %.0f minor words to retract %d clauses, over %d per clause" name
                words n 200)
          [ ("first-string", Pred.First_string_index); ("disc", Pred.Disc_tree_index) ]);
  ]

(* The clause store against a list model: [asserta] prepends with id
   -1, -2, ..., [assertz] appends with id 0, 1, ..., and [remove] drops
   the clause with the removed clause's id. Heads are p(K, N): K is 0..3
   or an unbound variable, N numbers the insertion, except that every
   seventh clause has an unbound N (the model and the view record -1).
   Lookups p(_,N) bind only the second argument, which has no declared
   index: past the clause threshold they go through an index built on
   demand. *)
type store_op = Asserta of int option | Assertz of int option | Remove of int

let store_op_gen =
  let open QCheck2.Gen in
  let key = opt ~ratio:0.8 (int_range 0 3) in
  frequency
    [
      (4, map (fun k -> Asserta k) key);
      (6, map (fun k -> Assertz k) key);
      (4, map (fun j -> Remove j) nat);
    ]

let print_store_op = function
  | Asserta k -> Printf.sprintf "asserta %s" (Option.fold ~none:"_" ~some:string_of_int k)
  | Assertz k -> Printf.sprintf "assertz %s" (Option.fold ~none:"_" ~some:string_of_int k)
  | Remove j -> Printf.sprintf "remove #%d" j

let store_matches_model ops =
  let pred = Pred.create ~kind:Pred.Dynamic "p" 2 in
  (* model: (id, key, n) in clause order; [seen] holds every clause ever
     stored, live or not, so [Remove] can also pick stale ones *)
  let model = ref [] and front = ref (-1) and back = ref 0 in
  let seen = ref [||] in
  let view clauses =
    List.map
      (fun c ->
        match Term.deref c.Pred.head with
        | Term.Struct (_, [| k; n |]) ->
            let key = match Term.deref k with Term.Int k -> Some k | _ -> None in
            let n = match Term.deref n with Term.Int n -> n | _ -> -1 in
            (c.Pred.id, key, n)
        | _ -> (c.Pred.id, None, -1))
      clauses
  in
  let agree what got want =
    got = want
    || QCheck2.Test.fail_reportf "%s: got %d clauses, the model %d" what (List.length got)
         (List.length want)
  in
  let rec subseq got model =
    match (got, model) with
    | [], _ -> true
    | _, [] -> false
    | g :: gs, m :: ms -> if g = m then subseq gs ms else subseq got ms
  in
  let check_second_arg () =
    let n = Array.length !seen in
    List.for_all
      (fun b ->
        let got = view (Pred.lookup pred [| Term.fresh_var (); Term.Int b |]) in
        let want = List.filter (fun (_, _, m) -> m = -1 || m = b) !model in
        let built = List.mem [ 2 ] (Pred.hash_index_fields pred) in
        (subseq got !model
        || QCheck2.Test.fail_reportf "lookup p(_,%d) is not in clause order" b)
        && List.for_all
             (fun m -> List.mem m got
               || QCheck2.Test.fail_reportf "lookup p(_,%d) misses a clause" b)
             want
        && (built || Pred.clause_count pred <= Pred.demand_index_min_clauses
           || QCheck2.Test.fail_reportf "no index on argument 2 past %d clauses"
                Pred.demand_index_min_clauses)
        (* the index keys on integers, so its candidates are exactly the
           clauses that unify *)
        && ((not built) || agree (Printf.sprintf "indexed lookup p(_,%d)" b) got want)
        && Pred.index_spec pred = Pred.Fields [ [ 1 ] ])
      [ 0; n / 2; n - 1; n + 5 ]
  in
  let check_lookups () =
    agree "clauses" (view (Pred.clauses pred)) !model
    && Pred.clause_count pred = List.length !model
    && agree "lookup p(_,_)"
         (view (Pred.lookup pred [| Term.fresh_var (); Term.fresh_var () |]))
         !model
    && List.for_all
         (fun b ->
           let got = view (Pred.lookup pred [| Term.Int b; Term.fresh_var () |]) in
           (* in model order: [got] is a subsequence of the model *)
           let unifies (_, k, _) = k = None || k = Some b in
           (subseq got !model
           || QCheck2.Test.fail_reportf "lookup p(%d,_) is not in clause order" b)
           && List.for_all
                (fun m -> (not (unifies m)) || List.mem m got
                  || QCheck2.Test.fail_reportf "lookup p(%d,_) misses a clause" b)
                !model)
         [ 0; 1; 2; 3; 4 ]
    && check_second_arg ()
  in
  List.for_all
    (fun op ->
      let n = Array.length !seen in
      let n' = if n mod 7 = 6 then -1 else n in
      let head k =
        let arg = function None -> Term.fresh_var () | Some i -> Term.Int i in
        Term.Struct ("p", [| arg k; arg (if n' < 0 then None else Some n) |])
      in
      (match op with
      | Asserta k ->
          let c = Pred.asserta pred ~head:(head k) ~body:(Term.Atom "true") in
          model := (!front, k, n') :: !model;
          decr front;
          seen := Array.append !seen [| c |]
      | Assertz k ->
          let c = Pred.assertz pred ~head:(head k) ~body:(Term.Atom "true") in
          model := !model @ [ (!back, k, n') ];
          incr back;
          seen := Array.append !seen [| c |]
      | Remove j ->
          if n > 0 then begin
            let c = !seen.(j mod n) in
            Pred.remove pred c;
            model := List.filter (fun (id, _, _) -> id <> c.Pred.id) !model
          end);
      check_lookups ())
    ops

(* --- object images and snapshots rebuild the database --- *)

(* a history over a few predicates: static and dynamic clauses, table
   modes, index specs, HiLog symbols (h is also a predicate name, as in
   [:- hilog h.] beside the fact [h.]) and modules *)
type db_op =
  | Add of { p : int; dynamic : bool; front : bool; args : int list }
  | Retract of { p : int; k : int }
  | Remove of int
  | Table of { p : int; mode : Pred.table_mode option }
  | Index of { p : int; spec : Pred.index_spec }
  | Hilog of string
  | Module of { name : string; exports : int list }

let db_preds = [| ("p", 2); ("q", 1); ("h", 0); ("h", 1); ("r", 3) |]

let db_op_gen =
  let open QCheck2.Gen in
  let p = int_bound (Array.length db_preds - 1) in
  let mode =
    oneofl
      [
        None;
        Some Pred.Variant;
        Some Pred.Incremental;
        Some Pred.Subsumption;
        Some (Pred.Subsumptive Answer_store.Subsumption.Min);
        Some (Pred.Subsumptive Answer_store.Subsumption.Count);
      ]
  in
  let spec =
    oneofl
      [
        Pred.Fields [ [ 1 ] ];
        Pred.Fields [ [ 2 ]; [ 1; 2 ] ];
        Pred.Fields [ [ 1; 2; 3 ] ];
        Pred.First_string_index;
        Pred.Disc_tree_index;
      ]
  in
  frequency
    [
      ( 10,
        map4
          (fun p dynamic front args -> Add { p; dynamic; front; args })
          p bool bool
          (list_repeat 3 (int_range (-1) 5)) );
      (3, map2 (fun p k -> Retract { p; k }) p nat);
      (1, map (fun p -> Remove p) p);
      (2, map2 (fun p mode -> Table { p; mode }) p mode);
      (2, map2 (fun p spec -> Index { p; spec }) p spec);
      (2, map (fun h -> Hilog h) (oneofl [ "h"; "p"; "g" ]));
      ( 1,
        map2
          (fun name exports -> Module { name; exports })
          (oneofl [ "m1"; "m2" ])
          (list_size (int_bound 2) p) );
    ]

let print_db_op = function
  | Add { p; dynamic; front; args } ->
      Printf.sprintf "add %s/%d %s%s [%s]" (fst db_preds.(p)) (snd db_preds.(p))
        (if dynamic then "dynamic " else "")
        (if front then "asserta" else "assertz")
        (String.concat "," (List.map string_of_int args))
  | Retract { p; k } -> Printf.sprintf "retract %s/%d #%d" (fst db_preds.(p)) (snd db_preds.(p)) k
  | Remove p -> Printf.sprintf "remove %s/%d" (fst db_preds.(p)) (snd db_preds.(p))
  | Table { p; mode } ->
      Printf.sprintf "table %s/%d %s" (fst db_preds.(p)) (snd db_preds.(p))
        (Option.fold ~none:"(plain)" ~some:Pred.table_mode_to_string mode)
  | Index { p; spec } ->
      Printf.sprintf "index %s/%d %s" (fst db_preds.(p)) (snd db_preds.(p))
        (Suite_journal.index_spec_str spec)
  | Hilog h -> "hilog " ^ h
  | Module { name; exports } ->
      Printf.sprintf "module %s [%s]" name
        (String.concat "," (List.map (fun p -> fst db_preds.(p)) exports))

let apply_db_op db op =
  let key p = db_preds.(p) in
  match op with
  | Add { p; dynamic; front; args } ->
      let name, arity = key p in
      let arg = function
        | -1 -> Term.fresh_var ()
        | 4 -> Term.Atom "a"
        | 5 -> Term.Struct ("f", [| Term.fresh_var () |])
        | n -> Term.Int n
      in
      let head =
        if arity = 0 then Term.Atom name
        else Term.Struct (name, Array.of_list (List.filteri (fun i _ -> i < arity) (List.map arg args)))
      in
      let pred =
        if dynamic then Database.set_dynamic db name arity else Database.declare db name arity
      in
      ignore (Database.insert_clause db ~front pred ~head ~body:(Term.Atom "true"))
  | Retract { p; k } -> (
      let name, arity = key p in
      match Database.find db name arity with
      | Some pred when Pred.clause_count pred > 0 ->
          (* like retract/1: the first clause equal to the chosen one,
             since a record names a clause by its content *)
          let cs = Pred.clauses pred in
          let canon c = Canon.of_term (Term.Struct (":-", [| c.Pred.head; c.Pred.body |])) in
          let target = canon (List.nth cs (k mod List.length cs)) in
          Database.retract_clause db pred
            (List.find (fun c -> Canon.equal (canon c) target) cs)
      | _ -> ())
  | Remove p ->
      let name, arity = key p in
      Database.remove_pred db name arity
  | Table { p; mode } -> (
      let name, arity = key p in
      match mode with
      | None -> Database.set_tabled db name arity
      | Some mode -> (
          try Database.set_table_mode db name arity mode
          with Database.Table_mode_conflict _ -> ()))
  | Index { p; spec } ->
      let name, arity = key p in
      Database.set_index db name arity spec
  | Hilog h -> Database.declare_hilog db h
  | Module { name; exports } -> Database.declare_module db name (List.map key exports)

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let round_trips =
  let counter = ref 0 in
  fun ops ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xsb_db_roundtrip_%d_%d" (Unix.getpid ()) !counter)
    in
    Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_dir dir) @@ fun () ->
    let cfg = { (Journal.default_config ~dir) with Journal.sync = Journal.Never } in
    let db = fresh () in
    let j = Journal.open_ cfg db in
    Journal.attach j;
    (* half the history goes into the snapshot, half into the journal tail *)
    let half = List.length ops / 2 in
    List.iteri (fun i op -> if i < half then apply_db_op db op) ops;
    Journal.compact j;
    let at_compaction = Suite_journal.fingerprint db in
    List.iteri (fun i op -> if i >= half then apply_db_op db op) ops;
    Journal.close j;
    let live = Suite_journal.fingerprint db in
    let image = fresh () in
    ignore (Obj_file.load_string image (Suite_journal.image_bytes db));
    let recovered = fresh () in
    Journal.close (Journal.open_ cfg recovered);
    (* the snapshot alone, without the journal tail *)
    let snapshot_only = fresh () in
    Sys.remove (Filename.concat dir "journal.log");
    Journal.close (Journal.open_ cfg snapshot_only);
    let same what a b = String.equal a b || QCheck2.Test.fail_reportf "%s:\n%s\n<>\n%s" what a b in
    same "object image" (Suite_journal.pred_fingerprint db) (Suite_journal.pred_fingerprint image)
    && same "compact + recovery" live (Suite_journal.fingerprint recovered)
    && same "snapshot" at_compaction (Suite_journal.fingerprint snapshot_only)

let props =
  [
    QCheck2.Test.make ~count:300
      ~name:"clause store = list model under asserta, assertz and remove"
      ~print:QCheck2.Print.(list print_store_op)
      QCheck2.Gen.(list_size (int_range 0 60) store_op_gen)
      store_matches_model;
    QCheck2.Test.make ~count:100
      ~name:"an object image and compact + recovery rebuild the live database"
      ~print:QCheck2.Print.(list print_db_op)
      QCheck2.Gen.(list_size (int_range 0 40) db_op_gen)
      round_trips;
  ]

(* seed 20 unless QCHECK_SEED names another, as CI's seed matrix does *)
let seed = Option.fold ~none:20 ~some:int_of_string (Sys.getenv_opt "QCHECK_SEED")

let suite =
  cases
  @ List.map (QCheck_alcotest.to_alcotest ~long:false ~rand:(Random.State.make [| seed |])) props
