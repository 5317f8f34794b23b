(* Incremental tabling and answer subsumption (ISSUE PR 6).

   [:- table p/N as incremental.] tables track which dynamic predicates
   their derivations read; an assert/retract invalidates only the
   completed tables that transitively depend on the mutated predicate,
   and a pure clause addition to a negation-free incremental table is
   repaired in place instead of recomputed. [:- table p/N as
   subsumptive(op).] folds answers that share their key columns (all
   arguments but the last) into a single answer under the declared
   lattice operation. *)

open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ints_of q_answers =
  List.sort_uniq compare
    (List.map
       (fun (sol : Engine.solution) ->
         match sol.Engine.bindings with
         | [ (_, v) ] -> Term.to_string v
         | _ -> Alcotest.fail "expected one binding")
       q_answers)

let query_ints s goal = ints_of (Session.query s goal)

(* answers of a goal with exactly two bindings, as string pairs *)
let query_pairs s goal =
  List.sort_uniq compare
    (List.map
       (fun (sol : Engine.solution) ->
         match sol.Engine.bindings with
         | [ (_, a); (_, b) ] -> (Term.to_string a, Term.to_string b)
         | _ -> Alcotest.fail "expected two bindings")
       (Session.query s goal))

let assert_ s text = check_bool ("assert " ^ text) true (Session.succeeds s ("assert(" ^ text ^ ")"))
let retract s text = check_bool ("retract " ^ text) true (Session.succeeds s ("retract(" ^ text ^ ")"))

let mode_cases =
  [
    t "table ... as incremental parses and sets the mode" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s ":- table p/2 as incremental, q/2.\np(1,2).\nq(3,4).";
        let mode name =
          match Database.find (Session.db s) name 2 with
          | Some p -> Pred.table_mode p
          | None -> Alcotest.failf "%s/2 missing" name
        in
        check_bool "p incremental" true (mode "p" = Pred.Incremental);
        check_bool "q variant" true (mode "q" = Pred.Variant);
        check_bool "both tabled" true
          (match (Database.find (Session.db s) "p" 2, Database.find (Session.db s) "q" 2) with
          | Some p, Some q -> Pred.tabled p && Pred.tabled q
          | _ -> false));
    t "table ... as subsumptive(op) parses every op" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s
          ":- table m1/2 as subsumptive(min).\n\
           :- table m2/2 as subsumptive(max).\n\
           :- table m3/2 as subsumptive(sum).\n\
           :- table m4/2 as subsumptive(count).\n\
           :- table m5/2 as subsumptive(first).";
        let mode name =
          match Database.find (Session.db s) name 2 with
          | Some p -> Pred.table_mode p
          | None -> Alcotest.failf "%s/2 missing" name
        in
        let open Answer_store.Subsumption in
        check_bool "min" true (mode "m1" = Pred.Subsumptive Min);
        check_bool "max" true (mode "m2" = Pred.Subsumptive Max);
        check_bool "sum" true (mode "m3" = Pred.Subsumptive Sum);
        check_bool "count" true (mode "m4" = Pred.Subsumptive Count);
        check_bool "first" true (mode "m5" = Pred.Subsumptive First));
    t "an unknown table mode is a load error" `Quick (fun () ->
        let s = Session.create () in
        match Session.consult s ":- table p/2 as bogus." with
        | exception _ -> ()
        | () -> Alcotest.fail "expected a load error");
    t "contradictory table-mode redeclarations are a typed error" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s ":- table p/2 as incremental.";
        (match Session.consult s ":- table p/2 as subsumption." with
        | exception
            Database.Table_mode_conflict
              {
                name = "p";
                arity = 2;
                existing = Pred.Incremental;
                requested = Pred.Subsumption;
              } ->
            ()
        | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
        | () -> Alcotest.fail "expected Table_mode_conflict");
        (* the mode survives the rejected redeclaration *)
        check_bool "mode unchanged" true
          (match Database.find (Session.db s) "p" 2 with
          | Some p -> Pred.table_mode p = Pred.Incremental
          | None -> false);
        (* a same-mode redeclaration stays idempotent — journal replay
           re-applies Set_table_mode records and must never raise *)
        Session.consult s ":- table p/2 as incremental.";
        (* plain tabling first, then a mode: an upgrade, not a conflict *)
        Session.consult s ":- table q/2.\n:- table q/2 as subsumption.";
        check_bool "variant upgrades" true
          (match Database.find (Session.db s) "q" 2 with
          | Some q -> Pred.table_mode q = Pred.Subsumption
          | None -> false));
  ]

let reach_program =
  ":- table reach/2 as incremental.\n\
   reach(X,Y) :- edge(X,Y).\n\
   reach(X,Z) :- reach(X,Y), edge(Y,Z)."

let incremental_cases =
  [
    t "a pure addition is repaired in place, keeping old answers" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_program;
        assert_ s "edge(1,2)";
        assert_ s "edge(2,3)";
        check_bool "warm" true (query_ints s "reach(1,X)" = [ "2"; "3" ]);
        assert_ s "edge(3,4)";
        check_int "nothing invalidated" 0 (Session.stats s).Machine.st_invalidations;
        check_bool "new answer after repair" true (query_ints s "reach(1,X)" = [ "2"; "3"; "4" ]);
        check_int "one repair" 1 (Session.stats s).Machine.st_repairs);
    t "a retract invalidates, and the re-evaluation is correct" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_program;
        assert_ s "edge(1,2)";
        assert_ s "edge(2,3)";
        check_bool "warm" true (query_ints s "reach(1,X)" = [ "2"; "3" ]);
        retract s "edge(2,3)";
        check_bool "answer gone" true (query_ints s "reach(1,X)" = [ "2" ]);
        check_bool "invalidated, not repaired" true
          ((Session.stats s).Machine.st_invalidations >= 1
          && (Session.stats s).Machine.st_repairs = 0));
    t "only dependent tables are invalidated" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s
          ":- table r1/1 as incremental.\n\
           :- table r2/1 as incremental.\n\
           r1(X) :- d(X).\n\
           r2(X) :- e(X).";
        assert_ s "d(1)";
        assert_ s "e(1)";
        check_bool "r1" true (query_ints s "r1(X)" = [ "1" ]);
        check_bool "r2" true (query_ints s "r2(X)" = [ "1" ]);
        retract s "d(1)";
        check_int "exactly one table dropped" 1 (Session.stats s).Machine.st_invalidations;
        (* r2 is served from the surviving table: re-querying reads it
           directly and creates no table at all *)
        let before = (Session.stats s).Machine.st_subgoals in
        check_bool "r2 warm" true (query_ints s "r2(X)" = [ "1" ]);
        check_int "no new r2 table" before (Session.stats s).Machine.st_subgoals;
        check_bool "r1 recomputed empty" true (query_ints s "r1(X)" = []));
    t "an unrelated assert leaves every table warm" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_program;
        assert_ s "edge(1,2)";
        check_bool "warm" true (query_ints s "reach(1,X)" = [ "2" ]);
        assert_ s "noise(99)";
        check_int "nothing invalidated" 0 (Session.stats s).Machine.st_invalidations;
        let before = (Session.stats s).Machine.st_subgoals in
        check_bool "still answers" true (query_ints s "reach(1,X)" = [ "2" ]);
        check_int "served from the warm table" before (Session.stats s).Machine.st_subgoals;
        check_int "no repair either" 0 (Session.stats s).Machine.st_repairs);
    t "additions through negation invalidate instead of repairing" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s ":- table safe/1 as incremental.\nsafe(X) :- node(X), tnot(bad(X)).";
        assert_ s "node(1)";
        assert_ s "node(2)";
        assert_ s "bad(2)";
        check_bool "initial" true (query_ints s "safe(X)" = [ "1" ]);
        (* a pure addition, but the table's derivations used negation:
           repairing in place would be unsound in general, so it is
           recomputed *)
        assert_ s "node(3)";
        check_bool "invalidated" true ((Session.stats s).Machine.st_invalidations >= 1);
        check_int "never repaired" 0 (Session.stats s).Machine.st_repairs;
        check_bool "correct after recompute" true (query_ints s "safe(X)" = [ "1"; "3" ]);
        assert_ s "bad(1)";
        check_bool "negative change handled" true (query_ints s "safe(X)" = [ "3" ]));
    t "variant tables are invalidated on any relevant write" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s ":- table r/1.\nr(X) :- d(X).";
        assert_ s "d(1)";
        check_bool "initial" true (query_ints s "r(X)" = [ "1" ]);
        assert_ s "d(2)";
        check_bool "fresh answers" true (query_ints s "r(X)" = [ "1"; "2" ]);
        check_bool "dropped, not repaired" true
          ((Session.stats s).Machine.st_invalidations >= 1
          && (Session.stats s).Machine.st_repairs = 0));
    t "a static-predicate write conservatively touches everything" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s ":- table r/1 as incremental.\nr(X) :- d(X).";
        assert_ s "d(1)";
        check_bool "initial" true (query_ints s "r(X)" = [ "1" ]);
        (* static-predicate reads are not tracked, so every completed
           table is conservatively affected. An addition is still
           monotone: the negation-free incremental table is repaired in
           place rather than dropped *)
        let db = Session.db s in
        let p = Database.declare db "sfact" 1 in
        let head = Term.app "sfact" [ Term.Int 9 ] in
        let clause = Database.insert_clause db p ~head ~body:(Term.Atom "true") in
        check_int "addition does not invalidate" 0 (Session.stats s).Machine.st_invalidations;
        check_bool "still correct" true (query_ints s "r(X)" = [ "1" ]);
        check_int "repaired instead" 1 (Session.stats s).Machine.st_repairs;
        (* a static retract is not monotone and has no dependency
           records: every completed table must go *)
        Database.retract_clause db p clause;
        check_bool "invalidated" true ((Session.stats s).Machine.st_invalidations >= 1);
        check_bool "correct after recompute" true (query_ints s "r(X)" = [ "1" ]));
    t "invalidations and repairs are observable events" `Quick (fun () ->
        let s = Session.create () in
        let ring = Obs.Ring.create 128 in
        Session.add_sink s (Obs.Sink.Ring ring);
        Session.consult s reach_program;
        assert_ s "edge(1,2)";
        ignore (Session.query s "reach(1,X)");
        assert_ s "edge(2,3)";
        ignore (Session.query s "reach(1,X)");
        retract s "edge(2,3)";
        ignore (Session.query s "reach(1,X)");
        let kinds = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.kind) (Obs.Ring.to_list ring) in
        check_bool "repair event" true
          (List.exists (function Obs.Event.Repair _ -> true | _ -> false) kinds);
        check_bool "invalidate event" true
          (List.exists (function Obs.Event.Invalidate _ -> true | _ -> false) kinds));
  ]

let sp_program =
  "edge(a,b,3). edge(a,b,1). edge(b,c,5). edge(a,c,10). edge(c,d,1).\n\
   sp(X,Y,C) :- edge(X,Y,C).\n\
   sp(X,Z,C) :- sp(X,Y,C1), edge(Y,Z,C2), C is C1 + C2."

let subsumptive_cases =
  [
    t "subsumptive(min) keeps one minimal answer per key" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s (":- table sp/3 as subsumptive(min).\n" ^ sp_program);
        let answers = query_pairs s "sp(a,Y,C)" in
        check_bool "one answer per target, each minimal" true
          (answers = [ ("b", "1"); ("c", "6"); ("d", "7") ]));
    t "subsumptive(min) matches the non-subsumptive minima" `Quick (fun () ->
        let subsumed = Session.create () in
        Session.consult subsumed (":- table sp/3 as subsumptive(min).\n" ^ sp_program);
        let plain = Session.create () in
        Session.consult plain (":- table sp/3.\n" ^ sp_program);
        let minima answers =
          let best = Hashtbl.create 8 in
          List.iter
            (fun (y, c) ->
              let c = int_of_string c in
              match Hashtbl.find_opt best y with
              | Some c' when c' <= c -> ()
              | _ -> Hashtbl.replace best y c)
            answers;
          List.sort compare (Hashtbl.fold (fun y c acc -> (y, string_of_int c) :: acc) best [])
        in
        check_bool "same minima" true
          (query_pairs subsumed "sp(a,Y,C)" = minima (query_pairs plain "sp(a,Y,C)")));
    t "subsumptive(min) terminates on a cyclic graph" `Quick (fun () ->
        let s = Session.create () in
        Engine.set_max_steps (Session.engine s) 500_000;
        Session.consult s
          ":- table sp/3 as subsumptive(min).\n\
           edge(a,b,1). edge(b,a,1). edge(b,c,2).\n\
           sp(X,Y,C) :- edge(X,Y,C).\n\
           sp(X,Z,C) :- sp(X,Y,C1), edge(Y,Z,C2), C is C1 + C2.";
        check_bool "shortest distances" true
          (query_pairs s "sp(a,Y,C)" = [ ("a", "2"); ("b", "1"); ("c", "3") ]));
    t "subsumptive max / sum / count / first" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s
          ":- table hi/2 as subsumptive(max).\n\
           :- table tot/2 as subsumptive(sum).\n\
           :- table n/2 as subsumptive(count).\n\
           :- table fst/2 as subsumptive(first).\n\
           item(a,1). item(a,2). item(a,2). item(b,5).\n\
           hi(K,V) :- item(K,V).\n\
           tot(K,V) :- item(K,V).\n\
           n(K,V) :- item(K,V).\n\
           fst(K,V) :- item(K,V).";
        check_bool "max" true (query_pairs s "hi(K,V)" = [ ("a", "2"); ("b", "5") ]);
        (* the duplicate item(a,2) contributes once: raw answers are
           deduplicated before folding *)
        check_bool "sum" true (query_pairs s "tot(K,V)" = [ ("a", "3"); ("b", "5") ]);
        check_bool "count" true (query_pairs s "n(K,V)" = [ ("a", "2"); ("b", "1") ]);
        check_bool "first" true (query_pairs s "fst(K,V)" = [ ("a", "1"); ("b", "5") ]);
        check_bool "folds counted" true ((Session.stats s).Machine.st_folds >= 3));
    t "subsumptive folding over floats and mixed numerics" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s
          ":- table lo/2 as subsumptive(min).\n\
           cost(x,2.5). cost(x,2). cost(y,1.0).\n\
           lo(K,V) :- cost(K,V).";
        check_bool "mixed min" true (query_pairs s "lo(K,V)" = [ ("x", "2"); ("y", "1") ]));
  ]

let journal_cases =
  [
    t "table modes round-trip through the journal mutation" `Quick (fun () ->
        let mode = Pred.Subsumptive Answer_store.Subsumption.Min in
        let m =
          Journal.of_db_mutation (Database.Table_mode_pred { name = "sp"; arity = 3; mode })
        in
        let db = Database.create () in
        Journal.apply_mutation db m;
        match Database.find db "sp" 3 with
        | Some p ->
            check_bool "tabled" true (Pred.tabled p);
            check_bool "mode restored" true (Pred.table_mode p = mode)
        | None -> Alcotest.fail "sp/3 missing after replay");
  ]

let suite = mode_cases @ incremental_cases @ subsumptive_cases @ journal_cases
