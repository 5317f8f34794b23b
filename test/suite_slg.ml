open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let session text =
  let s = Session.create () in
  Session.consult s text;
  s

let count text query = Session.count (session text) query
let succeeds text query = Session.succeeds (session text) query

let tc_program edges =
  ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n"
  ^ Generators.edge_facts edges

let cycle n = List.init n (fun i -> (i + 1, if i + 1 = n then 1 else i + 2))
let chain n = List.init (n - 1) (fun i -> (i + 1, i + 2))

let cases =
  [
    t "SLD facts and rules" `Quick (fun () ->
        check_int "all" 3 (count "p(1). p(2). p(3)." "p(X)");
        check_int "filtered" 1 (count "p(1). p(2). q(X) :- p(X), X > 1." "q(X)"));
    t "left recursion terminates on cycles (the headline claim)" `Quick (fun () ->
        check_int "cycle answers" 8 (count (tc_program (cycle 8)) "path(1,X)"));
    t "right recursion tabled" `Quick (fun () ->
        let program =
          ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
          ^ Generators.edge_facts (cycle 6)
        in
        check_int "cycle answers" 6 (count program "path(1,X)"));
    t "double recursion tabled" `Quick (fun () ->
        let program =
          ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), path(Z,Y).\n"
          ^ Generators.edge_facts (chain 10)
        in
        check_int "chain pairs" 9 (count program "path(1,X)"));
    t "untabled left recursion hits the step limit" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s
          ("path(X,Y) :- path(X,Z), edge(Z,Y).\npath(X,Y) :- edge(X,Y).\n"
          ^ Generators.edge_facts (chain 4));
        Engine.set_max_steps (Session.engine s) 50_000;
        match Session.query s "path(1,X)" with
        | exception Machine.Step_limit -> ()
        | _ -> Alcotest.fail "expected Step_limit");
    t "variant tabling reuses tables" `Quick (fun () ->
        let s = session (tc_program (chain 5)) in
        ignore (Session.query s "path(1,X)");
        let before = (Engine.stats (Session.engine s)).Machine.st_subgoals in
        ignore (Session.query s "path(1,Y)");
        let after = (Engine.stats (Session.engine s)).Machine.st_subgoals in
        (* the second query reads the completed table directly: no new
           table, not even a private query table *)
        check_int "no new subgoal" before after);
    t "tabling avoids exponential recomputation" `Quick (fun () ->
        (* fib without tabling is exponential; tabled it is linear *)
        let s =
          session
            ":- table fib/2.\n\
             fib(0, 0). fib(1, 1).\n\
             fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2, fib(N1, F1), fib(N2, F2), F is F1 + F2."
        in
        check_bool "fib 20" true (Session.succeeds s "fib(20, 6765)");
        let stats = Engine.stats (Session.engine s) in
        check_bool "few subgoals" true (stats.Machine.st_subgoals < 50));
    t "win on a chain (negation)" `Quick (fun () ->
        let s =
          session
            ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\nmove(1,2). move(2,3). move(3,4)."
        in
        List.iter
          (fun (n, expected) ->
            check_bool (Printf.sprintf "win(%d)" n) expected
              (Session.succeeds s (Printf.sprintf "win(%d)" n)))
          [ (1, true); (2, false); (3, true); (4, false) ]);
    t "win matches backward induction on random dags" `Quick (fun () ->
        (* layered random dag: edges only go to higher layers => acyclic *)
        let moves =
          List.concat_map
            (fun i -> List.filter_map (fun j -> if (i * 7) + j mod 3 <> 1 then Some (i, i + j) else None)
                (List.init 3 (fun k -> k + 1)))
            (List.init 12 (fun i -> i + 1))
          |> List.filter (fun (_, b) -> b <= 15)
        in
        let expected = Generators.win_values moves (List.init 15 (fun i -> i + 1)) in
        let s =
          session
            (":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\n"
            ^ String.concat "\n" (List.map (fun (a, b) -> Printf.sprintf "move(%d,%d)." a b) moves))
        in
        List.iter
          (fun (n, v) ->
            check_bool (Printf.sprintf "win(%d)" n) v (Session.succeeds s (Printf.sprintf "win(%d)" n)))
          expected);
    t "e_tnot agrees with tnot on acyclic games" `Quick (fun () ->
        let moves = chain 8 in
        let mk neg =
          session
            (Printf.sprintf ":- table win/1.\nwin(X) :- move(X,Y), %s(win(Y)).\n" neg
            ^ String.concat "\n" (List.map (fun (a, b) -> Printf.sprintf "move(%d,%d)." a b) moves))
        in
        let s1 = mk "tnot" and s2 = mk "e_tnot" in
        List.iter
          (fun n ->
            let q = Printf.sprintf "win(%d)" n in
            check_bool q (Session.succeeds s1 q) (Session.succeeds s2 q))
          (List.init 8 (fun i -> i + 1)));
    t "stratified negation across predicates" `Quick (fun () ->
        let s =
          session
            ":- table reach/1, unreach/1.\n\
             reach(1).\n\
             reach(Y) :- reach(X), edge(X,Y).\n\
             unreach(X) :- node(X), tnot(reach(X)).\n\
             edge(1,2). edge(2,3). edge(5,6).\n\
             node(1). node(2). node(3). node(4). node(5). node(6)."
        in
        check_int "unreachable" 3 (Session.count s "unreach(X)"));
    t "tnot flounders on non-ground calls" `Quick (fun () ->
        let s = session ":- table p/1.\np(1)." in
        match Session.query s "tnot(p(X))" with
        | exception Machine.Floundered _ -> ()
        | _ -> Alcotest.fail "expected floundering error");
    t "non-stratified raises in stratified mode" `Quick (fun () ->
        let s = session ":- table p/0, q/0.\np :- tnot(q).\nq :- tnot(p)." in
        match Session.query s "p" with
        | exception Machine.Non_stratified _ -> ()
        | _ -> Alcotest.fail "expected Non_stratified");
    t "cut commits to first clause" `Quick (fun () ->
        check_int "one answer" 1
          (count "tn(null, unknown) :- !.\ntn(X, X)." "tn(null, R)");
        check_int "fallthrough" 1 (count "tn(null, unknown) :- !.\ntn(X, X)." "tn(a, R)"));
    t "cut prunes within the clause body" `Quick (fun () ->
        check_int "first solution only" 1
          (count "p(1). p(2). p(3).\nfirst(X) :- p(X), !." "first(X)"));
    t "negation as failure" `Quick (fun () ->
        check_bool "fails" false (succeeds "p(1)." "\\+ p(1)");
        check_bool "succeeds" true (succeeds "p(1)." "\\+ p(2)"));
    t "if-then-else" `Quick (fun () ->
        let s = session "max(X,Y,Z) :- (X >= Y -> Z = X ; Z = Y)." in
        check_bool "then" true (Session.succeeds s "max(7,3,7)");
        check_bool "else" true (Session.succeeds s "max(3,7,7)");
        check_int "deterministic" 1 (Session.count s "max(3,7,Z)"));
    t "if-then-else condition commits to first solution" `Quick (fun () ->
        check_int "single" 1 (count "p(1). p(2)." "(p(X) -> true ; fail)"));
    t "disjunction" `Quick (fun () ->
        check_int "both branches" 2 (count "p(1)." "(p(X) ; X = 9)"));
    t "findall" `Quick (fun () ->
        let s = session "p(3). p(1). p(2)." in
        check_bool "collects in order" true (Session.succeeds s "findall(X, p(X), [3,1,2])");
        check_bool "empty list on failure" true (Session.succeeds s "findall(X, fail, [])"));
    t "findall over tabled goal" `Quick (fun () ->
        let s = session (tc_program (chain 5)) in
        check_bool "all paths" true
          (Session.succeeds s "findall(Y, path(1,Y), L), length(L, 4)"));
    t "tfindall waits for completion" `Quick (fun () ->
        let s = session (tc_program (cycle 4)) in
        check_bool "complete answers" true
          (Session.succeeds s "tfindall(Y, path(1,Y), L), length(L, 4)"));
    t "bagof fails on empty, setof sorts" `Quick (fun () ->
        let s = session "p(3). p(1). p(3)." in
        check_bool "bagof nonempty" true (Session.succeeds s "bagof(X, p(X), [3,1,3])");
        check_bool "bagof empty fails" false (Session.succeeds s "bagof(X, q(X), _)");
        check_bool "setof sorted unique" true (Session.succeeds s "setof(X, p(X), [1,3])"));
    t "arithmetic builtins" `Quick (fun () ->
        let s = session "" in
        List.iter
          (fun q -> check_bool q true (Session.succeeds s q))
          [
            "X is 2 + 3 * 4, X =:= 14";
            "X is 7 // 2, X =:= 3";
            "X is 7 mod 2, X =:= 1";
            "X is -7 mod 2, X =:= 1";
            "X is min(3, 5), X =:= 3";
            "X is 2 ** 10, X =:= 1024.0";
            "X is 2 ^ 10, X =:= 1024";
            "X is abs(-5), X =:= 5";
            "1.5 < 2";
            "X is 6 / 3, X == 2";
            "X is 7 / 2, X =:= 3.5";
          ]);
    t "type-test builtins" `Quick (fun () ->
        let s = session "" in
        List.iter
          (fun q -> check_bool q true (Session.succeeds s q))
          [
            "var(_)";
            "nonvar(a)";
            "atom(foo)";
            "number(1)";
            "number(1.5)";
            "integer(3)";
            "float(3.5)";
            "compound(f(x))";
            "atomic('a b')";
            "is_list([1,2])";
            "ground(f(a,b))";
            "\\+ ground(f(a,X))";
          ]);
    t "term construction builtins" `Quick (fun () ->
        let s = session "" in
        List.iter
          (fun q -> check_bool q true (Session.succeeds s q))
          [
            "functor(f(a,b), f, 2)";
            "functor(T, point, 2), T = point(_, _)";
            "arg(2, f(a,b,c), b)";
            "f(a,b) =.. [f,a,b]";
            "T =.. [g,1], T == g(1)";
            "copy_term(f(X,X,Y), C), C = f(1,Z,2), Z == 1";
            "atom_codes(abc, [97,98,99])";
            "atom_length(hello, 5)";
            "atom_concat(foo, bar, foobar)";
            "atom_concat(X, Y, ab), X == '', Y == ab";
            "between(1, 5, 3)";
            "findall(X, between(1,4,X), [1,2,3,4])";
            "succ(3, 4)";
            "succ(X, 4), X =:= 3";
            "length([a,b,c], 3)";
            "length(L, 2), L = [_,_]";
            "compare(<, 1, 2)";
            "X = f(Y), X \\== f(Z)";
          ]);
    t "assert and retract at runtime" `Quick (fun () ->
        let s = session ":- dynamic fact/1." in
        check_bool "assert" true (Session.succeeds s "assert(fact(1)), assert(fact(2)), fact(2)");
        check_int "both" 2 (Session.count s "fact(X)");
        check_bool "retract" true (Session.succeeds s "retract(fact(1))");
        check_int "one left" 1 (Session.count s "fact(X)");
        check_bool "retractall" true (Session.succeeds s "retractall(fact(_))");
        check_int "none" 0 (Session.count s "fact(X)"));
    t "assert to a static predicate throws a catchable error" `Quick (fun () ->
        let s = session "p(1)." in
        (match Session.query s "assert(p(2))" with
        | exception Machine.Prolog_ball _ -> ()
        | _ -> Alcotest.fail "expected error ball");
        check_bool "catchable" true (Session.succeeds s "catch(assert(p(2)), error(_, _), true)"));
    t "call/1 and call/N" `Quick (fun () ->
        let s = session "add(X, Y, Z) :- Z is X + Y.\np(1). p(2)." in
        check_bool "call/1" true (Session.succeeds s "call(p(1))");
        check_int "call/3 partial" 1 (Session.count s "call(add(1), 2, Z), Z =:= 3");
        check_int "meta over all" 2 (Session.count s "G = p(X), call(G)"));
    t "query_first stops early" `Quick (fun () ->
        let s = session "nat(0).\nnat(X) :- nat(Y), X is Y + 1." in
        Engine.set_max_steps (Session.engine s) 1_000_000;
        match Session.query_first s "nat(X)" with
        | Some _ -> ()
        | None -> Alcotest.fail "expected a solution");
    t "hilog call through apply" `Quick (fun () ->
        let s =
          session
            ":- hilog sq.\nsq(X, Y) :- Y is X * X.\nmaplike(F, X, Y) :- F(X, Y)."
        in
        check_bool "generic apply" true (Session.succeeds s "maplike(sq, 5, 25)"));
    t "deep recursion: long chains do not overflow" `Quick (fun () ->
        let s = session (tc_program (chain 2000)) in
        check_int "all reachable" 1999 (Session.count s "path(1,X)"));
    t "same_generation" `Quick (fun () ->
        let s =
          session
            ":- table sg/2.\n\
             sg(X,Y) :- sib(X,Y).\n\
             sg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).\n\
             sib(X,Y) :- par(X,P), par(Y,P).\n\
             par(2,1). par(3,1). par(4,2). par(5,2). par(6,3). par(7,3)."
        in
        (* sg(4,Y): siblings {4,5}, cousins {6,7} *)
        check_int "generation of 4" 4 (Session.count s "sg(4, Y)"));
    t "mutually recursive tabled predicates" `Quick (fun () ->
        let s =
          session
            ":- table even/1, odd/1.\n\
             even(0).\n\
             even(X) :- X > 0, Y is X - 1, odd(Y).\n\
             odd(X) :- X > 0, Y is X - 1, even(Y)."
        in
        check_bool "even 10" true (Session.succeeds s "even(10)");
        check_bool "odd 10" false (Session.succeeds s "odd(10)"));
    t "tabled append is quadratic but correct (§5)" `Quick (fun () ->
        let s =
          session ":- table app/3.\napp([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R)."
        in
        check_int "splits" 6 (Session.count s "app(X, Y, [1,2,3,4,5])"));
    t "nested tabling through negation layers" `Quick (fun () ->
        let s =
          session
            ":- table p/1, q/1, r/1.\n\
             p(X) :- d(X), tnot(q(X)).\n\
             q(X) :- e(X), tnot(r(X)).\n\
             r(X) :- f(X).\n\
             d(1). d(2). d(3). e(1). e(2). f(2)."
        in
        (* r = {2}; q = {1}; p = d minus q = {2,3} *)
        check_int "p" 2 (Session.count s "p(X)");
        check_bool "p(2)" true (Session.succeeds s "p(2)");
        check_bool "p(1)" false (Session.succeeds s "p(1)"));
    t "abolish_all_tables clears table space" `Quick (fun () ->
        let s = session (tc_program (chain 4)) in
        ignore (Session.query s "path(1,X)");
        check_bool "tables exist" true (Engine.tables (Session.engine s) <> []);
        ignore (Session.query s "abolish_all_tables");
        (* only the transient query tables may remain, and they are
           deleted with the query *)
        check_int "cleared" 0 (List.length (Engine.tables (Session.engine s))));
    t "write goes to the engine formatter" `Quick (fun () ->
        let s = session "" in
        let buffer = Buffer.create 16 in
        (Engine.env (Session.engine s)).Machine.out <- Format.formatter_of_buffer buffer;
        ignore (Session.query s "write(f(1,[a])), nl");
        Format.pp_print_flush (Engine.env (Session.engine s)).Machine.out ();
        check_bool "printed" true (String.length (Buffer.contents buffer) > 0));
  ]

(* ---- properties: SLG answers = bottom-up model on random graphs ---- *)

let props =
  let open QCheck2 in
  [
    Test.make ~name:"SLG transitive closure = BFS reachability" ~count:60
      (Generators.edges_gen ~n:12 ~m:20) (fun edges ->
        let s = session (tc_program edges) in
        let slg =
          List.sort_uniq compare
            (List.map
               (fun (sol : Engine.solution) ->
                 match List.assoc "X" sol.Engine.bindings with
                 | Term.Int i -> i
                 | _ -> -1)
               (Session.query s "path(1,X)"))
        in
        let bfs = Generators.reachable edges 1 in
        slg = bfs);
    Test.make ~name:"SLG = semi-naive bottom-up on random datalog" ~count:60
      (Generators.edges_gen ~n:10 ~m:18) (fun edges ->
        let text = tc_program edges in
        let s = session text in
        let slg = Session.count s "path(X,Y)" in
        let clauses =
          Parser.program_of_string
            ("path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n"
            ^ Generators.edge_facts edges)
        in
        let st = Bottomup.run (Datalog.of_clauses clauses) in
        slg = Bottomup.relation_size st ("path", 2));
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) props

let exception_cases =
  [
    t "throw and catch" `Quick (fun () ->
        let s = session "risky(X) :- X > 0, throw(oops(X)).\nrisky(_)." in
        check_bool "caught" true
          (Session.succeeds s "catch(risky(5), oops(N), N =:= 5)");
        check_bool "uncaught rethrows" true
          (match Session.query s "catch(risky(5), nope, true)" with
          | exception Machine.Prolog_ball _ -> true
          | _ -> false);
        check_bool "no throw passes through" true (Session.succeeds s "catch(risky(0), _, fail)"));
    t "arithmetic errors become catchable balls" `Quick (fun () ->
        let s = session "" in
        check_bool "evaluation error" true
          (Session.succeeds s "catch(X is foo + 1, error(evaluation_error(_), _), true)");
        check_bool "zero divisor" true
          (Session.succeeds s "catch(X is 1 / 0, error(_, _), true)"));
    t "catch restores bindings before recovery" `Quick (fun () ->
        let s = session "boom(X) :- X = bound, throw(ball)." in
        check_bool "X free in recovery" true
          (Session.succeeds s "catch(boom(X), ball, var(X))"));
    t "DCG rules translate and run" `Quick (fun () ->
        let s = Session.create () in
        Prelude.load s;
        Session.consult s
          "greeting --> [hello], name.\n\
           name --> [world].\n\
           name --> [prolog].\n\
           digits([D|T]) --> digit(D), digits(T).\n\
           digits([D]) --> digit(D).\n\
           digit(D) --> [D], { D >= 48, D =< 57 }.";
        check_bool "phrase greeting" true (Session.succeeds s "phrase(greeting, [hello, world])");
        check_bool "alternative" true (Session.succeeds s "phrase(greeting, [hello, prolog])");
        check_bool "rejects" false (Session.succeeds s "phrase(greeting, [goodbye, world])");
        check_bool "digits" true (Session.succeeds s "phrase(digits([49,50,51]), [49,50,51])");
        check_int "generates both names" 2 (Session.count s "phrase(greeting, [hello, X])"));
  ]

let suite = suite @ exception_cases

let extra_cases =
  [
    t "setof groups and sorts ground solutions" `Quick (fun () ->
        let s = session "age(tom, 5). age(ann, 3). age(tom, 5)." in
        check_bool "sorted pairs" true
          (Session.succeeds s "setof(N-A, age(N, A), [ann-3, tom-5])"));
    t "findall nested inside findall" `Quick (fun () ->
        let s = session "p(1). p(2).\nq(a). q(b)." in
        check_bool "nested" true
          (Session.succeeds s
             "findall(X-L, (p(X), findall(Y, q(Y), L)), [1-[a,b], 2-[a,b]])"));
    t "catch inside findall" `Quick (fun () ->
        let s = session "maybe(1).\nmaybe(2) :- throw(stop).\nmaybe(3)." in
        check_bool "ball escapes findall" true
          (Session.succeeds s "catch(findall(X, maybe(X), _), stop, true)"));
    t "if-then-else with tabled condition" `Quick (fun () ->
        let s =
          session
            ":- table reach/1.\nreach(1).\nreach(Y) :- reach(X), e(X,Y).\ne(1,2). e(2,3)."
        in
        check_bool "tabled cond true" true (Session.succeeds s "(reach(3) -> true ; fail)");
        check_bool "tabled cond false" true (Session.succeeds s "(reach(9) -> fail ; true)"));
    t "negation over tabled call inside \\+" `Quick (fun () ->
        let s =
          session ":- table reach/1.\nreach(1).\nreach(Y) :- reach(X), e(X,Y).\ne(1,2)."
        in
        check_bool "doubly negated" true (Session.succeeds s "\\+ \\+ reach(2)");
        check_bool "negated miss" true (Session.succeeds s "\\+ reach(7)"));
    t "e_tnot reclaims abandoned tables" `Quick (fun () ->
        let s =
          session
            (":- table win/1.\nwin(X) :- move(X,Y), e_tnot(win(Y)).\n"
            ^ String.concat "\n"
                (List.map (fun i -> Printf.sprintf "move(%d,%d)." i (i + 1)) (List.init 15 (fun i -> i + 1))))
        in
        ignore (Session.succeeds s "win(1)");
        (* abandoned incomplete tables were deleted from table space *)
        let live = List.length (Engine.tables (Session.engine s)) in
        check_bool "some tables deleted" true (live < 16));
    t "copy_term preserves sharing but not identity" `Quick (fun () ->
        let s = session "" in
        check_bool "shared copy" true
          (Session.succeeds s "copy_term(f(X, X), f(A, B)), A == B");
        check_bool "independent" true
          (Session.succeeds s "T = f(X), copy_term(T, f(1)), var(X)"));
    t "retract binds the removed clause" `Quick (fun () ->
        let s = session ":- dynamic p/1." in
        ignore (Session.query s "assert(p(1)), assert(p(2))");
        check_bool "binds" true (Session.succeeds s "retract(p(X)), X =:= 1");
        check_int "one left" 1 (Session.count s "p(_)"));
    t "retract through the second argument of a predicate indexed on demand" `Quick (fun () ->
        let facts =
          String.concat "" (List.init 20 (fun k -> Printf.sprintf "q(%d,%d).\n" k (k mod 3)))
        in
        let s = session (":- dynamic q/2.\n" ^ facts ^ "q(X,X).\n") in
        let q = Option.get (Database.find (Session.db s) "q" 2) in
        check_bool "past the threshold" true (Pred.clause_count q > Pred.demand_index_min_clauses);
        (* q(1,1), q(4,1), ..., q(19,1), then the non-ground q(X,X) *)
        check_bool "retracts in clause order" true
          (Session.succeeds s "findall(X, retract(q(X,1)), L), L == [1,4,7,10,13,16,19,1]");
        check_bool "the call built an index on argument 2" true
          (List.mem [ 2 ] (Pred.hash_index_fields q));
        check_int "the index lost the retracted clauses" 0 (Session.count s "q(_,1)");
        check_int "and kept the others" 7 (Session.count s "q(_,0)");
        check_int "every other clause is live" 13 (Session.count s "q(_,_)"));
    t "retractall on 20,000 clauses removes exactly the unifying ones, without a copy per clause"
      `Quick (fun () ->
        (* every tenth clause has an unbound second argument *)
        let n = 20_000 in
        let key i = if i mod 10 = 9 then None else Some (i mod 50) in
        let facts =
          String.concat ""
            (List.init n (fun i ->
                 match key i with
                 | Some k -> Printf.sprintf "p(%d,%d).\n" i k
                 | None -> Printf.sprintf "p(%d,_).\n" i))
        in
        let s = session (":- dynamic p/2.\n" ^ facts) in
        let p = Option.get (Database.find (Session.db s) "p" 2) in
        let model = ref (List.init n (fun i -> (i, key i))) in
        let live () =
          List.map
            (fun c ->
              match Term.deref c.Pred.head with
              | Term.Struct (_, [| i; k |]) -> (
                  ( (match Term.deref i with Term.Int i -> i | _ -> -1),
                    match Term.deref k with Term.Int k -> Some k | _ -> None ))
              | _ -> (-1, None))
            (Pred.clauses p)
        in
        (* the first call builds the index on argument 2 *)
        check_int "p(_,3)" ((n / 50) + (n / 10)) (Session.count s "p(_,3)");
        (* minor-word bounds: a walk that copies every head before
           unifying allocates about 1.2M words for the second call and
           0.9M for the third, which removes nothing *)
        List.iter
          (fun (k, bound) ->
            let before = Gc.minor_words () in
            ignore (Session.query s (Printf.sprintf "retractall(p(_,%d))" k));
            let words = Gc.minor_words () -. before in
            model := List.filter (fun (_, key) -> key <> None && key <> Some k) !model;
            check_bool (Printf.sprintf "retractall(p(_,%d)) = the list model" k) true
              (live () = !model);
            Option.iter
              (fun bound ->
                if words > bound then
                  Alcotest.failf "retractall(p(_,%d)): %.0f minor words > %.0f" k words bound)
              bound)
          [ (7, None); (8, Some 600_000.); (8, Some 50_000.) ]);
    t "tabled predicates with compound answers" `Quick (fun () ->
        let s =
          session
            ":- table parts/2.\n\
             parts(base, [leg, seat]).\n\
             parts(chair, L) :- parts(base, B), append_local(B, [back], L).\n\
             append_local([], L, L).\n\
             append_local([H|T], L, [H|R]) :- append_local(T, L, R)."
        in
        check_bool "structured answer" true
          (Session.succeeds s "parts(chair, [leg, seat, back])"));
    t "runtime table declaration via directive goal" `Quick (fun () ->
        let s = session "p(1). p(2)." in
        ignore (Session.query s "table(q/1)");
        Session.consult s "q(X) :- p(X).";
        check_int "works" 2 (Session.count s "q(X)"));
    t "runtime op declaration" `Quick (fun () ->
        let s = session "" in
        ignore (Session.query s "op(700, xfx, approx)");
        Session.consult s "check(1 approx 2).";
        check_int "parsed with new op" 1 (Session.count s "check(X approx Y)"));
    t "deeply nested conjunction and disjunction" `Quick (fun () ->
        check_int "combination" 4
          (count "p(1). p(2).\nq(a). q(b)." "(p(X), (q(Y) ; q(Y))), (true ; fail)"));
    t "between generates and checks" `Quick (fun () ->
        let s = session "" in
        check_int "generate" 10 (Session.count s "between(1, 10, X)");
        check_bool "check inside" true (Session.succeeds s "between(1, 10, 5)");
        check_bool "check outside" false (Session.succeeds s "between(1, 10, 50)"));
    t "tabling with arithmetic guards (mc91)" `Quick (fun () ->
        let s =
          session
            ":- table mc/2.\n\
             mc(N, M) :- N > 100, M is N - 10.\n\
             mc(N, M) :- N =< 100, N1 is N + 11, mc(N1, M1), mc(M1, M)."
        in
        check_bool "mc91(99) = 91" true (Session.succeeds s "mc(99, 91)");
        check_bool "mc91(1) = 91" true (Session.succeeds s "mc(1, 91)"));
  ]

let suite = suite @ extra_cases

let builtin_extra_cases =
  [
    t "sort, msort, keysort builtins" `Quick (fun () ->
        let s = session "" in
        check_bool "sort dedups" true (Session.succeeds s "sort([3,1,2,1], [1,2,3])");
        check_bool "msort keeps dups" true (Session.succeeds s "msort([3,1,2,1], [1,1,2,3])");
        check_bool "keysort stable" true
          (Session.succeeds s "keysort([b-1, a-2, b-0], [a-2, b-1, b-0])"));
    t "listing prints clauses" `Quick (fun () ->
        let s = session "p(1).\np(X) :- q(X), r(X)." in
        let buffer = Buffer.create 64 in
        (Engine.env (Session.engine s)).Machine.out <- Format.formatter_of_buffer buffer;
        ignore (Session.query s "listing(p/1)");
        Format.pp_print_flush (Engine.env (Session.engine s)).Machine.out ();
        let text = Buffer.contents buffer in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        check_bool "has fact" true (contains text "p(1).");
        check_bool "has rule" true (contains text ":-"));
    t "statistics prints counters" `Quick (fun () ->
        let s = session "p(1)." in
        let buffer = Buffer.create 64 in
        (Engine.env (Session.engine s)).Machine.out <- Format.formatter_of_buffer buffer;
        ignore (Session.query s "p(X), statistics");
        Format.pp_print_flush (Engine.env (Session.engine s)).Machine.out ();
        check_bool "nonempty" true (String.length (Buffer.contents buffer) > 20));
  ]

let suite = suite @ builtin_extra_cases

let edge_cases =
  [
    t "cut across a table suspension is rejected" `Quick (fun () ->
        let s =
          session
            ":- table t/1.\nt(1). t(2).\nbad(X) :- t(X), !, X > 0."
        in
        match Session.query s "bad(X)" with
        | exception Machine.Engine_error _ -> ()
        | _solutions ->
            (* acceptable alternative: the implementation may treat the
               cut locally; it must not crash or loop *)
            ());
    t "tfindall inside a recursive tabled clause suspends until completion" `Quick (fun () ->
        let s =
          session
            ":- table reach/1, summary/1.\n\
             reach(1).\n\
             reach(Y) :- reach(X), e(X,Y).\n\
             e(1,2). e(2,3).\n\
             summary(L) :- tfindall(X, reach(X), L)."
        in
        check_bool "complete summary" true
          (Session.succeeds s "summary(L), length(L, 3)"));
    t "floundering inside nested negation reports the goal" `Quick (fun () ->
        let s = session ":- table p/1.\np(1)." in
        (match Session.query s "tnot(p(_))" with
        | exception Machine.Floundered g ->
            check_bool "goal carried" true (Term.functor_of g = Some ("p", 1))
        | _ -> Alcotest.fail "expected floundering"));
    t "query variables capture all answer bindings" `Quick (fun () ->
        let s = session "pair(1, a). pair(2, b)." in
        let solutions = Session.query s "pair(X, Y)" in
        check_int "two" 2 (List.length solutions);
        List.iter
          (fun (sol : Engine.solution) ->
            check_int "two bindings" 2 (List.length sol.Engine.bindings);
            check_bool "named X" true (List.mem_assoc "X" sol.Engine.bindings);
            check_bool "named Y" true (List.mem_assoc "Y" sol.Engine.bindings))
          solutions);
    t "engine survives exceptions and stays usable" `Quick (fun () ->
        let s = session ":- table p/1.\np(1).\nboom :- throw(ball)." in
        (match Session.query s "boom" with
        | exception Machine.Prolog_ball _ -> ()
        | _ -> Alcotest.fail "expected ball");
        (* table space must be consistent afterwards *)
        check_int "still works" 1 (Session.count s "p(X)");
        check_int "and again" 1 (Session.count s "p(X)"));
    t "step limit leaves the engine reusable" `Quick (fun () ->
        let s = session "loop :- loop." in
        Engine.set_max_steps (Session.engine s) 1000;
        (match Session.query s "loop" with
        | exception Machine.Step_limit -> ()
        | _ -> Alcotest.fail "expected limit");
        Engine.set_max_steps (Session.engine s) 0;
        check_bool "usable after limit" true (Session.succeeds s "true"));
    t "findall captures a snapshot of an in-progress table" `Quick (fun () ->
        (* findall on an incomplete table must not crash; it captures the
           currently available answers (§4.7's caveat) *)
        let s =
          session
            ":- table reach/1.\n\
             reach(1).\n\
             reach(Y) :- reach(X), e(X,Y), findall(Z, reach(Z), _).\n\
             e(1,2). e(2,3)."
        in
        check_int "all reachable" 3 (Session.count s "reach(X)"));
  ]

let suite = suite @ edge_cases

let trace_cases =
  [
    t "trace sink observes call, subgoal and answer events" `Quick (fun () ->
        let s =
          session
            ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3)."
        in
        let ring = Obs.Ring.create 4096 in
        Session.add_sink s (Obs.Sink.Ring ring);
        ignore (Session.query s "path(1,X)");
        Session.clear_sinks s;
        let count_kind k =
          List.length
            (List.filter (fun (e : Obs.Event.t) -> e.kind = k) (Obs.Ring.to_list ring))
        in
        check_bool "calls observed" true (count_kind Obs.Event.Call > 0);
        check_bool "subgoals observed" true (count_kind Obs.Event.New_subgoal >= 1);
        (* two path answers plus two query answers *)
        check_bool "answers observed" true (count_kind Obs.Event.Answer >= 4);
        (* detaching stops events *)
        let before = Obs.Ring.length ring in
        ignore (Session.query s "edge(1,X)");
        check_int "no more events" before (Obs.Ring.length ring));
  ]

let suite = suite @ trace_cases

let scheduler_and_stats_cases =
  [
    t "drain scheduling is deduplicated on cyclic programs" `Quick (fun () ->
        (* without the c_scheduled flag the queue grows O(answers x
           consumers); with it, drains-scheduled stays O(live consumers) *)
        let s = session (tc_program (cycle 8)) in
        ignore (Session.query s "path(1,X)");
        let st = Session.stats s in
        check_bool "some drains ran" true (st.Machine.st_drains_scheduled > 0);
        check_bool
          (Printf.sprintf "drains (%d) <= answers (%d) + consumers (%d)"
             st.Machine.st_drains_scheduled st.Machine.st_answers st.Machine.st_suspensions)
          true
          (st.Machine.st_drains_scheduled <= st.Machine.st_answers + st.Machine.st_suspensions));
    t "bound call consumes a completed table through the answer index" `Quick (fun () ->
        let s = session (tc_program (cycle 6)) in
        ignore (Session.query s "path(X,Y)");
        let st = Session.stats s in
        let c0 = st.Machine.st_answer_candidates
        and f0 = st.Machine.st_answer_full_size
        and s0 = st.Machine.st_subsumed_calls in
        check_int "bound answers" 6 (Session.count s "path(1,X)");
        let dc = st.Machine.st_answer_candidates - c0
        and df = st.Machine.st_answer_full_size - f0 in
        check_bool "served by subsumption" true (st.Machine.st_subsumed_calls - s0 >= 1);
        check_bool
          (Printf.sprintf "candidates (%d) < full table size (%d)" dc df)
          true (dc < df);
        check_int "exactly the matching answers" 6 dc);
    t "pp_stats golden output" `Quick (fun () ->
        let st = Machine.fresh_stats () in
        st.Machine.st_subgoals <- 3;
        st.Machine.st_answers <- 14;
        st.Machine.st_dup_answers <- 2;
        st.Machine.st_resolutions <- 25;
        st.Machine.st_answer_probes <- 4;
        st.Machine.st_answer_candidates <- 9;
        st.Machine.st_answer_full_size <- 36;
        st.Machine.st_steps <- 120;
        let buffer = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buffer in
        Machine.pp_stats ppf st;
        Format.pp_print_flush ppf ();
        Alcotest.(check string) "golden"
          "subgoals: 3\n\
           answers: 14 (dups 2)\n\
           suspensions: 0\n\
           resumptions: 0\n\
           resolutions: 25\n\
           negative suspensions: 0\n\
           nested evaluations: 0\n\
           completions: 0\n\
           answer index probes: 4\n\
           answer index candidates: 9 (of 36 stored)\n\
           subsumed calls: 0\n\
           subsumption hits: 0\n\
           answers filtered: 0\n\
           drains scheduled: 0\n\
           sccs completed: 0\n\
           early completions: 0\n\
           max scc size: 0\n\
           invalidations: 0\n\
           repairs: 0\n\
           folds: 0\n\
           steps: 120\n"
          (Buffer.contents buffer));
    t "statistics/0 output has no run-on whitespace" `Quick (fun () ->
        let s = session "p(1)." in
        let buffer = Buffer.create 256 in
        (Engine.env (Session.engine s)).Machine.out <- Format.formatter_of_buffer buffer;
        ignore (Session.query s "p(X), statistics");
        Format.pp_print_flush (Engine.env (Session.engine s)).Machine.out ();
        let text = Buffer.contents buffer in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        check_bool "has resolutions line" true (contains text "resolutions: ");
        check_bool "no double spaces" false (contains text "  "));
    t "abolish_all_tables mid-evaluation keeps in-use tables" `Quick (fun () ->
        (* abolishing from inside a derivation must not detach the tables
           the running evaluation still owns *)
        let s =
          session
            (tc_program (chain 3) ^ "\nboom :- path(1,_), abolish_all_tables.")
        in
        (* zero-variable query: both path answers dedup to one template *)
        check_int "boom once" 1 (Session.count s "boom");
        check_bool "tables consistent afterwards" true
          (List.for_all (fun (_, complete, _) -> complete) (Engine.tables (Session.engine s)));
        check_int "path still answers" 2 (Session.count s "path(1,X)"));
    t "reset_tables between queries frees completed tables" `Quick (fun () ->
        let s = session (tc_program (chain 4)) in
        check_int "first run" 3 (Session.count s "path(1,X)");
        Engine.reset_tables (Session.engine s);
        check_int "no tables left" 0 (List.length (Engine.tables (Session.engine s)));
        check_int "recomputes" 3 (Session.count s "path(1,X)"));
  ]

let suite = suite @ scheduler_and_stats_cases

(* --- a query that is one call of a completed table reads its answers
   directly (Machine.completed_call); a conjunction [(G, true)] still
   runs through a query table and serves as the oracle --- *)

let rows sols =
  List.map
    (fun (sol : Engine.solution) ->
      ( List.map (fun (n, v) -> (n, Term.to_string v)) sol.Engine.bindings,
        sol.Engine.conditional ))
    sols

let direct s goal = Machine.completed_call (Engine.env (Session.engine s)) (Parser.term_of_string goal) <> None

let subgoals s = (Session.stats s).Machine.st_subgoals

let bounded_rows = function
  | `Answers l -> (`Answers, rows l)
  | `Truncated l -> (`Truncated, rows l)
  | `Timeout l -> (`Timeout, rows l)

let completed_read_cases =
  [
    t "non-ground answers keep their shared variables" `Quick (fun () ->
        let s = session ":- table p/3.\np(X, f(X, Y), Y).\np(1, f(1, Z), g(Z))." in
        let cold = Session.query s "p(A,B,C)" in
        check_bool "table complete" true (direct s "p(A,B,C)");
        let warm = Session.query s "p(A,B,C)" in
        let oracle = Session.query s "(p(A,B,C), true)" in
        (* variables are fresh per answer, so compare up to renaming: one
           canonical tuple per solution, taken across all its bindings *)
        let shape sols =
          List.map
            (fun (sol : Engine.solution) ->
              ( List.map fst sol.Engine.bindings,
                Canon.of_term (Term.app "t" (List.map snd sol.Engine.bindings)) ))
            sols
        in
        check_bool "same as the cold query" true (shape warm = shape cold);
        check_bool "same as the query-table path" true (shape warm = shape oracle);
        match warm with
        | [ first; second ] -> (
            (match List.map (fun (_, v) -> Term.deref v) first.Engine.bindings with
            | [ Term.Var a; Term.Struct ("f", [| x; y |]); Term.Var c ] ->
                (match (Term.deref x, Term.deref y) with
                | Term.Var a', Term.Var c' ->
                    check_bool "A is the variable inside B" true (a == a');
                    check_bool "C is the other variable inside B" true (c == c');
                    check_bool "A and C differ" true (a != c)
                | _ -> Alcotest.fail "f/2 arguments should be variables")
            | _ -> Alcotest.fail "unexpected first solution");
            match List.map (fun (_, v) -> Term.deref v) second.Engine.bindings with
            | [ Term.Int 1; Term.Struct ("f", [| _; z |]); Term.Struct ("g", [| z' |]) ] -> (
                match (Term.deref z, Term.deref z') with
                | Term.Var z, Term.Var z' -> check_bool "Z shared between B and C" true (z == z')
                | _ -> Alcotest.fail "Z should be a variable")
            | _ -> Alcotest.fail "unexpected second solution")
        | _ -> Alcotest.fail "expected two solutions");
    t "a repeated goal variable reads the matching table" `Quick (fun () ->
        let s = session (tc_program (cycle 4 @ [ (2, 2) ])) in
        ignore (Session.query s "path(X,X)");
        check_bool "direct" true (direct s "path(X,X)");
        let before = subgoals s in
        let warm = rows (Session.query s "path(X,X)") in
        check_int "no table created" before (subgoals s);
        check_int "every node is on the cycle" 4 (List.length warm);
        check_bool "same as the query-table path" true
          (warm = rows (Session.query s "(path(X,X), true)")));
    t "limit= truncates exactly as the query-table path" `Quick (fun () ->
        let s = session (tc_program (cycle 6)) in
        let eng = Session.engine s in
        let all = rows (Session.query s "path(1,X)") in
        check_int "six answers" 6 (List.length all);
        List.iter
          (fun limit ->
            let got = bounded_rows (Engine.run_bounded_string ~limit eng "path(1,X)") in
            let oracle = bounded_rows (Engine.run_bounded_string ~limit eng "(path(1,X), true)") in
            check_bool (Printf.sprintf "limit %d = oracle" limit) true (got = oracle);
            let ending, got_rows = got in
            check_int (Printf.sprintf "limit %d rows" limit) (min limit 6) (List.length got_rows);
            check_bool (Printf.sprintf "limit %d more flag" limit) (limit <= 6) (ending = `Truncated))
          [ 1; 2; 6; 7 ]);
    t "a step budget gives TIMEOUT with the same partial rows" `Quick (fun () ->
        let s = session (tc_program (cycle 8)) in
        let eng = Session.engine s in
        let all = rows (Session.query s "path(1,X)") in
        let steps0 = (Session.stats s).Machine.st_steps in
        ignore (Session.query s "path(1,X)");
        (* the query-table path charged one step for the call and one
           per answer; a completed-table read charges the same *)
        check_int "steps of a full read" 9 ((Session.stats s).Machine.st_steps - steps0);
        List.iter
          (fun budget ->
            match Engine.run_bounded_string ~max_steps:budget eng "path(1,X)" with
            | `Timeout sols ->
                check_bool
                  (Printf.sprintf "budget %d keeps %d rows" budget (budget - 1))
                  true
                  (rows sols = List.filteri (fun i _ -> i < budget - 1) all)
            | _ -> Alcotest.failf "budget %d: expected a timeout" budget)
          [ 1; 2; 5; 8 ];
        match Engine.run_bounded_string ~max_steps:9 eng "path(1,X)" with
        | `Answers sols -> check_bool "budget 9 suffices" true (rows sols = all)
        | _ -> Alcotest.fail "budget 9: expected every answer");
    t "a stale incremental table is repaired before it is read" `Quick (fun () ->
        let s =
          session
            ":- table reach/2 as incremental.\n\
             :- dynamic edge/2.\n\
             reach(X,Y) :- edge(X,Y).\n\
             reach(X,Z) :- reach(X,Y), edge(Y,Z).\n\
             edge(1,2). edge(2,3)."
        in
        check_int "cold" 2 (Session.count s "reach(1,X)");
        check_bool "asserted" true (Session.succeeds s "assert(edge(3,4))");
        let before = subgoals s in
        let warm = rows (Session.query s "reach(1,X)") in
        check_int "repaired once" 1 (Session.stats s).Machine.st_repairs;
        check_int "repaired in place, read directly" before (subgoals s);
        check_int "the new answer is there" 3 (List.length warm);
        check_bool "same as the query-table path" true
          (warm = rows (Session.query s "(reach(1,X), true)")));
    t "conditional answers fall back to the query-table path" `Quick (fun () ->
        let s = Session.create ~mode:Machine.Well_founded () in
        Session.consult s
          ":- table p/0, q/0, r/1.\np :- tnot(q).\nq :- tnot(p).\nr(1) :- p.\nr(2).";
        let cold = rows (Session.query s "r(X)") in
        check_bool "one undefined answer" true (List.exists snd cold);
        check_bool "not read directly" false (direct s "r(X)");
        let before = subgoals s in
        let warm = rows (Session.query s "r(X)") in
        check_int "a query table was made" (before + 1) (subgoals s);
        check_bool "same solutions" true (warm = cold);
        check_bool "same as the conjunction" true (warm = rows (Session.query s "(r(X), true)")));
    t "subsumptive(min) tables fall back to the query-table path" `Quick (fun () ->
        let s =
          session
            ":- table sp/3 as subsumptive(min).\n\
             sp(X,Y,C) :- e(X,Y,C).\n\
             sp(X,Z,C) :- sp(X,Y,C1), e(Y,Z,C2), C is C1 + C2.\n\
             e(a,b,3). e(a,b,1). e(b,c,2). e(a,c,9)."
        in
        let cold = rows (Session.query s "sp(a,X,C)") in
        check_bool "not read directly" false (direct s "sp(a,X,C)");
        let before = subgoals s in
        let warm = rows (Session.query s "sp(a,X,C)") in
        check_int "a query table was made" (before + 1) (subgoals s);
        check_bool "same solutions" true (warm = cold);
        check_bool "minimal costs" true
          (List.sort compare warm
          = [ ([ ("X", "b"); ("C", "1") ], false); ([ ("X", "c"); ("C", "3") ], false) ]));
    t "a builtin's goal is not read from a same-named table" `Quick (fun () ->
        (* tnot/1 evaluates the user's tabled length/2 into a table, but
           a plain length(a,1) goal still runs the builtin *)
        let s = session ":- table length/2.\nlength(a, 1)." in
        check_bool "tnot saw the table's answer" false (Session.succeeds s "tnot(length(a,1))");
        check_bool "not read directly" false (direct s "length(a,1)");
        match Session.query s "length(a,1)" with
        | exception Machine.Prolog_ball _ -> ()
        | _ -> Alcotest.fail "expected the builtin's type error");
    t "--profile still counts warm queries, and traces their call" `Quick (fun () ->
        let s = session (tc_program (cycle 4)) in
        let eng = Session.engine s in
        Session.set_profiling s true;
        ignore (Session.query s "path(1,X)");
        let calls = Engine.call_count eng "path" 2 in
        let ring = Obs.Ring.create 64 in
        Session.add_sink s (Obs.Sink.Ring ring);
        ignore (Session.query s "path(1,X)");
        Session.clear_sinks s;
        check_int "one more call" (calls + 1) (Engine.call_count eng "path" 2);
        match Obs.Ring.to_list ring with
        | [ (e : Obs.Event.t) ] ->
            check_bool "a Call event" true (e.kind = Obs.Event.Call);
            check_bool "for path/2" true (e.pred = "path/2")
        | events -> Alcotest.failf "expected one Call event, got %d events" (List.length events));
  ]

let suite = suite @ completed_read_cases

(* --- a completed table keeps its answers and frees its suspension
   state: once the evaluation that completed it ends, it holds no
   consumer — in particular not the one a query's private $queryN table
   registered, which would pin that deleted table's answers --- *)

let check_no_consumers what s =
  Canon.Tbl.iter
    (fun _ (sub : Machine.subgoal) ->
      if sub.Machine.s_state = Machine.Complete then
        check_int
          (Printf.sprintf "%s: consumers kept by %s" what (Term.to_string (Canon.to_term sub.skey)))
          0
          (List.length sub.Machine.s_consumers))
    (Engine.env (Session.engine s)).Machine.tables

let completed_tables s =
  List.length (List.filter (fun (_, complete, _) -> complete) (Engine.tables (Session.engine s)))

let both_schedulings f () = List.iter f [ Machine.Batched; Machine.Local ]

let consumer_lifecycle_cases =
  [
    t "completed tables keep no consumers after a query" `Quick
      (both_schedulings (fun scheduling ->
           let s = Session.create ~scheduling () in
           Session.consult s (tc_program (cycle 12 @ [ (3, 7); (9, 2) ]));
           check_int "through a query table" 12 (Session.count s "path(1,X)");
           check_int "a conjunction over several tables" 144 (Session.count s "path(2,X), path(X,Y)");
           check_bool "tables completed" true (completed_tables s >= 12);
           check_no_consumers "full evaluation" s));
    t "completed tables keep no consumers after a truncated or timed-out query" `Quick
      (both_schedulings (fun scheduling ->
           let s = Session.create ~scheduling () in
           Session.consult s (tc_program (cycle 12 @ [ (3, 7); (9, 2) ]));
           let e = Session.engine s in
           (match Engine.run_bounded_string ~limit:3 e "path(4,X), path(X,Y)" with
           | `Truncated sols -> check_int "limit" 3 (List.length sols)
           | _ -> Alcotest.fail "expected `Truncated");
           check_no_consumers "answer limit" s;
           (match Engine.run_bounded_string ~max_steps:200 e "path(5,X), path(X,Y)" with
           | `Timeout _ -> ()
           | _ -> Alcotest.fail "expected `Timeout");
           check_no_consumers "step budget" s;
           check_int "later queries unaffected" 144 (Session.count s "path(5,X), path(X,Y)");
           check_no_consumers "after recovery" s));
    t "completed tables keep no consumers after an e_tnot early stop" `Quick
      (both_schedulings (fun scheduling ->
           let s = Session.create ~scheduling () in
           Session.consult s
             (":- table win/1.\nwin(X) :- move(X,Y), e_tnot(win(Y)).\n"
             ^ String.concat "\n"
                 (List.init 15 (fun i -> Printf.sprintf "move(%d,%d)." (i + 1) (i + 2))));
           check_bool "win(1)" true (Session.succeeds s "win(1)");
           check_bool "win(2)" false (Session.succeeds s "win(2)");
           check_bool "tables completed" true (completed_tables s > 0);
           check_no_consumers "existential negation" s));
    t "a repaired incremental table keeps no consumers" `Quick
      (both_schedulings (fun scheduling ->
           let s = Session.create ~scheduling () in
           Session.consult s
             ":- table reach/2 as incremental.\n\
              :- dynamic edge/2.\n\
              reach(X,Y) :- edge(X,Y).\n\
              reach(X,Z) :- reach(X,Y), edge(Y,Z).\n\
              edge(1,2). edge(2,3). edge(3,1).";
           check_int "warm" 3 (Session.count s "reach(1,X)");
           check_no_consumers "before the write" s;
           check_bool "assert" true (Session.succeeds s "assert(edge(3,4))");
           check_int "repaired" 4 (Session.count s "reach(1,X)");
           check_int "one repair" 1 (Session.stats s).Machine.st_repairs;
           check_no_consumers "after the repair" s;
           check_int "queried again" 4 (Session.count s "reach(2,X)");
           check_no_consumers "queried again" s));
  ]

let suite = suite @ consumer_lifecycle_cases
