(* End-to-end scenarios taken directly from the paper. *)

open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let session ?mode text =
  let s = Session.create ?mode () in
  Session.consult s text;
  s

let binary_tree_moves height =
  let buf = Buffer.create 256 in
  let nodes = (1 lsl height) - 1 in
  for i = 1 to nodes do
    if 2 * i <= nodes then Buffer.add_string buf (Printf.sprintf "move(%d,%d). " i (2 * i));
    if (2 * i) + 1 <= nodes then
      Buffer.add_string buf (Printf.sprintf "move(%d,%d). " i ((2 * i) + 1))
  done;
  Buffer.contents buf

let cases =
  [
    t "abstract: finite on modularly stratified datalog" `Quick (fun () ->
        (* the headline: all-answers datalog queries terminate, cycles
           included, under every rule shape *)
        List.iter
          (fun rules ->
            let s =
              session
                (":- table path/2.\n" ^ rules
               ^ "edge(1,2). edge(2,3). edge(3,1). edge(3,4).")
            in
            check_int rules 4 (Session.count s "path(1,X)"))
          [
            "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n";
            "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n";
            "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), path(Z,Y).\n";
          ]);
    t "section 4.1: the paper's HiLog term examples parse" `Quick (fun () ->
        List.iter
          (fun text -> ignore (Parser.term_of_string text))
          [
            "X"; "X(1)"; "parent('John', 'Mary')"; "r(X)(parent(X, 'Mary'))"; "7"; "7(E)";
            "X(bob, Y)"; "p(f(X))(Y, Z)";
          ]);
    t "section 4.4: transform_null joined with a relation" `Quick (fun () ->
        let s =
          session
            "transform_null(null,'date unknown') :- !.\n\
             transform_null(X,X).\n\
             emp(1, date(1990,1)). emp(2, null). emp(3, date(1995,6)).\n\
             hired(Id, D) :- emp(Id, H), transform_null(H, D)."
        in
        check_int "all transformed" 3 (Session.count s "hired(_, D)");
        check_bool "null mapped" true (Session.succeeds s "hired(2, 'date unknown')"));
    t "section 4.4: not_p via cut-fail equals negation" `Quick (fun () ->
        let s =
          session
            "p(1,2). p(3,4).\n\
             not_p(X,Y) :- p(X,Y), !, fail.\n\
             not_p(_,_)."
        in
        check_bool "in p" false (Session.succeeds s "not_p(1,2)");
        check_bool "not in p" true (Session.succeeds s "not_p(1,3)"));
    t "example 4.1: win over trees, all three negations agree" `Quick (fun () ->
        let moves = binary_tree_moves 5 in
        let truth neg =
          let rule =
            match neg with
            | `Tnot -> ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\n"
            | `Etnot -> ":- table win/1.\nwin(X) :- move(X,Y), e_tnot(win(Y)).\n"
            | `Sldnf -> "win(X) :- move(X,Y), \\+ win(Y).\n"
          in
          let s = session (rule ^ moves) in
          List.map (fun i -> Session.succeeds s (Printf.sprintf "win(%d)" i)) [ 1; 2; 3; 7; 15 ]
        in
        let slg = truth `Tnot in
        check_bool "e_tnot agrees" true (truth `Etnot = slg);
        check_bool "sldnf agrees" true (truth `Sldnf = slg));
    t "section 4.7: benefits example verbatim" `Quick (fun () ->
        let s =
          session
            ":- hilog package1. :- hilog package2.\n\
             package1(health_ins, required).\n\
             package1(life_ins, optional).\n\
             package2(free_car, optional).\n\
             package2(long_vacations, optional).\n\
             benefits('John', package1). benefits('Bob', package2).\n\
             intersect_2(S1,S2)(X,Y) :- S1(X,Y), S2(X,Y).\n\
             union_2(S1,S2)(X,Y) :- S1(X,Y).\n\
             union_2(S1,S2)(X,Y) :- S2(X,Y)."
        in
        check_int "John's benefits" 2 (Session.count s "benefits('John', P), P(X, Y)");
        check_int "no common benefits in the paper's data" 0
          (Session.count s "benefits('John',P), benefits('Bob',Q), intersect_2(P,Q)(X,Y)");
        check_int "union" 4
          (Session.count s "benefits('John',P), benefits('Bob',Q), union_2(P,Q)(X,Y)"));
    t "section 4.7: generic path closure over graph parameters" `Quick (fun () ->
        let s =
          session
            ":- hilog g1. :- hilog g2.\n\
             :- table apply/3.\n\
             path(Graph)(X, Y) :- Graph(X, Y).\n\
             path(Graph)(X, Y) :- path(Graph)(X, Z), Graph(Z, Y).\n\
             g1(1,2). g1(2,3).\n\
             g2(a,b)."
        in
        check_int "g1 closure" 3 (Session.count s "path(g1)(X, Y)");
        check_int "g2 closure" 1 (Session.count s "path(g2)(X, Y)"));
    t "prelude: list predicates" `Quick (fun () ->
        let s = Session.create () in
        Prelude.load s;
        List.iter
          (fun q -> check_bool q true (Session.succeeds s q))
          [
            "member(2, [1,2,3])";
            "\\+ member(9, [1,2,3])";
            "append([1,2], [3], [1,2,3])";
            "reverse([1,2,3], [3,2,1])";
            "last([a,b,c], c)";
            "nth0(1, [a,b,c], b)";
            "nth1(1, [a,b,c], a)";
            "sum_list([1,2,3,4], 10)";
            "max_list([3,1,4,1,5], 5)";
            "min_list([3,1,4], 1)";
            "numlist(1, 5, [1,2,3,4,5])";
            "msort([3,1,2,1], [1,1,2,3])";
            "select(2, [1,2,3], [1,3])";
            "delete([1,2,1,3], 1, [2,3])";
          ];
        check_int "permutations" 6 (Session.count s "permutation([1,2,3], P)"));
    t "prelude: aggregates via findall (§4.7)" `Quick (fun () ->
        let s = Session.create () in
        Prelude.load s;
        Session.consult s "salary(tom, 100). salary(ann, 150). salary(joe, 50).";
        check_bool "count" true (Session.succeeds s "count(salary(_, _), 3)");
        check_bool "sum" true (Session.succeeds s "sum(S, salary(_, S), 300)");
        check_bool "max" true (Session.succeeds s "aggregate_max(S, salary(_, S), 150)");
        check_bool "tcount over tabled" true
          (let s2 = Session.create () in
           Prelude.load s2;
           Session.consult s2
             ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n\
              edge(1,2). edge(2,3). edge(3,1).";
           Session.succeeds s2 "tcount(path(1,_), 3)"));
    t "prelude: HiLog set operations" `Quick (fun () ->
        let s = Session.create () in
        Prelude.load s;
        Session.consult s
          ":- hilog a_set. :- hilog b_set.\n\
           a_set(x, 1). a_set(y, 2).\n\
           b_set(x, 1). b_set(z, 3).";
        check_int "intersection" 1 (Session.count s "intersect_2(a_set, b_set)(X, Y)");
        check_int "difference" 1 (Session.count s "diff_2(a_set, b_set)(X, Y)");
        check_bool "not subset" false (Session.succeeds s "subset_2(a_set, b_set)");
        check_bool "subset of union... via member_2" true
          (Session.succeeds s "member_2(a_set)(x, 1)"));
    t "figure 2 formula holds exactly for heights 4..9" `Quick (fun () ->
        List.iter
          (fun h ->
            let s = session ("win(X) :- move(X,Y), \\+ win(Y).\n" ^ binary_tree_moves h) in
            Engine.set_profiling (Session.engine s) true;
            ignore (Session.succeeds s "win(1)");
            let calls = Engine.call_count (Session.engine s) "win" 1 in
            let n = h - 1 in
            let expected = (1 lsl ((n / 2) + 2)) - 3 + (if n mod 2 = 1 then 1 else 0) in
            check_int (Printf.sprintf "G at height %d" h) expected calls)
          [ 4; 5; 6; 7; 8; 9 ]);
    t "section 2: tabling non-recursive externally-computed predicates" `Quick (fun () ->
        (* the paper notes nothing precludes tabling non-recursive
           predicates; check tables are created and reused *)
        let s = session ":- table expensive/2.\nexpensive(X, Y) :- Y is X * X." in
        ignore (Session.query s "expensive(4, Y)");
        let before = (Engine.stats (Session.engine s)).Machine.st_resolutions in
        ignore (Session.query s "expensive(4, Y)");
        let after = (Engine.stats (Session.engine s)).Machine.st_resolutions in
        (* the second call answers from the table: no new clause resolution
           against expensive/2 (only the query pseudo-clause) *)
        check_bool "table reused" true (after - before <= 1));
    t "space reclamation: abolished tables recompute" `Quick (fun () ->
        let s =
          session
            ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3)."
        in
        check_int "first" 2 (Session.count s "path(1,X)");
        ignore (Session.query s "abolish_all_tables");
        check_int "after reclaim" 2 (Session.count s "path(1,X)"));
    t "dynamic data + tabled views interact" `Quick (fun () ->
        let s =
          session
            ":- dynamic edge/2.\n:- table path/2.\n\
             path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y)."
        in
        ignore (Session.query s "assert(edge(1,2)), assert(edge(2,3))");
        check_int "view over dynamic data" 2 (Session.count s "path(1,X)");
        ignore (Session.query s "assert(edge(3,4)), abolish_all_tables");
        check_int "updated after table reclaim" 3 (Session.count s "path(1,X)"));
    t "cross-engine agreement on the same database" `Quick (fun () ->
        let text = "e(1,2). e(2,3). e(3,4). e(4,5).\nq(X,Z) :- e(X,Y), e(Y,Z)." in
        let s = session text in
        let slg = Session.count s "q(X,Z)" in
        let wam =
          let db = Database.create () in
          ignore (Loader.consult_string db text);
          Wam.count_solutions (Wam.create (Wam.of_database db)) (Parser.term_of_string "q(X,Z)")
        in
        let bu =
          let st = Bottomup.run (Datalog.of_clauses (Parser.program_of_string text)) in
          Bottomup.relation_size st ("q", 2)
        in
        let interp =
          Naive_interp.count
            (Naive_interp.create (Parser.program_of_string text))
            (Parser.term_of_string "q(X,Z)")
        in
        check_int "wam" slg wam;
        check_int "bottomup" slg bu;
        check_int "interp" slg interp);
  ]

(* random non-stratified programs: the engine+residual pipeline must
   agree with the alternating fixpoint over the directly-grounded
   program *)
let wfs_props =
  let open QCheck2 in
  let program_gen =
    (* random ground rules over atoms p0..p7: head :- [pos], [neg] *)
    let atom = Gen.map (fun i -> Printf.sprintf "p%d" i) (Gen.int_range 0 7) in
    Gen.list_size (Gen.int_range 1 12)
      (Gen.triple atom (Gen.list_size (Gen.int_range 0 2) atom) (Gen.list_size (Gen.int_range 0 2) atom))
  in
  (* the program as the engine consults it; also what a failing case prints *)
  let program_text rules =
    ":- table p0/0, p1/0, p2/0, p3/0, p4/0, p5/0, p6/0, p7/0.\n"
    ^ String.concat "\n"
        (List.map
           (fun (h, pos, neg) ->
             let body = pos @ List.map (fun a -> "tnot(" ^ a ^ ")") neg in
             match body with
             | [] -> h ^ "."
             | _ -> h ^ " :- " ^ String.concat ", " body ^ ".")
           rules)
  in
  [
    Test.make ~name:"engine WFS = direct alternating fixpoint" ~count:80
      ~print:(fun rules -> "\n" ^ program_text rules)
      program_gen
      (fun rules ->
        (* direct ground evaluation *)
        let ground = Ground.create () in
        List.iter
          (fun (h, pos, neg) ->
            Ground.add_rule ground
              (Canon.of_term (Term.Atom h))
              ~pos:(List.map (fun a -> Canon.of_term (Term.Atom a)) pos)
              ~neg:(List.map (fun a -> Canon.of_term (Term.Atom a)) neg))
          rules;
        (* engine in well-founded mode *)
        let text = program_text rules in
        let s = session ~mode:Machine.Well_founded text in
        List.for_all
          (fun i ->
            let name = Printf.sprintf "p%d" i in
            let direct = Ground.wfs ground (Canon.of_term (Term.Atom name)) in
            let via_engine =
              match Session.wfs_query s name with
              | [] -> Ground.False
              | [ { Residual.truth; _ } ] -> truth
              | _ -> Ground.False
            in
            direct = via_engine)
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  ]

let suite = cases @ List.map (QCheck_alcotest.to_alcotest ~long:false) wfs_props
