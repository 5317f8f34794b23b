(* Call-subsumption tabling (ISSUE PR 7).

   [:- table p/N as subsumption.] makes subgoal lookup search the
   per-predicate call index for a table whose subgoal subsumes the new
   call. On a hit the call becomes a subsumed consumer of the more
   general table — no generator of its own — and its answers are the
   producer's answers filtered through unification, retrieved
   incrementally through the time-stamped answer index. These are the
   engine-level regressions: late consumers, completion, interaction
   with invalidation, and bounded-query interruption. *)

open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* every solution as one string; [query_all] keeps duplicates so tests
   can assert each answer arrives exactly once *)
let sols_of answers =
  List.map
    (fun (sol : Engine.solution) ->
      String.concat "," (List.map (fun (_, v) -> Term.to_string v) sol.Engine.bindings))
    answers

let query_all s goal = List.sort compare (sols_of (Session.query s goal))
let query_set s goal = List.sort_uniq compare (sols_of (Session.query s goal))

let reach_rules = "p(X,Y) :- edge(X,Y).\np(X,Z) :- p(X,Y), edge(Y,Z).\n"
let cyclic_edges = "edge(1,2). edge(2,3). edge(3,1). edge(3,4). edge(5,6).\n"
let reach_sub = ":- table p/2 as subsumption.\n" ^ cyclic_edges ^ reach_rules
let reach_var = ":- table p/2.\n" ^ cyclic_edges ^ reach_rules

let late_consumer_cases =
  [
    t "a late specific call is served from the completed general table" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_sub;
        check_bool "general answers" true (query_set s "p(X,Y)" <> []);
        let subgoals = (Session.stats s).Machine.st_subgoals in
        let answers = query_all s "p(1,C)" in
        check_bool "each answer exactly once" true
          (answers = List.sort_uniq compare answers);
        check_bool "all reachable from 1" true (answers = [ "1"; "2"; "3"; "4" ]);
        (* only the private $query table appears: the specific call made
           no generator and no table of its own *)
        check_int "no new p table" (subgoals + 1) (Session.stats s).Machine.st_subgoals;
        check_bool "hit counted" true
          ((Session.stats s).Machine.st_subsumption_hits >= 1
          && (Session.stats s).Machine.st_subsumed_calls >= 1));
    t "several specific calls share one general table" `Quick (fun () ->
        let run text =
          let s = Session.create () in
          Session.consult s text;
          ignore (Session.query s "p(X,Y)");
          let answers =
            List.map (fun g -> query_all s g) [ "p(1,C)"; "p(2,C)"; "p(5,C)"; "p(4,C)" ]
          in
          (answers, (Session.stats s).Machine.st_subgoals)
        in
        let sub_answers, sub_tables = run reach_sub in
        let var_answers, var_tables = run reach_var in
        check_bool "same answers as variant tabling" true (sub_answers = var_answers);
        (* completed-table specifics make no table under either mode
           (bound calls over a completed general table were already
           index-served), so the counts merely must not regress *)
        check_bool "no more tables than variant" true (sub_tables <= var_tables));
    t "in-evaluation specific calls create no tables of their own" `Quick (fun () ->
        (* a join [p(A,B), p(B,Z)] issues bound calls while the general
           table is still producing: variant tabling opens a generator
           table per distinct bound call, a subsumed consumer opens none *)
        let run text =
          let s = Session.create ~scheduling:Machine.Batched () in
          Session.consult s (text ^ "r(Z) :- p(A,B), p(B,Z).\n");
          let answers = query_set s "r(Z)" in
          (answers, (Session.stats s).Machine.st_subgoals)
        in
        let sub_answers, sub_tables = run reach_sub in
        let var_answers, var_tables = run reach_var in
        check_bool "same answers as variant tabling" true (sub_answers = var_answers);
        check_bool "strictly fewer tables" true (sub_tables < var_tables));
    t "a subsumed variant call is still served" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_sub;
        ignore (Session.query s "p(X,Y)");
        let before = (Session.stats s).Machine.st_subgoals in
        (* a variant of the completed subgoal is an instance of it too;
           the re-query reads the table directly and creates none *)
        check_bool "variant re-query" true (query_set s "p(A,B)" <> []);
        check_int "served from the table" before (Session.stats s).Machine.st_subgoals);
  ]

let completion_cases =
  let schedulings = [ Machine.Batched; Machine.Local ] in
  [
    t "an in-evaluation subsumed consumer completes without deadlock" `Quick (fun () ->
        List.iter
          (fun sched ->
            let name = Machine.scheduling_to_string sched in
            let s = Session.create ~scheduling:sched () in
            Session.consult s (reach_sub ^ "r(Z) :- p(A,B), p(1,Z).\n");
            let v = Session.create ~scheduling:sched () in
            Session.consult v (reach_var ^ "r(Z) :- p(A,B), p(1,Z).\n");
            check_bool (name ^ ": same answers") true
              (query_set s "r(Z)" = query_set v "r(Z)");
            check_bool (name ^ ": consumer went through the index") true
              ((Session.stats s).Machine.st_subsumption_hits >= 1))
          schedulings);
    t "subsumption across a mutually recursive SCC is not completed early" `Quick (fun () ->
        List.iter
          (fun sched ->
            let name = Machine.scheduling_to_string sched in
            let program mode_lines =
              mode_lines ^ cyclic_edges
              ^ "p(X,Y) :- edge(X,Y).\n\
                 p(X,Z) :- q(X,Y), edge(Y,Z).\n\
                 q(X,Y) :- p(X,Y).\n"
            in
            let s = Session.create ~scheduling:sched () in
            Session.consult s
              (program ":- table p/2 as subsumption.\n:- table q/2 as subsumption.\n");
            let v = Session.create ~scheduling:sched () in
            Session.consult v (program ":- table p/2, q/2.\n");
            List.iter
              (fun g ->
                check_bool (name ^ ": " ^ g) true (query_set s g = query_set v g))
              [ "q(A,B), p(1,C)"; "p(3,C)"; "q(5,C)" ])
          schedulings);
    t "a non-linear subsumed call filters candidate answers" `Quick (fun () ->
        (* batched: p(Z,Z) suspends on the incomplete general table, and
           its drains retrieve by the skeleton p(Z,Z) — the trie does not
           check the non-linear constraint, so candidates like p(1,2)
           reach unification and are rejected there *)
        let s = Session.create ~scheduling:Machine.Batched () in
        Session.consult s (reach_sub ^ "d(Z) :- p(A,B), p(Z,Z).\n");
        check_bool "diagonal answers" true (query_set s "d(Z)" = [ "1"; "2"; "3" ]);
        check_bool "rejections counted" true
          ((Session.stats s).Machine.st_answers_filtered >= 1));
  ]

let invalidation_cases =
  [
    t "a mutation taints the subsuming table before a specific call" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s (":- table p/2 as subsumption.\n" ^ reach_rules);
        check_bool "seed" true (Session.succeeds s "assert(edge(1,2))");
        check_bool "general" true (query_set s "p(X,Y)" = [ "1,2" ]);
        check_bool "grow" true (Session.succeeds s "assert(edge(2,3))");
        (* the completed general table is no longer trustworthy: the
           specific call must not be served its stale answers *)
        check_bool "specific sees the new edge" true (query_set s "p(1,C)" = [ "2"; "3" ]);
        check_bool "general again" true (query_set s "p(X,Y)" = [ "1,2"; "1,3"; "2,3" ]));
    t "retract after a subsumed call leaves no stale answers" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s (":- table p/2 as subsumption.\n" ^ reach_rules);
        check_bool "e12" true (Session.succeeds s "assert(edge(1,2))");
        check_bool "e23" true (Session.succeeds s "assert(edge(2,3))");
        ignore (Session.query s "p(X,Y)");
        check_bool "warm specific" true (query_set s "p(1,C)" = [ "2"; "3" ]);
        check_bool "retract" true (Session.succeeds s "retract(edge(2,3))");
        check_bool "specific after retract" true (query_set s "p(1,C)" = [ "2" ]));
  ]

let bounded_cases =
  [
    t "table space is consistent after a bounded-query timeout" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_sub;
        let e = Session.engine s in
        (match Engine.run_bounded_string ~max_steps:10 e "p(X,Y)" with
        | `Timeout _ -> ()
        | `Answers _ | `Truncated _ -> Alcotest.fail "expected a timeout");
        (* the interrupted evaluation's tables were abandoned; the next
           queries recompute from scratch, including a subsumed call *)
        check_bool "general recomputes" true
          (List.length (query_set s "p(X,Y)") = 13);
        check_bool "specific served" true (query_set s "p(1,C)" = [ "1"; "2"; "3"; "4" ]);
        check_bool "subsumption still active" true
          ((Session.stats s).Machine.st_subsumption_hits >= 1));
    t "a timeout while consuming a subsumed call keeps later queries exact" `Quick (fun () ->
        let s = Session.create () in
        Session.consult s reach_sub;
        ignore (Session.query s "p(X,Y)");
        let e = Session.engine s in
        (* whatever the bounded outcome, the engine must stay usable and
           exact afterwards *)
        (match Engine.run_bounded_string ~max_steps:1 e "p(1,C)" with
        | `Timeout _ | `Answers _ | `Truncated _ -> ());
        check_bool "specific exact afterwards" true
          (query_all s "p(1,C)" = [ "1"; "2"; "3"; "4" ]));
  ]

let suite = late_consumer_cases @ completion_cases @ invalidation_cases @ bounded_cases
