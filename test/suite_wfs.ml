open Xsb

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let c s = Canon.of_term (Parser.term_of_string s)

let truth_testable =
  Alcotest.testable
    (fun ppf v ->
      Fmt.string ppf
        (match v with Ground.True -> "true" | Ground.False -> "false" | Ground.Undefined -> "undefined"))
    ( = )

let check_truth = Alcotest.check truth_testable

let wfs_session text =
  let s = Session.create ~mode:Machine.Well_founded () in
  Session.consult s text;
  s

let truth_of s q =
  match Session.wfs_query s q with
  | [] -> Ground.False
  | [ { Residual.truth; _ } ] -> truth
  | _ -> Alcotest.failf "multiple answers for %s" q

let cases =
  [
    t "alternating fixpoint: definite program" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_fact g (c "a");
        Ground.add_rule g (c "b") ~pos:[ c "a" ] ~neg:[];
        Ground.add_rule g (c "d") ~pos:[ c "e" ] ~neg:[];
        check_truth "a" Ground.True (Ground.wfs g (c "a"));
        check_truth "b" Ground.True (Ground.wfs g (c "b"));
        check_truth "d" Ground.False (Ground.wfs g (c "d"));
        check_truth "unknown atom" Ground.False (Ground.wfs g (c "zzz")));
    t "alternating fixpoint: stratified negation" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_fact g (c "q");
        Ground.add_rule g (c "p") ~pos:[] ~neg:[ c "q" ];
        Ground.add_rule g (c "r") ~pos:[] ~neg:[ c "s" ];
        check_truth "p" Ground.False (Ground.wfs g (c "p"));
        check_truth "r" Ground.True (Ground.wfs g (c "r")));
    t "alternating fixpoint: negative loop is undefined" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_rule g (c "p") ~pos:[] ~neg:[ c "q" ];
        Ground.add_rule g (c "q") ~pos:[] ~neg:[ c "p" ];
        check_truth "p" Ground.Undefined (Ground.wfs g (c "p"));
        check_truth "q" Ground.Undefined (Ground.wfs g (c "q")));
    t "positive loop is false, not undefined" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_rule g (c "p") ~pos:[ c "q" ] ~neg:[];
        Ground.add_rule g (c "q") ~pos:[ c "p" ] ~neg:[];
        check_truth "p" Ground.False (Ground.wfs g (c "p")));
    t "the barber paradox" `Quick (fun () ->
        (* shaves(barber,X) :- not shaves(X,X) — undefined for the barber *)
        let g = Ground.create () in
        Ground.add_rule g (c "shaves(b,b)") ~pos:[] ~neg:[ c "shaves(b,b)" ];
        check_truth "barber" Ground.Undefined (Ground.wfs g (c "shaves(b,b)")));
    t "wfs_partition" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_fact g (c "t");
        Ground.add_rule g (c "u") ~pos:[] ~neg:[ c "u" ];
        Ground.add_rule g (c "f") ~pos:[ c "nothing" ] ~neg:[];
        let ts, us, fs = Ground.wfs_partition g in
        check_int "true" 1 (List.length ts);
        check_int "undefined" 1 (List.length us);
        check_int "false" 2 (List.length fs));
    t "stable models of an even loop" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_rule g (c "p") ~pos:[] ~neg:[ c "q" ];
        Ground.add_rule g (c "q") ~pos:[] ~neg:[ c "p" ];
        match Ground.stable_models g with
        | Some models -> check_int "two models" 2 (List.length models)
        | None -> Alcotest.fail "expected enumeration");
    t "odd loop has no stable model but wfs is undefined" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_rule g (c "p") ~pos:[] ~neg:[ c "p" ];
        check_truth "undefined" Ground.Undefined (Ground.wfs g (c "p"));
        match Ground.stable_models g with
        | Some models -> check_int "none" 0 (List.length models)
        | None -> Alcotest.fail "expected enumeration");
    t "stable models respect the wfs core" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_fact g (c "base");
        Ground.add_rule g (c "p") ~pos:[ c "base" ] ~neg:[ c "q" ];
        Ground.add_rule g (c "q") ~pos:[ c "base" ] ~neg:[ c "p" ];
        match Ground.stable_models g with
        | Some models ->
            check_int "two" 2 (List.length models);
            List.iter
              (fun m -> check_bool "base in every model" true (List.exists (Canon.equal (c "base")) m))
              models
        | None -> Alcotest.fail "expected enumeration");
    t "engine: undefined pair via residual" `Quick (fun () ->
        let s = wfs_session ":- table p/0, q/0, r/0, s/0.\np :- tnot(q).\nq :- tnot(p).\nr :- tnot(s).\ns." in
        check_truth "p" Ground.Undefined (truth_of s "p");
        check_truth "q" Ground.Undefined (truth_of s "q");
        check_truth "r" Ground.False (truth_of s "r");
        check_truth "s" Ground.True (truth_of s "s"));
    t "engine: win with a draw cycle" `Quick (fun () ->
        let s =
          wfs_session
            ":- table win/1.\n\
             win(X) :- move(X,Y), tnot(win(Y)).\n\
             move(a,b). move(b,a). move(b,c). move(c,d)."
        in
        check_truth "win(a)" Ground.Undefined (truth_of s "win(a)");
        check_truth "win(b)" Ground.Undefined (truth_of s "win(b)");
        check_truth "win(c)" Ground.True (truth_of s "win(c)");
        check_truth "win(d)" Ground.False (truth_of s "win(d)"));
    t "engine: stratified programs have no undefined atoms" `Quick (fun () ->
        let s =
          wfs_session
            ":- table reach/1, blocked/1.\n\
             reach(1).\n\
             reach(Y) :- reach(X), e(X,Y).\n\
             blocked(X) :- n(X), tnot(reach(X)).\n\
             e(1,2). n(1). n(2). n(3)."
        in
        check_truth "blocked(3)" Ground.True (truth_of s "blocked(3)");
        check_truth "blocked(2)" Ground.False (truth_of s "blocked(2)");
        let answers = Session.wfs_query s "blocked(X)" in
        check_bool "all definite" true
          (List.for_all (fun a -> a.Residual.truth = Ground.True) answers));
    t "engine: stable models from the residual (ref [5])" `Quick (fun () ->
        let s = wfs_session ":- table p/0, q/0.\np :- tnot(q).\nq :- tnot(p)." in
        ignore (Session.wfs_query s "p");
        match Residual.stable_models (Session.engine s) with
        | Some models -> check_int "two 2-valued stable models" 2 (List.length models)
        | None -> Alcotest.fail "expected models");
    t "engine: three-valued win over a 2-cycle has matching stable models" `Quick (fun () ->
        let s =
          wfs_session ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\nmove(a,b). move(b,a)."
        in
        ignore (Session.wfs_query s "win(a)");
        match Residual.stable_models (Session.engine s) with
        | Some models ->
            (* {win(a)} and {win(b)} *)
            check_int "two models" 2 (List.length models);
            List.iter (fun m -> check_int "one winner each" 1 (List.length m)) models
        | None -> Alcotest.fail "expected models");
    (* regression: --wfs looped forever on mutual negation over
       untabled predicates — solve_tnot fell back to SLD
       negation-as-failure, which recursed without ever creating a
       table. Well-founded mode now auto-tables such predicates. The
       step bound turns any regression into a Step_limit failure
       instead of a hang. *)
    t "engine: mutual negation without table directives terminates" `Quick (fun () ->
        let s = wfs_session "p :- tnot(q).\nq :- tnot(p)." in
        Engine.set_max_steps (Session.engine s) 200_000;
        check_truth "p" Ground.Undefined (truth_of s "p");
        check_truth "q" Ground.Undefined (truth_of s "q"));
    t "engine: untabled 3-cycle of negations is undefined" `Quick (fun () ->
        let s = wfs_session "a :- tnot(b).\nb :- tnot(c).\nc :- tnot(a)." in
        Engine.set_max_steps (Session.engine s) 200_000;
        check_truth "a" Ground.Undefined (truth_of s "a");
        check_truth "b" Ground.Undefined (truth_of s "b");
        check_truth "c" Ground.Undefined (truth_of s "c"));
    t "engine: mixed stratified and unstratified, untabled" `Quick (fun () ->
        let s =
          wfs_session "p :- tnot(q).\nq :- tnot(p).\nr :- tnot(s).\ns.\nk :- tnot(missing)."
        in
        Engine.set_max_steps (Session.engine s) 200_000;
        check_truth "p" Ground.Undefined (truth_of s "p");
        check_truth "r" Ground.False (truth_of s "r");
        check_truth "s" Ground.True (truth_of s "s");
        (* tnot over a predicate with no clauses at all still uses plain
           negation-as-failure: no table needed for a loop-free goal *)
        check_truth "k" Ground.True (truth_of s "k"));
    t "residual: distinct numeric solutions do not collide" `Quick (fun () ->
        (* regression: answers were merged by their printed form, and
           the integer 1 and the float 1.0 print identically *)
        let s = wfs_session ":- table q/1.\nq(1).\nq(1.0)." in
        let answers = Session.wfs_query s "q(X)" in
        check_int "two solutions" 2 (List.length answers);
        check_bool "all true" true
          (List.for_all (fun a -> a.Residual.truth = Ground.True) answers));
    t "delay_truth conjunctions" `Quick (fun () ->
        let g = Ground.create () in
        Ground.add_fact g (c "t");
        Ground.add_rule g (c "u") ~pos:[] ~neg:[ c "u" ];
        check_truth "true and not-false" Ground.True
          (Residual.delay_truth g [ Machine.Dpos (c "k", c "t"); Machine.Dneg (c "zzz") ]);
        check_truth "undefined member" Ground.Undefined
          (Residual.delay_truth g [ Machine.Dpos (c "k", c "t"); Machine.Dneg (c "u") ]);
        check_truth "false member" Ground.False
          (Residual.delay_truth g [ Machine.Dneg (c "t") ]));
    t "a table delayed on an abandoned nested evaluation is not kept (qcheck seed 45)" `Quick
      (fun () ->
        (* tnot(p5) under p0 completes p5 with the conditional answer
           p5 :- tnot(p7) in a nested evaluation, which p6 :- p0 then
           abandons; keeping p5 read its delay on the deleted p7 as
           false, and p5 came out true once p0 had run *)
        let program =
          ":- table p0/0, p5/0, p6/0, p7/0.
           p0.
           p0 :- tnot(p5).
           p5 :- tnot(p7).
           p7 :- p5, tnot(p5), tnot(p6).
           p6 :- p0, p0.
           p7 :- tnot(p5)."
        in
        let want = [ ("p0", Ground.True); ("p5", Ground.Undefined) ] in
        List.iter
          (fun (scheduling, sname) ->
            List.iter
              (fun order ->
                let s = Session.create ~mode:Machine.Well_founded ~scheduling () in
                Session.consult s program;
                List.iter
                  (fun q ->
                    check_truth
                      (Printf.sprintf "%s after %s (%s)" q (String.concat "," order) sname)
                      (List.assoc q want) (truth_of s q))
                  order)
              [ [ "p0"; "p5" ]; [ "p5"; "p0" ] ])
          [ (Machine.Batched, "batched"); (Machine.Local, "local") ]);
  ]

let suite = cases
