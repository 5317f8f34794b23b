(* Differential testing of the evaluation strategies (ISSUE PR 2).

   Random range-restricted datalog programs are evaluated under SLG with
   Local scheduling, SLG with Batched scheduling, and the bottom-up
   (magic-set) engine of lib/bottomup; all three must produce identical
   answer sets.  Random stratified ground programs with negation are
   cross-checked against the well-founded model computed by
   lib/wfs/ground.ml — on stratified programs SLG's tnot/1 must agree
   exactly with the (total) well-founded model. *)

open Xsb

let runs = 200

(* --- positive datalog: SLG Local vs SLG Batched vs bottom-up --- *)

let table_directive = ":- table p/2, q/2, r/2.\n"

(* answers as a sorted list of argument-string tuples; [~traced] runs
   the same query with every sink attached and profiling on, which must
   be purely observational (ISSUE PR 3) *)
let slg_answer_set ?(traced = false) ~scheduling text goal =
  let s = Session.create ~scheduling () in
  if traced then begin
    Session.add_sink s Obs.Sink.Null;
    Session.add_sink s (Obs.Sink.Ring (Obs.Ring.create 256));
    Session.set_profiling s true
  end;
  Session.consult s (table_directive ^ text);
  List.sort_uniq compare
    (List.map
       (fun (sol : Engine.solution) ->
         List.map (fun (_, v) -> Term.to_string v) sol.Engine.bindings)
       (Session.query s goal))

let canon_args c =
  match Canon.to_term c with
  | Term.Struct (_, args) -> List.map Term.to_string (Array.to_list args)
  | t -> [ Term.to_string t ]

(* [keep] selects the argument positions that are free in the goal, so the
   tuples line up with the SLG bindings of the same query *)
let bottomup_answer_set text goal ~keep =
  let program = Datalog.of_clauses (Parser.program_of_string text) in
  let goal_term = Parser.term_of_string goal in
  let atoms =
    match Magic.answers program goal_term with
    | atoms -> atoms
    | exception Magic.Not_applicable _ -> Bottomup.answers (Bottomup.run program) goal_term
  in
  List.sort_uniq compare
    (List.map (fun c -> List.filteri (fun i _ -> List.mem i keep) (canon_args c)) atoms)

let check_goal text goal ~keep =
  let local = slg_answer_set ~scheduling:Machine.Local text goal in
  let batched = slg_answer_set ~scheduling:Machine.Batched text goal in
  let bottomup = bottomup_answer_set text goal ~keep in
  if local <> batched then
    QCheck2.Test.fail_reportf "local/batched disagree on %s:@.%s" goal text;
  if local <> bottomup then
    QCheck2.Test.fail_reportf "SLG/bottom-up disagree on %s (%d vs %d answers):@.%s" goal
      (List.length local) (List.length bottomup) text;
  true

let datalog_differential =
  QCheck2.Test.make ~count:runs ~name:"SLG local = SLG batched = bottom-up"
    ~print:Generators.datalog_text Generators.datalog_program_gen (fun dp ->
      let text = Generators.datalog_text dp in
      let heads =
        List.sort_uniq compare (List.map (fun r -> r.Generators.dr_head) dp.Generators.dp_rules)
      in
      List.for_all
        (fun h ->
          (* the fully open query exercises plain semi-naive evaluation,
             the bound query exercises the magic-set rewriting *)
          check_goal text (h ^ "(X,Y)") ~keep:[ 0; 1 ]
          && check_goal text (h ^ "(2,X)") ~keep:[ 1 ])
        heads)

(* --- call subsumption: SLG with subsumptive tables vs variant tables
   vs bottom-up, over query sequences biased toward repeated calls with
   shared shapes (an open general call, then instances of it, which the
   subsumptive engine serves from the general table) --- *)

let subsumption_directive = ":- table p/2 as subsumption, q/2 as subsumption, r/2 as subsumption.\n"

let session_answers s goal =
  List.sort_uniq compare
    (List.map
       (fun (sol : Engine.solution) ->
         List.map (fun (_, v) -> Term.to_string v) sol.Engine.bindings)
       (Session.query s goal))

let subsumption_differential =
  QCheck2.Test.make ~count:runs ~name:"call subsumption = variant tabling = bottom-up"
    ~print:Generators.datalog_text Generators.datalog_program_gen (fun dp ->
      let text = Generators.datalog_text dp in
      let heads =
        List.sort_uniq compare (List.map (fun r -> r.Generators.dr_head) dp.Generators.dp_rules)
      in
      List.for_all
        (fun scheduling ->
          (* one session per mode, shared across the whole query
             sequence: the later specific calls hit tables the earlier
             general calls filled *)
          let sub = Session.create ~scheduling () in
          Session.consult sub (subsumption_directive ^ text);
          let var = Session.create ~scheduling () in
          Session.consult var (table_directive ^ text);
          List.for_all
            (fun h ->
              List.for_all
                (fun (goal, keep) ->
                  let goal = h ^ goal in
                  let a = session_answers sub goal in
                  let b = session_answers var goal in
                  (a = b
                  || QCheck2.Test.fail_reportf
                       "subsumption/variant disagree on %s (%s):@.%s" goal
                       (Machine.scheduling_to_string scheduling)
                       text)
                  &&
                  match keep with
                  | None -> true (* non-linear goal: magic rewriting not compared *)
                  | Some keep ->
                      let bu = bottomup_answer_set text goal ~keep in
                      a = bu
                      || QCheck2.Test.fail_reportf
                           "subsumption/bottom-up disagree on %s (%d vs %d answers):@.%s" goal
                           (List.length a) (List.length bu) text)
                [
                  ("(X,Y)", Some [ 0; 1 ]);
                  ("(2,X)", Some [ 1 ]);
                  ("(X,3)", Some [ 0 ]);
                  ("(2,3)", Some []);
                  ("(A,A)", None);
                ])
            heads)
        [ Machine.Local; Machine.Batched ])

(* --- tracing and profiling are purely observational --- *)

let tracing_differential =
  QCheck2.Test.make ~count:(runs / 4) ~name:"tracing does not change answer sets"
    ~print:Generators.datalog_text Generators.datalog_program_gen (fun dp ->
      let text = Generators.datalog_text dp in
      let heads =
        List.sort_uniq compare (List.map (fun r -> r.Generators.dr_head) dp.Generators.dp_rules)
      in
      List.for_all
        (fun h ->
          let goal = h ^ "(X,Y)" in
          List.for_all
            (fun scheduling ->
              let plain = slg_answer_set ~scheduling text goal in
              let traced = slg_answer_set ~traced:true ~scheduling text goal in
              plain = traced
              || QCheck2.Test.fail_reportf "tracing changed the answers of %s:@.%s" goal text)
            [ Machine.Local; Machine.Batched ])
        heads)

(* --- stratified negation: SLG tnot vs the well-founded model --- *)

let stratified_differential ?(directive = ":- table p0/1, p1/1, p2/1.\n") ?(warm = [])
    ~scheduling name =
  QCheck2.Test.make ~count:runs ~name ~print:Generators.stratified_text Generators.stratified_gen
    (fun rules ->
      let text = directive ^ Generators.stratified_text rules in
      let session = Session.create ~scheduling () in
      Session.consult session text;
      (* under subsumption, open warm-up queries complete the general
         tables so every ground probe below is a subsumed call *)
      List.iter (fun g -> ignore (Session.query session g)) warm;
      let ground = Ground.create () in
      List.iter
        (fun (r : Generators.ground_rule) ->
          Ground.add_rule ground
            (Generators.ground_atom_canon r.Generators.gr_head)
            ~pos:(List.map Generators.ground_atom_canon r.Generators.gr_pos)
            ~neg:(List.map Generators.ground_atom_canon r.Generators.gr_neg))
        rules;
      List.for_all
        (fun atom ->
          let goal = Generators.ground_atom_text atom in
          let slg = Session.succeeds session goal in
          match Ground.wfs ground (Generators.ground_atom_canon atom) with
          | Ground.True ->
              slg || QCheck2.Test.fail_reportf "SLG fails on true atom %s:@.%s" goal text
          | Ground.False ->
              (not slg) || QCheck2.Test.fail_reportf "SLG proves false atom %s:@.%s" goal text
          | Ground.Undefined ->
              QCheck2.Test.fail_reportf "stratified program has undefined atom %s:@.%s" goal text)
        Generators.stratified_universe)

(* --- non-stratified negation: SLG well-founded vs the alternating
   fixpoint of lib/wfs/ground.ml --- *)

let truth_name = function
  | Ground.True -> "true"
  | Ground.False -> "false"
  | Ground.Undefined -> "undefined"

let wfs_differential =
  QCheck2.Test.make ~count:runs ~name:"SLG well-founded = alternating fixpoint"
    ~print:Generators.stratified_text Generators.nonstratified_gen (fun rules ->
      let text = ":- table p0/1, p1/1, p2/1.\n" ^ Generators.stratified_text rules in
      let session = Session.create ~mode:Machine.Well_founded () in
      Session.consult session text;
      let ground = Ground.create () in
      List.iter
        (fun (r : Generators.ground_rule) ->
          Ground.add_rule ground
            (Generators.ground_atom_canon r.Generators.gr_head)
            ~pos:(List.map Generators.ground_atom_canon r.Generators.gr_pos)
            ~neg:(List.map Generators.ground_atom_canon r.Generators.gr_neg))
        rules;
      List.for_all
        (fun atom ->
          let goal = Generators.ground_atom_text atom in
          let slg =
            match Session.wfs_query session goal with
            | [] -> Ground.False
            | [ { Residual.truth; _ } ] -> truth
            | _ -> QCheck2.Test.fail_reportf "multiple answers for %s:@.%s" goal text
          in
          let expect = Ground.wfs ground (Generators.ground_atom_canon atom) in
          slg = expect
          || QCheck2.Test.fail_reportf "SLG says %s, WFS says %s on %s:@.%s" (truth_name slg)
               (truth_name expect) goal text)
        Generators.stratified_universe)

(* --- incremental tabling: random assert/retract interleavings must
   agree with evaluating from scratch (here: BFS ground truth) --- *)

let incremental_program =
  ":- table reach/2 as incremental.\n\
   reach(X,Y) :- edge(X,Y).\n\
   reach(X,Z) :- reach(X,Y), edge(Y,Z)."

let mutation_script_gen =
  QCheck2.Gen.(
    pair
      (Generators.edges_gen ~n:5 ~m:6)
      (list_size (int_range 1 8) (pair bool (pair (int_range 1 5) (int_range 1 5)))))

let print_mutation_script (init, ops) =
  Printf.sprintf "init: %s\nops: %s"
    (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) init))
    (String.concat " "
       (List.map
          (fun (add, (a, b)) -> Printf.sprintf "%s%d-%d" (if add then "+" else "-") a b)
          ops))

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if x = y then rest else y :: remove_one x rest

let incremental_differential =
  QCheck2.Test.make ~count:runs ~name:"incremental tabling = from-scratch under mutations"
    ~print:print_mutation_script mutation_script_gen (fun (init, ops) ->
      let s = Session.create () in
      Session.consult s incremental_program;
      List.iter
        (fun (a, b) ->
          ignore (Session.succeeds s (Printf.sprintf "assert(edge(%d,%d))" a b)))
        init;
      let current = ref init in
      let check stage =
        let got =
          List.sort_uniq compare
            (List.map
               (fun (sol : Engine.solution) ->
                 match sol.Engine.bindings with
                 | [ (_, v) ] -> Term.to_string v
                 | _ -> QCheck2.Test.fail_reportf "bad binding shape"
               )
               (Session.query s "reach(1,X)"))
        in
        let expect =
          List.sort_uniq compare (List.map string_of_int (Generators.reachable !current 1))
        in
        got = expect
        || QCheck2.Test.fail_reportf "reach(1,X) diverged %s: got [%s], expected [%s]@.%s" stage
             (String.concat ";" got) (String.concat ";" expect)
             (print_mutation_script (init, ops))
      in
      check "initially"
      && List.for_all
           (fun (add, (a, b)) ->
             let text = Printf.sprintf "edge(%d,%d)" a b in
             (if add then begin
                ignore (Session.succeeds s (Printf.sprintf "assert(%s)" text));
                current := (a, b) :: !current
              end
              else if Session.succeeds s (Printf.sprintf "retract(%s)" text) then
                current := remove_one (a, b) !current);
             check (Printf.sprintf "after %s%s" (if add then "+" else "-") text))
           ops)

(* --- completed tables answer directly: once a query has completed its
   tables, re-running a single tabled call [G] reads the answers straight
   out of the table, while [(G, true)] — a conjunction — still evaluates
   through a query table. The two must give the same solutions in the
   same order, with the same binding names. --- *)

let solution_rows sols =
  List.map
    (fun (sol : Engine.solution) ->
      ( List.map (fun (n, v) -> (n, Term.to_string v)) sol.Engine.bindings,
        sol.Engine.conditional ))
    sols

let completed_read_differential =
  QCheck2.Test.make ~count:(runs / 2) ~name:"completed-table reads = query-table evaluation"
    ~print:Generators.datalog_text Generators.datalog_program_gen (fun dp ->
      let text = Generators.datalog_text dp in
      let heads =
        List.sort_uniq compare (List.map (fun r -> r.Generators.dr_head) dp.Generators.dp_rules)
      in
      List.for_all
        (fun (directive, scheduling) ->
          let s = Session.create ~scheduling () in
          Session.consult s (directive ^ text);
          List.for_all
            (fun h ->
              List.for_all
                (fun args ->
                  let goal = h ^ args in
                  ignore (Session.query s goal);
                  let direct =
                    Machine.completed_call (Engine.env (Session.engine s)) (Parser.term_of_string goal)
                    <> None
                  in
                  let subgoals0 = (Session.stats s).Machine.st_subgoals in
                  let g = solution_rows (Session.query s goal) in
                  let created = (Session.stats s).Machine.st_subgoals - subgoals0 in
                  let oracle = solution_rows (Session.query s ("(" ^ goal ^ ", true)")) in
                  (g = oracle
                  || QCheck2.Test.fail_reportf "%s and (%s, true) disagree (%s):@.%s" goal goal
                       (Machine.scheduling_to_string scheduling)
                       text)
                  && ((not direct) || created = 0
                     || QCheck2.Test.fail_reportf "%s read a completed table but created %d tables"
                          goal created))
                [ "(X,Y)"; "(2,X)"; "(X,3)"; "(2,3)"; "(A,A)" ])
            heads)
        [
          (table_directive, Machine.Local);
          (table_directive, Machine.Batched);
          (subsumption_directive, Machine.Local);
        ])

let suite =
  [
    QCheck_alcotest.to_alcotest datalog_differential;
    QCheck_alcotest.to_alcotest subsumption_differential;
    QCheck_alcotest.to_alcotest tracing_differential;
    QCheck_alcotest.to_alcotest (stratified_differential ~scheduling:Machine.Local "stratified tnot = WFS (local)");
    QCheck_alcotest.to_alcotest
      (stratified_differential ~scheduling:Machine.Batched "stratified tnot = WFS (batched)");
    QCheck_alcotest.to_alcotest
      (stratified_differential
         ~directive:":- table p0/1 as subsumption, p1/1 as subsumption, p2/1 as subsumption.\n"
         ~warm:[ "p0(X)"; "p1(X)"; "p2(X)" ] ~scheduling:Machine.Local
         "stratified tnot = WFS under call subsumption (local)");
    QCheck_alcotest.to_alcotest
      (stratified_differential
         ~directive:":- table p0/1 as subsumption, p1/1 as subsumption, p2/1 as subsumption.\n"
         ~warm:[ "p0(X)"; "p1(X)"; "p2(X)" ] ~scheduling:Machine.Batched
         "stratified tnot = WFS under call subsumption (batched)");
    QCheck_alcotest.to_alcotest wfs_differential;
    QCheck_alcotest.to_alcotest incremental_differential;
    QCheck_alcotest.to_alcotest completed_read_differential;
  ]
