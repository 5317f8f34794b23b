(* The stalemate game of paper §4.4 (Example 4.1):

       win(X) :- move(X,Y), tnot win(Y).

   A position is won iff some move leads to a position that is not won.
   The example demonstrates the three operational models of negation the
   paper compares in Table 2 — SLG negation (tnot), SLDNF (\+), and
   existential negation (e_tnot) — and the well-founded semantics on a
   cyclic move graph.

   Run with: dune exec examples/win_game.exe *)

let complete_binary_tree height =
  (* move(i, 2i), move(i, 2i+1) for the internal nodes of a complete
     binary tree with 2^height - 1 nodes *)
  let buf = Buffer.create 256 in
  let nodes = (1 lsl height) - 1 in
  for i = 1 to nodes do
    if 2 * i <= nodes then Buffer.add_string buf (Printf.sprintf "move(%d,%d). " i (2 * i));
    if (2 * i) + 1 <= nodes then Buffer.add_string buf (Printf.sprintf "move(%d,%d). " i ((2 * i) + 1))
  done;
  Buffer.contents buf

let () =
  let height = 6 in

  (* --- SLG negation --- *)
  let slg = Xsb.Session.create () in
  Xsb.Session.consult slg ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).";
  Xsb.Session.consult slg (complete_binary_tree height);
  Fmt.pr "SLG negation:        win(1) over a height-%d tree: %b@." height
    (Xsb.Session.succeeds slg "win(1)");
  let stats = Xsb.Engine.stats (Xsb.Session.engine slg) in
  Fmt.pr "  (%d tabled subgoals evaluated — the whole tree)@." stats.Xsb.Machine.st_subgoals;

  (* --- existential negation: visits only the SLDNF fraction (Fig. 2) --- *)
  let eneg = Xsb.Session.create () in
  Xsb.Session.consult eneg ":- table win/1.\nwin(X) :- move(X,Y), e_tnot(win(Y)).";
  Xsb.Session.consult eneg (complete_binary_tree height);
  Fmt.pr "Existential (e_tnot): win(1): %b@." (Xsb.Session.succeeds eneg "win(1)");
  let stats = Xsb.Engine.stats (Xsb.Session.engine eneg) in
  Fmt.pr "  (%d tabled subgoals — abandoned tables were reclaimed, like tcut)@."
    stats.Xsb.Machine.st_subgoals;

  (* --- SLDNF --- *)
  let sldnf = Xsb.Session.create () in
  Xsb.Session.consult sldnf "win(X) :- move(X,Y), \\+ win(Y).";
  Xsb.Session.consult sldnf (complete_binary_tree height);
  Xsb.Engine.set_profiling (Xsb.Session.engine sldnf) true;
  Fmt.pr "SLDNF (\\+):           win(1): %b@." (Xsb.Session.succeeds sldnf "win(1)");
  Fmt.pr "  (%d calls to win/1 out of %d positions — the sqrt(2)^n effect of Figure 2)@."
    (Xsb.Engine.call_count (Xsb.Session.engine sldnf) "win" 1)
    ((1 lsl height) - 1);

  (* --- local scheduling: inner SCCs complete before the global
     fixpoint, so tnot fails early against already-closed tables --- *)
  let local = Xsb.Session.create ~scheduling:Xsb.Machine.Local () in
  Xsb.Session.consult local ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).";
  Xsb.Session.consult local (complete_binary_tree height);
  Fmt.pr "Local scheduling:    win(1): %b@." (Xsb.Session.succeeds local "win(1)");
  let stats = Xsb.Engine.stats (Xsb.Session.engine local) in
  Fmt.pr
    "  (%d SCCs completed incrementally, %d subgoals closed before the global fixpoint, max SCC \
     size %d)@."
    stats.Xsb.Machine.st_sccs_completed stats.Xsb.Machine.st_early_completions
    stats.Xsb.Machine.st_max_scc_size;
  assert (stats.Xsb.Machine.st_early_completions > 0);

  (* --- a cyclic game needs the well-founded semantics --- *)
  let wfs = Xsb.Session.create ~mode:Xsb.Machine.Well_founded () in
  Xsb.Session.consult wfs
    ":- table win/1.\n\
     win(X) :- move(X,Y), tnot(win(Y)).\n\
     move(a,b). move(b,a). move(b,c). move(c,d).";
  Fmt.pr "@.Cyclic game a<->b->c->d under the well-founded semantics:@.";
  List.iter
    (fun pos ->
      let answer =
        match Xsb.Session.wfs_query wfs (Printf.sprintf "win(%s)" pos) with
        | [] -> "false"
        | [ { Xsb.Residual.truth = Xsb.Ground.True; _ } ] -> "true"
        | [ { Xsb.Residual.truth = Xsb.Ground.Undefined; _ } ] -> "undefined (drawn)"
        | _ -> "?"
      in
      Fmt.pr "  win(%s) = %s@." pos answer)
    [ "a"; "b"; "c"; "d" ]
