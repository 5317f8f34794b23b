(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md
   for paper-vs-measured numbers).

   Usage: dune exec bench/main.exe                (all experiments)
          dune exec bench/main.exe -- table2 ...  (a subset)
          dune exec bench/main.exe -- quick       (smaller sizes)
          dune exec bench/main.exe -- bechamel    (micro-benchmarks) *)

open Bench_util

let quick = ref false

let fresh_session text =
  let s = Xsb.Session.create () in
  Xsb.Session.consult s text;
  s

(* time a tabled query, resetting table space between runs *)
let time_query ?min_total session query =
  let engine = Xsb.Session.engine session in
  time_per_run ?min_total (fun () ->
      Xsb.Engine.reset_tables engine;
      Xsb.Session.count session query)

(* ------------------------------------------------------------------ *)
(* E1 — Table 2: win/1 over complete binary trees, three negations *)

let table2 () =
  header "Table 2: win/1 over complete binary trees (times normalized to E-neg)";
  let heights = if !quick then [ 6; 7; 8 ] else [ 6; 7; 8; 9; 10; 11 ] in
  row "%-20s" "Height";
  List.iter (fun h -> row "%8d" h) heights;
  row "\n";
  let measure neg h =
    let s = fresh_session (Workloads.win_program ~neg h) in
    (* ratios of small times: measure longer for stability *)
    time_query ~min_total:0.3 s "win(1)"
  in
  let slg = List.map (measure `Tnot) heights in
  let sldnf = List.map (measure `Sldnf) heights in
  let eneg = List.map (measure `Etnot) heights in
  let print_row name values =
    row "%-20s" name;
    List.iter2 (fun v e -> row "%8.2f" (v /. e)) values eneg;
    row "\n"
  in
  print_row "XSB / Default SLG" slg;
  print_row "XSB / SLDNF" sldnf;
  print_row "XSB / E-Neg" eneg;
  row "(paper: SLG ratios grow with height ~4.5 -> 15.7; SLDNF ~0.22-0.3; E-Neg = 1)\n"

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2: SLDNF call counts on binary trees vs the formula G(n) *)

let figure2 () =
  header "Figure 2: calls made by SLDNF win/1 over complete binary trees";
  let formula n =
    (* G(n) = 2^(floor(n/2)+2) - 3 + 2*(n/2 - floor(n/2)), with n such
       that the tree has 2^n - 1 nodes; our height-h tree corresponds to
       the paper's n = h - 1 *)
    let n = n - 1 in
    (1 lsl ((n / 2) + 2)) - 3 + (if n mod 2 = 1 then 1 else 0)
  in
  row "%-10s %-10s %-14s %-14s %-14s\n" "height" "nodes" "SLDNF calls" "formula G" "SLG subgoals";
  List.iter
    (fun h ->
      let s = fresh_session (Workloads.win_program ~neg:`Sldnf h) in
      Xsb.Engine.set_profiling (Xsb.Session.engine s) true;
      ignore (Xsb.Session.succeeds s "win(1)");
      let calls = Xsb.Engine.call_count (Xsb.Session.engine s) "win" 1 in
      let slg = fresh_session (Workloads.win_program ~neg:`Tnot h) in
      ignore (Xsb.Session.succeeds slg "win(1)");
      let subgoals = (Xsb.Engine.stats (Xsb.Session.engine slg)).Xsb.Machine.st_subgoals - 1 in
      row "%-10d %-10d %-14d %-14d %-14d\n" h ((1 lsl h) - 1) calls (formula h) subgoals)
    (if !quick then [ 4; 5; 6; 7 ] else [ 4; 5; 6; 7; 8; 9; 10 ]);
  row "(paper: 13 of 31 nodes for the 31-node tree; growth ~sqrt(2)^n vs 2^n)\n"

(* ------------------------------------------------------------------ *)
(* E3/E4 — Figure 5: left-recursive path on cycles and fanouts,
   XSB (SLG) vs CORAL-sim (magic + semi-naive) and CORAL-fac *)

let figure5_series ~shape ~sizes =
  row "%-8s %12s %14s %14s %10s %10s\n" "size" "XSB(ms)" "CORAL-def(ms)" "CORAL-fac(ms)" "def/XSB"
    "fac/XSB";
  List.iter
    (fun n ->
      let edges =
        match shape with
        | `Cycle -> Workloads.cycle_edges n
        | `Fanout -> Workloads.fanout_edges n
      in
      let session = fresh_session (Workloads.left_path_tabled ^ edges) in
      let xsb = time_query session "path(1,X)" in
      let clauses = Xsb.Parser.program_of_string (Workloads.left_path_plain ^ edges) in
      let program = Xsb.Datalog.of_clauses clauses in
      let goal () = Xsb.Parser.term_of_string "path(1,X)" in
      let coral_def = time_per_run (fun () -> List.length (Xsb.Magic.answers program (goal ()))) in
      let coral_fac =
        time_per_run (fun () -> List.length (Xsb.Magic.answers ~factor:true program (goal ())))
      in
      row "%-8d %12.3f %14.3f %14.3f %10.2f %10.2f\n" n (ms xsb) (ms coral_def) (ms coral_fac)
        (coral_def /. xsb) (coral_fac /. xsb))
    sizes

let figure5 () =
  header "Figure 5 (left): path/2 over cycles of length 8..2k";
  let sizes = if !quick then [ 8; 64; 256 ] else [ 8; 32; 128; 512; 2048 ] in
  figure5_series ~shape:`Cycle ~sizes;
  header "Figure 5 (right): path/2 over fanout structures";
  figure5_series ~shape:`Fanout ~sizes;
  row "(paper: XSB about an order of magnitude faster than CORAL on both shapes)\n"

(* ------------------------------------------------------------------ *)
(* E5 — Table 3: approximate relative join speeds *)

let table3 () =
  header "Table 3: indexed join of two relations, relative speeds";
  let n = if !quick then 1000 else 4000 in
  let engines =
    [
      ("Quintus-sim (native)", Xsb.Join.prepare_native ~n);
      ("XSB (WAM)", Xsb.Join.prepare_wam ~n);
      ("XSB (SLG interp)", Xsb.Join.prepare_slg ~n);
      ("LDL-sim (interp)", Xsb.Join.prepare_interp ~n);
      ("CORAL-sim (bottomup)", Xsb.Join.prepare_bottomup ~n);
      ("Sybase-sim (paged)", Xsb.Join.prepare_paged ~n);
    ]
  in
  let timings =
    List.map
      (fun (name, thunk) ->
        let time = time_per_run (fun () -> ignore (thunk ())) in
        (name, time))
      engines
  in
  let base = List.fold_left (fun acc (_, t) -> min acc t) infinity timings in
  row "%-24s %12s %10s\n" "engine" "ms/join" "relative";
  List.iter (fun (name, t) -> row "%-24s %12.3f %10.1f\n" name (ms t) (t /. base)) timings;
  row "(paper: Quintus 1, XSB 3, LDL 8, CORAL 24, Sybase 100; n=%d tuples/relation)\n" n

(* ------------------------------------------------------------------ *)
(* E6 — §5 text: right/double recursion and same-generation ratios *)

let section5_ratios () =
  header "Section 5: further XSB vs CORAL-sim ratios";
  let cases =
    [
      ( "right-recursive path, chain 256",
        Workloads.right_path_tabled ^ Workloads.chain_edges 256,
        Workloads.right_path_plain ^ Workloads.chain_edges 256,
        "path(1,X)" );
      ( "double-recursive path, chain 48",
        Workloads.double_path_tabled ^ Workloads.chain_edges 48,
        Workloads.double_path_plain ^ Workloads.chain_edges 48,
        "path(1,X)" );
      ( "same_generation, 127-node tree",
        Workloads.sg_program 63,
        Workloads.sg_datalog 63,
        "sg(64,Y)" );
    ]
  in
  row "%-36s %12s %14s %8s\n" "workload" "XSB(ms)" "CORAL-def(ms)" "ratio";
  List.iter
    (fun (name, tabled_text, datalog_text, query) ->
      let session = fresh_session tabled_text in
      let xsb = time_query session query in
      let program = Xsb.Datalog.of_clauses (Xsb.Parser.program_of_string datalog_text) in
      let goal () = Xsb.Parser.term_of_string query in
      let coral = time_per_run (fun () -> List.length (Xsb.Magic.answers program (goal ()))) in
      row "%-36s %12.3f %14.3f %8.2f\n" name (ms xsb) (ms coral) (coral /. xsb))
    cases;
  row "(paper: \"generally similar ratios\" to Figure 5, i.e. XSB about 10x faster)\n"

(* ------------------------------------------------------------------ *)
(* E7 — §5: append/3 under SLD, SLG and bottom-up; SLG is quadratic *)

let append_bench () =
  header "Section 5: append/3 — SLD vs SLG (table copying) vs CORAL-sim";
  let sizes = if !quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64 ] in
  row "%-8s %10s %10s %10s %14s\n" "length" "SLD(ms)" "SLG(ms)" "SLG/SLD" "CORAL-def(ms)";
  List.iter
    (fun n ->
      let list_n = Workloads.int_list n in
      let query = Printf.sprintf "app(X,Y,%s)" list_n in
      let sld_session = fresh_session Workloads.append_program in
      let sld = time_per_run (fun () -> Xsb.Session.count sld_session query) in
      let slg_session = fresh_session Workloads.append_tabled in
      let slg = time_query slg_session query in
      let program =
        Xsb.Datalog.of_clauses (Xsb.Parser.program_of_string Workloads.append_program)
      in
      let goal () = Xsb.Parser.term_of_string query in
      let coral = time_per_run (fun () -> List.length (Xsb.Magic.answers program (goal ()))) in
      row "%-8d %10.3f %10.3f %10.1f %14.3f\n" n (ms sld) (ms slg) (slg /. sld) (ms coral))
    sizes;
  row "(paper: SLD fastest; SLG quadratic pending table-copy optimizations;\n";
  row " pipelined CORAL overtakes SLG for lists longer than ~10)\n"

(* ------------------------------------------------------------------ *)
(* E8 — §5: SLG at the speed of compiled Prolog; termination on cycles *)

let slg_vs_sld () =
  header "Section 5: left-recursive SLG vs right-recursive SLD (chains and trees)";
  let workloads =
    [
      ("chain 1000", Workloads.chain_edges 1000, "path(1,X)");
      ("binary tree h=10", Workloads.tree_edges 10, "path(1,X)");
    ]
  in
  row "%-20s %14s %14s %10s\n" "structure" "SLD right(ms)" "SLG left(ms)" "SLG/SLD";
  List.iter
    (fun (name, edges, query) ->
      let sld_session = fresh_session (Workloads.right_path_plain ^ edges) in
      let sld = time_per_run (fun () -> Xsb.Session.count sld_session query) in
      let slg_session = fresh_session (Workloads.left_path_tabled ^ edges) in
      let slg = time_query slg_session query in
      row "%-20s %14.3f %14.3f %10.2f\n" name (ms sld) (ms slg) (slg /. sld))
    workloads;
  (* termination demonstration *)
  let looping = fresh_session (Workloads.right_path_plain ^ Workloads.cycle_edges 10) in
  Xsb.Engine.set_max_steps (Xsb.Session.engine looping) 200_000;
  (match Xsb.Session.query looping "path(1,X)" with
  | exception Xsb.Machine.Step_limit ->
      row "SLD on a 10-cycle:   does not terminate (stopped at the step limit)\n"
  | _ -> row "SLD on a 10-cycle:   unexpectedly terminated?!\n");
  let tabled = fresh_session (Workloads.left_path_tabled ^ Workloads.cycle_edges 10) in
  row "SLG on a 10-cycle:   terminates with %d answers\n" (Xsb.Session.count tabled "path(1,X)");
  row "(paper: SLG left recursion takes ~20-25%% longer than SLD right recursion)\n"

(* ------------------------------------------------------------------ *)
(* E9 — §3.2: the engine vs an SLG meta-interpreter running on it *)

let meta_overhead () =
  header "Section 3.2: SLG engine vs SLG meta-interpreter (on the engine)";
  let n = if !quick then 48 else 96 in
  let direct_session = fresh_session (Workloads.left_path_tabled ^ Workloads.chain_edges n) in
  let direct = time_query direct_session "path(1,X)" in
  let meta_session = fresh_session (Workloads.meta_program n) in
  let meta = time_query meta_session "mi(path(1,X))" in
  row "direct engine:     %10.3f ms\n" (ms direct);
  row "meta-interpreter:  %10.3f ms\n" (ms meta);
  row "slowdown:          %10.1fx\n" (meta /. direct);
  row "(paper: the SLG-WAM is roughly 100x faster than its meta-interpreter)\n"

(* ------------------------------------------------------------------ *)
(* E10 — §3.2: SLD-only overhead of the tabling engine; WAM comparison *)

let sld_overhead () =
  header "Section 3.2: executing plain SLD on the tabling engine vs the WAM";
  let text =
    Workloads.append_program ^ "nrev([],[]).\nnrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).\n"
  in
  let list_n = Workloads.int_list 40 in
  let query = Printf.sprintf "nrev(%s, R)" list_n in
  let session = fresh_session text in
  let slg_as_sld = time_per_run (fun () -> Xsb.Session.count session query) in
  (* same database compiled to WAM code *)
  let machine = Xsb.Wam.create (Xsb.Wam.of_database (Xsb.Session.db session)) in
  let goal = Xsb.Parser.term_of_string query in
  let wam = time_per_run (fun () -> Xsb.Wam.count_solutions machine goal) in
  row "SLG interpreter (SLD only): %10.3f ms\n" (ms slg_as_sld);
  row "WAM byte-code emulator:     %10.3f ms\n" (ms wam);
  row "interpreter/WAM:            %10.2fx\n" (slg_as_sld /. wam);
  (* the tabling-machinery overhead claim: same engine, tabling on vs off *)
  let chain = Workloads.right_path_plain ^ Workloads.chain_edges 400 in
  let s1 = fresh_session chain in
  let with_checks = time_per_run (fun () -> Xsb.Session.count s1 "path(1,X)") in
  Xsb.Engine.set_tabling (Xsb.Session.engine s1) false;
  let without = time_per_run (fun () -> Xsb.Session.count s1 "path(1,X)") in
  row "tabling checks on vs off:   %10.2f%% overhead\n"
    (100.0 *. ((with_checks /. without) -. 1.0));
  row "(paper: the SLG-WAM is usually less than 10%% slower than the WAM it extends)\n"

(* ------------------------------------------------------------------ *)
(* E11 — §4.6: loading through the reader, formatted read, object files *)

let load_speeds () =
  header "Section 4.6: data loading paths";
  let n = if !quick then 10_000 else 40_000 in
  let text = Workloads.flat_facts n in
  let reader =
    snd
      (time_once (fun () ->
           let db = Xsb.Database.create () in
           ignore (Xsb.Loader.consult_string db text)))
  in
  let formatted, db_loaded =
    let db = Xsb.Database.create () in
    let _, t = time_once (fun () -> ignore (Xsb.Fast_load.string_ db text)) in
    (t, db)
  in
  let path = Filename.temp_file "bench" ".xwam" in
  Xsb.Obj_file.save_all db_loaded path;
  let objfile =
    snd
      (time_once (fun () ->
           let db = Xsb.Database.create () in
           ignore (Xsb.Obj_file.load db path)))
  in
  Sys.remove path;
  (* byte-code object files: compiled code with its switch tables *)
  let wam_path = Filename.temp_file "bench" ".xwam" in
  Xsb.Wam_image.save (Xsb.Wam.of_database db_loaded) wam_path;
  let wam_image = snd (time_once (fun () -> ignore (Xsb.Wam_image.load wam_path))) in
  Sys.remove wam_path;
  row "general reader:     %8.1f ms  (%6.1f us/fact)\n" (ms reader)
    (1e6 *. reader /. float_of_int n);
  row "formatted read:     %8.1f ms  (%6.1f us/fact)  %5.1fx faster than the reader\n"
    (ms formatted)
    (1e6 *. formatted /. float_of_int n)
    (reader /. formatted);
  row "dynamic-code image: %8.1f ms  (%6.1f us/fact)  %5.1fx vs formatted read\n" (ms objfile)
    (1e6 *. objfile /. float_of_int n)
    (formatted /. objfile);
  row "byte-code object:   %8.1f ms  (%6.1f us/fact)  %5.1fx faster than formatted read\n"
    (ms wam_image)
    (1e6 *. wam_image /. float_of_int n)
    (formatted /. wam_image);
  row "(paper: the general reader is the slowest; object files load ~12x faster\n";
  row " than formatted read+assert)\n"

(* ------------------------------------------------------------------ *)
(* E12 — §4.7 and Figures 3/4: HiLog overhead and first-string indexing *)

let hilog_overhead () =
  header "Section 4.7: HiLog overhead (first-order vs apply-encoded vs specialized)";
  let n = if !quick then 100 else 300 in
  let fo_session = fresh_session (Workloads.hilog_plain_tc n) in
  let fo = time_query fo_session "path(1,X)" in
  let hl_session = fresh_session (Workloads.hilog_encoded_tc n) in
  let hl = time_query hl_session "path(edge)(1,X)" in
  (* specialized as the paper prescribes (§4.7 + Figure 4): the known
     calls go to apply_path_1/3 (the only tabled predicate), and the
     remaining apply/3 fact lookups are discriminated by first-string
     indexing *)
  let spec_session =
    let s = Xsb.Session.create () in
    let db = Xsb.Session.db s in
    Xsb.Database.declare_hilog db "edge";
    let clauses =
      List.map (Xsb.Database.encode db)
        (Xsb.Parser.program_of_string
           "path(G)(X,Y) :- G(X,Y).\npath(G)(X,Y) :- path(G)(X,Z), G(Z,Y).")
    in
    List.iter
      (fun c -> ignore (Xsb.Database.add_clause db c))
      (Xsb.Hilog_specialize.specialize clauses);
    Xsb.Pred.set_tabled
      (Xsb.Database.declare db (Xsb.Hilog_specialize.specialized_name "path" 1 2) 3)
      true;
    Xsb.Session.consult s (Workloads.chain_edges n);
    Xsb.Pred.set_index (Xsb.Database.declare db "apply" 3) Xsb.Pred.First_string_index;
    s
  in
  let sp = time_query spec_session "path(edge)(1,X)" in
  row "first-order path/2:           %10.3f ms\n" (ms fo);
  row "HiLog via tabled apply/3:     %10.3f ms  (%.2fx)\n" (ms hl) (hl /. fo);
  row "HiLog specialized + f-s idx:  %10.3f ms  (%.2fx)\n" (ms sp) (sp /. fo);
  row "(paper: specialized HiLog predicates execute only marginally slower\n";
  row " than first-order ones; indexing solved by first-string tries, Fig. 4)\n";

  header "Figures 3/4: first-string indexing vs first-argument hashing";
  let k = if !quick then 400 else 2000 in
  let clauses =
    String.concat "\n" (List.init k (fun i -> Printf.sprintf "p(g(%d), f(%d))." i i))
  in
  let hash_session = fresh_session clauses in
  (* first-argument hashing cannot discriminate below g/1: every lookup
     scans all k clauses *)
  let hash_time =
    time_per_run (fun () ->
        Xsb.Session.count hash_session (Printf.sprintf "p(g(%d), X)" (k / 2)))
  in
  let trie_session = fresh_session (":- index(p/2, str).\n" ^ clauses) in
  let trie_time =
    time_per_run (fun () ->
        Xsb.Session.count trie_session (Printf.sprintf "p(g(%d), X)" (k / 2)))
  in
  row "first-arg hash lookup:   %10.4f ms (all %d clauses share the symbol g/1)\n" (ms hash_time) k;
  row "first-string trie:       %10.4f ms  (%.0fx faster)\n" (ms trie_time)
    (hash_time /. trie_time);
  row "(paper §4.5: hash indexing uses only the outer symbol; first-string\n";
  row " indexing discriminates the full prefix, as in Figure 3)\n"

(* ------------------------------------------------------------------ *)
(* E13 — §4.5: answer-table indexing — bound calls on completed tables *)

let answer_index () =
  header "Section 4.5: trie answer index — candidates vs full table size";
  let snapshot (st : Xsb.Machine.stats) =
    ( st.Xsb.Machine.st_answer_probes,
      st.Xsb.Machine.st_answer_candidates,
      st.Xsb.Machine.st_answer_full_size,
      st.Xsb.Machine.st_subsumed_calls )
  in
  let run name text open_q bound_q =
    let s = fresh_session text in
    (* complete the open table first; the bound call then consumes it
       through the answer index instead of re-running the program *)
    ignore (Xsb.Session.count s open_q);
    let p0, c0, f0, s0 = snapshot (Xsb.Session.stats s) in
    let answers = Xsb.Session.count s bound_q in
    let p1, c1, f1, s1 = snapshot (Xsb.Session.stats s) in
    row "%-28s %8d %8d %12d %10d %9d\n" name answers (p1 - p0) (c1 - c0) (f1 - f0) (s1 - s0)
  in
  row "%-28s %8s %8s %12s %10s %9s\n" "workload" "answers" "probes" "candidates" "fullscan"
    "subsumed";
  let n = if !quick then 32 else 128 in
  run
    (Printf.sprintf "tc cycle %d: path(1,X)" n)
    (Workloads.left_path_tabled ^ Workloads.cycle_edges n)
    "path(X,Y)" "path(1,X)";
  run "sg tree h=6: sg(64,Y)" (Workloads.sg_program 63) "sg(X,Y)" "sg(64,Y)";
  let cyc = fresh_session (Workloads.left_path_tabled ^ Workloads.cycle_edges n) in
  ignore (Xsb.Session.count cyc "path(1,X)");
  let st = Xsb.Session.stats cyc in
  row "drain dedup on tc cycle %d: %d drains scheduled for %d answers x %d consumers\n" n
    st.Xsb.Machine.st_drains_scheduled st.Xsb.Machine.st_answers st.Xsb.Machine.st_suspensions;
  row "(bound calls consume the completed open table through the trie index:\n";
  row " candidates stay near the matching-answer count, far below full size)\n"

(* ------------------------------------------------------------------ *)
(* E14 — local vs batched scheduling across tc / sg / win workloads *)

let scheduling () =
  header "Scheduling strategies: local (SCC-at-a-time) vs batched (eager drain)";
  let tc = Workloads.left_path_tabled in
  let win = ":- table win/1.\nwin(X) :- move(X,Y), tnot(win(Y)).\n" in
  let cases =
    if !quick then
      [
        ("tc chain 128", tc ^ Workloads.chain_edges 128, "path(1,X)");
        ("tc cycle 128", tc ^ Workloads.cycle_edges 128, "path(1,X)");
        ("tc grid 8x8", tc ^ Workloads.grid_edges 8, "path(1,X)");
        ("sg tree h=5", Workloads.sg_program 31, "sg(32,Y)");
        ("win chain 128", win ^ Workloads.chain_moves 128, "win(1)");
        ("win tree h=7", win ^ Workloads.binary_tree_moves 7, "win(1)");
      ]
    else
      [
        ("tc chain 512", tc ^ Workloads.chain_edges 512, "path(1,X)");
        ("tc cycle 512", tc ^ Workloads.cycle_edges 512, "path(1,X)");
        ("tc grid 16x16", tc ^ Workloads.grid_edges 16, "path(1,X)");
        ("sg tree h=6", Workloads.sg_program 63, "sg(64,Y)");
        ("win chain 256", win ^ Workloads.chain_moves 256, "win(1)");
        ("win tree h=9", win ^ Workloads.binary_tree_moves 9, "win(1)");
      ]
  in
  let time_with strategy text query =
    let s = Xsb.Session.create ~scheduling:strategy () in
    Xsb.Session.consult s text;
    time_query s query
  in
  let scc_stats text query =
    let s = Xsb.Session.create ~scheduling:Xsb.Machine.Local () in
    Xsb.Session.consult s text;
    ignore (Xsb.Session.count s query);
    Xsb.Session.stats s
  in
  row "%-18s %12s %12s %12s %8s %8s\n" "workload" "batched(ms)" "local(ms)" "local/batch" "sccs"
    "max-scc";
  let results =
    List.map
      (fun (name, text, query) ->
        let batched = time_with Xsb.Machine.Batched text query in
        let local = time_with Xsb.Machine.Local text query in
        let st = scc_stats text query in
        row "%-18s %12.3f %12.3f %12.2f %8d %8d\n" name (ms batched) (ms local)
          (local /. batched) st.Xsb.Machine.st_sccs_completed st.Xsb.Machine.st_max_scc_size;
        (name, batched, local, st))
      cases
  in
  let oc = open_out "BENCH_scheduling.json" in
  output_string oc "{ \"experiment\": \"scheduling\", \"unit\": \"ms\", \"results\": [\n";
  List.iteri
    (fun i (name, batched, local, (st : Xsb.Machine.stats)) ->
      Printf.fprintf oc
        "  { \"workload\": %S, \"batched_ms\": %.4f, \"local_ms\": %.4f, \"local_over_batched\": \
         %.4f, \"sccs_completed\": %d, \"early_completions\": %d, \"max_scc_size\": %d }%s\n"
        name (ms batched) (ms local) (local /. batched) st.Xsb.Machine.st_sccs_completed
        st.Xsb.Machine.st_early_completions st.Xsb.Machine.st_max_scc_size
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "] }\n";
  close_out oc;
  row "wrote BENCH_scheduling.json\n";
  (* per-run --profile snapshots next to the timing JSON: a separate
     profiled run per workload per strategy (profiling is off during the
     timed runs above, so it cannot distort them) *)
  let profile_run strategy text query =
    let s = Xsb.Session.create ~scheduling:strategy () in
    Xsb.Session.set_profiling s true;
    Xsb.Session.consult s text;
    ignore (Xsb.Session.count s query);
    Xsb.Obs.Profile.report_to_json (Xsb.Session.metrics s)
  in
  let oc = open_out "BENCH_scheduling_profile.json" in
  output_string oc "{ \"experiment\": \"scheduling-profile\", \"runs\": [\n";
  List.iteri
    (fun i (name, text, query) ->
      List.iteri
        (fun j (strategy_name, strategy) ->
          Printf.fprintf oc "  { \"workload\": %S, \"scheduling\": %S, \"profile\": %s }%s\n" name
            strategy_name
            (Xsb.Json.to_string (profile_run strategy text query))
            (if i = List.length cases - 1 && j = 1 then "" else ","))
        [ ("batched", Xsb.Machine.Batched); ("local", Xsb.Machine.Local) ])
    cases;
  output_string oc "] }\n";
  close_out oc;
  row "wrote BENCH_scheduling_profile.json\n"

(* ------------------------------------------------------------------ *)
(* E15 — the cost of observability: tc-cycle-64 under concurrent load
   against a server with the metrics registry disabled (the control)
   and enabled while a scraper thread hits METRICS continuously; the
   overhead is measured, not assumed. *)

(* quantiles come from the same log-bucketed histogram the server's
   METRICS exposition uses, so bench JSON and scraped
   histogram_quantile agree on the math *)
let latency_hist latencies =
  let h = Xsb.Metrics.Histogram.create () in
  Array.iter (Xsb.Metrics.Histogram.observe h) latencies;
  h

let metrics_bench () =
  header "Metrics: instrumentation overhead under load (tc-cycle-64)";
  let open Xsb_server in
  let clients = if !quick then 4 else 8 in
  let requests = if !quick then 25 else 100 in
  let program = Workloads.left_path_tabled ^ Workloads.cycle_edges 64 in
  let goal = "path(1,X)" in
  let expected = 64 in
  let drive ~metrics_enabled ~scrape =
    let cfg =
      {
        Server.default_config with
        port = 0;
        workers = clients;
        queue_capacity = 4 * clients;
        default_timeout_ms = 60_000;
        default_max_steps = 0;
      }
    in
    let server = Server.start cfg in
    Xsb.Metrics.set_enabled (Server.registry server) metrics_enabled;
    let latencies = Array.make (clients * requests) 0.0 in
    let errors = Atomic.make 0 in
    let scrapes = Atomic.make 0 in
    let bad_scrapes = Atomic.make 0 in
    let stop_scraper = Atomic.make false in
    let scraper =
      if not scrape then None
      else
        Some
          (Thread.create
             (fun () ->
               let c = Client.connect (Server.port server) in
               Fun.protect
                 ~finally:(fun () -> Client.close c)
                 (fun () ->
                   while not (Atomic.get stop_scraper) do
                     (match Client.metrics c with
                     | Ok text -> (
                         Atomic.incr scrapes;
                         match Xsb.Metrics.Exposition.validate text with
                         | Ok _ -> ()
                         | Error _ -> Atomic.incr bad_scrapes)
                     | Error _ -> Atomic.incr errors);
                     (* a continuous scraper, but at a realistic cadence *)
                     Thread.delay 0.1
                   done))
             ())
    in
    let run c_idx () =
      let c = Client.connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.consult c program with Ok _ -> () | Error _ -> Atomic.incr errors);
          for r = 0 to requests - 1 do
            let t0 = Xsb.Mclock.now () in
            (match Client.abolish c with Ok _ -> () | Error _ -> Atomic.incr errors);
            (match Client.query c goal with
            | Client.Rows { rows; _ } ->
                if List.length rows <> expected then Atomic.incr errors
            | Client.Query_timeout _ | Client.Query_error _ -> Atomic.incr errors);
            latencies.((c_idx * requests) + r) <- Xsb.Mclock.now () -. t0
          done)
    in
    let t0 = Xsb.Mclock.now () in
    let threads = List.init clients (fun i -> Thread.create (run i) ()) in
    List.iter Thread.join threads;
    let wall = Xsb.Mclock.now () -. t0 in
    Atomic.set stop_scraper true;
    (match scraper with Some th -> Thread.join th | None -> ());
    Server.stop server;
    if Atomic.get errors > 0 then row "  !! %d failed requests\n" (Atomic.get errors);
    if Atomic.get bad_scrapes > 0 then
      row "  !! %d invalid METRICS expositions\n" (Atomic.get bad_scrapes);
    let hist = latency_hist latencies in
    let throughput = float_of_int (clients * requests) /. wall in
    (throughput, hist, Atomic.get scrapes)
  in
  row "%-26s %8s %10s %10s %12s\n" "configuration" "clients" "p50(us)" "p95(us)" "req/s";
  let report name (throughput, hist, _) =
    let us p = 1e6 *. Xsb.Metrics.Histogram.percentile hist p in
    row "%-26s %8d %10.0f %10.0f %12.0f\n" name clients (us 50.0) (us 95.0) throughput
  in
  let base = drive ~metrics_enabled:false ~scrape:false in
  report "metrics-off (control)" base;
  let instr = drive ~metrics_enabled:true ~scrape:true in
  report "metrics-on + scraper" instr;
  let (base_rps, base_hist, _) = base and instr_rps, instr_hist, scrapes = instr in
  let overhead_pct = 100.0 *. (base_rps -. instr_rps) /. base_rps in
  row "overhead: %.2f%% of throughput (%d scrapes served during the run)\n" overhead_pct scrapes;
  let oc = open_out "BENCH_metrics.json" in
  let us h p = 1e6 *. Xsb.Metrics.Histogram.percentile h p in
  Printf.fprintf oc
    "{ \"experiment\": \"metrics\", \"workload\": \"tc-cycle-64\", \"clients\": %d, \
     \"requests_per_client\": %d,\n\
    \  \"baseline\": { \"throughput_rps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, \
     \"p99_us\": %.1f },\n\
    \  \"instrumented\": { \"throughput_rps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, \
     \"p99_us\": %.1f, \"scrapes\": %d },\n\
    \  \"overhead_pct\": %.2f }\n"
    clients requests base_rps (us base_hist 50.0) (us base_hist 95.0) (us base_hist 99.0)
    instr_rps (us instr_hist 50.0) (us instr_hist 95.0) (us instr_hist 99.0) scrapes
    overhead_pct;
  close_out oc;
  row "wrote BENCH_metrics.json\n"

(* ------------------------------------------------------------------ *)
(* Journal: ASSERT throughput per sync policy; recovery time vs size *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let journal_dir_counter = ref 0

let with_journal_dir f =
  incr journal_dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsb_bench_journal_%d_%d" (Unix.getpid ()) !journal_dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let journal_fill db pred n =
  for k = 1 to n do
    ignore
      (Xsb.Database.insert_clause db pred
         ~head:(Xsb.Term.Struct ("edge", [| Xsb.Term.Int k; Xsb.Term.Int (k + 1) |]))
         ~body:(Xsb.Term.Atom "true"))
  done

let journal_bench () =
  header "Journal: ASSERT throughput per sync policy; recovery time vs journal size";
  let bulk = if !quick then 5_000 else 20_000 in
  let policies =
    [
      ("never", Xsb.Journal.Never, bulk);
      ("interval=64", Xsb.Journal.Interval 64, bulk);
      ("always", Xsb.Journal.Always, if !quick then 100 else 500);
    ]
  in
  row "%-14s %10s %12s %14s %10s\n" "sync" "records" "wall_s" "records/s" "fsyncs";
  let throughput =
    List.map
      (fun (name, policy, n) ->
        with_journal_dir (fun dir ->
            let db = Xsb.Database.create () in
            let pred = Xsb.Database.set_dynamic db "edge" 2 in
            let j = Xsb.Journal.open_ { (Xsb.Journal.default_config ~dir) with Xsb.Journal.sync = policy; compact_bytes = 0 } db in
            Xsb.Journal.attach j;
            let t0 = Unix.gettimeofday () in
            journal_fill db pred n;
            Xsb.Journal.sync j;
            let wall = Unix.gettimeofday () -. t0 in
            let fsyncs = (Xsb.Journal.stats j).Xsb.Journal.fsyncs in
            Xsb.Journal.close j;
            let rps = float_of_int n /. wall in
            row "%-14s %10d %12.4f %14.0f %10d\n" name n wall rps fsyncs;
            (name, n, wall, rps, fsyncs)))
      policies
  in
  (* group commit: writers × records-per-commit. Each writer thread
     appends [per]-record transactions (append_batch) and blocks on the
     commit barrier, so the committer amortizes one fsync over every
     record in flight. The headline (8 writers × 4 records) is gated at
     >= 10x the sync=always single-writer baseline above. *)
  let always_rps =
    match List.find_opt (fun (name, _, _, _, _) -> name = "always") throughput with
    | Some (_, _, _, rps, _) -> rps
    | None -> 1.0
  in
  let edge_mut k =
    Xsb.Journal.Add_clause
      {
        name = "edge";
        arity = 2;
        front = false;
        dynamic = true;
        clause =
          Xsb.Canon.of_term
            (Xsb.Term.Struct
               ( ":-",
                 [|
                   Xsb.Term.Struct ("edge", [| Xsb.Term.Int k; Xsb.Term.Int (k + 1) |]);
                   Xsb.Term.Atom "true";
                 |] ));
      }
  in
  row "%-14s %8s %10s %10s %12s %14s %10s %8s\n" "sync" "writers" "per_commit" "records"
    "wall_s" "records/s" "fsyncs" "vs_always";
  let group_sweep =
    List.map
      (fun (window_us, writers, per) ->
        with_journal_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j =
              Xsb.Journal.open_
                {
                  (Xsb.Journal.default_config ~dir) with
                  Xsb.Journal.sync = Xsb.Journal.Group { window_us; max_batch = 256 };
                  compact_bytes = 0;
                }
                db
            in
            let rounds = (if !quick then 512 else 8192) / (writers * per) in
            let n = writers * per * rounds in
            let t0 = Unix.gettimeofday () in
            let threads =
              List.init writers (fun w ->
                  Thread.create
                    (fun () ->
                      for r = 0 to rounds - 1 do
                        let base = ((w * rounds) + r) * per in
                        Xsb.Journal.append_batch j (List.init per (fun k -> edge_mut (base + k)))
                      done)
                    ())
            in
            List.iter Thread.join threads;
            let wall = Unix.gettimeofday () -. t0 in
            let fsyncs = (Xsb.Journal.stats j).Xsb.Journal.fsyncs in
            Xsb.Journal.close j;
            let rps = float_of_int n /. wall in
            let label = Printf.sprintf "group=%.1fms" (float_of_int window_us /. 1000.0) in
            row "%-14s %8d %10d %10d %12.4f %14.0f %10d %7.1fx\n" label writers per n wall rps
              fsyncs (rps /. always_rps);
            (window_us, writers, per, n, wall, rps, fsyncs, rps /. always_rps)))
      [ (200, 1, 1); (200, 1, 4); (200, 8, 1); (200, 8, 4); (200, 8, 8); (1000, 8, 8) ]
  in
  let sizes = if !quick then [ 1_000; 5_000 ] else [ 1_000; 10_000; 50_000 ] in
  row "%-14s %12s %14s\n" "records" "recovery_s" "records/s";
  let recovery =
    List.map
      (fun n ->
        with_journal_dir (fun dir ->
            let db = Xsb.Database.create () in
            let pred = Xsb.Database.set_dynamic db "edge" 2 in
            let cfg = { (Xsb.Journal.default_config ~dir) with Xsb.Journal.sync = Xsb.Journal.Never; compact_bytes = 0 } in
            let j = Xsb.Journal.open_ cfg db in
            Xsb.Journal.attach j;
            journal_fill db pred n;
            Xsb.Journal.close j;
            let db2 = Xsb.Database.create () in
            let t0 = Unix.gettimeofday () in
            let j2 = Xsb.Journal.open_ cfg db2 in
            let wall = Unix.gettimeofday () -. t0 in
            let recovered = (Xsb.Journal.stats j2).Xsb.Journal.recovered_records in
            Xsb.Journal.close j2;
            row "%-14d %12.4f %14.0f\n" recovered wall (float_of_int recovered /. wall);
            (recovered, wall)))
      sizes
  in
  let oc = open_out "BENCH_journal.json" in
  output_string oc "{ \"experiment\": \"journal\", \"throughput\": [\n";
  List.iteri
    (fun i (name, n, wall, rps, fsyncs) ->
      Printf.fprintf oc
        "  { \"sync\": %S, \"records\": %d, \"wall_s\": %.4f, \"records_per_s\": %.1f, \
         \"fsyncs\": %d }%s\n"
        name n wall rps fsyncs
        (if i = List.length throughput - 1 then "" else ","))
    throughput;
  output_string oc "], \"group_commit\": [\n";
  List.iteri
    (fun i (window_us, writers, per, n, wall, rps, fsyncs, speedup) ->
      Printf.fprintf oc
        "  { \"sync\": \"group\", \"window_ms\": %.1f, \"writers\": %d, \"per_commit\": %d, \
         \"records\": %d, \"wall_s\": %.4f, \"records_per_s\": %.1f, \"fsyncs\": %d, \
         \"speedup_vs_always\": %.1f }%s\n"
        (float_of_int window_us /. 1000.0)
        writers per n wall rps fsyncs speedup
        (if i = List.length group_sweep - 1 then "" else ","))
    group_sweep;
  output_string oc "], \"recovery\": [\n";
  List.iteri
    (fun i (n, wall) ->
      Printf.fprintf oc "  { \"records\": %d, \"recovery_s\": %.4f }%s\n" n wall
        (if i = List.length recovery - 1 then "" else ","))
    recovery;
  output_string oc "] }\n";
  close_out oc;
  row "wrote BENCH_journal.json\n"

(* ------------------------------------------------------------------ *)
(* Replication: standby lag vs sustained write rate. A primary journal
   under group commit feeds an in-process standby over the real wire
   protocol; a paced writer holds each target rate for a fixed window
   while the standby's byte lag is sampled, then the time for the lag
   to drain to zero once writes stop is measured. *)

let repl_bench () =
  header "Replication: standby lag vs write rate";
  (* socket writes to a departing peer must surface as EPIPE, not kill
     the bench (the server binary does the same) *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let edge_mut k =
    Xsb.Journal.Add_clause
      {
        name = "edge";
        arity = 2;
        front = false;
        dynamic = true;
        clause =
          Xsb.Canon.of_term
            (Xsb.Term.Struct
               ( ":-",
                 [|
                   Xsb.Term.Struct ("edge", [| Xsb.Term.Int k; Xsb.Term.Int (k + 1) |]);
                   Xsb.Term.Atom "true";
                 |] ));
      }
  in
  let open_primary pdir =
    let pdb = Xsb.Database.create () in
    let j =
      Xsb.Journal.open_
        {
          (Xsb.Journal.default_config ~dir:pdir) with
          Xsb.Journal.sync = Xsb.Journal.default_group;
          compact_bytes = 0;
        }
        pdb
    in
    (j, Xsb_repl.Repl.Primary.start ~port:0 ~journal:j ())
  in
  (* the standby mirrors into [sdir]; unlike the primary's
     Journal.open_, Standby.start expects it to exist *)
  let start_standby j primary sdir =
    (try Unix.mkdir sdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let sdb = Xsb.Database.create () in
    Xsb_repl.Repl.Standby.start ~primary_host:"127.0.0.1"
      ~primary_port:(Xsb_repl.Repl.Primary.port primary)
      ~dir:sdir ~generation:1L ~offset:Xsb.Journal.header_len ~epoch:(Xsb.Journal.epoch j)
      ~keep_generations:0
      ~apply:(fun m -> Xsb.Journal.apply_mutation sdb m)
      ()
  in
  let standby_lag j standby =
    let s = Xsb_repl.Repl.Standby.status standby in
    let pgen, poff = Xsb.Journal.durable_position j in
    if Int64.equal s.Xsb_repl.Repl.Standby.generation pgen then
      max 0 (poff - s.Xsb_repl.Repl.Standby.applied_off)
    else max 1 s.Xsb_repl.Repl.Standby.lag_bytes
  in
  (* --- lag vs sustained write rate, one standby --- *)
  let rates = if !quick then [ 500; 2_000 ] else [ 500; 2_000; 8_000 ] in
  let window_s = if !quick then 0.5 else 1.0 in
  row "%-12s %10s %14s %14s %12s\n" "rate_rec_s" "records" "max_lag_B" "mean_lag_B" "catchup_ms";
  let results =
    List.map
      (fun rate ->
        with_journal_dir (fun pdir ->
            with_journal_dir (fun sdir ->
                let j, primary = open_primary pdir in
                let standby = start_standby j primary sdir in
                let lag () = standby_lag j standby in
                (* paced writes: batches of 4, spaced to hold the rate *)
                let per = 4 in
                let interval = float_of_int per /. float_of_int rate in
                let deadline = Unix.gettimeofday () +. window_s in
                let written = ref 0 in
                let max_lag = ref 0 and lag_sum = ref 0 and samples = ref 0 in
                let next = ref (Unix.gettimeofday ()) in
                while Unix.gettimeofday () < deadline do
                  Xsb.Journal.append_batch j (List.init per (fun k -> edge_mut (!written + k)));
                  written := !written + per;
                  let l = lag () in
                  max_lag := max !max_lag l;
                  lag_sum := !lag_sum + l;
                  incr samples;
                  next := !next +. interval;
                  let now = Unix.gettimeofday () in
                  if !next > now then Thread.delay (!next -. now) else next := now
                done;
                (* writes stop: time the drain to zero *)
                let t0 = Unix.gettimeofday () in
                while lag () > 0 && Unix.gettimeofday () -. t0 < 30.0 do
                  Thread.delay 0.002
                done;
                let catchup_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
                Xsb_repl.Repl.Standby.stop standby;
                Xsb_repl.Repl.Primary.stop primary;
                Xsb.Journal.close j;
                let mean_lag =
                  if !samples = 0 then 0.0 else float_of_int !lag_sum /. float_of_int !samples
                in
                row "%-12d %10d %14d %14.0f %12.1f\n" rate !written !max_lag mean_lag catchup_ms;
                (rate, !written, !max_lag, mean_lag, catchup_ms))))
      rates
  in
  (* --- fan-out: fixed write burst against 1/2/4/8 standbys --- *)
  header "Replication: fan-out scaling (one burst, N standbys)";
  let counts = if !quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let burst = if !quick then 2_000 else 10_000 in
  row "%-10s %10s %12s %14s %14s %12s\n" "standbys" "records" "wall_ms" "shipped_B" "max_lag_B"
    "catchup_ms";
  let sweep =
    List.map
      (fun n ->
        with_journal_dir (fun pdir ->
            let sdirs = List.init n (fun i -> Printf.sprintf "%s_s%d" pdir i) in
            Fun.protect ~finally:(fun () -> List.iter rm_rf sdirs) @@ fun () ->
            let j, primary = open_primary pdir in
            let standbys = List.map (start_standby j primary) sdirs in
            let max_lag = ref 0 in
            let t0 = Unix.gettimeofday () in
            let written = ref 0 in
            while !written < burst do
              Xsb.Journal.append_batch j (List.init 8 (fun k -> edge_mut (!written + k)));
              written := !written + 8;
              List.iter (fun s -> max_lag := max !max_lag (standby_lag j s)) standbys
            done;
            let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            let t1 = Unix.gettimeofday () in
            while
              List.exists (fun s -> standby_lag j s > 0) standbys
              && Unix.gettimeofday () -. t1 < 30.0
            do
              Thread.delay 0.002
            done;
            let catchup_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
            let shipped = Xsb_repl.Repl.Primary.shipped_bytes primary in
            List.iter Xsb_repl.Repl.Standby.stop standbys;
            Xsb_repl.Repl.Primary.stop primary;
            Xsb.Journal.close j;
            row "%-10d %10d %12.1f %14d %14d %12.1f\n" n !written wall_ms shipped !max_lag
              catchup_ms;
            (n, !written, wall_ms, shipped, !max_lag, catchup_ms)))
      counts
  in
  (* --- semi-sync vs async commit latency --- *)
  header "Replication: semi-sync (--sync-standby=1) vs async commit latency";
  let writer_counts = if !quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let per_writer = if !quick then 150 else 500 in
  row "%-10s %8s %12s %12s %12s\n" "mode" "writers" "p50_us" "p99_us" "degraded";
  let percentile sorted p =
    if Array.length sorted = 0 then 0.0
    else
      sorted.(min (Array.length sorted - 1) (int_of_float (p *. float_of_int (Array.length sorted))))
  in
  let latency_run ~semi writers =
    with_journal_dir (fun pdir ->
        with_journal_dir (fun sdir ->
            let j, primary = open_primary pdir in
            let standby = start_standby j primary sdir in
            (* wait for the stream to connect before timing *)
            let t0 = Unix.gettimeofday () in
            while
              (not (Xsb_repl.Repl.Standby.status standby).Xsb_repl.Repl.Standby.connected
              && Unix.gettimeofday () -. t0 < 5.0)
            do
              Thread.delay 0.005
            done;
            let lats = Array.init writers (fun _ -> ref []) in
            let worker w =
              for i = 0 to per_writer - 1 do
                let t0 = Unix.gettimeofday () in
                Xsb.Journal.append j (edge_mut ((w * per_writer) + i));
                Xsb.Journal.barrier j;
                (if semi then
                   let gen, off = Xsb.Journal.durable_position j in
                   ignore
                     (Xsb_repl.Repl.Primary.wait_synced primary ~k:1 ~gen ~off ~timeout_s:1.0));
                lats.(w) := ((Unix.gettimeofday () -. t0) *. 1e6) :: !(lats.(w))
              done
            in
            let threads = List.init writers (fun w -> Thread.create worker w) in
            List.iter Thread.join threads;
            let degraded = Xsb_repl.Repl.Primary.degraded primary in
            Xsb_repl.Repl.Standby.stop standby;
            Xsb_repl.Repl.Primary.stop primary;
            Xsb.Journal.close j;
            let all = Array.of_list (Array.to_list lats |> List.concat_map (fun r -> !r)) in
            Array.sort compare all;
            let p50 = percentile all 0.50 and p99 = percentile all 0.99 in
            row "%-10s %8d %12.1f %12.1f %12b\n"
              (if semi then "semi-sync" else "async")
              writers p50 p99 degraded;
            ((if semi then "semi-sync" else "async"), writers, p50, p99, degraded)))
  in
  let latency =
    List.concat_map (fun w -> [ latency_run ~semi:false w; latency_run ~semi:true w ]) writer_counts
  in
  let oc = open_out "BENCH_repl.json" in
  output_string oc "{ \"experiment\": \"repl\", \"lag_vs_rate\": [\n";
  List.iteri
    (fun i (rate, written, max_lag, mean_lag, catchup_ms) ->
      Printf.fprintf oc
        "  { \"target_records_per_s\": %d, \"records\": %d, \"max_lag_bytes\": %d, \
         \"mean_lag_bytes\": %.0f, \"catchup_ms\": %.1f }%s\n"
        rate written max_lag mean_lag catchup_ms
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "],\n\"standby_sweep\": [\n";
  List.iteri
    (fun i (n, written, wall_ms, shipped, max_lag, catchup_ms) ->
      Printf.fprintf oc
        "  { \"standbys\": %d, \"records\": %d, \"wall_ms\": %.1f, \"shipped_bytes\": %d, \
         \"max_lag_bytes\": %d, \"catchup_ms\": %.1f }%s\n"
        n written wall_ms shipped max_lag catchup_ms
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  output_string oc "],\n\"commit_latency\": [\n";
  List.iteri
    (fun i (mode, writers, p50, p99, degraded) ->
      Printf.fprintf oc
        "  { \"mode\": \"%s\", \"writers\": %d, \"p50_us\": %.1f, \"p99_us\": %.1f, \
         \"degraded\": %b }%s\n"
        mode writers p50 p99 degraded
        (if i = List.length latency - 1 then "" else ","))
    latency;
  output_string oc "] }\n";
  close_out oc;
  row "wrote BENCH_repl.json\n"

(* ------------------------------------------------------------------ *)
(* Incremental tabling: query throughput and warm-table hit rate on the
   durable server, interleaved with write bursts. A warm hit is a query
   that created no table beyond its private $query table — it was
   answered entirely from completed table space. [variant] tables are
   dropped and recomputed by any write they depend on; [incremental]
   tables survive unrelated writes untouched and are repaired in place
   on pure additions. *)

let incremental_bench () =
  header "Incremental tabling: warm-table hit rate and rps around write bursts";
  let open Xsb_server in
  let n = if !quick then 64 else 200 in
  let queries = if !quick then 40 else 150 in
  let stat_of text name =
    let target = name ^ ": " in
    let tlen = String.length target in
    List.fold_left
      (fun acc line ->
        match acc with
        | Some _ -> acc
        | None ->
            let line = String.trim line in
            if String.length line > tlen && String.sub line 0 tlen = target then
              int_of_string_opt (String.sub line tlen (String.length line - tlen))
            else None)
      None
      (String.split_on_char '\n' text)
  in
  let stat c name =
    match Client.statistics c with
    | Ok text -> Option.value (stat_of text name) ~default:0
    | Error _ -> 0
  in
  let modes =
    [
      ("incremental", ":- table reach/2 as incremental.\n");
      ("variant", ":- table reach/2.\n");
    ]
  in
  row "%-13s %-18s %10s %10s %8s %8s\n" "mode" "phase" "rps" "hit-rate" "repairs" "invalid";
  let results =
    List.concat_map
      (fun (mode_name, directive) ->
        with_journal_dir (fun dir ->
            let cfg =
              {
                Server.default_config with
                Server.port = 0;
                data_dir = Some dir;
                sync = Xsb.Journal.Never;
                default_timeout_ms = 60_000;
                default_max_steps = 0;
              }
            in
            let server = Server.start cfg in
            Fun.protect
              ~finally:(fun () -> Server.stop server)
              (fun () ->
                let c = Client.connect (Server.port server) in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    ignore
                      (Client.consult c
                         (directive
                        ^ "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z)."));
                    for k = 1 to n do
                      ignore (Client.assert_ c (Printf.sprintf "edge(%d,%d)" k (k + 1)))
                    done;
                    (* complete the table once so every phase starts warm *)
                    ignore (Client.query c "reach(1,X)");
                    let next_edge = ref (n + 1) in
                    let phase name write =
                      let sub0 = stat c "subgoals" in
                      let rep0 = stat c "repairs" in
                      let inv0 = stat c "invalidations" in
                      let t0 = Unix.gettimeofday () in
                      for q = 0 to queries - 1 do
                        (match write with
                        | `None -> ()
                        | `Unrelated -> ignore (Client.assert_ c (Printf.sprintf "noise(%d)" q))
                        | `Related ->
                            ignore
                              (Client.assert_ c
                                 (Printf.sprintf "edge(%d,%d)" !next_edge (!next_edge + 1)));
                            incr next_edge);
                        ignore (Client.query c "reach(1,X)")
                      done;
                      let wall = Unix.gettimeofday () -. t0 in
                      let extra_tables = stat c "subgoals" - sub0 - queries in
                      let hit_rate =
                        float_of_int (queries - min queries (max 0 extra_tables))
                        /. float_of_int queries
                      in
                      let repairs = stat c "repairs" - rep0 in
                      let invalidations = stat c "invalidations" - inv0 in
                      let rps = float_of_int queries /. wall in
                      row "%-13s %-18s %10.0f %10.2f %8d %8d\n" mode_name name rps hit_rate
                        repairs invalidations;
                      (mode_name, name, rps, hit_rate, repairs, invalidations)
                    in
                    (* evaluation order matters: steady-state first, then the
                       write bursts *)
                    let steady = phase "steady" `None in
                    let unrelated = phase "unrelated-writes" `Unrelated in
                    let related = phase "related-writes" `Related in
                    [ steady; unrelated; related ]))))
      modes
  in
  let oc = open_out "BENCH_incremental.json" in
  Printf.fprintf oc
    "{ \"experiment\": \"incremental\", \"chain\": %d, \"queries_per_phase\": %d, \"results\": [\n"
    n queries;
  List.iteri
    (fun i (mode, name, rps, hit_rate, repairs, invalidations) ->
      Printf.fprintf oc
        "  { \"mode\": %S, \"phase\": %S, \"rps\": %.1f, \"warm_hit_rate\": %.3f, \"repairs\": \
         %d, \"invalidations\": %d }%s\n"
        mode name rps hit_rate repairs invalidations
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "] }\n";
  close_out oc;
  row "wrote BENCH_incremental.json\n";
  row "(incremental tables stay warm across unrelated writes and are repaired in\n";
  row " place on additions; variant tables are dropped and recomputed)\n"

(* ------------------------------------------------------------------ *)
(* Call subsumption: variant vs subsumptive tabling on tc and sg. Each
   workload runs three phases per mode — a join whose inner calls are
   bound instances issued while the general table is still producing
   (this is where variant tabling opens a generator table per distinct
   bound call and a subsumed consumer opens none), one open general
   query, and k specific queries against the completed table. Table
   counts, specific-phase rps, and in-bench answer-set verification. *)

let subsumption_bench () =
  header "Call subsumption: table counts and rps, variant vs subsumptive tables";
  let n = if !quick then 48 else 128 in
  let tree = if !quick then 31 else 63 in
  let k = if !quick then 24 else 96 in
  let answers s goal =
    List.sort compare
      (List.map
         (fun (sol : Xsb.Engine.solution) ->
           List.map (fun (_, v) -> Xsb.Term.to_string v) sol.Xsb.Engine.bindings)
         (Xsb.Session.query s goal))
  in
  let workloads =
    [
      ( Printf.sprintf "tc-cycle-%d" n,
        Workloads.left_path_plain ^ "join(Z) :- path(A,B), path(B,Z).\n"
        ^ Workloads.cycle_edges n,
        "path/2",
        "path(X,Y)",
        List.init k (fun i -> Printf.sprintf "path(%d,X)" ((i mod n) + 1)) );
      ( Printf.sprintf "sg-tree-%d" tree,
        Workloads.sg_datalog tree ^ "join(Z) :- sg(A,B), sg(B,Z).\n",
        "sg/2",
        "sg(X,Y)",
        List.init k (fun i -> Printf.sprintf "sg(%d,Y)" (i + 2)) );
    ]
  in
  let run_mode mode (_, text, pred, general, specifics) =
    let directive =
      match mode with
      | `Subsumption -> Printf.sprintf ":- table %s as subsumption.\n" pred
      | `Variant -> Printf.sprintf ":- table %s.\n" pred
    in
    let s = Xsb.Session.create ~scheduling:Xsb.Machine.Batched () in
    Xsb.Session.consult s (directive ^ text);
    (* phase 1: the join, on empty table space — its bound inner calls
       arrive while the general table is incomplete *)
    let join_answers = answers s "join(Z)" in
    (* phase 2: the open general query (the table is complete by now) *)
    let general_answers = answers s general in
    (* phase 3: k specific queries against the completed general table *)
    let t0 = Unix.gettimeofday () in
    let specific_answers = List.map (answers s) specifics in
    let wall = Unix.gettimeofday () -. t0 in
    let st = Xsb.Session.stats s in
    ( join_answers :: general_answers :: specific_answers,
      st.Xsb.Machine.st_subgoals,
      float_of_int (List.length specifics) /. wall,
      st.Xsb.Machine.st_subsumption_hits )
  in
  row "%-14s %-12s %8s %12s %10s %8s\n" "workload" "mode" "tables" "specific-rps" "sub-hits"
    "answers";
  let results =
    List.map
      (fun ((name, _, _, _, _) as w) ->
        let v_answers, v_tables, v_rps, _ = run_mode `Variant w in
        let s_answers, s_tables, s_rps, s_hits = run_mode `Subsumption w in
        let equal = v_answers = s_answers in
        row "%-14s %-12s %8d %12.0f %10d %8s\n" name "variant" v_tables v_rps 0 "";
        row "%-14s %-12s %8d %12.0f %10d %8s\n" name "subsumption" s_tables s_rps s_hits
          (if equal then "equal" else "DIFFER");
        if not equal then row "  !! answer sets differ between modes on %s\n" name;
        if s_tables >= v_tables then
          row "  !! subsumption did not reduce table count on %s (%d vs %d)\n" name s_tables
            v_tables;
        (name, v_tables, s_tables, v_rps, s_rps, s_hits, equal))
      workloads
  in
  let oc = open_out "BENCH_subsumption.json" in
  Printf.fprintf oc
    "{ \"experiment\": \"subsumption\", \"specific_queries\": %d, \"results\": [\n" k;
  List.iteri
    (fun i (name, v_tables, s_tables, v_rps, s_rps, s_hits, equal) ->
      Printf.fprintf oc
        "  { \"workload\": %S, \"variant_tables\": %d, \"subsumption_tables\": %d, \
         \"variant_specific_rps\": %.1f, \"subsumption_specific_rps\": %.1f, \
         \"subsumption_hits\": %d, \"answers_equal\": %b }%s\n"
        name v_tables s_tables v_rps s_rps s_hits equal
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "] }\n";
  close_out oc;
  row "wrote BENCH_subsumption.json\n";
  row "(a subsumed consumer reuses the general table's answers through the\n";
  row " time-stamped index; variant tabling opens a table per distinct bound call)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per table/figure *)

let bechamel_tests () =
  let open Bechamel in
  let win = Workloads.win_program ~neg:`Tnot 7 in
  let win_session = fresh_session win in
  let t_table2 =
    Test.make ~name:"table2:win-slg-h7"
      (Staged.stage (fun () ->
           Xsb.Engine.reset_tables (Xsb.Session.engine win_session);
           ignore (Xsb.Session.succeeds win_session "win(1)")))
  in
  let cyc = fresh_session (Workloads.left_path_tabled ^ Workloads.cycle_edges 128) in
  let t_fig5 =
    Test.make ~name:"figure5:path-cycle-128"
      (Staged.stage (fun () ->
           Xsb.Engine.reset_tables (Xsb.Session.engine cyc);
           ignore (Xsb.Session.count cyc "path(1,X)")))
  in
  let join_thunk = Xsb.Join.prepare_wam ~n:500 in
  let t_table3 =
    Test.make ~name:"table3:wam-join-500" (Staged.stage (fun () -> ignore (join_thunk ())))
  in
  let program =
    Xsb.Datalog.of_clauses
      (Xsb.Parser.program_of_string (Workloads.left_path_plain ^ Workloads.cycle_edges 128))
  in
  let t_coral =
    Test.make ~name:"figure5:coral-cycle-128"
      (Staged.stage (fun () ->
           ignore (Xsb.Magic.answers program (Xsb.Parser.term_of_string "path(1,X)"))))
  in
  [ t_table2; t_fig5; t_table3; t_coral ]

let bechamel () =
  header "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> row "%-28s %14.0f ns/run\n" name est
          | _ -> row "%-28s (no estimate)\n" name)
        analyzed)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table2", table2);
    ("figure2", figure2);
    ("figure5", figure5);
    ("table3", table3);
    ("section5", section5_ratios);
    ("append", append_bench);
    ("slg_vs_sld", slg_vs_sld);
    ("meta", meta_overhead);
    ("sld_overhead", sld_overhead);
    ("load", load_speeds);
    ("hilog", hilog_overhead);
    ("answer_index", answer_index);
    ("scheduling", scheduling);
    ("metrics", metrics_bench);
    ("journal", journal_bench);
    ("repl", repl_bench);
    ("incremental", incremental_bench);
    ("subsumption", subsumption_bench);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    if args = [] then experiments
    else List.filter (fun (name, _) -> List.exists (fun a -> a = name) args) experiments
  in
  if selected = [] then begin
    Printf.printf "unknown experiment; available: %s quick\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  List.iter (fun (_, f) -> f ()) selected
