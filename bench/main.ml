(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the index and EXPERIMENTS.md
   for paper-vs-measured numbers). Every time and ratio is a median with
   its quartiles over repetitions (see bench_util.ml).

   Usage: dune exec bench/main.exe                (all experiments)
          dune exec bench/main.exe -- table2 ...  (a subset)
          dune exec bench/main.exe -- quick       (smaller sizes)
          dune exec bench/main.exe -- bechamel    (micro-benchmarks) *)

open Bench_util

let fresh_session text =
  let s = Xsb.Session.create () in
  Xsb.Session.consult s text;
  s

let count session goal () = Xsb.Session.count session goal

(* the same from empty table space *)
let tabled session goal () =
  Xsb.Engine.reset_tables (Xsb.Session.engine session);
  Xsb.Session.count session goal

(* the magic-sets + semi-naive comparator (CORAL-sim) on the same query *)
let coral ?factor datalog_text goal =
  let program = Xsb.Datalog.of_clauses (Xsb.Parser.program_of_string datalog_text) in
  fun () -> List.length (Xsb.Magic.answers ?factor program (Xsb.Parser.term_of_string goal))

(* ------------------------------------------------------------------ *)
(* E1 — Table 2: win/1 over complete binary trees, three negations *)

let table2 () =
  header "Table 2: win/1 over complete binary trees (times normalized to E-neg)";
  let heights = if !quick then [ 6; 7; 8 ] else [ 6; 7; 8; 9; 10; 11 ] in
  table
    [ "height"; "Default SLG / E-neg"; "SLDNF / E-neg"; "E-neg (ms)" ]
    (List.map
       (fun h ->
         let run neg = tabled (fresh_session (Workloads.win_program ~neg h)) "win(1)" in
         let[@warning "-8"] [ slg; sldnf; eneg ] = times [ run `Tnot; run `Sldnf; run `Etnot ] in
         [ string_of_int h; show (ratio slg eneg); show (ratio sldnf eneg); msec eneg ])
       heights);
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

let figure5_series edges sizes =
  table
    [ "size"; "XSB (ms)"; "CORAL-def / XSB"; "CORAL-fac / XSB" ]
    (List.map
       (fun n ->
         let session = fresh_session (Workloads.left_path_tabled ^ edges n) in
         let plain = Workloads.left_path_plain ^ edges n in
         let[@warning "-8"] [ xsb; def; fac ] =
           times
             [
               tabled session "path(1,X)";
               coral plain "path(1,X)";
               coral ~factor:true plain "path(1,X)";
             ]
         in
         [ string_of_int n; msec xsb; show (ratio def xsb); show (ratio fac xsb) ])
       sizes)

let figure5 () =
  let sizes = if !quick then [ 8; 64; 256 ] else [ 8; 32; 128; 512; 2048 ] in
  header "Figure 5 (left): path/2 over cycles of length 8..2k";
  figure5_series Workloads.cycle_edges sizes;
  header "Figure 5 (right): path/2 over fanout structures";
  figure5_series Workloads.fanout_edges sizes;
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
  let samples = times (List.map snd engines) in
  table
    [ "engine"; "ms/join"; "relative to native" ]
    (List.map2
       (fun (name, _) s -> [ name; msec s; show (ratio s (List.hd samples)) ])
       engines samples);
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
  table
    [ "workload"; "XSB (ms)"; "CORAL-def (ms)"; "CORAL-def / XSB" ]
    (List.map
       (fun (name, tabled_text, datalog_text, goal) ->
         let[@warning "-8"] [ xsb; def ] =
           times [ tabled (fresh_session tabled_text) goal; coral datalog_text goal ]
         in
         [ name; msec xsb; msec def; show (ratio def xsb) ])
       cases);
  row "(paper: \"generally similar ratios\" to Figure 5, i.e. XSB about 10x faster)\n"

(* ------------------------------------------------------------------ *)
(* E7 — §5: append/3 under SLD, SLG and bottom-up; SLG is quadratic *)

let append_bench () =
  header "Section 5: append/3 — SLD vs SLG (table copying) vs CORAL-sim";
  let sizes = if !quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64 ] in
  table
    [ "length"; "SLD (ms)"; "SLG (ms)"; "SLG / SLD"; "CORAL-def (ms)" ]
    (List.map
       (fun n ->
         let goal = Printf.sprintf "app(X,Y,%s)" (Workloads.int_list n) in
         let[@warning "-8"] [ sld; slg; def ] =
           times
             [
               count (fresh_session Workloads.append_program) goal;
               tabled (fresh_session Workloads.append_tabled) goal;
               coral Workloads.append_program goal;
             ]
         in
         [ string_of_int n; msec sld; msec slg; show (ratio slg sld); msec def ])
       sizes);
  row "(paper: SLD fastest; SLG quadratic pending table-copy optimizations;\n";
  row " pipelined CORAL overtakes SLG for lists longer than ~10)\n"

(* ------------------------------------------------------------------ *)
(* E8 — §5: SLG at the speed of compiled Prolog; termination on cycles *)

let slg_vs_sld () =
  header "Section 5: left-recursive SLG vs right-recursive SLD (chains and trees)";
  table
    [ "structure"; "SLD right (ms)"; "SLG left (ms)"; "SLG / SLD" ]
    (List.map
       (fun (name, edges) ->
         let[@warning "-8"] [ sld; slg ] =
           times
             [
               count (fresh_session (Workloads.right_path_plain ^ edges)) "path(1,X)";
               tabled (fresh_session (Workloads.left_path_tabled ^ edges)) "path(1,X)";
             ]
         in
         [ name; msec sld; msec slg; show (ratio slg sld) ])
       [
         ("chain 1000", Workloads.chain_edges 1000);
         ("binary tree h=10", Workloads.tree_edges 10);
       ]);
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
  let[@warning "-8"] [ direct; meta ] =
    times
      [
        tabled (fresh_session (Workloads.left_path_tabled ^ Workloads.chain_edges n)) "path(1,X)";
        tabled (fresh_session (Workloads.meta_program n)) "mi(path(1,X))";
      ]
  in
  table
    [ "direct engine (ms)"; "meta-interpreter (ms)"; "slowdown" ]
    [ [ msec direct; msec meta; show (ratio meta direct) ] ];
  row "(paper: the SLG-WAM is roughly 100x faster than its meta-interpreter)\n"

(* ------------------------------------------------------------------ *)
(* E10 — §3.2: SLD-only overhead of the tabling engine; WAM comparison *)

let sld_overhead () =
  header "Section 3.2: executing plain SLD on the tabling engine vs the WAM";
  let text =
    Workloads.append_program ^ "nrev([],[]).\nnrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).\n"
  in
  let query = Printf.sprintf "nrev(%s, R)" (Workloads.int_list 40) in
  let session = fresh_session text in
  (* the same database compiled to WAM code *)
  let machine = Xsb.Wam.create (Xsb.Wam.of_database (Xsb.Session.db session)) in
  let goal = Xsb.Parser.term_of_string query in
  (* the tabling-machinery overhead claim: same engine, tabling on vs off *)
  let chain = Workloads.right_path_plain ^ Workloads.chain_edges 400 in
  let untabled = fresh_session chain in
  Xsb.Engine.set_tabling (Xsb.Session.engine untabled) false;
  let[@warning "-8"] [ slg; wam; on; off ] =
    times
      [
        count session query;
        (fun () -> Xsb.Wam.count_solutions machine goal);
        count (fresh_session chain) "path(1,X)";
        count untabled "path(1,X)";
      ]
  in
  table
    [ "SLG interpreter, SLD only (ms)"; "WAM emulator (ms)"; "interpreter / WAM" ]
    [ [ msec slg; msec wam; show (ratio slg wam) ] ];
  row "tabling checks on vs off: %s %% overhead\n"
    (show (spread (Array.map2 (fun a b -> 100.0 *. ((a /. b) -. 1.0)) on off)));
  row "(paper: the SLG-WAM is usually less than 10%% slower than the WAM it extends)\n"

(* ------------------------------------------------------------------ *)
(* E11 — §4.6: loading through the reader, formatted read, object files *)

let load_speeds () =
  header "Section 4.6: data loading paths";
  let n = if !quick then 10_000 else 40_000 in
  let text = Workloads.flat_facts n in
  let loaded = Xsb.Database.create () in
  ignore (Xsb.Fast_load.string_ loaded text);
  let image = Filename.temp_file "bench" ".xwam" in
  Xsb.Obj_file.save_all loaded image;
  (* byte-code object files: compiled code with its switch tables *)
  let wam_image = Filename.temp_file "bench" ".xwam" in
  Xsb.Wam_image.save (Xsb.Wam.of_database loaded) wam_image;
  let fresh = Xsb.Database.create in
  let paths =
    [
      ("general reader", fun () -> ignore (Xsb.Loader.consult_string (fresh ()) text));
      ("formatted read", fun () -> ignore (Xsb.Fast_load.string_ (fresh ()) text));
      ("dynamic-code image", fun () -> ignore (Xsb.Obj_file.load (fresh ()) image));
      ("byte-code object", fun () -> ignore (Xsb.Wam_image.load wam_image));
    ]
  in
  let samples =
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ image; wam_image ])
      (fun () -> times (List.map snd paths))
  in
  let formatted = List.nth samples 1 in
  table
    [ "path"; "ms"; "us/fact"; "speed vs formatted read" ]
    (List.map2
       (fun (name, _) s ->
         [
           name;
           msec s;
           show (scale (1e6 /. float_of_int n) (spread s));
           show (ratio formatted s);
         ])
       paths samples);
  row "(paper: the general reader is the slowest; object files load ~12x faster\n";
  row " than formatted read+assert)\n"

(* ------------------------------------------------------------------ *)
(* E12 — §4.7 and Figures 3/4: HiLog overhead and first-string indexing *)

let hilog_overhead () =
  header "Section 4.7: HiLog overhead (first-order vs apply-encoded vs specialized)";
  let n = if !quick then 100 else 300 in
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
  let[@warning "-8"] [ fo; hl; sp ] =
    times
      [
        tabled (fresh_session (Workloads.hilog_plain_tc n)) "path(1,X)";
        tabled (fresh_session (Workloads.hilog_encoded_tc n)) "path(edge)(1,X)";
        tabled spec_session "path(edge)(1,X)";
      ]
  in
  table
    [ "configuration"; "ms"; "vs first-order" ]
    [
      [ "first-order path/2"; msec fo; "1" ];
      [ "HiLog via tabled apply/3"; msec hl; show (ratio hl fo) ];
      [ "HiLog specialized + f-s idx"; msec sp; show (ratio sp fo) ];
    ];
  row "(paper: specialized HiLog predicates execute only marginally slower\n";
  row " than first-order ones; indexing solved by first-string tries, Fig. 4)\n";

  header "Figures 3/4: first-string indexing vs first-argument hashing";
  let k = if !quick then 400 else 2000 in
  let clauses =
    String.concat "\n" (List.init k (fun i -> Printf.sprintf "p(g(%d), f(%d))." i i))
  in
  let goal = Printf.sprintf "p(g(%d), X)" (k / 2) in
  (* first-argument hashing cannot discriminate below g/1: every lookup
     scans all k clauses *)
  let[@warning "-8"] [ hash; trie ] =
    times
      [
        count (fresh_session clauses) goal;
        count (fresh_session (":- index(p/2, str).\n" ^ clauses)) goal;
      ]
  in
  table
    [ "index"; "ms/lookup"; "hash / trie" ]
    [
      [ Printf.sprintf "first-arg hash (all %d clauses share g/1)" k; msec hash; "" ];
      [ "first-string trie"; msec trie; show (ratio hash trie) ];
    ];
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
  let session strategy text =
    let s = Xsb.Session.create ~scheduling:strategy () in
    Xsb.Session.consult s text;
    s
  in
  let results =
    List.map
      (fun (name, text, goal) ->
        let[@warning "-8"] [ batched; local ] =
          times
            [
              tabled (session Xsb.Machine.Batched text) goal;
              tabled (session Xsb.Machine.Local text) goal;
            ]
        in
        (* SCC counters from a separate untimed run *)
        let s = session Xsb.Machine.Local text in
        ignore (Xsb.Session.count s goal);
        ( name,
          Xsb.Session.stats s,
          [
            ("batched_ms", scale 1000. (spread batched));
            ("local_ms", scale 1000. (spread local));
            ("local_over_batched", ratio local batched);
          ] ))
      cases
  in
  table
    [ "workload"; "batched (ms)"; "local (ms)"; "local / batched"; "sccs"; "max-scc" ]
    (List.map
       (fun (name, (st : Xsb.Machine.stats), figures) ->
         figures_row [ name ] figures
         @ [ string_of_int st.st_sccs_completed; string_of_int st.st_max_scc_size ])
       results);
  write_json "scheduling"
    [
      ( "results",
        Xsb.Json.List
          (List.map
             (fun (name, (st : Xsb.Machine.stats), figures) ->
               figures_json
                 Xsb.Json.
                   [
                     ("workload", String name);
                     ("sccs_completed", Int st.st_sccs_completed);
                     ("early_completions", Int st.st_early_completions);
                     ("max_scc_size", Int st.st_max_scc_size);
                   ]
                 figures)
             results) );
    ]

(* ------------------------------------------------------------------ *)
(* E16 — right-recursive tabled path/2 on n-edge chains: the time per
   SLG step grows with n while completion work per task is O(n); the
   baseline for ROADMAP item 5 *)

let right_chain () =
  header "Right-recursive tabled path/2 on n-edge chains: time per SLG step";
  table
    [ "edges"; "steps"; "ms"; "us/step" ]
    (List.map
       (fun n ->
         let s = fresh_session (Workloads.right_path_tabled ^ Workloads.chain_edges (n + 1)) in
         let steps_so_far () = (Xsb.Session.stats s).Xsb.Machine.st_steps in
         let before = steps_so_far () in
         ignore (tabled s "path(1,X)" ());
         let steps = steps_so_far () - before in
         let[@warning "-8"] [ t ] = times [ tabled s "path(1,X)" ] in
         [
           string_of_int n;
           string_of_int steps;
           msec t;
           show (scale (1e6 /. float_of_int steps) (spread t));
         ])
       (if !quick then [ 125; 250 ] else [ 125; 250; 500; 1000 ]))

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

let edge k = Xsb.Term.Struct ("edge", [| Xsb.Term.Int k; Xsb.Term.Int (k + 1) |])

let edge_mut k =
  Xsb.Record.Add_clause
    {
      name = "edge";
      arity = 2;
      front = false;
      dynamic = true;
      clause = Xsb.Canon.of_term (Xsb.Term.Struct (":-", [| edge k; Xsb.Term.Atom "true" |]));
    }

let open_journal ?(sync = Xsb.Journal.Never) dir db =
  Xsb.Journal.open_
    { (Xsb.Journal.default_config ~dir) with Xsb.Journal.sync; compact_bytes = 0 }
    db

let journal_fill db n =
  let pred = Xsb.Database.set_dynamic db "edge" 2 in
  for k = 1 to n do
    ignore (Xsb.Database.insert_clause db pred ~head:(edge k) ~body:(Xsb.Term.Atom "true"))
  done

let journal_bench () =
  header "Journal: ASSERT throughput per sync policy; recovery time vs journal size";
  let bulk = if !quick then 5_000 else 20_000 in
  (* one writer asserting through the database hook *)
  let single (name, sync, n) =
    ( name,
      1,
      1,
      n,
      fun () ->
        with_journal_dir (fun dir ->
            let db = Xsb.Database.create () in
            let j = open_journal ~sync dir db in
            Xsb.Journal.attach j;
            let t0 = Xsb.Mclock.now () in
            journal_fill db n;
            Xsb.Journal.sync j;
            let wall = Xsb.Mclock.now () -. t0 in
            let fsyncs = (Xsb.Journal.stats j).Xsb.Journal.fsyncs in
            Xsb.Journal.close j;
            [ ("records_per_s", float_of_int n /. wall); ("fsyncs", float_of_int fsyncs) ]) )
  in
  (* group commit: writers × records-per-commit. Each writer thread
     appends [per]-record transactions (append_batch) and blocks on the
     commit barrier, so the committer amortizes one fsync over every
     record in flight. *)
  let group (window_us, writers, per) =
    let rounds = (if !quick then 512 else 8192) / (writers * per) in
    let n = writers * per * rounds in
    ( Printf.sprintf "group=%.1fms" (float_of_int window_us /. 1000.0),
      writers,
      per,
      n,
      fun () ->
        with_journal_dir (fun dir ->
            let j =
              open_journal
                ~sync:(Xsb.Journal.Group { window_us; max_batch = 256 })
                dir (Xsb.Database.create ())
            in
            let t0 = Xsb.Mclock.now () in
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
            let wall = Xsb.Mclock.now () -. t0 in
            let fsyncs = (Xsb.Journal.stats j).Xsb.Journal.fsyncs in
            Xsb.Journal.close j;
            [ ("records_per_s", float_of_int n /. wall); ("fsyncs", float_of_int fsyncs) ]) )
  in
  let configs =
    List.map single
      [
        ("never", Xsb.Journal.Never, bulk);
        ("interval=64", Xsb.Journal.Interval 64, bulk);
        ("always", Xsb.Journal.Always, if !quick then 100 else 500);
      ]
    @ List.map group
        [ (200, 1, 1); (200, 1, 4); (200, 8, 1); (200, 8, 4); (200, 8, 8); (1000, 8, 8) ]
  in
  let runs = interleave (List.map (fun (_, _, _, _, run) -> run) configs) in
  let rates runs = Array.of_list (List.map (List.assoc "records_per_s") runs) in
  let always = rates (List.nth runs 2) in
  let throughput =
    List.map2
      (fun (name, writers, per, n, _) runs ->
        ( (name, writers, per, n),
          summarize runs @ [ ("speedup_vs_always", ratio (rates runs) always) ] ))
      configs runs
  in
  table
    [ "sync"; "writers"; "per_commit"; "records"; "records/s"; "fsyncs"; "vs always" ]
    (List.map
       (fun ((name, writers, per, n), figures) ->
         figures_row [ name; string_of_int writers; string_of_int per; string_of_int n ] figures)
       throughput);
  let sizes = if !quick then [ 1_000; 5_000 ] else [ 1_000; 10_000; 50_000 ] in
  let recovery_run n () =
    with_journal_dir (fun dir ->
        let db = Xsb.Database.create () in
        let j = open_journal dir db in
        Xsb.Journal.attach j;
        journal_fill db n;
        Xsb.Journal.close j;
        let t0 = Xsb.Mclock.now () in
        let j2 = open_journal dir (Xsb.Database.create ()) in
        let wall = Xsb.Mclock.now () -. t0 in
        let recovered = (Xsb.Journal.stats j2).Xsb.Journal.recovered_records in
        Xsb.Journal.close j2;
        [ ("recovery_s", wall); ("records_per_s", float_of_int recovered /. wall) ])
  in
  let recovery = sweep recovery_run sizes in
  table
    [ "records"; "recovery (s)"; "records/s" ]
    (List.map (fun (n, figures) -> figures_row [ string_of_int n ] figures) recovery);
  write_json "journal"
    [
      ( "throughput",
        Xsb.Json.List
          (List.map
             (fun ((name, writers, per, n), figures) ->
               figures_json
                 [
                   ("sync", Xsb.Json.String name);
                   ("writers", Xsb.Json.Int writers);
                   ("per_commit", Xsb.Json.Int per);
                   ("records", Xsb.Json.Int n);
                 ]
                 figures)
             throughput) );
      ( "recovery",
        Xsb.Json.List
          (List.map
             (fun (n, figures) -> figures_json [ ("records", Xsb.Json.Int n) ] figures)
             recovery) );
    ]

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
  let open_primary pdir =
    let j = open_journal ~sync:Xsb.Journal.default_group pdir (Xsb.Database.create ()) in
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
  (* the time until every standby's lag is zero, in ms *)
  let drain j standbys =
    let t0 = Xsb.Mclock.now () in
    while
      List.exists (fun s -> standby_lag j s > 0) standbys && Xsb.Mclock.now () -. t0 < 30.0
    do
      Thread.delay 0.002
    done;
    (Xsb.Mclock.now () -. t0) *. 1000.0
  in
  (* --- lag vs sustained write rate, one standby --- *)
  let rates = if !quick then [ 500; 2_000 ] else [ 500; 2_000; 8_000 ] in
  let window_s = if !quick then 0.5 else 1.0 in
  let lag_run rate () =
    with_journal_dir (fun pdir ->
        with_journal_dir (fun sdir ->
            let j, primary = open_primary pdir in
            let standby = start_standby j primary sdir in
            (* paced writes: batches of 4, spaced to hold the rate *)
            let per = 4 in
            let interval = float_of_int per /. float_of_int rate in
            let deadline = Xsb.Mclock.now () +. window_s in
            let written = ref 0 in
            let max_lag = ref 0 and lag_sum = ref 0 and samples = ref 0 in
            let next = ref (Xsb.Mclock.now ()) in
            while Xsb.Mclock.now () < deadline do
              Xsb.Journal.append_batch j (List.init per (fun k -> edge_mut (!written + k)));
              written := !written + per;
              let l = standby_lag j standby in
              max_lag := max !max_lag l;
              lag_sum := !lag_sum + l;
              incr samples;
              next := !next +. interval;
              let now = Xsb.Mclock.now () in
              if !next > now then Thread.delay (!next -. now) else next := now
            done;
            let catchup_ms = drain j [ standby ] in
            Xsb_repl.Repl.Standby.stop standby;
            Xsb_repl.Repl.Primary.stop primary;
            Xsb.Journal.close j;
            [
              ("records", float_of_int !written);
              ("max_lag_bytes", float_of_int !max_lag);
              ("mean_lag_bytes", float_of_int !lag_sum /. float_of_int (max 1 !samples));
              ("catchup_ms", catchup_ms);
            ]))
  in
  let lag = sweep lag_run rates in
  table
    [ "records/s"; "records"; "max lag (B)"; "mean lag (B)"; "catch-up (ms)" ]
    (List.map (fun (rate, figures) -> figures_row [ string_of_int rate ] figures) lag);
  (* --- fan-out: fixed write burst against 1/2/4/8 standbys --- *)
  header "Replication: fan-out scaling (one burst, N standbys)";
  let counts = if !quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let burst = if !quick then 2_000 else 10_000 in
  let fanout_run n () =
    with_journal_dir (fun pdir ->
        let sdirs = List.init n (fun i -> Printf.sprintf "%s_s%d" pdir i) in
        Fun.protect ~finally:(fun () -> List.iter rm_rf sdirs) @@ fun () ->
        let j, primary = open_primary pdir in
        let standbys = List.map (start_standby j primary) sdirs in
        let max_lag = ref 0 in
        let t0 = Xsb.Mclock.now () in
        let written = ref 0 in
        while !written < burst do
          Xsb.Journal.append_batch j (List.init 8 (fun k -> edge_mut (!written + k)));
          written := !written + 8;
          List.iter (fun s -> max_lag := max !max_lag (standby_lag j s)) standbys
        done;
        let wall_ms = (Xsb.Mclock.now () -. t0) *. 1000.0 in
        let catchup_ms = drain j standbys in
        let shipped = Xsb_repl.Repl.Primary.shipped_bytes primary in
        List.iter Xsb_repl.Repl.Standby.stop standbys;
        Xsb_repl.Repl.Primary.stop primary;
        Xsb.Journal.close j;
        [
          ("wall_ms", wall_ms);
          ("shipped_bytes", float_of_int shipped);
          ("max_lag_bytes", float_of_int !max_lag);
          ("catchup_ms", catchup_ms);
        ])
  in
  let fanout = sweep fanout_run counts in
  table
    [ "standbys"; "wall (ms)"; "shipped (B)"; "max lag (B)"; "catch-up (ms)" ]
    (List.map (fun (n, figures) -> figures_row [ string_of_int n ] figures) fanout);
  write_json "repl"
    [
      ( "lag_vs_rate",
        Xsb.Json.List
          (List.map
             (fun (rate, figures) ->
               figures_json [ ("target_records_per_s", Xsb.Json.Int rate) ] figures)
             lag) );
      ( "standby_sweep",
        Xsb.Json.List
          (List.map
             (fun (n, figures) ->
               figures_json Xsb.Json.[ ("standbys", Int n); ("records", Int burst) ] figures)
             fanout) );
    ]

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
  (* the counter [name] from a STATISTICS reply's "name: N" lines *)
  let stat c name =
    let prefix = name ^ ": " in
    let value line =
      let line = String.trim line in
      let n = String.length prefix in
      if String.starts_with ~prefix line then
        int_of_string_opt (String.sub line n (String.length line - n))
      else None
    in
    match Client.statistics c with
    | Ok text -> Option.value (List.find_map value (String.split_on_char '\n' text)) ~default:0
    | Error _ -> 0
  in
  let modes =
    [
      ("incremental", ":- table reach/2 as incremental.\n");
      ("variant", ":- table reach/2.\n");
    ]
  in
  let phases =
    [ ("steady", `None); ("unrelated-writes", `Unrelated); ("related-writes", `Related) ]
  in
  (* one server run of every phase, in order: steady state first, then
     the write bursts *)
  let mode_run directive () =
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
                List.map
                  (fun (name, write) ->
                    let sub0 = stat c "subgoals" in
                    let rep0 = stat c "repairs" in
                    let inv0 = stat c "invalidations" in
                    let t0 = Xsb.Mclock.now () in
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
                    let wall = Xsb.Mclock.now () -. t0 in
                    let extra_tables = stat c "subgoals" - sub0 - queries in
                    ( name,
                      [
                        ("rps", float_of_int queries /. wall);
                        ( "warm_hit_rate",
                          float_of_int (queries - min queries (max 0 extra_tables))
                          /. float_of_int queries );
                        ("repairs", float_of_int (stat c "repairs" - rep0));
                        ("invalidations", float_of_int (stat c "invalidations" - inv0));
                      ] ))
                  phases)))
  in
  let results =
    List.concat
      (List.map2
         (fun (mode, _) runs ->
           List.map
             (fun (phase, _) -> (mode, phase, summarize (List.map (List.assoc phase) runs)))
             phases)
         modes
         (interleave (List.map (fun (_, directive) -> mode_run directive) modes)))
  in
  table
    [ "mode"; "phase"; "rps"; "hit-rate"; "repairs"; "invalid" ]
    (List.map (fun (mode, phase, figures) -> figures_row [ mode; phase ] figures) results);
  write_json "incremental"
    [
      ("chain", Xsb.Json.Int n);
      ("queries_per_phase", Xsb.Json.Int queries);
      ( "results",
        Xsb.Json.List
          (List.map
             (fun (mode, phase, figures) ->
               figures_json Xsb.Json.[ ("mode", String mode); ("phase", String phase) ] figures)
             results) );
    ];
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
  let run_mode directive (text, general, specifics) () =
    let s = Xsb.Session.create ~scheduling:Xsb.Machine.Batched () in
    Xsb.Session.consult s (directive ^ text);
    (* phase 1: the join, on empty table space — its bound inner calls
       arrive while the general table is incomplete *)
    let join_answers = answers s "join(Z)" in
    (* phase 2: the open general query (the table is complete by now) *)
    let general_answers = answers s general in
    (* phase 3: k specific queries against the completed general table *)
    let t0 = Xsb.Mclock.now () in
    let specific_answers = List.map (answers s) specifics in
    let wall = Xsb.Mclock.now () -. t0 in
    let st = Xsb.Session.stats s in
    ( join_answers :: general_answers :: specific_answers,
      [
        ("tables", float_of_int st.Xsb.Machine.st_subgoals);
        ("specific_rps", float_of_int (List.length specifics) /. wall);
        ("hits", float_of_int st.Xsb.Machine.st_subsumption_hits);
      ] )
  in
  let results =
    List.map
      (fun (name, text, pred, general, specifics) ->
        let w = (text, general, specifics) in
        let[@warning "-8"] [ variant; subsumption ] =
          interleave
            [
              run_mode (Printf.sprintf ":- table %s.\n" pred) w;
              run_mode (Printf.sprintf ":- table %s as subsumption.\n" pred) w;
            ]
        in
        let equal = List.for_all2 (fun (v, _) (s, _) -> v = s) variant subsumption in
        let v = summarize (List.map snd variant) and s = summarize (List.map snd subsumption) in
        if not equal then row "  !! answer sets differ between modes on %s\n" name;
        let tables figures = (List.assoc "tables" figures).median in
        if tables s >= tables v then
          row "  !! subsumption did not reduce table count on %s (%.0f vs %.0f)\n" name (tables s)
            (tables v);
        (name, v, s, equal))
      workloads
  in
  table
    [ "workload"; "mode"; "tables"; "specific rps"; "sub-hits"; "answers" ]
    (List.concat_map
       (fun (name, v, s, equal) ->
         [
           figures_row [ name; "variant" ] v @ [ "" ];
           figures_row [ name; "subsumption" ] s @ [ (if equal then "equal" else "DIFFER") ];
         ])
       results);
  write_json "subsumption"
    [
      ("specific_queries", Xsb.Json.Int k);
      ( "results",
        Xsb.Json.List
          (List.map
             (fun (name, v, s, equal) ->
               let prefixed mode = List.map (fun (key, x) -> (mode ^ "_" ^ key, x)) in
               figures_json
                 [ ("workload", Xsb.Json.String name); ("answers_equal", Xsb.Json.Bool equal) ]
                 (prefixed "variant" v @ prefixed "subsumption" s))
             results) );
    ];
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
    ("right_chain", right_chain);
    ("journal", journal_bench);
    ("repl", repl_bench);
    ("incremental", incremental_bench);
    ("subsumption", subsumption_bench);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "quick" args;
  let args = List.filter (fun a -> a <> "quick") args in
  let selected =
    if args = [] then experiments
    else List.filter (fun (name, _) -> List.mem name args) experiments
  in
  if selected = [] then begin
    Printf.printf "unknown experiment; available: %s quick\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  List.iter (fun (_, f) -> f ()) selected
