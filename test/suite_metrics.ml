(* The metrics registry (ISSUE PR 8): histogram bucket/quantile math,
   the Prometheus text encoder against its own parse-back checker (a
   golden snapshot plus a property over random registries), the
   monotonic clock, and the table-space byte accounting. *)

module M = Xsb.Metrics

let t = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let close ?(eps = 1e-9) what a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %g <> %g" what a b

(* --- histograms --- *)

let histogram_cases =
  [
    t "default buckets are sorted and span 1us..67s" `Quick (fun () ->
        let b = M.Histogram.default_buckets in
        check_bool "nonempty" true (Array.length b > 0);
        Array.iteri (fun i x -> if i > 0 then check_bool "sorted" true (b.(i - 1) < x)) b;
        check_bool "low" true (b.(0) <= 1e-6);
        check_bool "high" true (b.(Array.length b - 1) > 60.0));
    t "count/sum/min/max are exact" `Quick (fun () ->
        let h = M.Histogram.create () in
        List.iter (M.Histogram.observe h) [ 0.5; 0.001; 2.0; 0.25 ];
        check_int "count" 4 (M.Histogram.count h);
        close "sum" (M.Histogram.sum h) 2.751;
        close "min" (M.Histogram.min_value h) 0.001;
        close "max" (M.Histogram.max_value h) 2.0);
    t "cumulative rows are monotone and end at +Inf = count" `Quick (fun () ->
        let h = M.Histogram.create () in
        for i = 1 to 500 do
          M.Histogram.observe h (float_of_int i /. 100.0)
        done;
        let rows = M.Histogram.cumulative h in
        let last_bound, last_cum = List.nth rows (List.length rows - 1) in
        check_bool "+Inf last" true (last_bound = Float.infinity);
        check_int "total" 500 last_cum;
        ignore
          (List.fold_left
             (fun prev (_, cum) ->
               check_bool "monotone" true (cum >= prev);
               cum)
             0 rows));
    t "quantiles interpolate and clamp to observed extremes" `Quick (fun () ->
        let h = M.Histogram.create () in
        (* uniform on (0, 1]: p50 ~ 0.5, p99 ~ 0.99, within one
           factor-2 bucket of the truth *)
        for i = 1 to 1000 do
          M.Histogram.observe h (float_of_int i /. 1000.0)
        done;
        let p50 = M.Histogram.quantile h 0.5 in
        let p99 = M.Histogram.quantile h 0.99 in
        check_bool "p50 in bucket" true (p50 >= 0.25 && p50 <= 1.0);
        check_bool "p99 in bucket" true (p99 >= 0.5 && p99 <= 1.0);
        check_bool "ordered" true (p50 <= p99);
        close "p0 = min" (M.Histogram.quantile h 0.0) 0.001;
        close "p100 = max" (M.Histogram.quantile h 1.0) 1.0;
        close "percentile alias" (M.Histogram.percentile h 95.0) (M.Histogram.quantile h 0.95));
    t "a single observation answers every quantile with itself" `Quick (fun () ->
        let h = M.Histogram.create () in
        M.Histogram.observe h 0.125;
        List.iter (fun q -> close "q" (M.Histogram.quantile h q) 0.125) [ 0.0; 0.5; 0.99; 1.0 ]);
    t "empty histogram: zero everything" `Quick (fun () ->
        let h = M.Histogram.create () in
        check_int "count" 0 (M.Histogram.count h);
        close "sum" (M.Histogram.sum h) 0.0;
        close "quantile" (M.Histogram.quantile h 0.5) 0.0);
  ]

(* --- counters, gauges, registration --- *)

let registry_cases =
  [
    t "counters are monotone; negative add refused" `Quick (fun () ->
        let r = M.create () in
        let c = M.counter r ~help:"h" "xsb_test_total" in
        M.Counter.incr c;
        M.Counter.add c 41;
        check_int "value" 42 (M.Counter.value c);
        (match M.Counter.add c (-1) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "negative add must raise");
        check_int "unchanged" 42 (M.Counter.value c));
    t "registration is find-or-create; kind clashes raise" `Quick (fun () ->
        let r = M.create () in
        let c1 = M.counter r ~help:"h" "xsb_test_total" in
        let c2 = M.counter r ~help:"h" "xsb_test_total" in
        M.Counter.incr c1;
        check_int "same child" 1 (M.Counter.value c2);
        let g1 = M.gauge r ~labels:[ ("a", "1") ] ~help:"h" "xsb_test_gauge" in
        let g2 = M.gauge r ~labels:[ ("a", "2") ] ~help:"h" "xsb_test_gauge" in
        M.Gauge.set g1 1.0;
        M.Gauge.set g2 2.0;
        close "distinct series" (M.Gauge.value g2) 2.0;
        match M.gauge r ~help:"h" "xsb_test_total" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "kind clash must raise");
    t "a disabled registry records nothing but still renders" `Quick (fun () ->
        let r = M.create () in
        let c = M.counter r ~help:"h" "xsb_test_total" in
        let h = M.histogram r ~help:"h" "xsb_test_seconds" in
        M.Counter.incr c;
        M.set_enabled r false;
        M.Counter.incr c;
        M.Histogram.observe h 1.0;
        check_int "counter frozen" 1 (M.Counter.value c);
        check_int "histogram frozen" 0 (M.Histogram.count h);
        match M.Exposition.validate (M.to_text r) with
        | Ok _ -> ()
        | Error why -> Alcotest.failf "disabled exposition invalid: %s" why);
  ]

(* --- the exposition encoder: golden snapshot --- *)

let golden_cases =
  [
    t "golden exposition snapshot" `Quick (fun () ->
        let r = M.create () in
        let c = M.counter r ~labels:[ ("op", "QUERY") ] ~help:"Requests, by op." "xsb_req_total" in
        M.Counter.add c 3;
        let g = M.gauge r ~help:"A gauge with\na newline and \\ backslash." "xsb_depth" in
        M.Gauge.set g 2.5;
        M.gauge_fn r ~labels:[ ("pred", "path/2\"quoted\"") ] ~help:"Bytes." "xsb_bytes"
          (fun () -> 128.0);
        let h = M.histogram r ~buckets:[| 0.1; 1.0 |] ~help:"Latency." "xsb_lat_seconds" in
        M.Histogram.observe h 0.05;
        M.Histogram.observe h 0.5;
        M.Histogram.observe h 5.0;
        let expected =
          "# HELP xsb_req_total Requests, by op.\n\
           # TYPE xsb_req_total counter\n\
           xsb_req_total{op=\"QUERY\"} 3\n\
           # HELP xsb_depth A gauge with\\na newline and \\\\ backslash.\n\
           # TYPE xsb_depth gauge\n\
           xsb_depth 2.5\n\
           # HELP xsb_bytes Bytes.\n\
           # TYPE xsb_bytes gauge\n\
           xsb_bytes{pred=\"path/2\\\"quoted\\\"\"} 128\n\
           # HELP xsb_lat_seconds Latency.\n\
           # TYPE xsb_lat_seconds histogram\n\
           xsb_lat_seconds_bucket{le=\"0.1\"} 1\n\
           xsb_lat_seconds_bucket{le=\"1\"} 2\n\
           xsb_lat_seconds_bucket{le=\"+Inf\"} 3\n\
           xsb_lat_seconds_sum 5.55\n\
           xsb_lat_seconds_count 3\n"
        in
        check_string "exposition" expected (M.to_text r));
  ]

(* --- parse-back property: every well-formed registry validates, and
   every registered family appears exactly once --- *)

let name_of kind i = Printf.sprintf "xsb_prop_%s_%d" kind i

let gen_registry =
  let open QCheck2.Gen in
  let label_value = string_size ~gen:(char_range 'a' 'z') (int_range 0 6) in
  let* n_counters = int_range 0 4 in
  let* n_gauges = int_range 0 4 in
  let* n_hists = int_range 0 2 in
  let* counter_vals = list_repeat n_counters (pair (int_range 0 1000) label_value) in
  let* gauge_vals = list_repeat n_gauges float in
  let* hist_obs = list_repeat n_hists (list_size (int_range 0 20) (float_range 1e-7 100.0)) in
  return (counter_vals, gauge_vals, hist_obs)

let build_registry (counter_vals, gauge_vals, hist_obs) =
  let r = M.create () in
  List.iteri
    (fun i (v, lv) ->
      let c = M.counter r ~labels:[ ("l", lv) ] ~help:"Prop counter." (name_of "total" i) in
      M.Counter.add c v)
    counter_vals;
  List.iteri
    (fun i v -> M.Gauge.set (M.gauge r ~help:"Prop gauge." (name_of "gauge" i)) v)
    gauge_vals;
  List.iteri
    (fun i obs ->
      let h = M.histogram r ~help:"Prop histogram." (name_of "seconds" i) in
      List.iter (M.Histogram.observe h) obs)
    hist_obs;
  r

let parse_back_prop =
  QCheck2.Test.make ~count:200 ~name:"exposition validates and is complete" gen_registry
    (fun ((counter_vals, gauge_vals, hist_obs) as spec) ->
      let r = build_registry spec in
      match M.Exposition.validate (M.to_text r) with
      | Error why -> QCheck2.Test.fail_reportf "invalid exposition: %s" why
      | Ok samples ->
          (* every registered family appears, under exactly one
             HELP/TYPE, with the value we recorded *)
          List.iteri
            (fun i (v, _) ->
              let got = M.Exposition.sum_family samples (name_of "total" i) in
              if int_of_float got <> v then
                QCheck2.Test.fail_reportf "counter %d: %g <> %d" i got v)
            counter_vals;
          List.iteri
            (fun i v ->
              match M.Exposition.find samples (name_of "gauge" i) with
              | Some got when got = v || (Float.is_nan got && Float.is_nan v) -> ()
              | other ->
                  QCheck2.Test.fail_reportf "gauge %d: %s <> %g" i
                    (match other with Some g -> string_of_float g | None -> "missing")
                    v)
            gauge_vals;
          List.iteri
            (fun i obs ->
              let fam = name_of "seconds" i in
              match M.Exposition.find samples (fam ^ "_count") with
              | Some got when int_of_float got = List.length obs -> ()
              | _ -> QCheck2.Test.fail_reportf "histogram %d count wrong" i)
            hist_obs;
          true)

(* hand-broken expositions the checker must reject *)
let checker_cases =
  [
    t "the checker rejects malformed expositions" `Quick (fun () ->
        let reject what text =
          match M.Exposition.validate text with
          | Ok _ -> Alcotest.failf "%s: accepted" what
          | Error _ -> ()
        in
        reject "sample without TYPE" "xsb_x 1\n";
        reject "duplicate series"
          "# HELP xsb_x h\n# TYPE xsb_x counter\nxsb_x 1\nxsb_x 2\n";
        reject "negative counter" "# HELP xsb_x h\n# TYPE xsb_x counter\nxsb_x -1\n";
        reject "declared but empty family" "# HELP xsb_x h\n# TYPE xsb_x counter\n";
        reject "non-cumulative buckets"
          "# HELP xsb_h h\n# TYPE xsb_h histogram\n\
           xsb_h_bucket{le=\"0.1\"} 5\nxsb_h_bucket{le=\"1\"} 3\n\
           xsb_h_bucket{le=\"+Inf\"} 5\nxsb_h_sum 1\nxsb_h_count 5\n";
        reject "+Inf bucket <> count"
          "# HELP xsb_h h\n# TYPE xsb_h histogram\n\
           xsb_h_bucket{le=\"+Inf\"} 5\nxsb_h_sum 1\nxsb_h_count 4\n";
        reject "missing _sum"
          "# HELP xsb_h h\n# TYPE xsb_h histogram\n\
           xsb_h_bucket{le=\"+Inf\"} 2\nxsb_h_count 2\n");
  ]

(* --- the monotonic clock --- *)

let mclock_cases =
  [
    t "mclock never steps backwards and tracks sleeps" `Quick (fun () ->
        let a = Xsb.Mclock.now () in
        Unix.sleepf 0.02;
        let b = Xsb.Mclock.now () in
        check_bool "advances" true (b > a);
        check_bool "by roughly the sleep" true (b -. a >= 0.015 && b -. a < 5.0);
        let prev = ref (Xsb.Mclock.now_ns ()) in
        for _ = 1 to 10_000 do
          let n = Xsb.Mclock.now_ns () in
          check_bool "nondecreasing" true (Int64.compare n !prev >= 0);
          prev := n
        done);
  ]

(* --- table-space accounting --- *)

let bytes_cases =
  [
    t "Canon.size_bytes grows with the term" `Quick (fun () ->
        let sz s = Xsb.Canon.size_bytes (Xsb.Canon.of_term (Xsb.Parser.term_of_string s)) in
        check_bool "atom > 0" true (sz "a" > 0);
        check_bool "struct > atom" true (sz "f(a,b)" > sz "a");
        check_bool "longer names cost more" true
          (sz "averylongatomnameindeed" > sz "a");
        check_bool "nesting costs" true (sz "f(g(h(1)))" > sz "f(1)"));
    t "engine accounting: bytes grow with answers and reset with tables" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s
          (":- table path/2.\n\
            path(X,Y) :- edge(X,Y).\n\
            path(X,Y) :- path(X,Z), edge(Z,Y).\n"
          ^ String.concat ""
              (List.init 30 (fun i -> Printf.sprintf "edge(%d,%d).\n" (i + 1) (i + 2))));
        let eng = Xsb.Session.engine s in
        check_int "empty before any query" 0 (Xsb.Engine.table_space_bytes eng);
        ignore (Xsb.Session.count s "path(1,X)");
        let b1 = Xsb.Engine.table_space_bytes eng in
        check_bool "nonzero after a query" true (b1 > 0);
        ignore (Xsb.Session.count s "path(2,X)");
        let b2 = Xsb.Engine.table_space_bytes eng in
        check_bool "grows with a second table" true (b2 > b1);
        (match Xsb.Engine.table_bytes_by_pred eng with
        | [ (("path", 2), b) ] ->
            check_bool "per-pred sums to total" true (b = b2)
        | other -> Alcotest.failf "expected one path/2 row, got %d" (List.length other));
        Xsb.Engine.reset_tables eng;
        check_int "reset" 0 (Xsb.Engine.table_space_bytes eng));
    t "publish_metrics snapshots a valid exposition" `Quick (fun () ->
        let s = Xsb.Session.create () in
        Xsb.Session.consult s ":- table p/1.\np(1). p(2). p(3).";
        ignore (Xsb.Session.count s "p(X)");
        let reg = M.create () in
        Xsb.Engine.publish_metrics (Xsb.Session.engine s) reg;
        match M.Exposition.validate (M.to_text reg) with
        | Error why -> Alcotest.failf "invalid engine exposition: %s" why
        | Ok samples ->
            check_bool "at least the 3 answers" true
              (Option.value ~default:(-1.0)
                 (M.Exposition.find ~labels:[ ("kind", "answers") ] samples "xsb_engine_stat")
              >= 3.0);
            check_bool "table bytes exported" true
              (Option.value ~default:0.0 (M.Exposition.find samples "xsb_table_space_bytes")
              > 0.0);
            check_bool "per-pred gauge present" true
              (M.Exposition.find ~labels:[ ("pred", "p/1") ] samples "xsb_table_bytes" <> None));
  ]

let suite =
  histogram_cases @ registry_cases @ golden_cases @ checker_cases @ mclock_cases @ bytes_cases
  @ [ QCheck_alcotest.to_alcotest ~long:false parse_back_prop ]

(* --- the accounting model against the heap the table space holds --- *)

let heap_cases =
  [
    t "table accounting tracks the live heap of the table space" `Quick (fun () ->
        (* every source of a seeded cycle graph gets its own completed
           path/2 table, all read back through query tables: the heap
           those tables keep must be what the accounting reports *)
        let nodes = 60 in
        let st = Random.State.make [| 7 |] in
        let edges =
          List.init nodes (fun i -> (i, (i + 1) mod nodes))
          @ List.init nodes (fun _ -> (Random.State.int st nodes, Random.State.int st nodes))
        in
        let s = Xsb.Session.create () in
        Xsb.Session.consult s
          (":- table path/2.\n\
            path(X,Y) :- edge(X,Y).\n\
            path(X,Y) :- path(X,Z), edge(Z,Y).\n"
          ^ String.concat "" (List.map (fun (a, b) -> Printf.sprintf "edge(%d,%d).\n" a b) edges));
        for src = 0 to nodes - 1 do
          check_int "every node reachable" nodes
            (Xsb.Session.count s (Printf.sprintf "path(%d,X)" src))
        done;
        let eng = Xsb.Session.engine s in
        let live = Obj.reachable_words (Obj.repr (Xsb.Engine.env eng).Xsb.Machine.tables) * 8 in
        let counted = Xsb.Engine.table_space_bytes eng in
        let ratio = float_of_int live /. float_of_int counted in
        if ratio < 0.75 || ratio > 1.25 then
          Alcotest.failf "live table heap %d B vs accounted %d B (ratio %.2f)" live counted ratio);
    t "table bytes per answer of path(S,X) and app(X,Y,L), against the live heap" `Quick
      (fun () ->
        (* answers are stored as substitutions: path(S,X)'s table keeps
           X, not S and X, and app(X,Y,[16 ints])'s keep the split, not
           the list again. Measured: about 183 B per path/2 answer and
           2,560 B per app/3 answer; storing whole templates, 273 B and
           12,430 B *)
        let nodes = 300 in
        let st = Random.State.make [| 29 |] in
        let edges =
          List.init nodes (fun i -> (i + 1, ((i + 1) mod nodes) + 1))
          @ List.init (2 * nodes) (fun _ ->
                (1 + Random.State.int st nodes, 1 + Random.State.int st nodes))
        in
        let s = Xsb.Session.create () in
        Xsb.Session.consult s
          (":- table path/2.\n\
            path(X,Y) :- edge(X,Y).\n\
            path(X,Y) :- path(X,Z), edge(Z,Y).\n\
            :- table app/3.\n\
            app([],L,L).\n\
            app([H|T],L,[H|R]) :- app(T,L,R).\n"
          ^ String.concat "" (List.map (fun (a, b) -> Printf.sprintf "edge(%d,%d).\n" a b) edges));
        let eng = Xsb.Session.engine s in
        let env = Xsb.Engine.env eng in
        List.iter
          (fun (goal, pred, rows, bound) ->
            Xsb.Engine.reset_tables eng;
            check_int goal rows (Xsb.Session.count s goal);
            let answers =
              Xsb.Canon.Tbl.fold
                (fun _ sub n -> n + Xsb.Machine.answer_count sub)
                env.Xsb.Machine.tables 0
            in
            let bytes =
              match Xsb.Engine.table_bytes_by_pred eng with
              | [ (p, b) ] when p = pred -> b
              | _ -> Alcotest.failf "%s: expected the tables of one predicate" goal
            in
            let per_answer = float_of_int bytes /. float_of_int answers in
            if per_answer > bound then
              Alcotest.failf "%s: %.0f table bytes per answer > %.0f" goal per_answer bound;
            let live = Obj.reachable_words (Obj.repr env.Xsb.Machine.tables) * 8 in
            let ratio = float_of_int live /. float_of_int bytes in
            if ratio < 0.75 || ratio > 1.25 then
              Alcotest.failf "%s: live table heap %d B vs accounted %d B (ratio %.2f)" goal live
                bytes ratio)
          [
            ("path(1,X)", ("path", 2), nodes, 220.);
            ("path(150,X)", ("path", 2), nodes, 220.);
            ( "app(X,Y,[5,3,9,1,7,2,8,6,4,0,11,15,13,12,14,10])",
              ("app", 3),
              17,
              3_200. );
          ]);
  ]

(* the --profile report parses a scrape of a registry other threads are
   recording into: a histogram observed mid-render must still scrape as
   a valid exposition (+Inf bucket = _count) *)
let race_cases =
  [
    t "scrapes racing histogram observations stay valid" `Quick (fun () ->
        let r = M.create () in
        let h = M.histogram r ~help:"Raced." "race_seconds" in
        let stop = Atomic.make false in
        let observer =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                M.Histogram.observe h 0.001
              done)
            ()
        in
        let invalid = ref 0 in
        let deadline = Unix.gettimeofday () +. 1.0 in
        while Unix.gettimeofday () < deadline do
          match M.Exposition.validate (M.to_text r) with Ok _ -> () | Error _ -> incr invalid
        done;
        Atomic.set stop true;
        Thread.join observer;
        check_int "invalid scrapes" 0 !invalid);
  ]

let suite = suite @ heap_cases @ race_cases
