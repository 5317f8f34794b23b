(* Fast checks of the serving benchmark's own arithmetic and inputs; no
   server is started. *)

open Bench_serve

let t name f = Alcotest.test_case name `Quick f
let check_float msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let percentiles =
  [
    t "nearest-rank percentiles" (fun () ->
        let a = Stats.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
        check_float "p50" 50.0 (Stats.percentile a 50.0);
        check_float "p99" 99.0 (Stats.percentile a 99.0);
        check_float "p100" 100.0 (Stats.percentile a 100.0);
        check_bool "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.0)));
    t "p99 needs ten samples beyond it" (fun () ->
        check_int "beyond 1000" 10 (Stats.beyond 1000 99.0);
        check_bool "1000 samples" true (Stats.supported 1000 99.0);
        check_bool "999 samples" false (Stats.supported 999 99.0);
        check_bool "2000 samples" true (Stats.supported 2000 99.0);
        check_bool "none" false (Stats.supported 0 99.0));
    t "quartiles match Python's statistics.quantiles" (fun () ->
        let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
        check_float "q1" 2.75 q1;
        check_float "q2" 5.5 q2;
        check_float "q3" 8.25 q3;
        let q1, _, q3 = Stats.quartiles [| 3.0; 1.0; 2.0 |] in
        check_float "3 points q1" 1.0 q1;
        check_float "3 points q3" 3.0 q3);
  ]

let speed =
  [
    t "scale is the nominal time over the median of every run" (fun () ->
        let r = Speed.nominal_s in
        let meter xs = { Speed.times = List.map (fun x -> x *. r) xs } in
        check_float "at reference speed" 1.0 (Speed.scale [ meter [ 1.0; 1.0; 1.0 ] ]);
        check_float "half speed, an outlier aside" 0.5 (Speed.scale [ meter [ 2.0; 50.0; 2.0 ] ]);
        check_float "pooled over meters" 0.5 (Speed.scale [ meter [ 1.0 ]; meter [ 2.0; 2.0; 9.0 ] ]));
    t "the reference task runs and is timed" (fun () ->
        check_int "the cycle reaches every node" Speed.nodes (Speed.reach 1);
        let m = Speed.probe 3 in
        check_int "runs" 3 (Speed.runs m);
        let t = Speed.median [ m ] in
        check_bool "positive and under a second" true (t > 0.0 && t < 1.0));
  ]

let oracles =
  [
    t "transitive closure on 5 nodes" (fun () ->
        let edges = [ (1, 2); (2, 3); (3, 1); (4, 5) ] in
        check_int "cycle member reaches the cycle" 3 (Gen.reach_count ~nodes:5 edges 1);
        check_int "one edge" 1 (Gen.reach_count ~nodes:5 edges 4);
        check_int "sink" 0 (Gen.reach_count ~nodes:5 edges 5));
    t "same generation counts a depth" (fun () ->
        let par = [ (2, 1); (3, 1); (4, 2); (5, 2); (6, 3); (7, 3) ] in
        check_int "leaf" 4 (Gen.same_depth_count par 4);
        check_int "inner" 2 (Gen.same_depth_count par 2);
        check_int "root" 0 (Gen.same_depth_count par 1));
    t "win on a height-3 tree" (fun () ->
        let moves = [ (1, 2); (1, 3); (2, 4); (2, 5); (3, 6); (3, 7) ] in
        check_bool "root loses" false (Gen.win moves 1);
        check_bool "above leaves wins" true (Gen.win moves 2);
        check_bool "leaf loses" false (Gen.win moves 4));
    t "append splits n + 1 ways" (fun () -> check_int "16" 17 (Gen.app_rows 16));
    t "oracles agree with the engine on generated queries" (fun () ->
        let inputs = Gen.make Gen.Cold_mix 3 in
        let s = Xsb.Session.create () in
        Xsb.Session.consult s inputs.Gen.program;
        List.iter
          (function
            | Gen.Query { goal; expect; _ } -> check_int goal expect (List.length (Xsb.Session.query s goal))
            | _ -> ())
          (List.concat (List.init 12 (fun _ -> inputs.Gen.conns.(0).Gen.next ()))));
  ]

let spans =
  [
    t "self time subtracts the union of child intervals" (fun () ->
        let span id parent start_ns end_ns = { Span.id; parent; req = 1; name = "s"; start_ns; end_ns; minor_words = 0.0 } in
        let spans = [ span 1 0 0 100; span 2 1 10 30; span 3 1 20 50; span 4 1 60 70; span 5 1 90 120 ] in
        let self = Span.self_times spans in
        check_int "parent" 40 (Hashtbl.find self 1);
        check_int "leaf" 20 (Hashtbl.find self 2));
    t "recorded spans nest" (fun () ->
        let tr = Span.create () in
        Span.record tr ~parent:0 ~req:1 "outer" (fun id -> Span.record tr ~parent:id ~req:1 "inner" (fun _ -> ()));
        match Span.spans tr with
        | [ outer; inner ] ->
            check_int "parent link" outer.Span.id inner.Span.parent;
            check_bool "contained" true (outer.Span.start_ns <= inner.Span.start_ns && inner.Span.end_ns <= outer.Span.end_ns)
        | _ -> Alcotest.fail "expected two spans");
  ]

let sample_result =
  {
    Summary.workload = "warm-read";
    correct = true;
    attempted = 4321;
    failed = 0;
    valid = true;
    samples = [ ("QUERY", 4321) ];
    metrics =
      [
        { Summary.name = "p50_ms"; value = 0.1; unit_ = "ms" };
        { Summary.name = "throughput"; value = 123456.789012345; unit_ = "1/s" };
        { Summary.name = "setup_s"; value = 1e-7; unit_ = "s" };
      ];
    extra = [ { Summary.name = "failed_frac"; value = 0.0; unit_ = "ratio" } ];
  }

let summaries =
  [
    t "summary JSON round-trips exactly" (fun () ->
        let text = Summary.to_string (Summary.summary_json ~env:[ ("seed", Xsb.Json.Int 1) ] [ sample_result ]) in
        check_bool "same result" true (Summary.results_of_summary text = [ sample_result ]));
    t "result line has exactly the four keys" (fun () ->
        match Xsb.Json.of_string (Summary.result_line sample_result) with
        | Ok (Xsb.Json.Obj fields) ->
            Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields)
        | _ -> Alcotest.fail "not a JSON object");
    t "compare verdicts" (fun () ->
        let spec = { Summary.lower_better = true; bound = Some 0.1 } in
        let base = [| 10.0; 10.1; 9.9; 10.0 |] in
        let judge b = Summary.verdict_name (Summary.judge spec base b) in
        Alcotest.(check string) "same" "same" (judge [| 10.0; 10.05; 9.95; 10.0 |]);
        Alcotest.(check string) "worse" "worse" (judge [| 12.0; 12.1; 11.9; 12.0 |]);
        Alcotest.(check string) "better" "better" (judge [| 8.0; 8.1; 7.9; 8.0 |]);
        Alcotest.(check string) "unresolved" "unresolved"
          (Summary.verdict_name (Summary.judge spec [| 5.0; 10.0; 15.0; 20.0 |] [| 10.0; 12.0; 14.0; 16.0 |])));
  ]

let determinism =
  let ops inputs = List.concat_map (fun c -> List.concat (List.init 300 (fun _ -> c.Gen.next ()))) (Array.to_list inputs.Gen.conns) in
  [
    t "a seed fixes the program text and the op sequence" (fun () ->
        List.iter
          (fun w ->
            let a = Gen.make w 7 and b = Gen.make w 7 in
            check_bool (Gen.name w ^ " program") true (a.Gen.program = b.Gen.program);
            check_bool (Gen.name w ^ " warm-up") true (a.Gen.warm = b.Gen.warm);
            check_bool (Gen.name w ^ " ops") true (ops a = ops b))
          Gen.workloads);
    t "another seed gives other inputs" (fun () ->
        List.iter
          (fun w -> check_bool (Gen.name w) false (ops (Gen.make w 7) = ops (Gen.make w 8)))
          Gen.workloads);
  ]

let () =
  Alcotest.run "bench-serve"
    [
      ("percentiles", percentiles);
      ("speed", speed);
      ("oracles", oracles);
      ("spans", spans);
      ("summary", summaries);
      ("determinism", determinism);
    ]
