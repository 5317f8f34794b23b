(* xsb_bench: the serving benchmark. See bench/serve/README.md.

     xsb_bench run     [--workload W] [--seed N] [--seconds S]
     xsb_bench trace   [--workload W] [--seed N] [--seconds S]
     xsb_bench compare A.json... -- B.json...
     xsb_bench smoke
     xsb_bench --workload W --seed N --seconds S --trace 0|1

   [run] measures the end-to-end metrics against a spawned
   bin/xsb_serverd; [trace] the per-layer ones (a server pass with the
   access log on, then an in-process replay). Every workload block ends
   with the one-line JSON result. *)

open Bench_serve

let default_seconds = 20.0

(* [run] repeats setup until it has [setup_min] deployments and has
   spent [setup_budget_s], at most [setup_max]; setup_s is their median *)
let setup_min = 3
let setup_budget_s = 1.0
let setup_max = 25
let replay_ops = 2000
let warmup_s seconds = Float.min 3.0 (seconds /. 4.0)

(* the window is measured in slices of about this many seconds; each is
   scaled by the speed reference's runs within it *)
let slice_s = 1.0

(* speed reference runs before the first setup and after each *)
let setup_probe_runs = 25

(* Times are reported at reference speed (Speed) on the workloads whose
   time is CPU work. replicated-write's is mostly the standby streamer's
   5 ms nap and fsyncs, which CPU speed does not change, so its times
   are reported as measured. *)
let scaled w = w <> Gen.Replicated_write

(* a trace's server passes (untraced, then with the access log) *)
let trace_window = 10.0

type ctx = { bin : string; out : string; seed : int; seconds : float }

let m name unit_ value = { Summary.name; value; unit_ }
let ms s = s *. 1000.0

(* --- one measured deployment --- *)

type slice = {
  samples : Serve.sample list;
  window : float;  (** seconds from the slice opening to its last reply *)
  scale : float;  (** [Speed.scale] of the slice's reference runs; 1 on unscaled workloads *)
}

type measured = {
  inputs : Gen.inputs;
  setups : (float * float) array;  (** each setup's seconds as measured and at reference speed *)
  slices : slice array;  (** the measured window *)
  samples : Serve.sample list;  (** every slice's *)
  window : float;  (** the slices' windows summed *)
  warm_failures : int;  (** failed ops in setup and warm-up *)
  rss_mb : float;
  checks_ok : bool;
  scrapes : ((string -> float) * (string -> float)) option;  (** METRICS at window start, end *)
}

let measure ctx w ~repeat_setup ?access_log () =
  let inputs = Gen.make w ctx.seed in
  (* the speed reference runs only where it scales something *)
  let meter () = if scaled w then Some (Speed.meter ()) else None in
  let time_host () = if scaled w then Some (Speed.probe setup_probe_runs) else None in
  let scale meters = match List.filter_map Fun.id meters with [] -> 1.0 | ms -> Speed.scale ms in
  let dir = Filename.concat ctx.out (Printf.sprintf "run-%d-%s" (Unix.getpid ()) (Gen.name w)) in
  let setups = ref [] in
  (* [before]: the speed reference's runs just before this setup *)
  let rec deploy i spent before =
    let t0 = Serve.now () in
    let d = Serve.deploy ~bin:ctx.bin ~dir:(Filename.concat dir (string_of_int i)) ?access_log inputs in
    let dt = Serve.now () -. t0 in
    let next = time_host () in
    setups := (dt, dt *. scale [ before; next ]) :: !setups;
    let n = i + 1 and spent = spent +. dt in
    if (not repeat_setup) || n >= setup_max || (n >= setup_min && spent >= setup_budget_s) then d
    else begin
      Serve.teardown d;
      deploy n spent next
    end
  in
  let d = deploy 0 0.0 (time_host ()) in
  let setups = Array.of_list !setups in
  Fun.protect ~finally:(fun () -> Serve.teardown d; Serve.rm_rf dir) @@ fun () ->
  let warm, _ = Serve.run_phase d inputs ?reference:(meter ()) ~duration:(warmup_s ctx.seconds) () in
  let scrape () = if access_log = None then None else Some (Serve.scrape d.Serve.conns.(0)) in
  let before = scrape () in
  let n = max 1 (Float.to_int (Float.round (ctx.seconds /. slice_s))) in
  let slices =
    Array.init n (fun _ ->
        let reference = meter () in
        let samples, window = Serve.run_phase d inputs ?reference ~duration:(ctx.seconds /. float_of_int n) () in
        { samples; window; scale = scale [ reference ] })
  in
  let rss_mb = Serve.peak_rss_mb d.Serve.primary.Serve.pid in
  let after = scrape () in
  let checks_ok = Serve.final_checks d inputs in
  {
    inputs;
    setups;
    slices;
    samples = List.concat_map (fun (sl : slice) -> sl.samples) (Array.to_list slices);
    window = Array.fold_left (fun acc (sl : slice) -> acc +. sl.window) 0.0 slices;
    warm_failures = Atomic.get d.Serve.setup_failures + List.length (List.filter (fun s -> not s.Serve.ok) warm);
    rss_mb;
    checks_ok;
    scrapes = Option.bind before (fun b -> Option.map (fun a -> (b, a)) after);
  }

let is_fg r s = s.Serve.op = r.inputs.Gen.foreground
let fg_samples r = List.filter (is_fg r) r.samples
let lat_ms ss = Stats.sorted (Array.of_list (List.map (fun s -> ms s.Serve.lat) ss))

(* at reference speed: the foreground latencies, and the window *)
let fg_scaled_lat_ms r =
  Array.to_list r.slices
  |> List.concat_map (fun (sl : slice) ->
         List.filter_map (fun s -> if is_fg r s then Some (ms s.Serve.lat *. sl.scale) else None) sl.samples)
  |> Array.of_list |> Stats.sorted

let scaled_window r = Array.fold_left (fun acc (sl : slice) -> acc +. (sl.window *. sl.scale)) 0.0 r.slices

(* tail percentiles are reported only where ten samples lie beyond *)
let latency_metrics prefix sorted =
  let n = Array.length sorted in
  (if n > 0 then [ m (prefix ^ "p50_ms") "ms" (Stats.percentile sorted 50.0) ] else [])
  @ if Stats.supported n 99.0 then [ m (prefix ^ "p99_ms") "ms" (Stats.percentile sorted 99.0) ] else []

let by_op samples =
  List.sort_uniq compare (List.map (fun s -> s.Serve.op) samples)
  |> List.map (fun op -> (op, List.filter (fun s -> s.Serve.op = op) samples))

(* the end-to-end result of a measured window *)
let end_to_end r =
  let fg = fg_samples r in
  let groups = by_op r.samples in
  let attempted = List.length r.samples in
  let failed = List.length (List.filter (fun s -> not s.Serve.ok) r.samples) in
  let n_fg = float_of_int (List.length fg) in
  let metrics =
    [ m "setup_s" "s" (Stats.median (Array.map snd r.setups)) ]
    @ latency_metrics "" (fg_scaled_lat_ms r)
    @ [ m "throughput" "1/s" (n_fg /. scaled_window r); m "server_rss_mb" "MiB" r.rss_mb ]
  in
  let wall =
    [ m "wall.setup_s" "s" (Stats.median (Array.map fst r.setups)) ]
    @ latency_metrics "wall." (lat_ms fg)
    @ [ m "wall.throughput" "1/s" (n_fg /. r.window) ]
    @
    if scaled r.inputs.Gen.workload then [ m "host.speed" "ratio" (Stats.median (Array.map (fun (sl : slice) -> sl.scale) r.slices)) ]
    else []
  in
  let others =
    List.concat_map
      (fun (op, ss) ->
        if op = r.inputs.Gen.foreground then []
        else
          let p = String.lowercase_ascii op ^ "." in
          latency_metrics p (lat_ms ss) @ [ m (p ^ "rps") "1/s" (float_of_int (List.length ss) /. r.window) ])
      groups
  in
  let classes =
    if r.inputs.Gen.workload <> Gen.Cold_mix then []
    else
      List.sort_uniq compare (List.map (fun s -> s.Serve.cls) fg)
      |> List.map (fun c -> m ("p50_ms." ^ c) "ms" (Stats.percentile (lat_ms (List.filter (fun s -> s.Serve.cls = c) fg)) 50.0))
  in
  let late =
    match Array.to_list r.inputs.Gen.conns |> List.exists (fun c -> c.Gen.pacing <> Gen.Closed) with
    | false -> []
    | true ->
        let writes = List.filter (fun s -> s.Serve.op <> r.inputs.Gen.foreground) r.samples in
        let late = Stats.sorted (Array.of_list (List.map (fun s -> ms s.Serve.late) writes)) in
        if Stats.supported (Array.length late) 99.0 then [ m "client.gen_late_ms.p99" "ms" (Stats.percentile late 99.0) ]
        else []
  in
  let samples = List.map (fun (op, ss) -> (op, List.length ss)) groups in
  {
    Summary.workload = Gen.name r.inputs.Gen.workload;
    correct = failed = 0 && r.warm_failures = 0 && r.checks_ok;
    attempted;
    failed;
    valid = List.for_all (fun (_, n) -> n >= Summary.min_samples) samples && List.length metrics = 5;
    samples;
    metrics;
    extra =
      wall
      @ [ m "failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted)); m "setups" "count" (float_of_int (Array.length r.setups)) ]
      @ others @ classes @ late;
  }

(* --- the per-layer result of a trace --- *)

let mean l = Stats.mean (Array.of_list l)
let ratio a b = if b = 0.0 then None else Some (a /. b)

let per_layer ~base ~traced ~log (rp : Replay.result) =
  let inputs = traced.inputs in
  (* server pass: access-log service time against client round trips *)
  let fg = fg_samples traced in
  let joined = Serve.join log fg in
  let service = Stats.sorted (Array.of_list (List.map fst joined)) in
  let queue = Stats.sorted (Array.of_list (List.map (fun (sv, rtt) -> rtt -. sv) joined)) in
  let p50 r = Stats.percentile (fg_scaled_lat_ms r) 50.0 in
  (* replay: stage durations per request *)
  let stages = Hashtbl.create 4096 in
  List.iter
    (fun (s : Span.span) ->
      if s.name <> "request" && s.req > 0 then
        Hashtbl.add stages s.req (s.name, float_of_int (s.end_ns - s.start_ns) /. 1e3, s.minor_words))
    rp.spans;
  (* a request's stage spans summed: duration (us) or allocation (words),
     over the named stages or all of them *)
  let sum ?names value (r : Replay.req) =
    List.fold_left
      (fun acc (n, us, w) -> if Option.fold ~none:true ~some:(List.mem n) names then acc +. value us w else acc)
      0.0 (Hashtbl.find_all stages r.id)
  in
  let stage_us names = sum ~names (fun us _ -> us) and stage_words names = sum ~names (fun _ w -> w) in
  let all_stages = sum (fun us _ -> us) in
  let fg_reqs = List.filter (fun r -> r.Replay.fg) rp.reqs in
  let over reqs f = mean (List.map f reqs) in
  let fg_mean f = over fg_reqs f in
  let count f = fg_mean (fun r -> float_of_int (f r)) in
  let exec = [ "slg.eval"; "db.assert" ] in
  let stage_sum_ms = fg_mean all_stages /. 1000.0 in
  let mean_service = Stats.mean service in
  let metrics =
    [
      m "server.service_ms.p50" "ms" (Stats.percentile service 50.0);
      m "server.service_ms.p99" "ms" (Stats.percentile service 99.0);
      m "server.queue_ms.p50" "ms" (Stats.percentile queue 50.0);
      m "server.queue_ms.p99" "ms" (Stats.percentile queue 99.0);
      m "server.contention_ms" "ms" (mean_service -. stage_sum_ms);
      m "protocol.decode_us" "us" (fg_mean (stage_us [ "protocol.decode" ]));
      m "parse.goal_us" "us" (fg_mean (stage_us [ "parse.goal" ]));
      m "exec.op_us" "us" (fg_mean (stage_us exec));
      m "reply.write_us" "us" (fg_mean (stage_us [ "session.render"; "protocol.encode" ]));
      m "setup.consult_ms" "ms" rp.consult_ms;
      m "slg.steps_per_op" "count" (count (fun r -> r.steps));
      m "slg.subgoals_per_op" "count" (count (fun r -> r.subgoals));
      m "slg.answers_per_op" "count" (count (fun r -> r.answers));
      m "slg.table_bytes" "bytes" (mean rp.table_bytes);
      m "gc.minor_words_per_op" "words" (fg_mean (stage_words exec));
      m "trace.overhead_frac" "ratio" ((p50 traced -. p50 base) /. p50 base);
      m "trace.coverage" "ratio" (stage_sum_ms /. mean_service);
    ]
  in
  (* workload-specific layers: reported only where the layer does work *)
  let of_op op = List.filter (fun r -> r.Replay.op = op) rp.reqs in
  let queries = of_op "QUERY" and writes = of_op "ASSERT" in
  let opt name unit_ = function Some v when Float.is_finite v -> [ m name unit_ v ] | _ -> [] in
  (* a stage's mean over the requests that ran it; [None] where none did *)
  let mean_stage name reqs =
    match List.filter (fun r -> List.exists (fun (n, _, _) -> n = name) (Hashtbl.find_all stages r.Replay.id)) reqs with
    | [] -> None
    | ran -> Some (over ran (stage_us [ name ]))
  in
  let total f reqs = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reqs) in
  let eval_by label keep = opt ("slg.eval_us." ^ label) "us" (mean_stage "slg.eval" (List.filter keep queries)) in
  let rows = total (fun r -> r.Replay.rows) queries in
  let delta name = Option.map (fun (b, a) -> a name -. b name) traced.scrapes in
  let journal_ratio num den = Option.bind (delta num) (fun n -> Option.bind (delta den) (ratio n)) in
  let e = end_to_end traced in
  let late = List.filter (fun x -> x.Summary.name = "client.gen_late_ms.p99") e.Summary.extra in
  let extra =
    (if queries = [] then [] else [ m "rows_per_query" "count" (rows /. float_of_int (List.length queries)) ])
    @ opt "slg.eval_us" "us" (mean_stage "slg.eval" queries)
    @ (match inputs.Gen.workload with
      | Gen.Cold_mix -> List.concat_map (fun c -> eval_by c (fun r -> r.Replay.cls = c)) [ "tc"; "sg"; "win"; "app" ]
      | Gen.Read_write -> eval_by "stale" (fun r -> r.Replay.stale) @ eval_by "warm" (fun r -> not r.Replay.stale)
      | _ -> [])
    @ opt "session.render_us" "us" (mean_stage "session.render" queries)
    @ opt "session.render_us_per_row" "us"
        (ratio (List.fold_left (fun acc r -> acc +. stage_us [ "session.render" ] r) 0.0 queries) rows)
    @ opt "gc.minor_words_per_row" "words"
        (ratio (List.fold_left (fun acc r -> acc +. stage_words [ "session.render" ] r) 0.0 queries) rows)
    @ opt "protocol.encode_us" "us" (mean_stage "protocol.encode" rp.reqs)
    @ opt "slg.abolish_us" "us" (mean_stage "slg.abolish" (of_op "ABOLISH"))
    @ opt "db.assert_us" "us" (mean_stage "db.assert" writes)
    @ opt "journal.barrier_us" "us" (mean_stage "journal.barrier" writes)
    @ opt "repl.ack_wait_us" "us" (mean_stage "repl.ack_wait" writes)
    @ opt "slg.dup_answer_ratio" "ratio"
        (ratio (total (fun r -> r.Replay.dups) rp.reqs) (total (fun r -> r.Replay.answers + r.Replay.dups) rp.reqs))
    @ opt "index.candidates_per_probe" "count"
        (ratio (total (fun r -> r.Replay.candidates) rp.reqs) (total (fun r -> r.Replay.probes) rp.reqs))
    (* writes touch tables only where queries built some *)
    @ (if queries = [] then []
       else
         opt "incr.repairs_per_write" "count" (ratio (total (fun r -> r.Replay.repairs) rp.reqs) (float_of_int (List.length writes)))
         @ opt "incr.invalidations_per_write" "count"
             (ratio (total (fun r -> r.Replay.invalidations) rp.reqs) (float_of_int (List.length writes))))
    @ opt "setup.warm_ms" "ms" rp.warm_ms
    @ opt "journal.records_per_fsync" "count"
        (journal_ratio "xsb_journal_group_batch_records_total" "xsb_journal_group_batches_total")
    @ opt "journal.bytes_per_write" "bytes" (journal_ratio "xsb_journal_bytes_appended_total" "xsb_journal_records_appended_total")
    @ (if inputs.Gen.workload = Gen.Replicated_write then
         opt "repl.shipped_bytes_per_write" "bytes"
           (journal_ratio "xsb_repl_shipped_bytes_total" "xsb_journal_records_appended_total")
       else [])
    @ late
  in
  { e with Summary.metrics; extra; valid = e.Summary.valid && List.length joined = List.length fg }

(* --- modes --- *)

let run_workload ctx w = end_to_end (measure ctx w ~repeat_setup:true ())

let trace_workload ctx w =
  let base = measure ctx w ~repeat_setup:false () in
  let log = Filename.concat ctx.out (Printf.sprintf "access-%d-%s.jsonl" (Unix.getpid ()) (Gen.name w)) in
  Fun.protect ~finally:(fun () -> Serve.rm_rf log) @@ fun () ->
  let traced = measure ctx w ~repeat_setup:false ~access_log:log () in
  let rp =
    Replay.run ~dir:(Filename.concat ctx.out (Printf.sprintf "replay-%d" (Unix.getpid ()))) ~ops:replay_ops (Gen.make w ctx.seed)
  in
  let oc = open_out (Filename.concat ctx.out (Printf.sprintf "trace-%s.jsonl" (Gen.name w))) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Span.to_jsonl oc rp.Replay.spans);
  per_layer ~base ~traced ~log:(Serve.read_access_log log) rp

let print_result (r : Summary.result) =
  Printf.printf "== %s  (%s; %d attempted, %d failed%s)\n" r.workload
    (String.concat ", " (List.map (fun (op, n) -> Printf.sprintf "%s n=%d" op n) r.samples))
    r.attempted r.failed
    (if r.valid then "" else "; INVALID: fewer samples than required");
  List.iter (fun x -> Printf.printf "  %-28s %14.4f %s\n" x.Summary.name x.value x.unit_) r.metrics;
  List.iter (fun x -> Printf.printf "  %-28s %14.4f %s   (report only)\n" x.Summary.name x.value x.unit_) r.extra;
  print_endline (Summary.result_line r)

let commit () =
  let read f = try String.trim (Summary.read_file f) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head ->
      let ref_ = String.sub head 5 (String.length head - 5) in
      let direct = read (Filename.concat ".git" ref_) in
      if direct <> "" then direct
      else
        (* a packed ref: "<sha> <ref>" lines *)
        String.split_on_char '\n' (read ".git/packed-refs")
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with [ sha; r ] when r = ref_ -> Some sha | _ -> None)
        |> Option.value ~default:"unknown"
  | sha -> sha

let write_summary ctx ~mode results =
  let t = Unix.gmtime (Unix.time ()) in
  let stamp =
    Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour
      t.Unix.tm_min t.Unix.tm_sec
  in
  let rec path k =
    let p = Filename.concat ctx.out (Printf.sprintf "%s-seed%d%s.json" stamp ctx.seed (if k = 0 then "" else Printf.sprintf "-%d" k)) in
    if Sys.file_exists p then path (k + 1) else p
  in
  let env =
    Xsb.Json.
      [
        ("commit", String (commit ()));
        ("ocaml", String Sys.ocaml_version);
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("mode", String mode);
        ("seed", Int ctx.seed);
        ("warmup_s", Float (warmup_s ctx.seconds));
        ("window_s", Float ctx.seconds);
        ("slice_s", Float slice_s);
        ("speed_nominal_us", Float (Speed.nominal_s *. 1e6));
        ("setup_min", Int (if mode = "run" then setup_min else 1));
        ("setup_budget_s", Float (if mode = "run" then setup_budget_s else 0.0));
        ("replay_ops", Int replay_ops);
      ]
  in
  let p = path 0 in
  let oc = open_out p in
  output_string oc (Summary.to_string (Summary.summary_json ~env results));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n" p

(* each workload's block ends with its one-line result, so the last line
   of output is always a result *)
let measure_all ctx ~trace workloads =
  let results =
    List.map
      (fun w ->
        let r = if trace then trace_workload ctx w else run_workload ctx w in
        print_result r;
        r)
      workloads
  in
  write_summary ctx ~mode:(if trace then "trace" else "run") results;
  results

(* bench-smoke: one second per workload in both modes; every metric
   BENCHMARK.json names is printed (but p99, which one second cannot
   support) and finite, and nothing failed *)
let smoke ctx =
  let ctx = { ctx with seconds = 1.0 } in
  let e2e, layers = Summary.specs_of_benchmark (Summary.read_file "BENCHMARK.json") in
  let ok = ref true in
  let check (r : Summary.result) specs =
    let want = List.filter (fun n -> n <> "p99_ms") (List.map fst specs) in
    let have = List.map (fun x -> x.Summary.name) r.metrics in
    if List.sort compare want <> List.sort compare have then begin
      ok := false;
      Printf.printf "smoke: %s prints %s, BENCHMARK.json names %s\n" r.workload (String.concat "," have)
        (String.concat "," want)
    end;
    List.iter
      (fun x ->
        if not (Float.is_finite x.Summary.value) then begin
          ok := false;
          Printf.printf "smoke: %s reports %s = %f\n" r.workload x.Summary.name x.value
        end)
      r.metrics;
    if r.failed > 0 || not r.correct then begin
      ok := false;
      Printf.printf "smoke: %s failed %d of %d ops (correct=%b)\n" r.workload r.failed r.attempted r.correct
    end
  in
  List.iter (fun r -> check r e2e) (measure_all ctx ~trace:false Gen.workloads);
  List.iter (fun r -> check r layers) (measure_all ctx ~trace:true Gen.workloads);
  if not !ok then exit 1

let usage () =
  prerr_endline
    "usage: xsb_bench [run|trace|smoke] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--server PATH] [--out DIR]\n\
    \       xsb_bench compare A.json... -- B.json...";
  exit 2

let compare_cmd files =
  let rec split acc = function "--" :: rest -> (List.rev acc, rest) | f :: rest -> split (f :: acc) rest | [] -> usage () in
  let a, b = split [] files in
  if a = [] || b = [] then usage ();
  let e2e, layers = Summary.specs_of_benchmark (Summary.read_file "BENCHMARK.json") in
  let specs = e2e @ layers in
  Format.printf "%-17s %-24s %-6s %-30s %-30s %-6s %s@." "workload" "metric" "unit" "A median [q1, q3]" "B median [q1, q3]"
    "bound" "verdict";
  List.iter (Summary.pp_row Format.std_formatter) (Summary.compare_sets specs a b)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an interrupted run still reaps its servers (at_exit in Serve) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args = match args with ("run" | "trace" | "smoke" | "compare") as c :: rest -> (Some c, rest) | _ -> (None, args) in
  if mode = Some "compare" then compare_cmd args
  else begin
    let workload = ref None and seed = ref 1 and seconds = ref default_seconds and trace = ref (mode = Some "trace") in
    let bin = ref "_build/default/bin/xsb_serverd.exe" and out = ref "bench/serve/out" in
    let rec parse = function
      | "--workload" :: w :: rest ->
          (match Gen.of_name w with Some w -> workload := Some w | None -> usage ());
          parse rest
      | "--seed" :: n :: rest ->
          seed := int_of_string n;
          parse rest
      | "--seconds" :: s :: rest ->
          seconds := float_of_string s;
          parse rest
      | "--trace" :: t :: rest ->
          trace := t = "1";
          parse rest
      | "--server" :: p :: rest ->
          bin := p;
          parse rest
      | "--out" :: d :: rest ->
          out := d;
          parse rest
      | [] -> ()
      | _ -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    if not (Sys.file_exists !bin) then begin
      Printf.eprintf "xsb_bench: no server binary at %s (build bin/xsb_serverd.exe first)\n" !bin;
      exit 1
    end;
    Serve.mkdir_p !out;
    let seconds = if !trace then Float.min !seconds trace_window else !seconds in
    let ctx = { bin = !bin; out = !out; seed = !seed; seconds } in
    match mode with
    | Some "smoke" -> smoke ctx
    | _ ->
        let workloads = match !workload with Some w -> [ w ] | None -> Gen.workloads in
        ignore (measure_all ctx ~trace:!trace workloads)
  end
