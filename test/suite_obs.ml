(* The observability layer (ISSUE PR 3): JSON codec, trace-event sinks,
   the profiling registry, the introspection builtins, and the
   stats-reset-on-abolish regression. *)

open Xsb

let t = Alcotest.test_case
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let session ?scheduling text =
  let s = Session.create ?scheduling () in
  Session.consult s text;
  s

let tc_cycle =
  ":- table path/2.\n\
   path(X,Y) :- edge(X,Y).\n\
   path(X,Y) :- path(X,Z), edge(Z,Y).\n\
   edge(1,2). edge(2,3). edge(3,4). edge(4,1)."

let win_chain =
  ":- table win/1.\n\
   win(X) :- move(X,Y), tnot(win(Y)).\n\
   move(1,2). move(2,3). move(3,4). move(4,5)."

let event ?(seq = 1) ?(step = 0) ?(subgoal = 0) ?(pred = "p/1") ?(call = "p(1)")
    ?(depth = 0) kind =
  { Obs.Event.seq; step; subgoal; pred; call; depth; kind }

(* --- the JSON codec --- *)

let json_cases =
  [
    t "json: roundtrip of a nested value" `Quick (fun () ->
        let v =
          Json.Obj
            [
              ("a", Json.Int 42);
              ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
              ("s", Json.String "he said \"hi\"\n\ttab");
            ]
        in
        match Json.of_string (Json.to_string v) with
        | Ok v' -> check_bool "equal after roundtrip" true (v = v')
        | Error e -> Alcotest.failf "parse error: %s" e);
    t "json: rejects malformed input" `Quick (fun () ->
        check_bool "unterminated" true (Result.is_error (Json.of_string "{\"a\": 1"));
        check_bool "bare word" true (Result.is_error (Json.of_string "nope"));
        check_bool "trailing garbage" true (Result.is_error (Json.of_string "1 2")));
    t "json: accessors" `Quick (fun () ->
        match Json.of_string "{\"n\": 3, \"s\": \"x\"}" with
        | Error e -> Alcotest.failf "parse error: %s" e
        | Ok v ->
            check_bool "member n" true (Json.member "n" v = Some (Json.Int 3));
            check_bool "member missing" true (Json.member "z" v = None);
            check_bool "as_int" true (Option.bind (Json.member "n" v) Json.as_int = Some 3));
  ]

(* --- sinks --- *)

let jsonl_cases =
  [
    t "jsonl sink: parseable, step-monotonic, covers the event taxonomy" `Quick (fun () ->
        let path = Filename.temp_file "xsb_trace" ".jsonl" in
        let oc = open_out path in
        let s = session tc_cycle in
        Session.add_sink s (Obs.Sink.Jsonl oc);
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        Session.clear_sinks s;
        close_out oc;
        let lines = In_channel.with_open_text path In_channel.input_lines in
        Sys.remove path;
        check_bool "non-empty trace" true (List.length lines > 10);
        let events =
          List.map
            (fun line ->
              match Json.of_string line with
              | Error e -> Alcotest.failf "unparseable line %S: %s" line e
              | Ok v -> (
                  match Obs.Event.of_json v with
                  | None -> Alcotest.failf "not an event: %S" line
                  | Some ev ->
                      (* the JSON codec is lossless on events *)
                      check_string "event roundtrips through JSON" line
                        (Json.to_string (Obs.Event.to_json ev));
                      ev))
            lines
        in
        let rec monotonic = function
          | (a : Obs.Event.t) :: (b : Obs.Event.t) :: rest ->
              check_bool "seq strictly increasing" true (b.seq > a.seq);
              check_bool "step non-decreasing" true (b.step >= a.step);
              monotonic (b :: rest)
          | _ -> ()
        in
        monotonic events;
        let has k = List.exists (fun (e : Obs.Event.t) -> e.Obs.Event.kind = k) events in
        check_bool "new_subgoal" true (has Obs.Event.New_subgoal);
        check_bool "call" true (has Obs.Event.Call);
        check_bool "answer" true (has Obs.Event.Answer);
        check_bool "dup_answer" true (has Obs.Event.Dup_answer);
        check_bool "suspend" true (has Obs.Event.Suspend);
        check_bool "resume" true (has Obs.Event.Resume);
        check_bool "scc_complete" true
          (List.exists
             (fun (e : Obs.Event.t) ->
               match e.Obs.Event.kind with Obs.Event.Scc_complete _ -> true | _ -> false)
             events);
        check_bool "complete" true (has Obs.Event.Complete));
    t "ring sink: overwrites oldest once full" `Quick (fun () ->
        let ring = Obs.Ring.create 4 in
        check_int "capacity" 4 (Obs.Ring.capacity ring);
        for i = 1 to 10 do
          Obs.Ring.add ring (event ~seq:i Obs.Event.Answer)
        done;
        check_int "length saturates" 4 (Obs.Ring.length ring);
        check_bool "keeps the 4 newest, oldest first" true
          (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.seq) (Obs.Ring.to_list ring)
          = [ 7; 8; 9; 10 ]);
        Obs.Ring.clear ring;
        check_int "clear empties" 0 (Obs.Ring.length ring);
        check_bool "to_list after clear" true (Obs.Ring.to_list ring = []));
    t "pretty sink: stable one-line rendering" `Quick (fun () ->
        check_string "plain event"
          "[    42 @7 sg3 d1] answer        win/1      win(2)"
          (Fmt.str "%a" Obs.Event.pp
             (event ~seq:42 ~step:7 ~subgoal:3 ~depth:1 ~pred:"win/1" ~call:"win(2)"
                Obs.Event.Answer));
        check_string "scc event carries its size"
          "[     1 @0 sg2 d0] scc_complete  p/1        p(1) (scc size 3)"
          (Fmt.str "%a" Obs.Event.pp
             (event ~subgoal:2 ~call:"p(1)" (Obs.Event.Scc_complete 3))));
    t "recorder: inactive without sinks, custom sinks stack" `Quick (fun () ->
        let r = Obs.Recorder.create () in
        check_bool "inactive" false (Obs.Recorder.active r);
        let a = ref 0 and b = ref 0 in
        Obs.Recorder.attach r (Obs.Sink.Custom (fun _ -> incr a));
        Obs.Recorder.attach r (Obs.Sink.Custom (fun _ -> incr b));
        check_bool "active" true (Obs.Recorder.active r);
        Obs.Recorder.emit r ~step:0 ~subgoal:0 ~pred:"p/0" ~call:"p" ~depth:0
          Obs.Event.Call;
        check_int "first sink saw it" 1 !a;
        check_int "second sink saw it" 1 !b;
        Obs.Recorder.clear r;
        check_bool "inactive after clear" false (Obs.Recorder.active r));
  ]

(* --- introspection builtins --- *)

let builtin_cases =
  [
    t "statistics/1 binds the counter list" `Quick (fun () ->
        let s = session tc_cycle in
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        match Session.query s "statistics(S)" with
        | [ { Engine.bindings = [ ("S", term) ]; _ } ] ->
            let text = Term.to_string term in
            let contains key =
              let n = String.length key in
              let rec go i =
                i + n <= String.length text && (String.sub text i n = key || go (i + 1))
              in
              go 0
            in
            List.iter
              (fun key -> check_bool (key ^ " reported") true (contains key))
              [ "subgoals"; "answers"; "suspensions"; "tables" ]
        | _ -> Alcotest.fail "statistics/1 must yield exactly one solution");
    t "table_dump lists completed tables and their answers" `Quick (fun () ->
        let s = session tc_cycle in
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        let dump = Fmt.str "%a" (fun ppf () -> Session.pp_table_dump ppf s) () in
        let contains needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length dump && (String.sub dump i n = needle || go (i + 1))
          in
          go 0
        in
        check_bool "mentions the subgoal" true (contains "path(1");
        check_bool "marked complete" true (contains "complete");
        check_bool "an answer is listed" true (contains "path(1,3)"));
    t "get_calls/get_returns enumerate table space" `Quick (fun () ->
        let s = session tc_cycle in
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        check_int "one user table" 1 (Session.count s "get_calls(_)");
        check_int "one answer tuple per return" 4 (Session.count s "get_returns(_,_)");
        check_bool "returns unify with the call" true
          (Session.succeeds s "get_returns(path(1,_), path(1,3))"));
  ]

(* --- the profiling registry --- *)

(* one series of the profile, read back from a scrape of the registry *)
let series m name pred =
  match Metrics.Exposition.validate (Metrics.to_text m) with
  | Error why -> Alcotest.failf "invalid exposition: %s" why
  | Ok samples -> (
      match Metrics.Exposition.find ~labels:[ ("pred", pred) ] samples name with
      | Some v -> v
      | None -> Alcotest.failf "no profile series %s{pred=%S}" name pred)

let count m name pred = int_of_float (series m name pred)

(* satellite (f): golden --profile rows for the fixed win/not-win chain,
   identical under Local and Batched scheduling (completion work is
   strategy-independent on this program; only answer draining differs) *)
let profile_golden scheduling () =
  let s = session ~scheduling win_chain in
  Session.set_profiling s true;
  check_bool "win(1) fails" true (Session.query s "win(1)" = []);
  let m = Session.metrics s in
  check_int "win/1 calls" 1 (count m "xsb_pred_calls_total" "win/1");
  check_int "win/1 subgoals (one per position)" 5 (count m "xsb_pred_subgoals_total" "win/1");
  check_int "win/1 answers (positions 2 and 4)" 2 (count m "xsb_pred_answers_total" "win/1");
  check_int "win/1 duplicate answers" 0 (count m "xsb_pred_dup_answers_total" "win/1");
  check_int "win/1 peak table size" 1 (count m "xsb_pred_peak_answers" "win/1");
  check_int "move/2 calls" 5 (count m "xsb_pred_calls_total" "move/2");
  check_int "move/2 answers (never tabled)" 0 (count m "xsb_pred_answers_total" "move/2");
  check_bool "win/1 some task time sampled" true (series m "xsb_pred_task_seconds" "win/1" >= 0.);
  (* the report ranks win/1 (all the answers and time) above move/2 *)
  match Obs.Profile.rows m with
  | { Obs.Profile.r_pred = "win/1"; _ } :: rest ->
      check_bool "move/2 also reported" true
        (List.exists (fun r -> r.Obs.Profile.r_pred = "move/2") rest)
  | rows ->
      Alcotest.failf "expected win/1 first, got [%s]"
        (String.concat "; " (List.map (fun r -> r.Obs.Profile.r_pred) rows))

let profile_cases =
  [
    t "profile goldens on the win chain (local)" `Quick
      (profile_golden Machine.Local);
    t "profile goldens on the win chain (batched)" `Quick
      (profile_golden Machine.Batched);
    t "dup ratio and the JSON report" `Quick (fun () ->
        let s = session tc_cycle in
        Session.set_profiling s true;
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        let m = Session.metrics s in
        let dups = count m "xsb_pred_dup_answers_total" "path/2" in
        check_bool "cycle rederives answers" true (dups > 0);
        let ratio =
          float_of_int dups /. float_of_int (dups + count m "xsb_pred_answers_total" "path/2")
        in
        check_bool "ratio in (0,1)" true (ratio > 0. && ratio < 1.);
        match Obs.Profile.report_to_json m with
        | Json.List (Json.Obj fields :: _ as rows) ->
            check_bool "rows carry predicate names" true
              (match List.assoc_opt "pred" fields with
              | Some (Json.String _) -> true
              | _ -> false);
            check_bool "path/2's row carries its dup ratio" true
              (List.mem
                 (Json.Obj
                    [
                      ("pred", Json.String "path/2");
                      ("calls", Json.Int (count m "xsb_pred_calls_total" "path/2"));
                      ("subgoals", Json.Int (count m "xsb_pred_subgoals_total" "path/2"));
                      ("answers", Json.Int (count m "xsb_pred_answers_total" "path/2"));
                      ("dup_answers", Json.Int dups);
                      ("dup_ratio", Json.Float ratio);
                      ("suspensions", Json.Int (count m "xsb_pred_suspensions_total" "path/2"));
                      ("resolutions", Json.Int (count m "xsb_pred_resolutions_total" "path/2"));
                      ("peak_table", Json.Int (count m "xsb_pred_peak_answers" "path/2"));
                      ("time_ms", Json.Float (1000.0 *. series m "xsb_pred_task_seconds" "path/2"));
                    ])
                 rows)
        | _ -> Alcotest.fail "report_to_json must be a list of objects");
    t "set_profiling off stops sampling; re-enabling resets" `Quick (fun () ->
        let s = session tc_cycle in
        Session.set_profiling s true;
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        Session.set_profiling s false;
        let before = Engine.call_count (Session.engine s) "path" 2 in
        check_int "cached table" 4 (Session.count s "path(1,X)");
        check_int "no sampling while disabled" before
          (Engine.call_count (Session.engine s) "path" 2);
        Session.set_profiling s true;
        check_int "re-enabling resets the registry" 0
          (Engine.call_count (Session.engine s) "path" 2));
  ]

(* --- satellite (b): counters survive nothing — abolish resets stats --- *)

let reset_cases =
  [
    t "abolish_all_tables resets the evaluation counters" `Quick (fun () ->
        (* a mutual-recursion SCC of size 2, so a stale maximum would be
           clearly visible after the reset (the PR 3 bugfix satellite:
           st_max_scc_size and friends must not leak across abolishes) *)
        let s =
          session
            ":- table p/1, q/1.\n\
             p(X) :- edge(X,Y), q(Y).\n\
             q(X) :- edge(X,Y), p(Y).\n\
             q(2).\n\
             edge(1,2). edge(2,1)."
        in
        check_bool "p(1) holds" true (Session.succeeds s "p(1)");
        let st = Session.stats s in
        check_bool "counters populated" true
          (st.Machine.st_subgoals > 2 && st.Machine.st_max_scc_size >= 2
         && st.Machine.st_answers >= 2);
        check_bool "abolish succeeds" true (Session.succeeds s "abolish_all_tables");
        (* [stats] is the live record: the reset must be visible through
           the same reference. The abolish query itself runs after the
           reset, so only its own $query footprint may remain. *)
        check_bool "subgoals reset" true (st.Machine.st_subgoals <= 1);
        check_bool "answers reset" true (st.Machine.st_answers <= 1);
        check_bool "max-scc reset" true (st.Machine.st_max_scc_size <= 1);
        check_bool "sccs-completed reset" true (st.Machine.st_sccs_completed <= 1);
        check_bool "suspensions reset" true (st.Machine.st_suspensions = 0);
        (* and the engine still works after the reset *)
        check_bool "p(1) still holds" true (Session.succeeds s "p(1)");
        check_bool "fresh counters" true (st.Machine.st_max_scc_size >= 2));
    t "Engine.reset_tables resets the counters too" `Quick (fun () ->
        let s = session tc_cycle in
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        let st = Session.stats s in
        check_bool "counters populated" true (st.Machine.st_answers > 0);
        Engine.reset_tables (Session.engine s);
        check_int "answers reset" 0 st.Machine.st_answers;
        check_int "suspensions reset" 0 st.Machine.st_suspensions;
        check_int "resolutions reset" 0 st.Machine.st_resolutions);
  ]

(* --- private query tables stay out of the profile --- *)

let series_count m =
  match Metrics.Exposition.validate (Metrics.to_text m) with
  | Ok samples -> List.length samples
  | Error why -> Alcotest.failf "invalid exposition: %s" why

let query_table_cases =
  [
    t "a profiled session's series do not grow with its queries" `Quick (fun () ->
        let s = session tc_cycle in
        Session.set_profiling s true;
        check_int "4 answers" 4 (Session.count s "path(1,X)");
        let m = Session.metrics s in
        let before = series_count m in
        for i = 1 to 200 do
          ignore (Session.count s (Printf.sprintf "path(%d,X)" (1 + (i mod 4))))
        done;
        check_int "no series for the 200 $query tables" before (series_count m);
        check_bool "the queries were counted" true
          (Engine.call_count (Session.engine s) "path" 2 > 200));
  ]

let suite =
  json_cases @ jsonl_cases @ builtin_cases @ profile_cases @ reset_cases @ query_table_cases
