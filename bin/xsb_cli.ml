(* The command-line front end: consult files, run goals, or enter a
   read-eval-print loop — the usual way XSB is invoked (paper §4.2). *)

(* a goal exceeded --max-steps / --timeout; reported as a clean timeout
   error with exit code 2, never as an escaping exception *)
exception Goal_timeout of { answers : int; reason : string }

(* bounds from --max-steps / --timeout: SLG goals run through
   Engine.run_bounded (the server shares this code path) *)
type bounds = { b_max_steps : int option; b_timeout : float option }

let bounded bounds = bounds.b_max_steps <> None || bounds.b_timeout <> None

let run_goal_bounded session bounds text =
  let engine = Xsb.Session.engine session in
  let stop =
    match bounds.b_timeout with
    | None -> None
    | Some secs ->
        let deadline = Unix.gettimeofday () +. secs in
        Some (fun () -> Unix.gettimeofday () >= deadline)
  in
  match Xsb.Engine.run_bounded_string ?max_steps:bounds.b_max_steps ?stop engine text with
  | `Answers [] -> Fmt.pr "no@."
  | `Answers solutions ->
      List.iter (fun s -> Fmt.pr "%a@." (Xsb.Session.pp_solution session) s) solutions;
      Fmt.pr "yes (%d solution%s)@." (List.length solutions)
        (if List.length solutions = 1 then "" else "s")
  | `Truncated solutions | `Timeout solutions ->
      List.iter (fun s -> Fmt.pr "%a@." (Xsb.Session.pp_solution session) s) solutions;
      let reason =
        match (stop, bounds.b_max_steps) with
        | Some hit, _ when hit () -> "wall-clock timeout"
        | _ -> "step budget exhausted"
      in
      raise (Goal_timeout { answers = List.length solutions; reason })

let run_goal session engine_kind wfs bounds text =
  match engine_kind with
  | `Slg when (not wfs) && bounded bounds -> run_goal_bounded session bounds text
  | `Slg ->
      if wfs then begin
        match Xsb.Session.wfs_query session text with
        | [] -> Fmt.pr "no@."
        | solutions ->
            List.iter
              (fun (s : Xsb.Residual.solution) ->
                let parts =
                  List.map
                    (fun (n, v) -> Fmt.str "%s = %a" n (Xsb.Pretty.pp ()) v)
                    s.Xsb.Residual.bindings
                in
                Fmt.pr "%s%s@."
                  (if parts = [] then "true" else String.concat ", " parts)
                  (match s.Xsb.Residual.truth with
                  | Xsb.Ground.Undefined -> " (undefined)"
                  | _ -> ""))
              solutions
      end
      else Xsb.Session.show session text
  | `Wam ->
      let program = Xsb.Wam.of_database (Xsb.Session.db session) in
      let machine = Xsb.Wam.create program in
      let goal = Xsb.Parser.term_of_string ~ops:(Xsb.Database.ops (Xsb.Session.db session)) text in
      let vars = List.map (fun v -> Xsb.Term.Var v) (Xsb.Term.vars goal) in
      let n =
        Xsb.Wam.run machine goal ~on_solution:(fun values ->
            List.iteri
              (fun i v ->
                ignore (List.nth_opt vars i);
                Fmt.pr "%s%a" (if i = 0 then "" else ", ") (Xsb.Pretty.pp ()) v)
              values;
            if values <> [] then Fmt.pr "@.";
            true)
      in
      Fmt.pr "%s (%d solution%s)@." (if n > 0 then "yes" else "no") n (if n = 1 then "" else "s")
  | `Bottomup ->
      let db = Xsb.Session.db session in
      let goal = Xsb.Parser.term_of_string ~ops:(Xsb.Database.ops db) text in
      let program = Xsb.Datalog.of_database db in
      let answers =
        match Xsb.Magic.answers program goal with
        | answers -> answers
        | exception Xsb.Magic.Not_applicable _ ->
            let st = Xsb.Bottomup.run program in
            Xsb.Bottomup.answers st goal
      in
      List.iter (fun c -> Fmt.pr "%a@." Xsb.Canon.pp c) answers;
      Fmt.pr "%s (%d solution%s)@."
        (if answers <> [] then "yes" else "no")
        (List.length answers)
        (if List.length answers = 1 then "" else "s")

let print_stats session =
  let stats = Xsb.Engine.stats (Xsb.Session.engine session) in
  Fmt.pr
    "subgoals=%d answers=%d (dups %d) suspensions=%d resumptions=%d resolutions=%d neg-susp=%d \
     nested-evals=%d completions=%d sccs-completed=%d early-completions=%d max-scc=%d \
     subsumed-calls=%d subsumption-hits=%d answers-filtered=%d steps=%d@."
    stats.Xsb.Machine.st_subgoals stats.Xsb.Machine.st_answers stats.Xsb.Machine.st_dup_answers
    stats.Xsb.Machine.st_suspensions stats.Xsb.Machine.st_resumptions
    stats.Xsb.Machine.st_resolutions stats.Xsb.Machine.st_neg_suspensions
    stats.Xsb.Machine.st_nested_evals stats.Xsb.Machine.st_completions
    stats.Xsb.Machine.st_sccs_completed stats.Xsb.Machine.st_early_completions
    stats.Xsb.Machine.st_max_scc_size stats.Xsb.Machine.st_subsumed_calls
    stats.Xsb.Machine.st_subsumption_hits stats.Xsb.Machine.st_answers_filtered
    stats.Xsb.Machine.st_steps

let repl session engine_kind wfs bounds =
  Fmt.pr "XSB-repro (OCaml). Type goals ending with '.', or 'halt.' to quit.@.";
  let rec loop () =
    Fmt.pr "?- @?";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line = "" then loop ()
        else if line = "halt." || line = "halt" then ()
        else begin
          let text =
            if String.length line > 0 && line.[String.length line - 1] = '.' then
              String.sub line 0 (String.length line - 1)
            else line
          in
          (try
             if String.length text > 2 && String.sub text 0 2 = ":-" then
               Xsb.Session.consult session (text ^ ".")
             else run_goal session engine_kind wfs bounds text
           with
          | Goal_timeout { answers; reason } ->
              Fmt.pr "timeout: %s (%d answer%s so far)@." reason answers
                (if answers = 1 then "" else "s")
          | e -> Fmt.pr "error: %s@." (Printexc.to_string e));
          loop ()
        end
  in
  loop ()

let main files goals wfs engine_name scheduling interactive stats compile trace trace_out
    profile metrics_dump max_steps timeout data_dir sync_policy =
  let mode = if wfs then Some Xsb.Machine.Well_founded else None in
  let bounds = { b_max_steps = max_steps; b_timeout = timeout } in
  let engine_kind =
    match engine_name with
    | "slg" -> `Slg
    | "wam" -> `Wam
    | "bottomup" -> `Bottomup
    | other ->
        Fmt.epr "xsb: unknown engine %S (use slg, wam or bottomup)@." other;
        exit 2
  in
  (* only the SLG non-WFS path runs goals through Engine.run_bounded,
     where the wall-clock deadline is polled; anywhere else --timeout
     would be silently ignored, so refuse the combination instead *)
  if timeout <> None && (wfs || engine_kind <> `Slg) then begin
    Fmt.epr "xsb: --timeout only applies to the default SLG engine without --wfs%s@."
      (if wfs then " (use --max-steps to bound a --wfs evaluation)" else "");
    exit 2
  end;
  let session = Xsb.Session.create ?mode ?scheduling () in
  (* --trace[=pretty|jsonl] (or the XSB_TRACE env default), optionally
     redirected with --trace-out FILE *)
  let trace_cleanup = ref (fun () -> ()) in
  (match trace with
  | None -> ()
  | Some spec ->
      let out =
        match trace_out with
        | None -> stderr
        | Some path ->
            let oc = open_out path in
            trace_cleanup := (fun () -> close_out oc);
            oc
      in
      (match Xsb.Session.sink_of_spec ~out spec with
      | Some (Xsb.Obs.Sink.Pretty ppf as sink) ->
          let prev = !trace_cleanup in
          trace_cleanup := (fun () -> Format.pp_print_flush ppf (); prev ());
          Xsb.Session.add_sink session sink
      | Some sink -> Xsb.Session.add_sink session sink
      | None ->
          Fmt.epr "xsb: unknown trace sink %S (use pretty, jsonl or null)@." spec;
          !trace_cleanup ();
          exit 2));
  if profile then Xsb.Session.set_profiling session true;
  let journal = ref None in
  let finish code =
    (match !journal with Some j -> ( try Xsb.Journal.close j with _ -> ()) | None -> ());
    if profile then Fmt.pr "%a" (fun ppf () -> Xsb.Session.pp_profile ppf session) ();
    if stats then print_stats session;
    (if metrics_dump then begin
       (* the same exposition the server's METRICS op serves, built from
          this session's engine (and journal, when durable) *)
       let reg = Xsb.Metrics.create () in
       Xsb.Engine.publish_metrics (Xsb.Session.engine session) reg;
       (match !journal with Some j -> Xsb.Journal.publish_metrics j reg | None -> ());
       print_string (Xsb.Metrics.to_text reg)
     end);
    !trace_cleanup ();
    code
  in
  (* engine-wide bound while consulting, so a runaway :- directive also
     times out cleanly; per-goal budgets take over below *)
  (match max_steps with
  | Some n -> Xsb.Engine.set_max_steps (Xsb.Session.engine session) n
  | None -> ());
  try
    List.iter (fun f -> Xsb.Session.consult_file session f) files;
    (* the durable store opens AFTER the consults: files are program
       text, not journaled state, and recovery replays on top of them *)
    (match data_dir with
    | None -> ()
    | Some dir ->
        let j =
          Xsb.Journal.open_
            { (Xsb.Journal.default_config ~dir) with Xsb.Journal.sync = sync_policy }
            (Xsb.Session.db session)
        in
        Xsb.Journal.attach j;
        journal := Some j);
    if max_steps <> None && engine_kind = `Slg && not wfs then
      Xsb.Engine.set_max_steps (Xsb.Session.engine session) 0;
    if compile then begin
      let program = Xsb.Wam.of_database (Xsb.Session.db session) in
      Xsb.Wam.disassemble program Format.std_formatter;
      Format.print_flush ()
    end;
    List.iter (fun g -> run_goal session engine_kind wfs bounds g) goals;
    if
      interactive
      || (goals = [] && (not stats) && (not profile) && (not metrics_dump) && not compile)
    then
      repl session engine_kind wfs bounds;
    finish 0
  with
  | Goal_timeout { answers; reason } ->
      Fmt.epr "timeout: %s (%d answer%s so far)@." reason answers
        (if answers = 1 then "" else "s");
      finish 2
  | Xsb.Machine.Step_limit ->
      (* an engine-wide bound hit outside the bounded-goal path (e.g. a
         deferred :- directive): still a clean timeout, not a crash *)
      Fmt.epr "timeout: step budget exhausted@.";
      finish 2
  | Xsb.Journal.Recovery_error { file; offset; records_ok; message } ->
      Fmt.epr "error: cannot recover %s at offset %d (%d records recoverable): %s@." file offset
        records_ok message;
      finish 1
  | e ->
      Fmt.epr "error: %s@." (Printexc.to_string e);
      finish 1

open Cmdliner

let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Program files to consult.")

let goals =
  Arg.(value & opt_all string [] & info [ "e"; "eval" ] ~docv:"GOAL" ~doc:"Goal to evaluate.")

let wfs =
  Arg.(value & flag & info [ "wfs" ] ~doc:"Evaluate under the well-founded semantics (delaying).")

let engine_name =
  Arg.(value & opt string "slg" & info [ "engine" ] ~docv:"ENGINE" ~doc:"slg | wam | bottomup")

let scheduling =
  Arg.(
    value
    & opt (some (enum [ ("local", Xsb.Machine.Local); ("batched", Xsb.Machine.Batched) ])) None
    & info [ "scheduling" ] ~docv:"STRATEGY"
        ~doc:
          "Answer scheduling strategy for the SLG engine: local (complete an SCC before \
           returning answers outward) or batched (eagerly drain answers to consumers). \
           Defaults to \\$XSB_SCHEDULING or batched.")

let interactive = Arg.(value & flag & info [ "i"; "interactive" ] ~doc:"Enter the REPL.")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics.")

let compile =
  Arg.(value & flag & info [ "compile" ] ~doc:"Print the WAM byte-code listing of the program.")

let trace =
  let env =
    Cmd.Env.info "XSB_TRACE"
      ~doc:"Default trace sink when --trace is not given (pretty, jsonl or null)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "pretty") (some string) None
    & info [ "trace" ] ~env ~docv:"SINK"
        ~doc:
          "Emit typed engine events (new subgoal, answer, suspend/resume, negation \
           wait, SCC completion, drain, abolish). \\$(docv) is pretty (the default), \
           jsonl (one JSON object per line) or null; see --trace-out for the \
           destination.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the trace to \\$(docv) instead of stderr.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile per predicate (calls, answers, duplicate ratio, suspensions, task \
           wall time, peak table size) and print the report, hottest predicate first.")

let metrics_dump =
  Arg.(
    value & flag
    & info [ "metrics-dump" ]
        ~doc:
          "After the goals, print the engine's metrics (evaluation counters, table-space and \
           call-index bytes, per-predicate table bytes; journal durability when --data-dir) in \
           the Prometheus text exposition format.")

let max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Resolution-step budget per goal (and for :- directives while consulting); a goal \
           exceeding it is reported as a timeout with exit code 2.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock deadline per goal; a goal exceeding it is reported as a timeout with \
           exit code 2. Only the default SLG engine without --wfs can enforce it; other \
           combinations are rejected.")

let data_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Durable session: recover the dynamic database journaled under \\$(docv) (on top of \
           the consulted files), then journal every further mutation there.")

let sync_policy =
  let sync_conv =
    let parse s =
      match Xsb.Journal.sync_policy_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "bad sync policy %S (never|interval[=N]|always)" s))
    in
    Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Xsb.Journal.sync_policy_to_string p))
  in
  Arg.(
    value
    & opt sync_conv Xsb.Journal.Always
    & info [ "sync" ] ~docv:"POLICY"
        ~doc:"Journal fsync policy: never, interval[=N] (every N records), or always.")

let cmd =
  let doc = "an in-memory deductive database engine (XSB reproduction)" in
  Cmd.v
    (Cmd.info "xsb" ~doc)
    Term.(
      const main $ files $ goals $ wfs $ engine_name $ scheduling $ interactive $ stats
      $ compile $ trace $ trace_out $ profile $ metrics_dump $ max_steps $ timeout $ data_dir
      $ sync_policy)

let () = exit (Cmd.eval' cmd)
