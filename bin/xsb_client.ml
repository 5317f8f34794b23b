(* The command-line client: a sequence of operations in command-line
   order (consults first, then asserts, then goals), each one request
   through Client.call's retry rules, with exit codes scripts can branch
   on: 0 ok, 1 error (a lost connection included), 2 timeout,
   3 overloaded, 4 readonly (mutation refused by a standby or a
   degraded primary). *)

let exit_error = 1
let exit_timeout = 2
let exit_overloaded = 3
let exit_readonly = 4

let code_exit = function
  | Xsb_server.Protocol.Timeout -> exit_timeout
  | Xsb_server.Protocol.Overloaded -> exit_overloaded
  | Xsb_server.Protocol.Readonly -> exit_readonly
  | _ -> exit_error

let main host port endpoints consults fast_loads goals asserts limit timeout_ms max_steps stats
    abolish ping sync promote role metrics retries backoff_ms max_elapsed_ms =
  let open Xsb_server in
  (* a peer that hangs up must be a "connection lost" error, not a
     SIGPIPE death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let policy =
    Client.retry ~retries ~backoff_ms:(float_of_int backoff_ms)
      ~max_elapsed_ms:(float_of_int max_elapsed_ms) ()
  in
  let conn = Client.conn ~endpoints ~host port in
  let worst = ref 0 in
  let note code = worst := max !worst code in
  (* Each operation is one request through Client.call. A refusal is
     reported and the script goes on; a connection that cannot be made
     or was lost ends it. *)
  let exception Stop in
  let call what op f =
    match Client.call ~policy conn op f with
    | Ok v -> Some v
    | Error (Client.Refused { code; message }) ->
        Fmt.epr "%s: %s: %s@." what (Protocol.err_code_name code) message;
        note (code_exit code);
        None
    | Error (Client.Failed why) ->
        Fmt.epr "xsb_client: %s: %s@." what why;
        note exit_error;
        raise Stop
  in
  let simple what op f =
    Option.iter (fun payload -> if payload <> "" then Fmt.pr "%s@." payload) (call what op f)
  in
  let consult what fmt path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    simple (what ^ " " ^ path) Protocol.Consult (fun c -> Client.consult ~fmt c text)
  in
  let query goal =
    let run c =
      match Client.query ?limit ?timeout_ms ?max_steps c goal with
      | Client.Query_error e -> Error e
      | outcome -> Ok outcome
    in
    match call ("query " ^ goal) Protocol.Query run with
    | Some (Client.Rows { rows; truncated }) ->
        List.iter (fun row -> Fmt.pr "%s@." row) rows;
        Fmt.pr "%s (%d solution%s%s)@."
          (if rows = [] then "no" else "yes")
          (List.length rows)
          (if List.length rows = 1 then "" else "s")
          (if truncated then ", truncated" else "")
    | Some (Client.Query_timeout rows) ->
        List.iter (fun row -> Fmt.pr "%s@." row) rows;
        Fmt.epr "timeout after %d answer%s@." (List.length rows)
          (if List.length rows = 1 then "" else "s");
        note exit_timeout
    | Some (Client.Query_error _) | None -> ()
  in
  (try
     if promote then simple "promote" Protocol.Promote Client.promote;
     if role then simple "role" Protocol.Role Client.role_payload;
     if ping then simple "ping" Protocol.Ping Client.ping;
     List.iter (consult "consult" Protocol.Text) consults;
     List.iter (consult "fast-load" Protocol.Fast) fast_loads;
     List.iter
       (fun clause ->
         simple ("assert " ^ clause) Protocol.Assert (fun c -> Client.assert_ c clause))
       asserts;
     List.iter query goals;
     if abolish then simple "abolish" Protocol.Abolish (fun c -> Client.abolish c);
     if sync then simple "sync" Protocol.Sync Client.sync;
     if stats then simple "statistics" Protocol.Statistics Client.statistics;
     if metrics then
       Option.iter
         (fun text ->
           (* reject a malformed exposition here, so scripts (and the
              CI smoke job) can trust a zero exit *)
           Fmt.pr "%s" text;
           match Xsb.Metrics.Exposition.validate text with
           | Ok _ -> ()
           | Error why ->
               Fmt.epr "metrics: invalid exposition: %s@." why;
               note exit_error)
         (call "metrics" Protocol.Metrics Client.metrics)
   with Stop -> ());
  Client.close_conn conn;
  !worst

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address: a numeric IPv4 address or a host name.")

let port = Arg.(value & opt int 4994 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let hostport_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Xsb_server.Client.parse_hostport s)),
      fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p )

let endpoints =
  Arg.(
    value
    & opt (list hostport_conv) []
    & info [ "endpoints" ] ~docv:"HOST:PORT,..."
        ~doc:
          "The replication topology's client endpoints. Before each connect the client probes \
           each one's ROLE and dials the writable primary on the highest epoch (else the last \
           target, --host/--port at first). A request refused READONLY is re-sent to the \
           rediscovered primary, and an idempotent one whose connection died is re-sent too, \
           within --retries and --max-elapsed-ms; a lost mutation is never re-sent. Naming \
           just the node itself waits out its promotion.")

let role =
  Arg.(
    value & flag
    & info [ "role" ]
        ~doc:
          "Print the node's ROLE payload (role, epoch, journal position, repl_port, priority, \
           peers, and a standby's fatal fencing status) — failover discovery for scripts.")

let consults =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Program files to consult remotely.")

let fast_loads =
  Arg.(
    value & opt_all file []
    & info [ "fast-load" ] ~docv:"FILE" ~doc:"Fact files for the formatted-read bulk loader.")

let goals =
  Arg.(value & opt_all string [] & info [ "e"; "eval" ] ~docv:"GOAL" ~doc:"Goal to evaluate.")

let asserts =
  Arg.(value & opt_all string [] & info [ "assert" ] ~docv:"CLAUSE" ~doc:"Clause to assert.")

let limit =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Stop after N answers.")

let timeout_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-query wall-clock deadline.")

let max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N" ~doc:"Per-query resolution-step budget.")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the session's engine statistics.")

let abolish =
  Arg.(value & flag & info [ "abolish" ] ~doc:"Abolish the session's tables after the goals.")

let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Ping the server first.")

let sync =
  Arg.(
    value & flag
    & info [ "sync" ] ~doc:"Ask a durable server to fsync its journal after the goals.")

let promote =
  Arg.(
    value & flag
    & info [ "promote" ]
        ~doc:
          "Promote a replication standby to a writable primary (failover); runs before any \
           other operation so the same invocation can then mutate.")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry the connect (ECONNREFUSED) and idempotent requests (OVERLOADED) up to \\$(docv) \
           times with exponential backoff and jitter.")

let backoff_ms =
  Arg.(
    value & opt int 100
    & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Base backoff before the first retry.")

let max_elapsed_ms =
  Arg.(
    value & opt int 0
    & info [ "max-elapsed-ms" ] ~docv:"MS"
        ~doc:
          "Total retry budget across attempts, measured on the monotonic clock; once spent, the \
           next retryable failure is final (0 = no cap).")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the server's Prometheus text exposition (request histograms, table-space \
           bytes, journal durability), validating its shape first.")

let cmd =
  let doc = "client for the XSB-repro query server" in
  Cmd.v
    (Cmd.info "xsb_client" ~doc)
    Term.(
      const main $ host $ port $ endpoints $ consults $ fast_loads $ goals $ asserts $ limit
      $ timeout_ms $ max_steps $ stats $ abolish $ ping $ sync $ promote $ role $ metrics
      $ retries $ backoff_ms $ max_elapsed_ms)

let () = exit (Cmd.eval' cmd)
