(* The query-service daemon: bind, serve, and drain cleanly on
   SIGINT/SIGTERM. Prints "listening on <port>" once ready so scripts
   (and the CI smoke job) can start it on port 0 and scrape the port. *)

let stop_requested = Atomic.make false

let main host port workers queue timeout_ms max_steps max_answers preload scheduling access_log
    profile data_dir sync compact_bytes keep_generations repl_port replica_of sync_standbys
    sync_timeout_ms auto_promote promote_priority failover_timeout_ms peers slow_ms slow_log =
  let open_log = function
    | None -> None
    | Some "-" -> Some stdout
    | Some path -> Some (open_out path)
  in
  let log_channel = open_log access_log in
  let slow_channel = open_log slow_log in
  let cfg =
    {
      Xsb_server.Server.host;
      port;
      workers;
      queue_capacity = queue;
      default_timeout_ms = timeout_ms;
      default_max_steps = max_steps;
      max_answers;
      preload;
      scheduling;
      access_log = log_channel;
      profile;
      data_dir;
      sync;
      compact_bytes;
      keep_generations;
      repl_port;
      replica_of;
      sync_standbys;
      sync_timeout_ms;
      auto_promote;
      promote_priority;
      failover_timeout_ms;
      peers;
      slow_ms;
      slow_log = slow_channel;
    }
  in
  match Xsb_server.Server.start cfg with
  | exception Unix.Unix_error (err, _, _) ->
      Fmt.epr "xsb_serverd: cannot bind %s:%d: %s@." host port (Unix.error_message err);
      2
  | exception Xsb_repl.Net.Unknown_host _ ->
      Fmt.epr "xsb_serverd: cannot bind %s:%d: unknown host@." host port;
      2
  | exception Xsb.Journal.Recovery_error { file; offset; records_ok; message } ->
      Fmt.epr
        "xsb_serverd: cannot recover %s at offset %d (%d records recoverable): %s@.(salvage the \
         valid prefix by moving the data directory aside, or repair it offline)@."
        file offset records_ok message;
      2
  | exception Xsb.Journal.Io_error { site; message } ->
      Fmt.epr "xsb_serverd: cannot open journal (%s): %s@." site message;
      2
  | exception Invalid_argument msg ->
      Fmt.epr "xsb_serverd: %s@." msg;
      2
  | exception Xsb_server.Server.Preload_error { path; message } ->
      Fmt.epr "xsb_serverd: cannot load %s: %s@." path message;
      2
  | server ->
      (match Xsb_server.Server.journal server with
      | Some j ->
          Fmt.pr "recovered %d records in %.1f ms (generation %Ld)@."
            (Xsb.Journal.stats j).Xsb.Journal.recovered_records
            (Xsb.Journal.stats j).Xsb.Journal.recovery_ms (Xsb.Journal.generation j)
      | None -> ());
      let request_stop _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Fmt.pr "listening on %d@." (Xsb_server.Server.port server);
      (match Xsb_server.Server.repl_listen_port server with
      | Some p -> Fmt.pr "replication listening on %d@." p
      | None -> ());
      (match replica_of with
      | Some (h, p) -> Fmt.pr "replicating from %s:%d (read-only until PROMOTE)@." h p
      | None -> ());
      while not (Atomic.get stop_requested) do
        Thread.delay 0.05
      done;
      Fmt.pr "draining...@.";
      Xsb_server.Server.stop server;
      if profile then Fmt.pr "%a" (fun ppf () -> Xsb_server.Server.pp_profile ppf server) ();
      Fmt.pr "served %d requests@." (Xsb_server.Server.requests_served server);
      (match log_channel with
      | Some oc when oc != stdout -> close_out oc
      | _ -> ());
      (match slow_channel with
      | Some oc when oc != stdout -> close_out oc
      | _ -> ());
      0

open Cmdliner

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address: a numeric IPv4 address or a host name.")

let port =
  Arg.(
    value & opt int 4994
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port; 0 picks an ephemeral one.")

let workers =
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Requests executing at once.")

let queue =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Requests that may wait for one of the $(b,--workers) slots, admitted in arrival \
           order; a request arriving when this many already wait is answered OVERLOADED \
           instead of being buffered.")

let timeout_ms =
  Arg.(
    value & opt int 5000
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Default per-request wall-clock deadline (0 = none); requests past it get TIMEOUT.")

let max_steps =
  Arg.(
    value & opt int 10_000_000
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Default per-request resolution-step budget (0 = none).")

let max_answers =
  Arg.(
    value & opt int 0
    & info [ "max-answers" ] ~docv:"N" ~doc:"Hard per-query row cap (0 = none).")

let preload =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE" ~doc:"Program files consulted into every fresh connection session.")

let scheduling =
  Arg.(
    value
    & opt (some (enum [ ("local", Xsb.Machine.Local); ("batched", Xsb.Machine.Batched) ])) None
    & info [ "scheduling" ] ~docv:"STRATEGY" ~doc:"SLG answer scheduling: local or batched.")

let access_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:"Write one JSON object per request to \\$(docv) ('-' for stdout).")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile every session's engine per predicate (calls, subgoals, answers, \
           duplicates, suspensions, resolutions, time, peak table) into the metrics registry, \
           so METRICS carries the xsb_pred_* series; at shutdown print those rows and the \
           per-op request counts and wall time.")

let sync_conv =
  let parse s =
    match Xsb.Journal.sync_policy_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "bad sync policy %S (never|interval[=N]|always|group[=MS[,BATCH]])" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Xsb.Journal.sync_policy_to_string p))

let data_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Durable mode: journal every mutation under \\$(docv) and recover the database from \
           it on startup. All connections then share one persistent session.")

let sync =
  Arg.(
    value
    & opt sync_conv Xsb.Journal.Always
    & info [ "sync" ] ~docv:"POLICY"
        ~doc:
          "Journal fsync policy: never, interval[=N] (every N records), always, or \
           group[=MS[,BATCH]] (group commit: one fsync per batch).")

let compact_bytes =
  Arg.(
    value
    & opt int (8 * 1024 * 1024)
    & info [ "compact-bytes" ] ~docv:"BYTES"
        ~doc:"Snapshot + truncate the journal when it grows past \\$(docv) (0 disables).")

let keep_generations =
  Arg.(
    value & opt int 0
    & info [ "keep-generations" ] ~docv:"N"
        ~doc:
          "Archive the last \\$(docv) rotated journal generations (and their snapshots) instead \
           of deleting them on compaction — the raw material for point-in-time recovery and for \
           standbys following across a rotation. Forced to at least 1 when replication is on.")

let hostport_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Xsb_server.Client.parse_hostport s)),
      fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p )

let repl_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "repl-port" ] ~docv:"PORT"
        ~doc:
          "Serve the replication feed (journal shipping) on \\$(docv) so standbys can follow \
           this server; 0 picks an ephemeral port (printed at startup). Requires --data-dir.")

let replica_of =
  Arg.(
    value
    & opt (some hostport_conv) None
    & info [ "replica-of" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a read-only standby of the primary whose replication feed listens at \
           \\$(docv): mirror and apply its journal continuously, refuse mutations with \
           READONLY, and accept PROMOTE for failover. Requires --data-dir.")

let sync_standbys =
  Arg.(
    value
    & opt ~vopt:1 int 0
    & info [ "sync-standby" ] ~docv:"K"
        ~doc:
          "Semi-synchronous replication: a mutation's ack additionally waits until \\$(docv) \
           standbys have acknowledged the committed journal position (default 1 when the flag \
           is given bare; 0 = asynchronous). On timeout the commit degrades to async instead of \
           freezing writers. Requires --repl-port.")

let sync_timeout_ms =
  Arg.(
    value & opt int 1000
    & info [ "sync-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-commit budget for the semi-synchronous standby wait; past it the write is acked \
           anyway and the xsb_repl_sync_degraded gauge flips until standbys catch up.")

let auto_promote =
  Arg.(
    value & flag
    & info [ "auto-promote" ]
        ~doc:
          "Standby only: promote automatically after --failover-timeout-ms of primary silence — \
           unless a probed peer (--peers) is a live primary on a current epoch (then retarget \
           the replication stream at it) or a better-positioned standby exists (then defer).")

let promote_priority =
  Arg.(
    value & opt int 0
    & info [ "promote-priority" ] ~docv:"N"
        ~doc:
          "Failover tie-break: lower numbers promote first; each step also adds half a second \
           of detection grace so replicas don't race each other to promote.")

let failover_timeout_ms =
  Arg.(
    value & opt int 3000
    & info [ "failover-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Primary-silence threshold (no heartbeat or data) before the failover monitor acts \
           (with --auto-promote).")

let peers =
  Arg.(
    value
    & opt (list hostport_conv) []
    & info [ "peers" ] ~docv:"HOST:PORT,..."
        ~doc:
          "Client endpoints of the other nodes in the replication topology. The failover \
           monitor probes them (ROLE) before promoting, and clients using --endpoints learn \
           them for re-discovery.")

let slow_ms =
  Arg.(
    value & opt int 0
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Slow-query threshold: requests taking at least \\$(docv) milliseconds are written to \
           the slow-query log (0 disables).")

let slow_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-log" ] ~docv:"FILE"
        ~doc:
          "Write one JSON object per slow request to \\$(docv) ('-' for stdout): goal, wall \
           time, and the per-request engine-stats delta, correlated to the access log by \
           request id.")

let cmd =
  let doc = "the XSB-repro deductive-database query server" in
  Cmd.v
    (Cmd.info "xsb_serverd" ~doc)
    Term.(
      const main $ host $ port $ workers $ queue $ timeout_ms $ max_steps $ max_answers $ preload
      $ scheduling $ access_log $ profile $ data_dir $ sync $ compact_bytes $ keep_generations
      $ repl_port $ replica_of $ sync_standbys $ sync_timeout_ms $ auto_promote
      $ promote_priority $ failover_timeout_ms $ peers $ slow_ms $ slow_log)

let () = exit (Cmd.eval' cmd)
