(** The concurrent query service: a TCP server speaking {!Protocol}
    with an admission gate (a cap on executing requests and a bounded
    wait line: backpressure), per-request deadlines, per-connection
    {!Xsb.Session} isolation, and a JSONL access log.

    Architecture (DESIGN.md §8): one {!Xsb_repl.Net.listen}er; one
    handler thread per connection that reads a frame, runs the request itself
    and writes its reply (so a connection's requests execute in order
    against its private session). Before it runs a request the handler
    passes the gate: at most [workers] requests execute at once, and at
    most [queue_capacity] more wait, admitted in arrival order — a
    request that finds the line full is answered [OVERLOADED]
    immediately, never buffered without bound. Deadlines are enforced
    twice: a wall-clock check polled inside the engine and a
    resolution-step budget ({!Xsb.Engine.run_bounded}), so a runaway
    derivation returns [TIMEOUT] instead of holding its slot. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** requests executing at once *)
  queue_capacity : int;  (** requests waiting (not yet executing) at most *)
  default_timeout_ms : int;  (** per-request wall deadline; 0 = none *)
  default_max_steps : int;  (** per-request step budget; 0 = none *)
  max_answers : int;  (** hard per-query row cap; 0 = none *)
  preload : string list;  (** program files consulted into every fresh session *)
  scheduling : Xsb.Machine.scheduling option;
  access_log : out_channel option;
      (** one JSON object per request: ts, id, conn, op, pred, answers,
          steps, wall_us, outcome *)
  profile : bool;
      (** profile every session's engine (the shared durable one, or each
          connection's) into the server's {!registry}: [METRICS] then
          carries the [xsb_pred_*] series, and {!pp_profile} renders them *)
  data_dir : string option;
      (** durable mode: every connection shares ONE session whose
          mutations are journaled here and recovered on restart.
          Requests are serialized against it. [None] (the default)
          keeps the per-connection in-memory sessions. *)
  sync : Xsb.Journal.sync_policy;  (** journal fsync policy (durable mode) *)
  compact_bytes : int;  (** journal auto-compaction threshold; 0 disables *)
  keep_generations : int;
      (** archive this many rotated journal generations (plus their
          snapshots) on compaction, for point-in-time recovery and for
          standbys following across a rotation; forced to at least 1
          when replication is configured; 0 = delete rotated files *)
  repl_port : int option;
      (** serve the replication feed (journal shipping) on this port;
          0 picks an ephemeral one (see {!repl_listen_port}); requires
          [data_dir] *)
  replica_of : (string * int) option;
      (** run as a read-only standby of this primary's replication
          endpoint: mirror + apply its journal continuously, refuse
          mutations with [READONLY], accept [PROMOTE]; requires
          [data_dir] *)
  sync_standbys : int;
      (** semi-synchronous commit: a mutation's ack additionally waits
          for this many standby acknowledgements (on top of the local
          fsync barrier); 0 = asynchronous replication. On timeout the
          write degrades to async ([xsb_repl_sync_degraded] flips)
          rather than freezing writers *)
  sync_timeout_ms : int;  (** semi-sync wait budget per commit (default 1000) *)
  auto_promote : bool;
      (** standby only: promote automatically after
          [failover_timeout_ms] of primary silence, unless a probed
          peer is a live primary (then retarget the stream at it) or a
          better-positioned standby exists (then defer to it) *)
  promote_priority : int;
      (** failover tie-break: lower numbers promote first; each step
          also adds 0.5 s of detection grace so replicas don't race *)
  failover_timeout_ms : int;
      (** primary-silence threshold before the failover monitor acts
          (default 3000) *)
  peers : (string * int) list;
      (** client endpoints ([host:port]) of the other nodes in the
          topology — probed via ROLE during failover, and served back
          to clients for [--endpoints] discovery *)
  slow_ms : int;  (** slow-query threshold in milliseconds; 0 disables *)
  slow_log : out_channel option;
      (** one JSON object per request slower than [slow_ms]: ts, id
          (correlates with the access log), conn, op, goal, outcome,
          wall_us, and the per-request engine-stats delta (steps,
          subgoals, engine answers, subsumption hits) *)
}

val default_config : config
(** Loopback, port 0, 4 executing, 64 waiting, 5 s / 10 M step budgets,
    no preload, no log, no profile, slow-query log off. *)

type t

exception Preload_error of { path : string; message : string }
(** A preload file could not be read or consulted: [path] names it,
    [message] says why (the syntax error and its position, say). *)

val start : config -> t
(** Load the preload files in order into one session (a file may use
    an operator an earlier one declares), bring up the replication
    roles, and last start accepting. [host] is a name or a numeric
    address ({!Xsb_repl.Net.inet_addr}). Raises [Unix.Unix_error] if
    the address is unavailable, {!Xsb_repl.Net.Unknown_host} if [host]
    does not resolve, and {!Preload_error} for the first preload file
    that is unreadable or malformed. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

val stop : t -> unit
(** Graceful shutdown: refuse new requests with [SHUTTING_DOWN], stop
    accepting, drain every waiting and executing request, then close
    every connection and join every thread. Idempotent; blocks until
    the drain completes. *)

val requests_served : t -> int
(** Total requests executed or refused so far: [xsb_requests_total]. *)

val journal : t -> Xsb.Journal.t option
(** The durable journal, when running with [data_dir]. *)

val read_only : t -> string option
(** Why the server is refusing mutations (a replication standby, or a
    journal write failed), or [None] while writes are healthy. *)

val repl_listen_port : t -> int option
(** The bound replication-feed port (useful with [repl_port = Some 0]),
    when this server is serving standbys. *)

val replica_status : t -> Xsb_repl.Repl.Standby.status option
(** Live standby telemetry (connection, generation, applied frontier,
    lag), when running with [replica_of] — [None] once promoted. *)

val epoch : t -> int64 option
(** The failover fencing epoch: the standby's live (adopted) epoch, or
    the journal's on a primary; [None] without [data_dir]. *)

val registry : t -> Xsb.Metrics.t
(** The server's persistent metrics registry: [xsb_requests_total] (one
    increment per access-log line), [xsb_requests_by_outcome_total],
    per-op [xsb_request_duration_seconds] histograms, and the
    [xsb_in_flight_requests] / [xsb_queue_depth] / [xsb_connections]
    liveness gauges, and with [profile] the engines' per-predicate
    [xsb_pred_*] series. The METRICS wire op renders this registry plus
    a fresh engine/journal snapshot as one Prometheus text exposition.
    [Xsb.Metrics.set_enabled (registry t) false] turns every record path
    into a boolean read (the control arm of an overhead measurement). *)

val monotonic : (unit -> float) ref
(** The clock used for latency measurement and deadlines —
    {!Xsb.Mclock.now} by default, a ref so tests can inject a fake.
    Wall-clock time is used only for log timestamps. *)

val pp_profile : Format.formatter -> t -> unit
(** The [--profile] table, read back from a scrape of {!registry}: the
    per-predicate profile rows (see {!Xsb.Obs.Profile.pp_report}), then
    per op the request count and wall time of
    [xsb_request_duration_seconds{op}], hottest first. *)
