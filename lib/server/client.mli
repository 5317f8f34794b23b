(** A blocking client for the query service — the library behind
    [bin/xsb_client.ml] and the server tests. One {!t} is one TCP
    connection, i.e. one private server-side session (or, on a durable
    server, one connection to its shared session). *)

type t

val connect : ?host:string -> int -> t
(** [connect ?host port]; [host] is a name or a numeric address
    ({!Xsb_repl.Net.inet_addr}). Raises [Unix.Unix_error] on refusal,
    {!Xsb_repl.Net.Unknown_host} if [host] does not resolve. *)

val close : t -> unit

type reply_error = { code : Protocol.err_code; message : string }

val ping : t -> (string, reply_error) result
(** ["pong"] on success. *)

val consult : ?fmt:Protocol.consult_fmt -> t -> string -> (string, reply_error) result
(** Load program text (or, with [~fmt], bulk facts / an object-file
    image) into the connection's session. *)

val assert_ : t -> string -> (string, reply_error) result
(** Assert one clause, e.g. ["edge(1,2)"] or ["p(X) :- q(X)"]. *)

val statistics : t -> (string, reply_error) result
(** The engine's [statistics/0] report for this session. *)

val abolish : ?pred:string -> t -> (string, reply_error) result
(** With no [?pred]: abolish the session's completed tables. With
    [~pred:"name/arity"]: remove that predicate (clauses, table/index
    registrations) from the database. *)

val sync : t -> (string, reply_error) result
(** Ask a durable server ([--data-dir]) to fsync its journal now;
    [BAD_REQUEST] from an in-memory server. *)

val metrics : t -> (string, reply_error) result
(** The server's Prometheus text exposition: request counters and
    latency histograms, table-space byte gauges, journal durability
    metrics. *)

val promote : t -> (string, reply_error) result
(** Promote a replication standby to a writable primary (failover);
    [BAD_REQUEST] from a server that is not a replica. *)

(** {1 Failover discovery (the ROLE op)} *)

type role = Primary_role | Standby_role

type role_info = {
  role : role;
  epoch : int64;  (** failover fencing epoch of the node's timeline *)
  generation : int64;  (** journal position: durable (primary) or applied (standby) *)
  offset : int;
  repl_port : int option;  (** the replication feed, when serving one *)
  priority : int;  (** [--promote-priority]; lower promotes first *)
  read_only : bool;
  peers : (string * int) list;  (** the node's [--peers] topology list *)
  fatal : string option;
      (** standby only: why its applier parked (e.g. fenced after a
          split brain) *)
}

val role : t -> (role_info, reply_error) result
(** Ask the node who it is. Never refused for being read-only — fenced
    and deposed nodes answer too, which is how a client finds its way
    to the new primary. *)

val role_payload : t -> (string, reply_error) result
(** The raw ROLE payload ("key: value" lines) — what [xsb_client --role]
    prints, greppable by scripts. *)

val role_info_of_payload : string -> role_info
(** Parse a raw ROLE payload ("key: value" lines); unknown keys are
    ignored. *)

val role_payload_of_info : role_info -> string
(** The ROLE payload a node sends: the inverse of
    {!role_info_of_payload}. Only a standby has a [fatal] line. *)

val probe_role : ?host:string -> int -> role_info option
(** Connect, ask {!role}, close — [None] on any failure (refused,
    unreachable, malformed). Safe against dead nodes by construction. *)

val discover_primary : (string * int) list -> ((string * int) * role_info) option
(** Probe every endpoint and return the writable primary with the
    highest epoch, with the endpoint it answered on — the node a
    failed-over client should re-dial. [None] when no writable primary
    answered (election still in progress: retry). *)

type query_outcome =
  | Rows of { rows : string list; truncated : bool }
      (** rendered solutions, in answer-arrival order; [truncated] when
          the row limit stopped the evaluation *)
  | Query_timeout of string list
      (** deadline or step budget exceeded; carries the rows streamed
          before the [TIMEOUT] terminator *)
  | Query_error of reply_error

val query : ?limit:int -> ?timeout_ms:int -> ?max_steps:int -> t -> string -> query_outcome
(** Run a goal, e.g. ["path(1,X)"]. Raises {!Protocol.Bad_frame} /
    [End_of_file] only on a broken connection. *)

(** {1 Bounded retry}

    Exponential backoff with full jitter: before attempt [k+1] the
    client sleeps a uniform-random duration in
    [\[0, min (max_backoff_ms, backoff_ms * 2{^k})\]] milliseconds. *)

type retry = {
  retries : int;  (** additional attempts after the first *)
  backoff_ms : float;
  max_backoff_ms : float;
  max_elapsed_ms : float;
      (** total-elapsed budget across attempts, measured on [clock]: a
          backoff never sleeps past it, and once it is spent the next
          retryable failure is final. 0 = no cap *)
  rand : float -> float;
      (** jitter source: [rand hi] is uniform in [\[0, hi)]; in
          production a generator seeded from the OS, so processes do
          not back off in lockstep *)
  sleep : float -> unit;  (** seconds; injectable for deterministic tests *)
  clock : unit -> float;
      (** monotonic seconds ({!Xsb.Mclock.now} in production — an NTP
          step must not distort the elapsed budget); injectable *)
}

val default_retry : retry
(** 3 retries, 100 ms base, 5 s cap, no elapsed cap, real randomness,
    sleeping and the monotonic clock. *)

val retry :
  ?retries:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?max_elapsed_ms:float ->
  ?rand:(float -> float) ->
  ?sleep:(float -> unit) ->
  ?clock:(unit -> float) ->
  unit ->
  retry
(** {!default_retry} with overrides. *)

val with_retry : retry -> (unit -> [ `Ok of 'a | `Retry of 'e ]) -> ('a, 'e) result
(** Run an attempt thunk until it returns [`Ok], backing off after each
    [`Retry]; [Error] carries the last retryable failure once the
    budget is spent. *)

(** {1 Requests through one retry path}

    A {!conn} holds the current connection and dials it on demand;
    {!call} runs one request on it under a {!retry} budget. The budget
    is per request and counts every connect, rediscovery and re-send.
    The rules, by outcome of an attempt:

    - a refused connect ([ECONNREFUSED]) is retried; with endpoints,
      any failed connect is, each attempt rediscovering first;
    - [OVERLOADED] is retried for {!idempotent} ops only (the wait line was
      full, the request never ran);
    - with endpoints, [READONLY] drops the connection, rediscovers the
      primary and re-sends that request (the node refused it before it
      ran); without, it is final;
    - a connection lost mid-request ([End_of_file], {!Protocol.Bad_frame},
      [Sys_error], [Unix_error]) is a {!Failed} error, never an escaped
      exception. With endpoints an idempotent op rediscovers and is
      re-sent; a mutation is never re-sent, and its error says its
      outcome is unknown.

    A request that was acknowledged is never sent again.

    Rediscovery is meant for durable, replicated topologies, where every
    connection to a node shares its one session: a redial to another
    node (or a new connection to the same in-memory server) starts a
    fresh session, without the consults of the old one. *)

type error =
  | Refused of reply_error  (** the server answered [ERR] *)
  | Failed of string
      (** no connection could be made, or it was lost mid-request *)

type conn

val conn : ?endpoints:(string * int) list -> ?host:string -> int -> conn
(** [conn ?endpoints ?host port] dials nothing yet. Without endpoints
    every connect goes to [host:port]. With endpoints every connect
    first probes their ROLE ({!discover_primary}) and dials the
    writable primary on the highest epoch, falling back to the last
    target ([host:port] at first) while none answers writable — so an
    endpoint list naming one standby waits out its promotion. *)

val close_conn : conn -> unit
(** Close the current connection, if any; the next {!call} redials. *)

val idempotent : Protocol.op -> bool
(** Whether an op is safe to re-send
    ([PING]/[QUERY]/[STATISTICS]/[METRICS]/[ROLE]); {!call} retries
    [OVERLOADED] and a lost connection for these only. *)

val call :
  ?policy:retry -> conn -> Protocol.op -> (t -> ('a, reply_error) result) -> ('a, error) result
(** [call ?policy c op f] runs the request [f] (of kind [op]) on [c]'s
    connection, under the rules above and [policy] ({!default_retry}).
    E.g. [call c Protocol.Ping ping]. *)

val parse_hostport : string -> (string * int, string) result
(** ["HOST:PORT"], or a message naming what is wrong with it. *)
