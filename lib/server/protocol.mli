(** The wire protocol of the query service: length-prefixed,
    line-oriented frames over a byte stream (paper §4 positions XSB as a
    data *server*, not just a REPL; this is the server's contract).

    Every frame is one ASCII header line terminated by ['\n'], followed
    by exactly the number of raw payload bytes the header announces —
    so payloads can hold arbitrary program text (or binary object-file
    images) without quoting, and a reader never scans for a terminator
    inside data.

    Requests: [XSB1 <OP> <len>[ <key>=<val>]...\n<payload>] with ops
    [PING], [CONSULT], [ASSERT], [QUERY], [STATISTICS], [ABOLISH],
    [SYNC], [METRICS], [PROMOTE], [ROLE] and optional keys [fmt]
    (consult format), [limit], [timeout_ms], [max_steps].

    Replies: [OK <len>\n<payload>], a stream of [ANSWER <len>\n<payload>]
    frames closed by [DONE <count> <more01>\n], or a typed
    [ERR <CODE> <len>\n<payload>]. *)

exception Bad_frame of string
(** A malformed frame (bad header, implausible length, truncated
    payload). The connection cannot be resynchronized afterwards. *)

val max_payload : int
(** Hard cap on a frame payload (16 MiB); longer announcements are
    rejected as {!Bad_frame} before any allocation. *)

type consult_fmt =
  | Text  (** full program text through the general reader *)
  | Fast  (** ground facts through the formatted-read bulk loader *)
  | Obj  (** a binary object-file image (paper §4.6) *)

type op =
  | Ping
  | Consult
  | Assert
  | Query
  | Statistics
  | Abolish  (** empty payload: reset tables; ["name/arity"]: remove a predicate *)
  | Sync  (** fsync the durable journal now (needs [--data-dir]) *)
  | Metrics
      (** Prometheus text exposition of server, engine and journal
          metrics (empty payload) *)
  | Promote
      (** promote a replication standby to a writable primary (empty
          payload); [BAD_REQUEST] on a non-replica *)
  | Role
      (** failover discovery (empty payload): one [key: value] line per
          row — [role] (primary|standby), [epoch], [generation],
          [offset], [repl_port], [priority], [read_only], [peers]
          (comma-separated [host:port] list) and, on a standby,
          [fatal]. Never refused: clients use it to find the writable
          primary after a failover *)

type request = {
  op : op;
  fmt : consult_fmt;  (** [Consult] only; [Text] otherwise *)
  payload : string;
  limit : int option;  (** [Query]: stop after this many answers *)
  timeout_ms : int option;  (** [Query]: per-request wall-clock deadline *)
  max_steps : int option;  (** [Query]: per-request resolution-step budget *)
}

val request :
  ?fmt:consult_fmt ->
  ?limit:int ->
  ?timeout_ms:int ->
  ?max_steps:int ->
  op ->
  string ->
  request

type err_code =
  | Bad_request  (** malformed frame or argument; the connection closes *)
  | Parse_error  (** the payload failed to parse / load *)
  | Exec_error  (** the engine raised during evaluation *)
  | Timeout  (** deadline or step budget exceeded (after partial answers) *)
  | Overloaded  (** the request queue is full — retry later *)
  | Shutting_down  (** the server is draining and accepts no new work *)
  | Readonly
      (** the server refuses mutations and serves reads only: it is a
          replication standby, or the durable journal's write path
          failed *)

val err_code_name : err_code -> string
val err_code_of_name : string -> err_code option

type reply =
  | Ok_ of string
  | Answer of string
  | Done of { count : int; more : bool }
      (** closes an answer stream; [more] when a row limit truncated it *)
  | Err of err_code * string

val op_name : op -> string

val write_request : out_channel -> request -> unit
(** Write and flush one request frame. *)

val read_request : in_channel -> request
(** Raises {!Bad_frame} on malformed input, [End_of_file] on a cleanly
    closed peer. *)

val add_reply : Buffer.t -> reply -> unit
(** Append one reply frame's bytes to a buffer. The server renders every
    frame of a request's reply into one buffer and writes it once. *)

val add_answer : Buffer.t -> Buffer.t -> unit
(** [add_answer b row] appends an [ANSWER] frame whose payload is the
    contents of [row]: the bytes of [add_reply b (Answer (Buffer.contents row))]
    without the intermediate string. *)

val write_reply : out_channel -> reply -> unit
(** Write and flush one reply frame. *)

val read_reply : in_channel -> reply
