(** TCP for every server and client in the tree: host names, the dial,
    the listener, and the bounded header-line reader. The query server
    and the replication feed each run one {!listener}; the client and a
    standby dial with {!connect}. *)

exception Unknown_host of string
(** The name did not resolve to an IPv4 address. *)

val inet_addr : string -> Unix.inet_addr
(** A numeric address is taken as is, as [Unix.inet_addr_of_string]
    would; any other non-empty name is looked up ([getaddrinfo],
    IPv4 only: the sockets are [PF_INET]). Raises {!Unknown_host}. *)

val connect : string -> int -> Unix.file_descr
(** [connect host port] dials with [TCP_NODELAY]. If the connect fails
    the socket is closed and the [Unix_error] (or {!Unknown_host})
    raised. *)

type listener

val listen :
  ?accept_errors:Xsb.Metrics.t * string ->
  host:string ->
  port:int ->
  (int -> Unix.file_descr -> unit) ->
  listener
(** Bind (port 0 picks an ephemeral one), listen, and accept on a
    thread of its own. Each connection gets [TCP_NODELAY], an id
    counting from 1 in accept order, and a thread running
    [handle id fd]. The connection enters the registry under the lock
    its thread is created under, so it is counted before [handle] can
    return; when [handle] returns or raises, the connection leaves the
    registry and [fd] is closed. A failed bind raises [Unix_error]
    and leaves no descriptor open.

    An [accept] that fails for want of a resource ([EMFILE], [ENFILE],
    [ENOBUFS], [ENOMEM], ...) pauses 50 ms and accepts again; with
    [~accept_errors:(registry, name)] it also bumps
    [xsb_accept_errors_total{listener=name}] in [registry]. The pending
    connection waits in the backlog. The failpoint site ["net.accept"],
    once armed, makes the next [accept] fail with [EMFILE]. *)

val port : listener -> int
(** The bound port. *)

val connections : listener -> int
(** Connections accepted whose handler has not finished. *)

val stop_accepting : listener -> unit
(** Accept no more connections and join the acceptor; connections
    already accepted keep running. Idempotent. *)

val close : listener -> Unix.shutdown_command -> unit
(** {!stop_accepting}, shut down every open connection's socket with the
    command (waking a handler blocked in a read), join every handler,
    and close the listening socket. Call it once. *)

val read_line : max:int -> in_channel -> string option
(** The next line without its ['\n'], or [None] once it runs past [max]
    bytes: [input_line] would buffer an unbounded line from a hostile
    peer. Raises [End_of_file]. *)

val words : string -> string list
(** The words of a header line, split on runs of spaces. *)
