(** Host names for every TCP bind and connect: the server's listener,
    the client, and both ends of the replication feed. *)

exception Unknown_host of string
(** The name did not resolve to an IPv4 address. *)

val inet_addr : string -> Unix.inet_addr
(** A numeric address is taken as is, as [Unix.inet_addr_of_string]
    would; any other non-empty name is looked up ([getaddrinfo],
    IPv4 only: the sockets are [PF_INET]). Raises {!Unknown_host}. *)
