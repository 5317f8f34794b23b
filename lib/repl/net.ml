exception Unknown_host of string

let inet_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let found =
        (* "" would be getaddrinfo's "no node": the loopback address *)
        if host = "" then []
        else
          Unix.getaddrinfo host ""
            [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      in
      match found with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ -> raise (Unknown_host host))

let nodelay fd = try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let connect host port =
  let addr = Unix.ADDR_INET (inet_addr host, port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  nodelay fd;
  fd

(* --- the listener --- *)

type listener = {
  sock : Unix.file_descr;
  port : int;
  wake_rd : Unix.file_descr;  (* self-pipe waking the acceptor out of [select] *)
  wake_wr : Unix.file_descr;
  m : Mutex.t;
  (* the open connections, by id; a connection's fd is closed under [m],
     so [close] never shuts down an fd number already reused *)
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  mutable accepted : int;
  mutable acceptor : Thread.t option;  (* [None] once [stop_accepting] ran *)
  accept_errors : Xsb.Metrics.Counter.t option;
}

let port l = l.port
let connections l = Mutex.protect l.m (fun () -> Hashtbl.length l.conns)

let serve l handle id fd =
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect l.m (fun () ->
          Hashtbl.remove l.conns id;
          try Unix.close fd with Unix.Unix_error _ -> ()))
    (fun () -> handle id fd)

(* the pause after an accept error other than a lost race: long enough
   that a process out of descriptors does not spin, short enough that
   connections queued in the backlog wait little once one is freed *)
let accept_backoff = 0.05

let accept sock =
  match Xsb.Failpoint.check "net.accept" with
  | Some _ -> raise (Unix.Unix_error (Unix.EMFILE, "accept", ""))
  | None -> Unix.accept ~cloexec:true sock

let rec accept_loop l handle =
  match Unix.select [ l.sock; l.wake_rd ] [] [] (-1.0) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop l handle
  | ready, _, _ when List.mem l.wake_rd ready -> ()
  | _ ->
      (match accept l.sock with
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> (
          (* EMFILE, ENFILE, ENOBUFS, ENOMEM: the process or the kernel is
             short of a resource for now. The connection stays in the
             backlog; wait (or wake for [stop_accepting]) and try again *)
          Option.iter Xsb.Metrics.Counter.incr l.accept_errors;
          try ignore (Unix.select [ l.wake_rd ] [] [] accept_backoff)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | fd, _ ->
          nodelay fd;
          (* registered under the lock its thread is created under: once
             the acceptor is joined, the registry holds every connection
             to drain *)
          Mutex.protect l.m (fun () ->
              l.accepted <- l.accepted + 1;
              let id = l.accepted in
              Hashtbl.replace l.conns id (fd, Thread.create (serve l handle id) fd)));
      accept_loop l handle

let listen ?accept_errors ~host ~port handle =
  let addr = Unix.ADDR_INET (inet_addr host, port) in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock addr;
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port in
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  let l =
    {
      sock;
      port;
      wake_rd;
      wake_wr;
      m = Mutex.create ();
      conns = Hashtbl.create 16;
      accepted = 0;
      acceptor = None;
      accept_errors =
        Option.map
          (fun (reg, name) ->
            Xsb.Metrics.counter reg ~labels:[ ("listener", name) ]
              ~help:
                "Accept calls that failed for want of a resource (EMFILE, ENFILE, ENOBUFS, \
                 ENOMEM)."
              "xsb_accept_errors_total")
          accept_errors;
    }
  in
  l.acceptor <- Some (Thread.create (fun () -> accept_loop l handle) ());
  l

let stop_accepting l =
  match l.acceptor with
  | None -> ()
  | Some th ->
      l.acceptor <- None;
      (* the byte is never read, so every later select wakes too *)
      (try ignore (Unix.write_substring l.wake_wr "x" 0 1) with Unix.Unix_error _ -> ());
      Thread.join th

let close l how =
  stop_accepting l;
  let threads =
    Mutex.protect l.m (fun () ->
        Hashtbl.fold
          (fun _ (fd, th) acc ->
            (try Unix.shutdown fd how with Unix.Unix_error _ -> ());
            th :: acc)
          l.conns [])
  in
  List.iter Thread.join threads;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ l.sock; l.wake_rd; l.wake_wr ]

(* --- header lines --- *)

let read_line ~max ic =
  let buf = Buffer.create 64 in
  let rec go n =
    if n > max then None
    else
      match input_char ic with
      | '\n' -> Some (Buffer.contents buf)
      | c ->
          Buffer.add_char buf c;
          go (n + 1)
  in
  go 0

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")
