(* Driving the shipped xsb_serverd from outside: child processes, a
   minimal wire client (kept here, not in lib/server, so the measuring
   instrument does not change when the program does), setup, the seeded
   load, and the join of client timings with the server's access log. *)

let now = Xsb.Mclock.now
let fail fmt = Printf.ksprintf failwith fmt

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- child processes --- *)

type proc = { pid : int; out : Unix.file_descr; pending : Buffer.t; mutable lines : string list }

(* every child still running, killed and reaped at exit whatever path
   the benchmark leaves by *)
let live = ref []

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit reap_all

let spawn bin args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  live := pid :: !live;
  { pid; out = rd; pending = Buffer.create 256; lines = [] }

(* the rest of the first line of the child's stdout that starts with
   [prefix]; earlier lines are dropped *)
let rec await p prefix ~deadline =
  let rec take = function
    | [] -> None
    | l :: rest when String.starts_with ~prefix l ->
        p.lines <- rest;
        Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
    | _ :: rest -> take rest
  in
  match take p.lines with
  | Some v -> v
  | None -> (
      let left = deadline -. now () in
      if left <= 0.0 then fail "timed out waiting for %S from the server" prefix;
      match Unix.select [ p.out ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await p prefix ~deadline
      | [], _, _ -> await p prefix ~deadline
      | _ ->
          let b = Bytes.create 4096 in
          let n = Unix.read p.out b 0 4096 in
          if n = 0 then fail "the server exited before printing %S" prefix;
          Buffer.add_subbytes p.pending b 0 n;
          let text = Buffer.contents p.pending in
          let parts = String.split_on_char '\n' text in
          let complete = List.filteri (fun i _ -> i < List.length parts - 1) parts in
          Buffer.clear p.pending;
          Buffer.add_string p.pending (List.nth parts (List.length parts - 1));
          p.lines <- p.lines @ complete;
          await p prefix ~deadline)

(* SIGTERM (the server drains), SIGKILL if it has not exited in 10 s;
   returns once the child is reaped *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid)
        end
        else begin
          Thread.delay 0.002;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun pid -> pid <> p.pid) !live;
  Unix.close p.out

(* peak resident set (VmHWM) of a live child, in MiB *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      match List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)) with
      | [ _; kb; "kB" ] -> float_of_string kb /. 1024.0
      | _ -> fail "unreadable VmHWM line %S" line
    else find ()
  in
  find ()

(* --- the wire client --- *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable seq : int;  (** requests sent so far: the position in the access log *)
}

type reply = Rows of int | Ok_ of string | Err of string

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; seq = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* one request, all its reply frames; raises End_of_file / Sys_error
   when the connection drops *)
let call c op payload =
  c.seq <- c.seq + 1;
  output_string c.oc (Printf.sprintf "XSB1 %s %d\n" op (String.length payload));
  output_string c.oc payload;
  flush c.oc;
  let payload_of n = really_input_string c.ic (int_of_string n) in
  let rec frames rows =
    match String.split_on_char ' ' (input_line c.ic) with
    | [ "ANSWER"; n ] ->
        ignore (payload_of n);
        frames (rows + 1)
    | [ "DONE"; n; _ ] -> if int_of_string n = rows then Rows rows else Err "DONE count differs from the rows sent"
    | [ "OK"; n ] -> Ok_ (payload_of n)
    | [ "ERR"; code; n ] -> Err (code ^ " " ^ payload_of n)
    | _ -> raise End_of_file
  in
  frames 0

let request c (r : Gen.request) =
  match r with
  | Gen.Query { goal; _ } -> call c "QUERY" goal
  | Gen.Assert { clause; _ } -> call c "ASSERT" clause
  | Gen.Abolish -> call c "ABOLISH" ""

let correct (r : Gen.request) reply =
  match (r, reply) with
  | Gen.Query { expect; _ }, Rows n -> n = expect
  | (Gen.Assert _ | Gen.Abolish), Ok_ _ -> true
  | _ -> false

let ok_exn what = function Ok_ s -> s | Rows _ -> fail "%s: unexpected rows" what | Err e -> fail "%s: %s" what e

(* one METRICS exposition, as a lookup from family name to its summed value *)
let scrape c =
  match Xsb.Metrics.Exposition.validate (ok_exn "METRICS" (call c "METRICS" "")) with
  | Ok samples -> fun name -> Xsb.Metrics.Exposition.sum_family samples name
  | Error e -> fail "bad METRICS exposition: %s" e

(* --- deployments --- *)

type deployment = {
  primary : proc;
  standby : (proc * int) option;  (** with its client port *)
  conns : conn array;
  dir : string;
  facts_acked : int Atomic.t;  (** fact/2 ASSERTs acknowledged *)
  edges_acked : string list ref;  (** edge/2 clauses acknowledged; one writer *)
  setup_failures : int Atomic.t;
}

let startup_s = 30.0

let deploy ~bin ~dir ?access_log (inputs : Gen.inputs) =
  mkdir_p dir;
  let deadline = now () +. startup_s in
  let common = [ "--port"; "0"; "--workers"; "2"; "--timeout-ms"; "0"; "--max-steps"; "0" ] in
  let log = match access_log with Some f -> [ "--access-log"; f ] | None -> [] in
  let durable sub = [ "--data-dir"; Filename.concat dir sub; "--sync"; "group" ] in
  let args =
    match inputs.workload with
    | Gen.Cold_mix -> common @ log
    | Gen.Warm_read | Gen.Read_write -> common @ log @ durable "primary"
    | Gen.Replicated_write -> common @ log @ durable "primary" @ [ "--repl-port"; "0"; "--sync-standby=1" ]
  in
  let primary = spawn bin args in
  let port = int_of_string (await primary "listening on " ~deadline) in
  let standby =
    match inputs.workload with
    | Gen.Replicated_write ->
        let rport = await primary "replication listening on " ~deadline in
        let s = spawn bin (common @ durable "standby" @ [ "--replica-of"; "127.0.0.1:" ^ rport ]) in
        Some (s, int_of_string (await s "listening on " ~deadline))
    | _ -> None
  in
  (* connected in order, so client connection i is server conn i + 1 *)
  let conns = Array.map (fun _ -> connect port) inputs.conns in
  let d =
    { primary; standby; conns; dir; facts_acked = Atomic.make 0; edges_acked = ref []; setup_failures = Atomic.make 0 }
  in
  if standby <> None then
    while scrape conns.(0) "xsb_repl_standbys" < 1.0 do
      if now () > deadline then fail "the standby never connected";
      Thread.delay 0.002
    done;
  (* in-memory sessions are per connection; a durable one is shared *)
  let consulting = if inputs.workload = Gen.Cold_mix then Array.to_list conns else [ conns.(0) ] in
  List.iter (fun c -> ignore (ok_exn "CONSULT" (call c "CONSULT" inputs.program))) consulting;
  let n = Array.length conns in
  let warmers =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            List.iteri
              (fun k r ->
                if k mod n = i && not (correct r (request c r)) then Atomic.incr d.setup_failures)
              inputs.warm)
          ())
      conns
  in
  Array.iter Thread.join warmers;
  d

let teardown d =
  Array.iter close d.conns;
  stop d.primary;
  Option.iter (fun (s, _) -> stop s) d.standby;
  rm_rf d.dir

(* --- load --- *)

type sample = {
  conn : int;
  seq : int;  (** position of the request on its connection *)
  op : string;
  cls : string;  (** query family, or "write" *)
  lat : float;  (** seconds: from sending (closed loop) or from the due time (open loop) *)
  rtt : float;  (** seconds from sending to the last reply frame *)
  late : float;  (** open loop: seconds the send ran behind its due time *)
  ok : bool;
}

let cls_of = function Gen.Query { cls; _ } -> cls | Gen.Assert _ -> "write" | Gen.Abolish -> "abolish"

(* Run every connection's stream for [duration] seconds; closed loops
   issue ops back to back, an open loop on its schedule. Given a
   [reference] meter, connection 0's closed loop runs the speed
   reference after each op (Speed). A dropped connection ends that
   connection's loop with a failed sample. Returns the samples and the
   seconds until the last reply arrived. *)
let run_phase d (inputs : Gen.inputs) ?reference ~duration () =
  let t_start = now () in
  let t_end = t_start +. duration in
  let drive i () =
    let c = d.conns.(i) and gen = inputs.conns.(i) in
    let samples = ref [] in
    let alive = ref true in
    let issue ?due r =
      let t0 = now () in
      let seq = c.seq + 1 in
      let ok =
        match request c r with
        | reply ->
            let ok = correct r reply in
            (match r with
            | Gen.Assert { related = true; clause } when ok -> d.edges_acked := clause :: !(d.edges_acked)
            | Gen.Assert _ when ok -> Atomic.incr d.facts_acked
            | _ -> ());
            ok
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
            alive := false;
            false
      in
      let t1 = now () in
      let start = Option.value due ~default:t0 in
      samples :=
        { conn = i; seq; op = Gen.op_name r; cls = cls_of r; lat = t1 -. start; rtt = t1 -. t0; late = t0 -. start; ok }
        :: !samples
    in
    (match gen.Gen.pacing with
    | Gen.Closed ->
        while !alive && now () < t_end do
          List.iter (fun r -> if !alive then issue r) (gen.Gen.next ());
          if i = 0 then Option.iter Speed.run reference
        done
    | Gen.Open rate ->
        let t_begin = now () in
        let k = ref 0 in
        while !alive && t_begin +. (float_of_int !k /. rate) < t_end do
          let due = t_begin +. (float_of_int !k /. rate) in
          let wait = due -. now () in
          if wait > 0.0 then Thread.delay wait;
          List.iter (fun r -> if !alive then issue ~due r) (gen.Gen.next ());
          incr k
        done);
    !samples
  in
  let results = Array.make (Array.length d.conns) [] in
  let threads = Array.mapi (fun i _ -> Thread.create (fun () -> results.(i) <- drive i ()) ()) d.conns in
  Array.iter Thread.join threads;
  (List.concat (Array.to_list results), now () -. t_start)

(* Post-window checks that every acknowledged write is readable, on the
   standby too when there is one. *)
let final_checks d (inputs : Gen.inputs) =
  let count c goal = match call c "QUERY" goal with Rows n -> n | Ok_ _ | Err _ -> -1 in
  let facts = inputs.fact_base + Atomic.get d.facts_acked in
  (* a query's answers are distinct, so a re-asserted edge counts once *)
  let edges =
    let seen = Hashtbl.create 1024 in
    List.iter (fun c -> Hashtbl.replace seen c ()) (inputs.base_edges @ !(d.edges_acked));
    Hashtbl.length seen
  in
  let primary_ok =
    match inputs.workload with
    | Gen.Read_write -> count d.conns.(0) "fact(K,V)" = facts && count d.conns.(0) "edge(A,B)" = edges
    | Gen.Replicated_write -> count d.conns.(0) "fact(K,V)" = facts
    | Gen.Cold_mix | Gen.Warm_read -> true
  in
  let standby_ok =
    match d.standby with
    | None -> true
    | Some (_, port) ->
        let c = connect port in
        Fun.protect ~finally:(fun () -> close c) @@ fun () ->
        let deadline = now () +. 10.0 in
        let rec poll () =
          let n = count c "fact(K,V)" in
          if n = facts then true
          else if now () > deadline then false
          else begin
            Thread.delay 0.05;
            poll ()
          end
        in
        poll ()
  in
  primary_ok && standby_ok

(* --- the access log, joined to client timings --- *)

(* per server connection id, the (op, wall_us) of each request in the
   order the server finished them *)
let read_access_log path =
  let by_conn = Hashtbl.create 4 in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (try
     while true do
       match Xsb.Json.of_string (input_line ic) with
       | Ok j -> (
           let field k f = Option.bind (Xsb.Json.member k j) f in
           match (field "conn" Xsb.Json.as_int, field "op" Xsb.Json.as_string, field "wall_us" Xsb.Json.as_int) with
           | Some conn, Some op, Some wall_us ->
               Hashtbl.replace by_conn conn ((op, wall_us) :: Option.value (Hashtbl.find_opt by_conn conn) ~default:[])
           | _ -> ())
       | Error _ -> ()
     done
   with End_of_file -> ());
  let table = Hashtbl.create 4 in
  Hashtbl.iter (fun k l -> Hashtbl.replace table k (Array.of_list (List.rev l))) by_conn;
  table

(* (service ms, client round trip ms) for each sample the log covers;
   a sample whose log line names another op means the join slipped *)
let join log samples =
  List.filter_map
    (fun s ->
      match Hashtbl.find_opt log (s.conn + 1) with
      | Some lines when s.seq - 1 < Array.length lines ->
          let op, wall_us = lines.(s.seq - 1) in
          if op <> s.op then fail "access-log join slipped: request %d on connection %d is %s, log says %s" s.seq s.conn s.op op;
          Some (float_of_int wall_us /. 1000.0, s.rtt *. 1000.0)
      | _ -> None)
    samples
