type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(host = "127.0.0.1") port =
  let fd = Xsb_repl.Net.connect host port in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type reply_error = { code : Protocol.err_code; message : string }

(* ops with a single-frame reply *)
let simple t req =
  Protocol.write_request t.oc req;
  match Protocol.read_reply t.ic with
  | Protocol.Ok_ payload -> Ok payload
  | Protocol.Err (code, message) -> Error { code; message }
  | Protocol.Answer _ | Protocol.Done _ ->
      raise (Protocol.Bad_frame "unexpected answer frame outside a query")

let ping t = simple t (Protocol.request Protocol.Ping "")
let consult ?fmt t text = simple t (Protocol.request ?fmt Protocol.Consult text)
let assert_ t clause = simple t (Protocol.request Protocol.Assert clause)
let statistics t = simple t (Protocol.request Protocol.Statistics "")
let abolish ?(pred = "") t = simple t (Protocol.request Protocol.Abolish pred)
let sync t = simple t (Protocol.request Protocol.Sync "")
let metrics t = simple t (Protocol.request Protocol.Metrics "")
let promote t = simple t (Protocol.request Protocol.Promote "")

(* --- failover discovery (the ROLE op) --- *)

type role = Primary_role | Standby_role

type role_info = {
  role : role;
  epoch : int64;
  generation : int64;
  offset : int;
  repl_port : int option;
  priority : int;
  read_only : bool;
  peers : (string * int) list;
  fatal : string option;  (* standby only: why the applier parked *)
}

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port > 0 && port < 65536 -> Ok (String.sub s 0 i, port)
      | _ -> Error (Printf.sprintf "bad port in %S (expected HOST:PORT)" s))
  | _ -> Error (Printf.sprintf "bad address %S (expected HOST:PORT)" s)

(* one "key: value" line per row; unknown keys are ignored so the
   payload can grow without breaking old clients *)
let role_info_of_payload payload =
  let kv =
    String.split_on_char '\n' payload
    |> List.filter_map (fun line ->
           match String.index_opt line ':' with
           | None -> None
           | Some i ->
               let k = String.sub line 0 i in
               let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
               Some (k, v))
  in
  let get k = List.assoc_opt k kv in
  let int64_of k d = match get k with Some v -> Option.value (Int64.of_string_opt v) ~default:d | None -> d in
  let int_of k d = match get k with Some v -> Option.value (int_of_string_opt v) ~default:d | None -> d in
  {
    role = (match get "role" with Some "primary" -> Primary_role | _ -> Standby_role);
    epoch = int64_of "epoch" 0L;
    generation = int64_of "generation" 0L;
    offset = int_of "offset" 0;
    repl_port =
      (match get "repl_port" with
      | Some v when v <> "-" -> int_of_string_opt v
      | _ -> None);
    priority = int_of "priority" 0;
    read_only = get "read_only" = Some "yes";
    peers =
      (match get "peers" with
      | Some v ->
          String.split_on_char ',' v
          |> List.filter_map (fun hp -> Result.to_option (parse_hostport hp))
      | None -> []);
    fatal = (match get "fatal" with Some "-" | None -> None | Some m -> Some m);
  }

let role_payload_of_info r =
  let b = Buffer.create 128 in
  let line k v = Printf.bprintf b "%s: %s\n" k v in
  let opt = Option.value ~default:"-" in
  line "role" (match r.role with Primary_role -> "primary" | Standby_role -> "standby");
  line "epoch" (Int64.to_string r.epoch);
  line "generation" (Int64.to_string r.generation);
  line "offset" (string_of_int r.offset);
  if r.role = Standby_role then line "fatal" (opt r.fatal);
  line "repl_port" (opt (Option.map string_of_int r.repl_port));
  line "priority" (string_of_int r.priority);
  line "read_only" (if r.read_only then "yes" else "no");
  line "peers" (String.concat "," (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) r.peers));
  Buffer.contents b

let role_payload t = simple t (Protocol.request Protocol.Role "")

let role t =
  match role_payload t with
  | Ok payload -> Ok (role_info_of_payload payload)
  | Error e -> Error e

(* connect, ask ROLE, close — [None] on any failure. The failover
   monitor and endpoint discovery probe dead nodes constantly; a probe
   must never raise. *)
let probe_role ?host port =
  match connect ?host port with
  | exception _ -> None
  | t ->
      Fun.protect ~finally:(fun () -> close t) @@ fun () ->
      (match role t with
      | Ok info -> Some info
      | Error _ | (exception _) -> None)

(* Probe every endpoint and pick the writable primary on the highest
   epoch — the node a failed-over client should talk to. *)
let discover_primary endpoints =
  List.filter_map
    (fun (host, port) ->
      match probe_role ~host port with
      | Some info when info.role = Primary_role && not info.read_only ->
          Some ((host, port), info)
      | _ -> None)
    endpoints
  |> List.fold_left
       (fun best ((_, info) as cand) ->
         match best with
         | Some (_, b) when Int64.compare b.epoch info.epoch >= 0 -> best
         | _ -> Some cand)
       None

(* --- bounded retry with exponential backoff and full jitter --- *)

type retry = {
  retries : int;
  backoff_ms : float;
  max_backoff_ms : float;
  max_elapsed_ms : float;
  rand : float -> float;
  sleep : float -> unit;
  clock : unit -> float;
}

let default_retry =
  {
    retries = 3;
    backoff_ms = 100.0;
    max_backoff_ms = 5_000.0;
    max_elapsed_ms = 0.0;
    (* a generator of its own, seeded from the OS: the global one is
       never self-initialised, so every process would draw the same
       "jitter" *)
    rand =
      (let st = Random.State.make_self_init () in
       fun hi -> Random.State.float st hi);
    sleep = Unix.sleepf;
    (* the monotonic clock: an NTP step while we back off must not
       stretch or collapse the elapsed-time budget *)
    clock = Xsb.Mclock.now;
  }

let retry ?(retries = default_retry.retries) ?(backoff_ms = default_retry.backoff_ms)
    ?(max_backoff_ms = default_retry.max_backoff_ms)
    ?(max_elapsed_ms = default_retry.max_elapsed_ms) ?(rand = default_retry.rand)
    ?(sleep = default_retry.sleep) ?(clock = default_retry.clock) () =
  { retries; backoff_ms; max_backoff_ms; max_elapsed_ms; rand; sleep; clock }

let with_retry r f =
  let started = r.clock () in
  (* what is left of the elapsed budget, in ms *)
  let left_ms () =
    if r.max_elapsed_ms > 0.0 then r.max_elapsed_ms -. ((r.clock () -. started) *. 1000.0)
    else infinity
  in
  let rec go attempt =
    match f () with
    | `Ok v -> Ok v
    | `Retry e ->
        let left = if attempt >= r.retries then 0.0 else left_ms () in
        if left <= 0.0 then Error e
        else begin
          (* full jitter: uniform in [0, min(max, base * 2^attempt)],
             and never a sleep past the budget *)
          let cap = Float.min r.max_backoff_ms (r.backoff_ms *. (2.0 ** float_of_int attempt)) in
          let delay_ms = Float.min left (if cap > 0.0 then r.rand cap else 0.0) in
          if delay_ms > 0.0 then r.sleep (delay_ms /. 1000.0);
          go (attempt + 1)
        end
  in
  go 0

type query_outcome =
  | Rows of { rows : string list; truncated : bool }
  | Query_timeout of string list
  | Query_error of reply_error

let query ?limit ?timeout_ms ?max_steps t goal =
  Protocol.write_request t.oc (Protocol.request ?limit ?timeout_ms ?max_steps Protocol.Query goal);
  let rec collect acc =
    match Protocol.read_reply t.ic with
    | Protocol.Answer row -> collect (row :: acc)
    | Protocol.Done { more; _ } -> Rows { rows = List.rev acc; truncated = more }
    | Protocol.Err (Protocol.Timeout, _) -> Query_timeout (List.rev acc)
    | Protocol.Err (code, message) -> Query_error { code; message }
    | Protocol.Ok_ _ -> raise (Protocol.Bad_frame "unexpected OK frame inside a query")
  in
  collect []

(* --- one retry path: a connection that redials --- *)

type error = Refused of reply_error | Failed of string

type conn = {
  endpoints : (string * int) list;
  mutable target : string * int;
  mutable live : t option;
}

let conn ?(endpoints = []) ?(host = "127.0.0.1") port =
  { endpoints; target = (host, port); live = None }

let close_conn c =
  Option.iter close c.live;
  c.live <- None

(* only requests that are safe to re-send after an ambiguous failure:
   re-running a mutation could apply it twice *)
let idempotent = function
  | Protocol.Ping | Protocol.Query | Protocol.Statistics | Protocol.Metrics | Protocol.Role ->
      true
  | Protocol.Consult | Protocol.Assert | Protocol.Abolish | Protocol.Sync | Protocol.Promote ->
      false

(* The live connection, or a new one: with endpoints, to the writable
   primary discovery finds (else the last target). [Error] says whether
   another attempt may help: a refused connect is a server still coming
   up, and with endpoints any dead node may be replaced by another. *)
let connection c =
  match c.live with
  | Some t -> Ok t
  | None -> (
      if c.endpoints <> [] then
        Option.iter (fun (hp, _) -> c.target <- hp) (discover_primary c.endpoints);
      let host, port = c.target in
      let fail retry why =
        Error (retry, Printf.sprintf "cannot connect to %s:%d: %s" host port why)
      in
      match connect ~host port with
      | t ->
          c.live <- Some t;
          Ok t
      | exception Unix.Unix_error (err, _, _) ->
          fail (err = Unix.ECONNREFUSED || c.endpoints <> []) (Unix.error_message err)
      | exception Xsb_repl.Net.Unknown_host _ -> fail (c.endpoints <> []) "unknown host")

let call ?(policy = default_retry) c op f =
  let resend = idempotent op and redial = c.endpoints <> [] in
  (* the request may or may not have run: only an idempotent one is
     re-sent, and only where rediscovery can find a live node *)
  let lost why =
    close_conn c;
    if resend && redial then `Retry (Failed ("connection lost: " ^ why))
    else if resend then `Ok (Error (Failed ("connection lost: " ^ why)))
    else `Ok (Error (Failed ("connection lost, outcome unknown: " ^ why)))
  in
  let attempt () =
    match connection c with
    | Error (retry, why) -> if retry then `Retry (Failed why) else `Ok (Error (Failed why))
    | Ok t -> (
        match f t with
        | Ok v -> `Ok (Ok v)
        | Error ({ code = Protocol.Overloaded; _ } as e) when resend -> `Retry (Refused e)
        | Error ({ code = Protocol.Readonly; _ } as e) when redial ->
            (* refused before it ran: re-send it to the new primary *)
            close_conn c;
            `Retry (Refused e)
        | Error e -> `Ok (Error (Refused e))
        | exception End_of_file -> lost "closed by the server"
        | exception Protocol.Bad_frame m -> lost ("bad frame: " ^ m)
        | exception Sys_error m -> lost m
        | exception Unix.Unix_error (err, _, _) -> lost (Unix.error_message err))
  in
  match with_retry policy attempt with Ok r -> r | Error e -> Error e
