(* The concurrent query service. One listener ([Net.listen]) runs a
   handler thread per connection that reads a frame, runs the request itself
   and writes the reply (one request at a time per connection, so its
   private session is never shared). An admission gate caps how many
   requests execute at once and how many may wait. See server.mli and
   DESIGN.md §8 for the architecture. *)

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  default_timeout_ms : int;
  default_max_steps : int;
  max_answers : int;
  preload : string list;
  scheduling : Xsb.Machine.scheduling option;
  access_log : out_channel option;
  profile : bool;
  data_dir : string option;
  sync : Xsb.Journal.sync_policy;
  compact_bytes : int;
  keep_generations : int;
  repl_port : int option;
  replica_of : (string * int) option;
  sync_standbys : int;
  sync_timeout_ms : int;
  auto_promote : bool;
  promote_priority : int;
  failover_timeout_ms : int;
  peers : (string * int) list;
  slow_ms : int;
  slow_log : out_channel option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_capacity = 64;
    default_timeout_ms = 5_000;
    default_max_steps = 10_000_000;
    max_answers = 0;
    preload = [];
    scheduling = None;
    access_log = None;
    profile = false;
    data_dir = None;
    sync = Xsb.Journal.Always;
    compact_bytes = 8 * 1024 * 1024;
    keep_generations = 0;
    repl_port = None;
    replica_of = None;
    sync_standbys = 0;
    sync_timeout_ms = 1_000;
    auto_promote = false;
    promote_priority = 0;
    failover_timeout_ms = 3_000;
    peers = [];
    slow_ms = 0;
    slow_log = None;
  }

(* the journal config a data directory gets; replication needs at least
   one archived generation so a standby can follow across a compaction *)
let journal_config cfg dir =
  let keep =
    if cfg.repl_port <> None || cfg.replica_of <> None then max 1 cfg.keep_generations
    else cfg.keep_generations
  in
  { Xsb.Journal.dir; sync = cfg.sync; compact_bytes = cfg.compact_bytes; keep_generations = keep }

(* --- the admission gate ---

   Backpressure lives here: at most [slots] requests execute at once,
   and at most [cap] more wait their turn, admitted in arrival order
   (each waiter draws a ticket; [serving] is the next one admitted).
   [enter] refuses instead of lining up past [cap], and once [stop]ped
   refuses everything, so [drain] can wait for the gate to empty knowing
   no request will ever enter behind it. *)
module Gate = struct
  type t = {
    m : Mutex.t;
    changed : Condition.t;
    slots : int;
    cap : int;
    mutable running : int;
    mutable next : int;  (* the ticket the next arrival draws *)
    mutable serving : int;  (* the ticket admitted next *)
    mutable stopping : bool;
  }

  type entry = Entered | Full | Stopping

  let create ~slots ~cap =
    let m = Mutex.create () and changed = Condition.create () in
    { m; changed; slots; cap; running = 0; next = 0; serving = 0; stopping = false }

  let waiting_locked g = g.next - g.serving

  let enter g =
    Mutex.protect g.m (fun () ->
        if g.stopping then Stopping
        else if waiting_locked g >= g.cap then Full
        else begin
          let ticket = g.next in
          g.next <- ticket + 1;
          while ticket <> g.serving || g.running >= g.slots do
            Condition.wait g.changed g.m
          done;
          g.serving <- ticket + 1;
          g.running <- g.running + 1;
          (* the next ticket may find a free slot too *)
          Condition.broadcast g.changed;
          Entered
        end)

  let leave g =
    Mutex.protect g.m (fun () ->
        g.running <- g.running - 1;
        Condition.broadcast g.changed)

  let stop g = Mutex.protect g.m (fun () -> g.stopping <- true)

  (* blocks until nothing executes or waits *)
  let drain g =
    Mutex.protect g.m (fun () ->
        while g.running > 0 || waiting_locked g > 0 do
          Condition.wait g.changed g.m
        done)

  let running g = Mutex.protect g.m (fun () -> g.running)
  let waiting g = Mutex.protect g.m (fun () -> waiting_locked g)
end

(* --- connections --- *)

type conn = {
  c_id : int;
  c_ic : in_channel;
  c_oc : out_channel;
  c_session : Xsb.Session.t;
  (* the reply to the request in flight: every frame is rendered here
     and [send] writes the lot at once when the request is finished *)
  c_reply : Buffer.t;
}

(* with --data-dir every connection shares ONE durable session backed
   by the journal; [sh_m] serializes request execution against it
   (without a data dir each connection keeps its private session and
   requests run concurrently, as before) *)
type shared = {
  sh_session : Xsb.Session.t;
  mutable sh_journal : Xsb.Journal.t;  (* swapped once, at promotion *)
  sh_m : Mutex.t;
  mutable sh_read_only : string option;  (* why mutations are refused *)
}

type t = {
  cfg : config;
  shared : shared option;
  mutable listener : Xsb_repl.Net.listener option;  (* set last by [start] *)
  gate : Gate.t;
  preload_texts : string list;
  stopped : bool Atomic.t;
  req_counter : int Atomic.t;
  log_m : Mutex.t;
  registry : Xsb.Metrics.t;
  requests_total : Xsb.Metrics.Counter.t;
  op_hists : (string * Xsb.Metrics.Histogram.t) list;
  outcome_counters : (string * Xsb.Metrics.Counter.t) list;
  (* replication roles; a standby may move from one to the other at
     promotion, serialized by [promote_m] *)
  promote_m : Mutex.t;
  mutable repl_primary : Xsb_repl.Repl.Primary.t option;
  mutable repl_standby : Xsb_repl.Repl.Standby.t option;
  mutable failover_thread : Thread.t option;
}

let listener t = Option.get t.listener
let port t = Xsb_repl.Net.port (listener t)
let requests_served t = Xsb.Metrics.Counter.value t.requests_total
let journal t = Option.map (fun sh -> sh.sh_journal) t.shared
let read_only t = match t.shared with Some sh -> sh.sh_read_only | None -> None
let repl_listen_port t = Option.map Xsb_repl.Repl.Primary.port t.repl_primary
let replica_status t = Option.map Xsb_repl.Repl.Standby.status t.repl_standby
let registry t = t.registry

(* a standby's live epoch moves with the stream (adopted from EPOCH
   frames); a primary's lives in the journal *)
let epoch t =
  match t.repl_standby with
  | Some s -> Some (Xsb_repl.Repl.Standby.status s).Xsb_repl.Repl.Standby.epoch
  | None -> Option.map (fun sh -> Xsb.Journal.epoch sh.sh_journal) t.shared
let now () = Unix.gettimeofday ()

(* Latency measurement and deadlines run on the monotonic clock, so an
   NTP step cannot corrupt wall_us or fire (or defer) a timeout; the
   wall clock survives only in log timestamps. A ref so tests can
   inject a fake clock. *)
let monotonic : (unit -> float) ref = ref Xsb.Mclock.now

(* --- the metrics registry (scraped by the METRICS op) --- *)

let duration_help = "Request service time in seconds, by protocol op (queue wait excluded)."
let outcome_help = "Requests finished, by access-log outcome."

(* handles for the known ops and outcomes are precreated at [start], so
   the per-request record path is an assoc-list probe, no registry lock *)
let request_hist t op =
  match List.assoc_opt op t.op_hists with
  | Some h -> h
  | None ->
      Xsb.Metrics.histogram t.registry ~labels:[ ("op", op) ] ~help:duration_help
        "xsb_request_duration_seconds"

let outcome_counter t outcome =
  match List.assoc_opt outcome t.outcome_counters with
  | Some c -> c
  | None ->
      Xsb.Metrics.counter t.registry ~labels:[ ("outcome", outcome) ] ~help:outcome_help
        "xsb_requests_by_outcome_total"

(* the journal this node writes: a primary's, or a promoted standby's.
   A standby's opened journal only recovered the directory; the mirror
   writes it, so its figures would be stale *)
let written_journal t =
  match t.shared with Some sh when t.repl_standby = None -> Some sh.sh_journal | _ -> None

(* one self-contained exposition per scrape: the server's persistent
   registry plus a fresh snapshot of engine and journal state (family
   names are disjoint, so the concatenation is a valid exposition) *)
let metrics_text t conn =
  let snap = Xsb.Metrics.create () in
  Xsb.Engine.publish_metrics (Xsb.Session.engine conn.c_session) snap;
  Option.iter (fun j -> Xsb.Journal.publish_metrics j snap) (written_journal t);
  Xsb.Metrics.to_text t.registry ^ Xsb.Metrics.to_text snap

(* --- the access and slow-query logs (JSONL through lib/obs's codec) --- *)

(* One line to a log. A failed write (a reader that went away, a full
   disk) drops the line; it never fails the request or leaves [log_m]
   held. *)
let write_log t oc fields =
  Mutex.protect t.log_m (fun () ->
      try
        output_string oc (Xsb.Json.to_string (Xsb.Json.Obj fields));
        output_char oc '\n';
        flush oc
      with Sys_error _ -> ())

(* [slow] gives the slow-query log's extra fields (the goal and the
   engine's work delta); a request slower than --slow-ms is written there
   as its access-log record plus those fields *)
let log_request ?(slow = fun () -> []) t ~id ~conn_id ~op ~pred ~answers ~steps ~wall ~outcome =
  (* one increment per log line, so xsb_requests_total always equals
     the access-log line count *)
  Xsb.Metrics.Counter.incr t.requests_total;
  Xsb.Metrics.Counter.incr (outcome_counter t outcome);
  Xsb.Metrics.Histogram.observe (request_hist t op) wall;
  let slow_oc =
    if t.cfg.slow_ms > 0 && wall *. 1000.0 >= float_of_int t.cfg.slow_ms then t.cfg.slow_log
    else None
  in
  if Option.is_some t.cfg.access_log || Option.is_some slow_oc then begin
    let record =
      [
        (* microseconds since the epoch: the codec renders floats
           with %.6g, far too coarse for a timestamp *)
        ("ts_us", Xsb.Json.Int (int_of_float (now () *. 1e6)));
        ("id", Xsb.Json.Int id);
        ("conn", Xsb.Json.Int conn_id);
        ("op", Xsb.Json.String op);
        ("pred", Xsb.Json.String pred);
        ("answers", Xsb.Json.Int answers);
        ("steps", Xsb.Json.Int steps);
        ("wall_us", Xsb.Json.Int (int_of_float (wall *. 1e6)));
        ("outcome", Xsb.Json.String outcome);
      ]
    in
    Option.iter (fun oc -> write_log t oc record) t.cfg.access_log;
    Option.iter (fun oc -> write_log t oc (record @ slow ())) slow_oc
  end

(* The --profile table at drain: the engine's per-predicate rows (every
   session profiled into the server's registry, closed ones included),
   then per op the count and sum of its request-duration histogram *)
let pp_profile ppf t =
  let open Xsb.Metrics.Histogram in
  Xsb.Obs.Profile.pp_report ppf t.registry;
  Format.fprintf ppf "%-20s %8s %10s@." "op" "requests" "wall(ms)";
  List.filter (fun (_, h) -> count h > 0) t.op_hists
  |> List.sort (fun (a, h) (b, g) -> compare (sum g, count g, a) (sum h, count h, b))
  |> List.iter (fun (op, h) ->
         Format.fprintf ppf "%-20s %8d %10.3f@." op (count h) (1000.0 *. sum h))

(* --- request execution --- *)

let clamp cap n = if cap > 0 then min cap n else n

let pred_of_goal goal =
  match Xsb.Term.deref goal with
  | Xsb.Term.Struct (f, args) -> Printf.sprintf "%s/%d" f (Array.length args)
  | Xsb.Term.Atom a -> a ^ "/0"
  | _ -> ""

(* --- promotion: replication standby -> writable primary --- *)

(* a peer announced a higher failover epoch: this node was failed over
   away from while it was alive (or partitioned). Stop accepting writes
   — the new timeline wins, and clients discover it via ROLE. *)
let deposed t e =
  match t.shared with
  | None -> ()
  | Some sh ->
      if sh.sh_read_only = None then
        sh.sh_read_only <-
          Some (Printf.sprintf "deposed by epoch %Ld (a newer primary exists; PROMOTE refused)" e)

let start_primary t j =
  match t.cfg.repl_port with
  | Some p when t.repl_primary = None -> (
      try
        t.repl_primary <-
          Some
            (Xsb_repl.Repl.Primary.start ~host:t.cfg.host ~registry:t.registry
               ~on_deposed:(fun e -> deposed t e) ~port:p ~journal:j ())
      with Unix.Unix_error _ -> ())
  | _ -> ()

let spawn_standby t sh ~primary_host ~primary_port ~generation ~offset ~epoch =
  let dir = Option.get t.cfg.data_dir in
  let keep = (journal_config t.cfg dir).Xsb.Journal.keep_generations in
  let apply m =
    Mutex.lock sh.sh_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.sh_m)
      (fun () -> Xsb.Journal.apply_mutation (Xsb.Session.db sh.sh_session) m)
  in
  Xsb_repl.Repl.Standby.start ~primary_host ~primary_port ~dir ~generation ~offset ~epoch
    ~keep_generations:keep ~apply ()

let promote t =
  match t.shared with
  | None -> Protocol.Err (Protocol.Bad_request, "server has no journal (start with --data-dir)")
  | Some sh -> (
      Mutex.lock t.promote_m;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.promote_m) @@ fun () ->
      match t.repl_standby with
      | None -> Protocol.Err (Protocol.Bad_request, "not a replica (nothing to promote)")
      | Some standby -> (
          (* quiesce the applier: after [stop] returns, nothing else
             touches the mirrored files, and the database already holds
             every applied record — [resume] only rebuilds journal
             bookkeeping (and drops a torn tail), it replays nothing *)
          Xsb_repl.Repl.Standby.stop standby;
          let dir = Option.get t.cfg.data_dir in
          match Xsb.Journal.resume (journal_config t.cfg dir) (Xsb.Session.db sh.sh_session) with
          | exception e ->
              Protocol.Err (Protocol.Exec_error, "promotion failed: " ^ Printexc.to_string e)
          | j ->
              t.repl_standby <- None;
              (* a new timeline: bump the fencing epoch so the deposed
                 primary (and any standby that followed it past this
                 point) can never silently re-join *)
              let e = try Xsb.Journal.bump_epoch j with Xsb.Journal.Io_error _ -> Xsb.Journal.epoch j in
              Xsb.Journal.attach ~deferred:true j;
              let old = sh.sh_journal in
              Mutex.lock sh.sh_m;
              sh.sh_journal <- j;
              sh.sh_read_only <- None;
              Mutex.unlock sh.sh_m;
              (try Xsb.Journal.close old with _ -> ());
              (* a promoted node with --repl-port starts feeding its own
                 standbys *)
              start_primary t j;
              Protocol.Ok_
                (Printf.sprintf "promoted (generation %Ld, epoch %Ld)"
                   (Xsb.Journal.generation j) e)))

(* --- automatic failover (standby side) ---

   A monitor thread watches the standby's last-contact clock. Once the
   primary has been silent for [failover_timeout_ms] plus a
   priority-staggered grace (0.5 s per priority step, so replicas don't
   race), the standby probes every configured peer's ROLE:

     - a live, writable primary with an epoch >= ours exists: the old
       primary address is stale, not the primary itself — retarget the
       stream at the survivor instead of promoting (split-brain
       avoidance);
     - a peer standby is strictly ahead of us, or tied with a lower
       priority number: defer — it will promote, and we will discover
       it on a later round;
     - otherwise: self-promote (which bumps the epoch and fences the
       old timeline). *)

let pos_cmp (g1, o1) (g2, o2) =
  match Int64.compare g1 g2 with 0 -> compare o1 o2 | c -> c

let retarget t ~host ~repl_port =
  Mutex.lock t.promote_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.promote_m) @@ fun () ->
  match (t.repl_standby, t.shared) with
  | Some s, Some sh ->
      Xsb_repl.Repl.Standby.stop s;
      let st = Xsb_repl.Repl.Standby.status s in
      t.repl_standby <-
        Some
          (spawn_standby t sh ~primary_host:host ~primary_port:repl_port
             ~generation:st.Xsb_repl.Repl.Standby.generation
             ~offset:st.Xsb_repl.Repl.Standby.applied_off ~epoch:st.Xsb_repl.Repl.Standby.epoch);
      sh.sh_read_only <-
        Some (Printf.sprintf "replica of %s:%d (PROMOTE to accept writes)" host repl_port)
  | _ -> ()

let consider_failover t standby =
  let st = Xsb_repl.Repl.Standby.status standby in
  let open Xsb_repl.Repl.Standby in
  let peers =
    List.filter (fun (h, p) -> not (h = t.cfg.host && p = port t)) t.cfg.peers
  in
  let infos =
    List.filter_map
      (fun (h, p) -> Option.map (fun i -> (h, i)) (Client.probe_role ~host:h p))
      peers
  in
  let live_primary =
    List.find_opt
      (fun ((_, i) : string * Client.role_info) ->
        i.Client.role = Client.Primary_role && (not i.Client.read_only)
        && Int64.compare i.Client.epoch st.epoch >= 0)
      infos
  in
  match live_primary with
  | Some (h, i) -> (
      match i.Client.repl_port with
      | Some rp -> retarget t ~host:h ~repl_port:rp
      | None -> ())
  | None ->
      let better ((_, i) : string * Client.role_info) =
        i.Client.role = Client.Standby_role
        && (Int64.compare i.Client.epoch st.epoch > 0
           || (let c =
                 pos_cmp (i.Client.generation, i.Client.offset) (st.generation, st.applied_off)
               in
               c > 0 || (c = 0 && i.Client.priority < t.cfg.promote_priority)))
      in
      if List.exists better infos then () (* the better candidate promotes; re-check next tick *)
      else ignore (promote t)

let failover_monitor t =
  let threshold =
    (float_of_int t.cfg.failover_timeout_ms /. 1000.0)
    +. (0.5 *. float_of_int t.cfg.promote_priority)
  in
  let rec loop () =
    if Atomic.get t.stopped then ()
    else begin
      (match t.repl_standby with
      | Some s ->
          let st = Xsb_repl.Repl.Standby.status s in
          if
            st.Xsb_repl.Repl.Standby.fatal = None
            && st.Xsb_repl.Repl.Standby.seconds_since_contact > threshold
          then ( try consider_failover t s with _ -> ())
      | None -> ());
      Thread.delay 0.1;
      loop ()
    end
  in
  loop ()

(* "name/arity" for the targeted ABOLISH form *)
let pred_indicator s =
  let s = String.trim s in
  match String.rindex_opt s '/' with
  | None | Some 0 -> None
  | Some i -> (
      let name = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some arity when arity >= 0 -> Some (name, arity)
      | _ -> None)

(* A request's reply frames are rendered into [c_reply] while it runs
   (under [sh_m] in durable mode: operators can change) and [send] writes
   them in one write once it is finished — after [sh_m] is released, and
   for a deferred mutation after its commit barrier — so a client that
   reads slowly only ever stalls its own handler. A peer that vanished
   mid-reply is tolerated: the request still completes (and is logged);
   the handler sees EOF on its next read and closes the connection. *)
let add_reply conn reply = Protocol.add_reply conn.c_reply reply

(* The reply buffer keeps its storage from one request to the next, so
   every sizeable reply does not regrow it by doubling (each growth past
   256 words a fresh major-heap block). Storage past the channel
   buffer's 64 KiB is given back, so one huge reply does not stay pinned
   to its connection. *)
let reply_keep = 65536

let send conn =
  (try
     Buffer.output_buffer conn.c_oc conn.c_reply;
     flush conn.c_oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  if Buffer.length conn.c_reply > reply_keep then Buffer.reset conn.c_reply
  else Buffer.clear conn.c_reply

(* A request's engine work for the logs — steps, subgoals, answers,
   subsumption hits — is sampled around its [dispatch], under [sh_m] in
   durable mode, so it is never charged for another request's. A counter
   that went down was zeroed inside the request (ABOLISH resets the
   engine's stats): its work is what it counted since. *)
type work = { steps : int; subgoals : int; answers : int; subs : int }

let no_work = { steps = 0; subgoals = 0; answers = 0; subs = 0 }

let counters session =
  let s = Xsb.Session.stats session in
  let open Xsb.Machine in
  { steps = s.st_steps; subgoals = s.st_subgoals; answers = s.st_answers; subs = s.st_subsumption_hits }

let work_since before session =
  let now = counters session in
  let d b a = if a >= b then a - b else a in
  {
    steps = d before.steps now.steps;
    subgoals = d before.subgoals now.subgoals;
    answers = d before.answers now.answers;
    subs = d before.subs now.subs;
  }

(* Runs a request and renders its reply into [c_reply], which the
   caller sends; returns (outcome, pred, answers, work) for the logs.
   [deadline] is absolute, on the monotonic clock. *)
let execute t conn req ~deadline =
  let eng = Xsb.Session.engine conn.c_session in
  let parse_goal text = Xsb.Parser.term_of_string ~ops:(Xsb.Database.ops (Xsb.Session.db conn.c_session)) text in
  (* (outcome, pred, answers) for the access log *)
  let dispatch () =
    match req.Protocol.op with
    | Protocol.Ping ->
        add_reply conn (Protocol.Ok_ "pong");
        ("ok", "", 0)
    | Protocol.Statistics ->
        let text = Fmt.str "%a" Xsb.Machine.pp_stats (Xsb.Engine.stats eng) in
        let text =
          match written_journal t with
          | Some j -> text ^ Fmt.str "%a" Xsb.Journal.pp_stats j
          | None -> text
        in
        add_reply conn (Protocol.Ok_ text);
        ("ok", "", 0)
    | Protocol.Metrics ->
        add_reply conn (Protocol.Ok_ (metrics_text t conn));
        ("ok", "", 0)
    | Protocol.Role ->
        (* failover discovery: who am I, which timeline, how far along,
           and who else is in the topology. Never refused — a client
           re-dialing after a failover needs it from every node,
           including read-only and fenced ones. *)
        let primary =
          {
            Client.role = Client.Primary_role;
            epoch = 0L;
            generation = 0L;
            offset = 0;
            repl_port = repl_listen_port t;
            priority = t.cfg.promote_priority;
            read_only = read_only t <> None;
            peers = t.cfg.peers;
            fatal = None;
          }
        in
        let info =
          match (t.repl_standby, t.shared) with
          | Some s, _ ->
              let st = Xsb_repl.Repl.Standby.status s in
              let open Xsb_repl.Repl.Standby in
              {
                primary with
                role = Client.Standby_role;
                epoch = st.epoch;
                generation = st.generation;
                offset = st.applied_off;
                fatal = st.fatal;
              }
          | None, Some sh -> (
              match (Xsb.Journal.epoch sh.sh_journal, Xsb.Journal.durable_position sh.sh_journal) with
              | exception _ -> primary
              | epoch, (generation, offset) -> { primary with epoch; generation; offset })
          | None, None -> primary
        in
        add_reply conn (Protocol.Ok_ (Client.role_payload_of_info info));
        ("ok", "", 0)
    | Protocol.Promote ->
        (* handled before the shared lock (see [finishing]); reaching
           the dispatcher means there is no shared state to promote *)
        add_reply conn
          (Protocol.Err (Protocol.Bad_request, "server has no journal (start with --data-dir)"));
        ("bad_request", "", 0)
    | Protocol.Sync -> (
        match t.shared with
        | None ->
            add_reply conn
              (Protocol.Err (Protocol.Bad_request, "server has no journal (start with --data-dir)"));
            ("bad_request", "", 0)
        | Some sh ->
            Xsb.Journal.sync sh.sh_journal;
            add_reply conn
              (Protocol.Ok_ (Printf.sprintf "synced %d" (Xsb.Journal.durable_bytes sh.sh_journal)));
            ("ok", "", 0))
    | Protocol.Abolish when req.Protocol.payload <> "" -> (
        match pred_indicator req.Protocol.payload with
        | None ->
            add_reply conn
              (Protocol.Err
                 ( Protocol.Bad_request,
                   Printf.sprintf "bad predicate indicator %S (expected name/arity)"
                     req.Protocol.payload ));
            ("bad_request", "", 0)
        | Some (name, arity) ->
            Xsb.Database.remove_pred (Xsb.Session.db conn.c_session) name arity;
            add_reply conn (Protocol.Ok_ "removed");
            ("ok", Printf.sprintf "%s/%d" name arity, 0))
    | Protocol.Abolish ->
        Xsb.Engine.reset_tables eng;
        add_reply conn (Protocol.Ok_ "abolished");
        ("ok", "", 0)
    | Protocol.Consult -> (
        let loaded verb n =
          add_reply conn (Protocol.Ok_ (Printf.sprintf "%s %d" verb n));
          ("ok", "", n)
        in
        let parse_failed msg =
          add_reply conn (Protocol.Err (Protocol.Parse_error, msg));
          ("parse_error", "", 0)
        in
        try
          match req.Protocol.fmt with
          | Protocol.Text ->
              loaded "consulted" (Xsb.Engine.consult_string_count eng req.Protocol.payload)
          | Protocol.Fast ->
              loaded "loaded" (Xsb.Fast_load.string_ (Xsb.Session.db conn.c_session) req.Protocol.payload)
          | Protocol.Obj ->
              loaded "loaded" (Xsb.Obj_file.load_string (Xsb.Session.db conn.c_session) req.Protocol.payload)
        with
        | Xsb.Parser.Error (msg, pos) -> parse_failed (Printf.sprintf "syntax error at %d: %s" pos msg)
        | Xsb.Lexer.Error (msg, pos) -> parse_failed (Printf.sprintf "lexical error at %d: %s" pos msg)
        | Xsb.Loader.Load_error msg -> parse_failed msg
        | Xsb.Fast_load.Syntax (msg, pos) -> parse_failed (Printf.sprintf "fast-load error at %d: %s" pos msg)
        | Xsb.Obj_file.Bad_object_file msg -> parse_failed ("bad object file: " ^ msg)
        | Failure msg -> parse_failed msg)
    | Protocol.Assert -> (
        try
          let db = Xsb.Session.db conn.c_session in
          let clause = parse_goal req.Protocol.payload in
          (* a runtime ASSERT creates a dynamic predicate, like
             assert/1 — so incremental tables can track it precisely
             instead of conservatively invalidating on every write *)
          let head, _ = Xsb.Database.clause_parts clause in
          (match Xsb.Term.deref head with
          | Xsb.Term.Atom name -> ignore (Xsb.Database.set_dynamic db name 0)
          | Xsb.Term.Struct (name, args) ->
              ignore (Xsb.Database.set_dynamic db name (Array.length args))
          | _ -> ());
          ignore (Xsb.Database.add_clause db clause);
          add_reply conn (Protocol.Ok_ "asserted");
          let head, _ = Xsb.Database.clause_parts clause in
          ("ok", pred_of_goal head, 0)
        with
        | Xsb.Parser.Error (msg, pos) | Xsb.Lexer.Error (msg, pos) ->
            add_reply conn
              (Protocol.Err (Protocol.Parse_error, Printf.sprintf "syntax error at %d: %s" pos msg));
            ("parse_error", "", 0)
        | Failure msg ->
            add_reply conn (Protocol.Err (Protocol.Parse_error, msg));
            ("parse_error", "", 0))
    | Protocol.Query -> (
        match parse_goal req.Protocol.payload with
        | exception (Xsb.Parser.Error (msg, pos) | Xsb.Lexer.Error (msg, pos)) ->
            add_reply conn
              (Protocol.Err (Protocol.Parse_error, Printf.sprintf "syntax error at %d: %s" pos msg));
            ("parse_error", "", 0)
        | goal -> (
            let pred = pred_of_goal goal in
            let deadline_passed () =
              match deadline with Some d -> !monotonic () >= d | None -> false
            in
            if deadline_passed () then begin
              (* spent its whole deadline waiting at the gate *)
              add_reply conn (Protocol.Err (Protocol.Timeout, "deadline exceeded in queue"));
              ("timeout", pred, 0)
            end
            else begin
              let budget =
                match req.Protocol.max_steps with
                | Some n when n > 0 -> n
                | _ -> t.cfg.default_max_steps
              in
              let limit =
                match req.Protocol.limit with
                | Some n when n > 0 -> clamp t.cfg.max_answers n
                | _ -> t.cfg.max_answers
              in
              (* each row goes from its answer table into the reply as
                 an ANSWER frame; [row] holds one row's text while its
                 frame header, which leads with the length, is written *)
              let start = Buffer.length conn.c_reply in
              let rows = ref 0 and row = Buffer.create 64 in
              let add_row r =
                (* the stop poll can overshoot by a few answers; hold
                   the stream to the requested row count *)
                (limit <= 0 || !rows < limit)
                && begin
                     Buffer.clear row;
                     Xsb.Session.add_row conn.c_session row r;
                     Protocol.add_answer conn.c_reply row;
                     incr rows;
                     true
                   end
              in
              (* a request that fails after some rows replies with the
                 error alone *)
              let failed code msg outcome =
                Buffer.truncate conn.c_reply start;
                add_reply conn (Protocol.Err (code, msg));
                (outcome, pred, 0)
              in
              match
                Xsb.Engine.run_rows
                  ?max_steps:(if budget > 0 then Some budget else None)
                  ?stop:(if deadline = None then None else Some deadline_passed)
                  ?limit:(if limit > 0 then Some limit else None)
                  eng goal add_row
              with
              | `Answers ->
                  add_reply conn (Protocol.Done { count = !rows; more = false });
                  ("ok", pred, !rows)
              | `Truncated ->
                  add_reply conn (Protocol.Done { count = !rows; more = true });
                  ("truncated", pred, !rows)
              | `Timeout ->
                  let reason = if deadline_passed () then "deadline exceeded" else "step budget exhausted" in
                  add_reply conn (Protocol.Err (Protocol.Timeout, reason));
                  ("timeout", pred, !rows)
              | exception Xsb.Machine.Step_limit ->
                  (* an engine-wide set_max_steps bound, not ours *)
                  failed Protocol.Timeout "engine step limit" "timeout"
              | exception (Xsb.Journal.Io_error _ as e) ->
                  (* an assert/1 inside the query hit the dead journal;
                     the read-only degradation below handles it and
                     withdraws the rows *)
                  raise e
              | exception e -> failed Protocol.Exec_error (Printexc.to_string e) "exec_error"
            end))
  in
  let measured () =
    let before = counters conn.c_session in
    let outcome, pred, answers = dispatch () in
    (outcome, pred, answers, work_since before conn.c_session)
  in
  let mutating =
    match req.Protocol.op with
    | Protocol.Assert | Protocol.Consult | Protocol.Sync -> true
    | Protocol.Abolish -> req.Protocol.payload <> ""
    | Protocol.Ping | Protocol.Query | Protocol.Statistics | Protocol.Metrics
    | Protocol.Promote | Protocol.Role ->
        false
  in
  let refuse_readonly reason =
    add_reply conn (Protocol.Err (Protocol.Readonly, "server is read-only: " ^ reason));
    ("readonly", "", 0, no_work)
  in
  let finishing =
    match req.Protocol.op with
    | Protocol.Promote ->
        (* promotion joins the standby applier, which itself takes
           [sh_m] per record — run it outside the shared lock *)
        let reply = promote t in
        let outcome =
          match reply with
          | Protocol.Ok_ _ -> "ok"
          | Protocol.Err (Protocol.Exec_error, _) -> "exec_error"
          | _ -> "bad_request"
        in
        add_reply conn reply;
        (outcome, "", 0, no_work)
    | _ -> (
        match t.shared with
        | None -> measured ()
        | Some sh -> (
            match sh.sh_read_only with
            | Some reason when mutating -> refuse_readonly reason
            | _ -> (
                (* Under a group-commit policy a mutation's ack must not
                   leave before its batch's fsync — but the fsync wait
                   must happen OUTSIDE the session lock, or batches
                   could never span connections. So: run the mutation
                   (the journal hook only enqueues), release [sh_m],
                   then block on the commit barrier; the buffered ack
                   is sent after it. *)
                (* semi-synchronous commit rides the same deferred-ack
                   machinery as group commit: the reply waits behind the
                   local fsync barrier AND K standby acks *)
                let semi_sync = t.cfg.sync_standbys > 0 && t.repl_primary <> None in
                let defer =
                  mutating
                  && ((match t.cfg.sync with Xsb.Journal.Group _ -> true | _ -> false)
                     || semi_sync)
                in
                let degrade site message =
                  (* withdraw whatever was buffered: the ack never
                     became durable *)
                  Buffer.clear conn.c_reply;
                  (* the disk write path is gone; keep serving reads *)
                  let reason = Printf.sprintf "journal write failed at %s: %s" site message in
                  sh.sh_read_only <- Some reason;
                  refuse_readonly reason
                in
                (* one durable session for every connection: serialize *)
                Mutex.lock sh.sh_m;
                match Fun.protect ~finally:(fun () -> Mutex.unlock sh.sh_m) measured with
                | finishing ->
                    if defer then begin
                      match Xsb.Journal.barrier sh.sh_journal with
                      | () ->
                          (* locally durable; now wait for K standbys
                             (or degrade to async on timeout — writers
                             must never freeze on a dead standby) *)
                          (match (t.repl_primary, semi_sync) with
                          | Some prim, true ->
                              let g, o = Xsb.Journal.durable_position sh.sh_journal in
                              ignore
                                (Xsb_repl.Repl.Primary.wait_synced prim ~k:t.cfg.sync_standbys
                                   ~gen:g ~off:o
                                   ~timeout_s:(float_of_int t.cfg.sync_timeout_ms /. 1000.0))
                          | _ -> ());
                          finishing
                      | exception Xsb.Journal.Io_error { site; message } ->
                          (* the batch never became durable: report the
                             demotion instead of the ack *)
                          degrade site message
                    end
                    else finishing
                | exception Xsb.Journal.Io_error { site; message } -> degrade site message)))
  in
  finishing

(* Runs one request: its reply is sent, and it is logged, exactly once.
   An exception out of [execute] (one poisoned request must never kill
   its connection's handler) happens before anything is sent, so it
   becomes the one ERR reply. *)
let execute_safe t conn req ~deadline =
  let id = Atomic.fetch_and_add t.req_counter 1 + 1 in
  let t0 = !monotonic () in
  let outcome, pred, answers, work =
    try execute t conn req ~deadline
    with e ->
      Buffer.clear conn.c_reply;
      add_reply conn (Protocol.Err (Protocol.Exec_error, "internal error: " ^ Printexc.to_string e));
      ("exec_error", "", 0, no_work)
  in
  (* the reply goes out only now: outside [sh_m], after any commit barrier *)
  send conn;
  let wall = !monotonic () -. t0 in
  (* the slow-query log's line is correlated to the access log by
     request id and carries the engine's per-request work delta *)
  let slow () =
    let goal = req.Protocol.payload in
    let goal = if String.length goal > 512 then String.sub goal 0 512 ^ "..." else goal in
    [
      ("goal", Xsb.Json.String goal);
      ("subgoals", Xsb.Json.Int work.subgoals);
      ("engine_answers", Xsb.Json.Int work.answers);
      ("subsumption_hits", Xsb.Json.Int work.subs);
    ]
  in
  log_request t ~slow ~id ~conn_id:conn.c_id ~op:(Protocol.op_name req.Protocol.op) ~pred
    ~answers ~steps:work.steps ~wall ~outcome

(* --- the per-connection handler --- *)

let refuse t conn req code msg outcome =
  add_reply conn (Protocol.Err (code, msg));
  send conn;
  log_request t
    ~id:(Atomic.fetch_and_add t.req_counter 1 + 1)
    ~conn_id:conn.c_id
    ~op:(Protocol.op_name req.Protocol.op)
    ~pred:"" ~answers:0 ~steps:0 ~wall:0.0 ~outcome

let handler_loop t conn =
  let rec loop () =
    match Protocol.read_request conn.c_ic with
    | exception End_of_file -> ()
    | exception Protocol.Bad_frame msg ->
        (* framing is broken: reply if possible, then drop the link *)
        add_reply conn (Protocol.Err (Protocol.Bad_request, msg));
        send conn;
        log_request t
          ~id:(Atomic.fetch_and_add t.req_counter 1 + 1)
          ~conn_id:conn.c_id ~op:"?" ~pred:"" ~answers:0 ~steps:0 ~wall:0.0 ~outcome:"bad_request"
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | req ->
        let received = !monotonic () in
        let timeout_ms =
          match req.Protocol.timeout_ms with
          | Some n when n > 0 -> n
          | _ -> t.cfg.default_timeout_ms
        in
        let deadline =
          if timeout_ms > 0 then Some (received +. (float_of_int timeout_ms /. 1000.0)) else None
        in
        (match Gate.enter t.gate with
        | Gate.Entered ->
            Fun.protect
              ~finally:(fun () -> Gate.leave t.gate)
              (fun () -> execute_safe t conn req ~deadline)
        | Gate.Full -> refuse t conn req Protocol.Overloaded "request queue is full" "overloaded"
        | Gate.Stopping ->
            refuse t conn req Protocol.Shutting_down "server is draining" "shutting_down");
        loop ()
  in
  loop ()

(* a connection's own thread builds its session, so a large preload
   never holds up accepting *)
let serve t id fd =
  let session =
    match t.shared with
    | Some sh -> sh.sh_session
    | None ->
        let session = Xsb.Session.create ?scheduling:t.cfg.scheduling () in
        if t.cfg.profile then Xsb.Session.set_profiling ~registry:t.registry session true;
        List.iter (Xsb.Session.consult session) t.preload_texts;
        session
  in
  handler_loop t
    {
      c_id = id;
      c_ic = Unix.in_channel_of_descr fd;
      c_oc = Unix.out_channel_of_descr fd;
      c_session = session;
      c_reply = Buffer.create 4096;
    };
  (* the per-connection table space dies with the session; abolish it
     explicitly so a reused engine can never leak answers across
     connections. The shared durable session outlives its connections:
     leave its tables alone. *)
  if t.shared = None then
    try Xsb.Engine.reset_tables (Xsb.Session.engine session) with _ -> ()

(* --- lifecycle --- *)

let read_preloads paths =
  List.map
    (fun path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))
    paths

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers < 1";
  if cfg.queue_capacity < 1 then invalid_arg "Server.start: queue_capacity < 1";
  (* a peer that disappears mid-write must surface as EPIPE, not kill
     the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let preload_texts = read_preloads cfg.preload in
  let registry = Xsb.Metrics.create () in
  (* the preloads go into one session, in order, so a file may use what
     an earlier one declares, and one that does not load fails [start],
     not every connection. With a data dir it is the shared session *)
  let session = Xsb.Session.create ?scheduling:cfg.scheduling () in
  if cfg.profile && cfg.data_dir <> None then Xsb.Session.set_profiling ~registry session true;
  List.iter (Xsb.Session.consult session) preload_texts;
  if cfg.replica_of <> None && cfg.data_dir = None then
    invalid_arg "Server.start: replica_of requires data_dir";
  if cfg.repl_port <> None && cfg.data_dir = None then
    invalid_arg "Server.start: repl_port requires data_dir";
  let shared =
    match cfg.data_dir with
    | None -> None
    | Some dir ->
        (* the preloads went in BEFORE the journal opens: they are
           program text, not journaled state, and recovery replays on
           top *)
        let journal = Xsb.Journal.open_ (journal_config cfg dir) (Xsb.Session.db session) in
        let read_only =
          match cfg.replica_of with
          | Some (host, port) ->
              (* a standby's journal is written by the replication
                 applier, never by local mutations — don't attach *)
              Some (Printf.sprintf "replica of %s:%d (PROMOTE to accept writes)" host port)
          | None ->
              Xsb.Journal.attach ~deferred:true journal;
              None
        in
        Some
          {
            sh_session = session;
            sh_journal = journal;
            sh_m = Mutex.create ();
            sh_read_only = read_only;
          }
  in
  let close_shared () =
    match shared with
    | Some sh -> ( try Xsb.Journal.close sh.sh_journal with _ -> ())
    | None -> ()
  in
  let requests_total =
    Xsb.Metrics.counter registry
      ~help:"Requests finished (one per access-log line, refusals included)."
      "xsb_requests_total"
  in
  let op_hists =
    List.map
      (fun op ->
        ( op,
          Xsb.Metrics.histogram registry ~labels:[ ("op", op) ] ~help:duration_help
            "xsb_request_duration_seconds" ))
      [
        "PING"; "CONSULT"; "ASSERT"; "QUERY"; "STATISTICS"; "ABOLISH"; "SYNC"; "METRICS";
        "PROMOTE"; "ROLE"; "?";
      ]
  in
  let outcome_counters =
    List.map
      (fun o ->
        ( o,
          Xsb.Metrics.counter registry ~labels:[ ("outcome", o) ] ~help:outcome_help
            "xsb_requests_by_outcome_total" ))
      [
        "ok"; "truncated"; "timeout"; "parse_error"; "exec_error"; "bad_request"; "readonly";
        "overloaded"; "shutting_down";
      ]
  in
  let t =
    {
      cfg;
      shared;
      listener = None;
      gate = Gate.create ~slots:cfg.workers ~cap:cfg.queue_capacity;
      preload_texts;
      stopped = Atomic.make false;
      req_counter = Atomic.make 0;
      log_m = Mutex.create ();
      registry;
      requests_total;
      op_hists;
      outcome_counters;
      promote_m = Mutex.create ();
      repl_primary = None;
      repl_standby = None;
      failover_thread = None;
    }
  in
  (* a role or the listener that does not come up takes down what did *)
  let abandon e =
    Option.iter (fun s -> try Xsb_repl.Repl.Standby.stop s with _ -> ()) t.repl_standby;
    Option.iter (fun p -> try Xsb_repl.Repl.Primary.stop p with _ -> ()) t.repl_primary;
    close_shared ();
    raise e
  in
  (try
     (match (shared, cfg.replica_of) with
     | Some sh, Some (primary_host, primary_port) ->
         let generation, offset = Xsb.Journal.position sh.sh_journal in
         let ep = Xsb.Journal.epoch sh.sh_journal in
         t.repl_standby <-
           Some (spawn_standby t sh ~primary_host ~primary_port ~generation ~offset ~epoch:ep);
         (* standby gauges live on the server, looked up through
            [t.repl_standby] at scrape time — so a retarget (which
            replaces the Standby value) can't strand stale closures in
            the find-or-create registry *)
         let status_gauge name help f =
           Xsb.Metrics.gauge_fn registry ~help name (fun () ->
               match t.repl_standby with
               | Some s -> ( try f (Xsb_repl.Repl.Standby.status s) with _ -> 0.0)
               | None -> 0.0)
         in
         let open Xsb_repl.Repl.Standby in
         status_gauge "xsb_repl_lag_bytes"
           "Bytes between the primary's durable watermark and the standby's applied frontier."
           (fun st -> float_of_int st.lag_bytes);
         status_gauge "xsb_repl_connected" "1 while the replication link to the primary is up."
           (fun st -> if st.connected then 1.0 else 0.0);
         status_gauge "xsb_repl_applied_records_total"
           "Replicated records applied to the live session." (fun st ->
             float_of_int st.applied_records);
         status_gauge "xsb_repl_generation" "Local journal generation being mirrored." (fun st ->
             Int64.to_float st.generation);
         status_gauge "xsb_repl_epoch" "Failover epoch this standby is following." (fun st ->
             Int64.to_float st.epoch);
         status_gauge "xsb_repl_seconds_since_contact"
           "Seconds since the last frame from the primary." (fun st ->
             st.seconds_since_contact);
         status_gauge "xsb_repl_snapshots_received_total"
           "Snapshots received (bootstrap and generation boundaries)." (fun st ->
             float_of_int st.snapshots_received)
     | _ -> ());
     match (shared, cfg.repl_port) with
     | Some sh, Some p when cfg.replica_of = None ->
         t.repl_primary <-
           Some
             (Xsb_repl.Repl.Primary.start ~host:cfg.host ~registry
                ~on_deposed:(fun e -> deposed t e)
                ~port:p ~journal:sh.sh_journal ())
     | _ -> ()
   with e -> abandon e);
  (* liveness gauges, sampled at scrape time *)
  Xsb.Metrics.gauge_fn registry ~help:"Requests currently executing."
    "xsb_in_flight_requests" (fun () -> Float.of_int (Gate.running t.gate));
  Xsb.Metrics.gauge_fn registry ~help:"Requests waiting to execute."
    "xsb_queue_depth" (fun () -> Float.of_int (Gate.waiting t.gate));
  Xsb.Metrics.gauge_fn registry ~help:"Open client connections." "xsb_connections"
    (fun () -> Float.of_int (Xsb_repl.Net.connections (listener t)));
  Xsb.Metrics.gauge_fn registry ~help:"Requests allowed to execute at once (--workers)."
    "xsb_workers" (fun () -> Float.of_int t.cfg.workers);
  (* accept only once the replication roles are up *)
  (try
     t.listener <-
       Some
         (Xsb_repl.Net.listen ~accept_errors:(registry, "query") ~host:cfg.host ~port:cfg.port
            (serve t))
   with e -> abandon e);
  if cfg.auto_promote && t.repl_standby <> None then
    t.failover_thread <- Some (Thread.create (fun () -> failover_monitor t) ());
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* 1. no new entries: handlers now answer SHUTTING_DOWN *)
    Gate.stop t.gate;
    (* 2. no new connections *)
    Xsb_repl.Net.stop_accepting (listener t);
    (* 3. drain: no request enters after (1), and every one running or
       waiting at the gate before it completes — zero dropped in flight *)
    Gate.drain t.gate;
    (* 4. wake handlers blocked reading the next frame, and join them *)
    Xsb_repl.Net.close (listener t) Unix.SHUTDOWN_RECEIVE;
    (* the failover monitor may be mid-probe or mid-promotion; join it
       before the replication components and journal come down *)
    (match t.failover_thread with
    | Some th ->
        Thread.join th;
        t.failover_thread <- None
    | None -> ());
    (* the handlers are joined: no request (or promotion) is in flight,
       so the replication components can come down cleanly *)
    (match t.repl_standby with
    | Some s ->
        (try Xsb_repl.Repl.Standby.stop s with _ -> ());
        t.repl_standby <- None
    | None -> ());
    (match t.repl_primary with
    | Some p ->
        (try Xsb_repl.Repl.Primary.stop p with _ -> ());
        t.repl_primary <- None
    | None -> ());
    (* every in-flight mutation has been drained; final sync and close *)
    (match t.shared with
    | Some sh -> ( try Xsb.Journal.close sh.sh_journal with _ -> ())
    | None -> ());
    (match t.cfg.access_log with Some oc -> ( try flush oc with Sys_error _ -> ()) | None -> ());
    match t.cfg.slow_log with Some oc -> ( try flush oc with Sys_error _ -> ()) | None -> ()
  end
