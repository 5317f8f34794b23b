(* Journal-shipping replication (DESIGN.md §13–§14).

   The primary streams its journal — the exact framed bytes the crash
   recovery path already trusts — to standbys over a small wire
   protocol; a standby mirrors those bytes into its own data directory
   through [Journal.Mirror] (so its files are byte-for-byte a prefix of
   the primary's; this module does no file I/O) and
   applies each record to its live session as it decodes. Only bytes
   the primary has fsynced are ever shipped, so a standby can never
   hold state its primary could still lose.

   Wire protocol (one TCP connection per standby; the standby speaks
   first, then both sides talk full-duplex — the primary streams, the
   standby acks):

     standby -> primary   XSBR2 HELLO <epoch> <gen> <off>\n
                          ACK <epoch> <gen> <off>\n        (repeated)
     primary -> standby   EPOCH <epoch>\n                  (first frame)
                          SNAP <gen> <len>\n  <len raw snapshot bytes>
                          DATA <gen> <off> <len>\n  <len raw journal bytes>
                          HB <epoch> <gen> <off>\n
                          ERR <message>\n

   HELLO carries the standby's failover epoch and durable position
   ([0 0] for a brand-new standby, which asks to be seeded). The
   primary fences the handshake: a HELLO from a *higher* epoch means
   this node was deposed (it stops accepting and tells its owner via
   [on_deposed]); a HELLO from a *lower* epoch is admitted only when
   its position is inside the prefix recorded for that epoch in
   epochs.log — anything past the fence diverged on the old timeline
   and must re-seed. EPOCH is the primary's first frame; a standby
   adopts a higher epoch (stamping its mirrored header, since in-place
   epoch rewrites are never re-shipped) and refuses a lower one.

   SNAP is a verbatim snapshot file covering <gen>; it appears at
   bootstrap and at every generation boundary, so the standby's
   (snapshot.bin, journal.log) pair stays consistent for its own crash
   recovery. DATA is a verbatim byte range of generation <gen> (offset
   0 includes the file header). HB carries the primary's durable
   watermark — the standby's lag reference. ACK reports the standby's
   persisted-and-applied frontier; the primary's semi-synchronous
   commit barrier ({!Primary.wait_synced}) counts them. ERR is
   terminal (fencing, or the standby fell behind every retained
   archive). *)

let proto_tag = "XSBR2"
let chunk_bytes = 256 * 1024
let max_blob = 256 * 1024 * 1024
let poll_interval = 0.005
let hb_interval = 0.25
let reconnect_delay = 0.2
let max_line = 256

exception Protocol_error of string

let proto_error fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let read_line ic =
  match Net.read_line ~max:max_line ic with
  | Some line -> line
  | None -> proto_error "replication header line longer than %d bytes" max_line

let parse_len s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= max_blob -> n
  | _ -> proto_error "bad length %S" s

let parse_pos g o =
  match (Int64.of_string_opt g, int_of_string_opt o) with
  | Some g, Some o when Int64.compare g 0L >= 0 && o >= 0 -> (g, o)
  | _ -> proto_error "bad position %S %S" g o

let parse_epoch e =
  match Int64.of_string_opt e with
  | Some e when Int64.compare e 0L >= 0 -> e
  | _ -> proto_error "bad epoch %S" e

(* (gen, off) ordering: generations are totally ordered and offsets
   within one generation are byte offsets of the same file bytes *)
let pos_ge (g1, o1) (g2, o2) =
  Int64.compare g1 g2 > 0 || (Int64.equal g1 g2 && o1 >= o2)

(* the streamer's failpoint site: [Short_write n] ships the first [n]
   bytes of the frame (header line included) and then "crashes" the
   connection — a torn DATA/SNAP the standby must survive *)
let send_frame oc payload =
  match Xsb.Failpoint.check "repl.stream.send" with
  | None ->
      output_string oc payload;
      flush oc
  | Some (Xsb.Failpoint.Short_write n) ->
      let n = min (max n 0) (String.length payload) in
      (try
         output_string oc (String.sub payload 0 n);
         flush oc
       with Sys_error _ -> ());
      raise (Xsb.Failpoint.Injected_crash "repl.stream.send")
  | Some _ -> raise (Xsb.Failpoint.Injected_crash "repl.stream.send")

(* --- the primary: one listener, streamer + ack-reader per standby --- *)

module Primary = struct
  (* per-connection standby bookkeeping, held in a reusable [slot] so
     the per-standby gauge cardinality is bounded by the peak number of
     concurrent standbys, not by the churn of reconnects *)
  type standby_info = {
    si_slot : int;
    mutable si_ack_gen : int64;
    mutable si_ack_off : int;
  }

  type t = {
    journal : Xsb.Journal.t;
    mutable listener : Net.listener option;  (* set by [start] *)
    stopped : bool Atomic.t;
    shipped_bytes : int Atomic.t;
    snapshots_shipped : int Atomic.t;
    registry : Xsb.Metrics.t option;
    on_deposed : (int64 -> unit) option;
    slots : (int, standby_info option ref) Hashtbl.t;
    slots_m : Mutex.t;
    mutable degraded : bool;  (* sticky until a semi-sync wait succeeds again *)
  }

  let listener t = Option.get t.listener
  let port t = Net.port (listener t)
  let standbys t = Net.connections (listener t)

  let shipped_bytes t = Atomic.get t.shipped_bytes
  let degraded t = t.degraded

  let register_slot_gauges t reg slot cell =
    let labels = [ ("standby", string_of_int slot) ] in
    Xsb.Metrics.gauge_fn reg ~labels
      ~help:"1 while this standby slot has a live replication connection."
      "xsb_repl_standby_connected" (fun () ->
        match !cell with Some _ -> 1.0 | None -> 0.0);
    Xsb.Metrics.gauge_fn reg ~labels
      ~help:"Bytes between the primary's durable watermark and this standby's acked frontier."
      "xsb_repl_standby_lag_bytes" (fun () ->
        match !cell with
        | None -> 0.0
        | Some si -> (
            match Xsb.Journal.durable_position t.journal with
            | exception _ -> 0.0
            | pg, po ->
                if Int64.equal pg si.si_ack_gen then float_of_int (max 0 (po - si.si_ack_off))
                else if Int64.compare pg si.si_ack_gen > 0 then 1e9
                else 0.0));
    Xsb.Metrics.gauge_fn reg ~labels
      ~help:"Journal offset this standby last acknowledged as persisted and applied."
      "xsb_repl_standby_acked_off" (fun () ->
        match !cell with None -> 0.0 | Some si -> float_of_int si.si_ack_off)

  let claim_slot t =
    Mutex.lock t.slots_m;
    let rec free n =
      match Hashtbl.find_opt t.slots n with
      | Some r when !r <> None -> free (n + 1)
      | _ -> n
    in
    let slot = free 0 in
    let si = { si_slot = slot; si_ack_gen = 0L; si_ack_off = 0 } in
    let fresh_cell =
      match Hashtbl.find_opt t.slots slot with
      | Some r ->
          r := Some si;
          None
      | None ->
          let r = ref (Some si) in
          Hashtbl.add t.slots slot r;
          Some r
    in
    Mutex.unlock t.slots_m;
    (* gauge registration takes the registry lock; never hold slots_m
       across it (a scrape samples these callbacks under that lock) *)
    (match (fresh_cell, t.registry) with
    | Some cell, Some reg -> register_slot_gauges t reg slot cell
    | _ -> ());
    si

  let release_slot t si =
    Mutex.lock t.slots_m;
    (match Hashtbl.find_opt t.slots si.si_slot with
    | Some r -> ( match !r with Some cur when cur == si -> r := None | _ -> ())
    | None -> ());
    Mutex.unlock t.slots_m

  let acked_count t ~gen ~off =
    (* caller holds slots_m *)
    Hashtbl.fold
      (fun _ r n ->
        match !r with
        | Some si when pos_ge (si.si_ack_gen, si.si_ack_off) (gen, off) -> n + 1
        | _ -> n)
      t.slots 0

  (* The semi-synchronous commit barrier: block until [k] standbys have
     acked (gen, off) or [timeout_s] elapses. Stdlib [Condition] has no
     timed wait, so this polls — a short yield-spin for the common
     sub-millisecond ack, then 0.5 ms naps. The [degraded] flag is
     sticky across timeouts and clears on the next in-time success. *)
  let wait_synced t ~k ~gen ~off ~timeout_s =
    if k <= 0 then true
    else begin
      let deadline = Xsb.Mclock.now () +. timeout_s in
      Mutex.lock t.slots_m;
      let ok = ref (acked_count t ~gen ~off >= k) in
      let spins = ref 0 in
      while (not !ok) && (not (Atomic.get t.stopped)) && Xsb.Mclock.now () < deadline do
        Mutex.unlock t.slots_m;
        if !spins < 64 then begin
          incr spins;
          Thread.yield ()
        end
        else Thread.delay 0.0005;
        Mutex.lock t.slots_m;
        ok := acked_count t ~gen ~off >= k
      done;
      t.degraded <- not !ok;
      Mutex.unlock t.slots_m;
      !ok
    end

  let send_snap t oc gen blob =
    let hdr = Printf.sprintf "SNAP %Ld %d\n" gen (String.length blob) in
    send_frame oc (hdr ^ blob);
    Atomic.incr t.snapshots_shipped

  (* the connection's read half: ACK lines from the standby. Runs until
     the peer closes or the streamer shuts the socket down. *)
  let ack_loop t si ic =
    try
      while not (Atomic.get t.stopped) do
        match Net.words (read_line ic) with
        | [ "ACK"; e; g; o ] ->
            ignore (parse_epoch e);
            (* the handshake already fenced the epoch for this connection *)
            let g, o = parse_pos g o in
            Mutex.lock t.slots_m;
            if pos_ge (g, o) (si.si_ack_gen, si.si_ack_off) then begin
              si.si_ack_gen <- g;
              si.si_ack_off <- o
            end;
            Mutex.unlock t.slots_m
        | ws -> proto_error "unexpected frame from standby %S" (String.concat " " ws)
      done
    with End_of_file | Sys_error _ | Unix.Unix_error _ | Protocol_error _ -> ()

  let stream t oc ~my_epoch ~gen ~off =
    let gen = ref gen and off = ref off in
    (* HELLO 0 0: a standby with no state at all. Seed it from the
       latest snapshot when one exists; otherwise it replays generation
       1 from its header, like recovery would. *)
    if Int64.equal !gen 0L then begin
      (match Xsb.Journal.snapshot_blob t.journal with
      | Some (covered, blob) ->
          send_snap t oc covered blob;
          gen := Int64.succ covered
      | None -> gen := 1L);
      off := 0
    end;
    let last_hb = ref neg_infinity in
    let heartbeat () =
      let now = Xsb.Mclock.now () in
      if now -. !last_hb >= hb_interval then begin
        let pg, po = Xsb.Journal.durable_position t.journal in
        Printf.fprintf oc "HB %Ld %Ld %d\n" my_epoch pg po;
        flush oc;
        last_hb := now
      end
    in
    while not (Atomic.get t.stopped) do
      match Xsb.Journal.read_chunk t.journal ~gen:!gen ~off:!off ~max_bytes:chunk_bytes with
      | Xsb.Journal.Chunk data ->
          let hdr = Printf.sprintf "DATA %Ld %d %d\n" !gen !off (String.length data) in
          send_frame oc (hdr ^ data);
          off := !off + String.length data;
          ignore (Atomic.fetch_and_add t.shipped_bytes (String.length data));
          heartbeat ()
      | Xsb.Journal.Rotated -> (
          (* the standby now holds all of [gen]; hand it the snapshot
             covering [gen] so its local pair stays recoverable, then
             continue with the next generation from its header *)
          match Xsb.Journal.snapshot_blob_for t.journal !gen with
          | Some blob ->
              send_snap t oc !gen blob;
              gen := Int64.succ !gen;
              off := 0
          | None ->
              Printf.fprintf oc "ERR snapshot covering generation %Ld was pruned\n" !gen;
              flush oc;
              raise Exit)
      | Xsb.Journal.Gone ->
          Printf.fprintf oc
            "ERR generation %Ld is gone (standby too far behind the retained archives; re-seed \
             it from an empty data directory)\n"
            !gen;
          flush oc;
          raise Exit
      | Xsb.Journal.At_tip ->
          heartbeat ();
          Thread.delay poll_interval
    done

  (* The handshake fence (DESIGN.md §14). Three cases, checked against
     this primary's epoch E and epochs.log:
       - HELLO epoch > E: *we* are the stale node. Tell the owner via
         [on_deposed] (the server flips read-only) and refuse.
       - HELLO epoch = E, or a fresh standby (0/0): admit.
       - HELLO epoch < E: admit only when the offered position is
         inside the fenced prefix of that epoch — bytes both timelines
         share. Past the fence the standby wrote journal bytes this
         primary never had: it must re-seed. *)
  let fence t oc ~hello_epoch ~hello_gen ~hello_off ~my_epoch =
    if Int64.compare hello_epoch my_epoch > 0 then begin
      (match t.on_deposed with Some f -> f hello_epoch | None -> ());
      Printf.fprintf oc "ERR deposed: peer speaks epoch %Ld, this node is at epoch %Ld\n"
        hello_epoch my_epoch;
      flush oc;
      raise Exit
    end;
    if
      Int64.compare hello_epoch my_epoch < 0
      && not (Int64.equal hello_gen 0L && hello_off = 0)
    then begin
      let inside_fence =
        match Xsb.Journal.epoch_fence t.journal hello_epoch with
        | Some (fg, fo) ->
            Int64.compare hello_gen fg < 0 || (Int64.equal hello_gen fg && hello_off <= fo)
        | None -> false
      in
      if not inside_fence then begin
        Printf.fprintf oc
          "ERR fenced: epoch %Ld position %Ld/%d diverged from this primary's history; re-seed \
           the standby from an empty data directory\n"
          hello_epoch hello_gen hello_off;
        flush oc;
        raise Exit
      end
    end

  let handle t fd =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let si = ref None in
    let acker = ref None in
    (try
       let hello_epoch, hello_gen, hello_off =
         match Net.words (read_line ic) with
         | [ tag; "HELLO"; e; g; o ] when tag = proto_tag ->
             let e = parse_epoch e in
             let g, o = parse_pos g o in
             (e, g, o)
         | _ ->
             proto_error "bad replication handshake (expected %s HELLO <epoch> <gen> <off>)"
               proto_tag
       in
       let my_epoch = Xsb.Journal.epoch t.journal in
       fence t oc ~hello_epoch ~hello_gen ~hello_off ~my_epoch;
       Printf.fprintf oc "EPOCH %Ld\n" my_epoch;
       flush oc;
       let info = claim_slot t in
       si := Some info;
       acker := Some (Thread.create (fun () -> ack_loop t info ic) ());
       stream t oc ~my_epoch ~gen:hello_gen ~off:hello_off
     with
    | Exit | End_of_file | Sys_error _ | Unix.Unix_error _ -> ()
    | Xsb.Failpoint.Injected_crash _ -> ()  (* simulated stream death: drop the connection *)
    | Protocol_error msg -> (
        try
          Printf.fprintf oc "ERR %s\n" msg;
          flush oc
        with Sys_error _ | Unix.Unix_error _ -> ())
    | Xsb.Journal.Io_error _ -> ());
    (* unblock the ack reader before joining it *)
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match !acker with Some th -> Thread.join th | None -> ());
    match !si with Some info -> release_slot t info | None -> ()

  let start ?(host = "127.0.0.1") ?registry ?on_deposed ~port ~journal () =
    let t =
      {
        journal;
        listener = None;
        stopped = Atomic.make false;
        shipped_bytes = Atomic.make 0;
        snapshots_shipped = Atomic.make 0;
        registry;
        on_deposed;
        slots = Hashtbl.create 4;
        slots_m = Mutex.create ();
        degraded = false;
      }
    in
    let accept_errors = Option.map (fun reg -> (reg, "repl")) registry in
    t.listener <- Some (Net.listen ?accept_errors ~host ~port (fun _ fd -> handle t fd));
    (match registry with
    | Some reg ->
        Xsb.Metrics.gauge_fn reg ~help:"Connected replication standbys." "xsb_repl_standbys"
          (fun () -> float_of_int (standbys t));
        Xsb.Metrics.gauge_fn reg ~help:"Raw journal bytes shipped to standbys."
          "xsb_repl_shipped_bytes_total" (fun () -> float_of_int (Atomic.get t.shipped_bytes));
        Xsb.Metrics.gauge_fn reg
          ~help:"Snapshots shipped to standbys (bootstrap and generation boundaries)."
          "xsb_repl_snapshots_shipped_total" (fun () ->
            float_of_int (Atomic.get t.snapshots_shipped));
        Xsb.Metrics.gauge_fn reg
          ~help:
            "1 while semi-synchronous commit is degraded to async (the last sync wait timed \
             out)."
          "xsb_repl_sync_degraded" (fun () -> if t.degraded then 1.0 else 0.0)
    | None -> ());
    t

  let stop t = if not (Atomic.exchange t.stopped true) then Net.close (listener t) Unix.SHUTDOWN_ALL
end

(* --- the standby: connect, mirror, decode, apply, ack --- *)

module Standby = struct
  type status = {
    connected : bool;
    generation : int64;
    applied_off : int;
    applied_records : int;
    primary_generation : int64;
    primary_off : int;
    lag_bytes : int;
    snapshots_received : int;
    epoch : int64;
    seconds_since_contact : float;
    fatal : string option;
  }

  type t = {
    dir : string;
    keep_generations : int;
    primary_host : string;
    primary_port : int;
    apply : Xsb.Journal.mutation -> unit;
    stopped : bool Atomic.t;
    m : Mutex.t;
    mutable gen : int64;  (* local journal generation *)
    mutable applied_off : int;  (* frame-aligned persisted+applied frontier *)
    mutable primary_gen : int64;  (* from HB/DATA *)
    mutable primary_off : int;
    mutable applied_records : int;
    mutable snapshots_received : int;
    mutable epoch : int64;  (* highest epoch seen, from start + EPOCH/HB *)
    mutable last_contact : float;  (* monotonic; any frame from the primary *)
    mutable connected : bool;
    mutable fatal : string option;
    mutable conn_fd : Unix.file_descr option;
    mutable thread : Thread.t option;
  }

  (* unrecoverable by reconnecting (stale position, corrupt stream,
     a mirror I/O failure): the applier parks with the reason instead
     of retrying forever *)
  exception Fatal of string

  let fatal fmt = Printf.ksprintf (fun m -> raise (Fatal m)) fmt

  let with_lock t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let lag_of t =
    if Int64.equal t.primary_gen 0L then 0 (* no heartbeat yet *)
    else if Int64.equal t.primary_gen t.gen then max 0 (t.primary_off - t.applied_off)
    else 1_000_000_000 (* a whole generation behind: effectively infinite *)

  let status t =
    with_lock t (fun () ->
        {
          connected = t.connected;
          generation = t.gen;
          applied_off = t.applied_off;
          applied_records = t.applied_records;
          primary_generation = t.primary_gen;
          primary_off = t.primary_off;
          lag_bytes = lag_of t;
          snapshots_received = t.snapshots_received;
          epoch = t.epoch;
          seconds_since_contact = Xsb.Mclock.now () -. t.last_contact;
          fatal = t.fatal;
        })

  (* A new primary's first EPOCH frame: the mirror stamps the adopted
     epoch into its journal header *)
  let adopt_epoch t mirror e =
    let local = with_lock t (fun () -> t.epoch) in
    if Int64.compare e local < 0 then
      fatal "primary speaks stale epoch %Ld (this standby already saw epoch %Ld)" e local
    else if Int64.compare e local > 0 then begin
      Xsb.Journal.Mirror.stamp_epoch mirror e;
      with_lock t (fun () -> t.epoch <- e)
    end

  (* apply the records the mirror made durable, then publish its new
     frontier [(g, o)]: only what is both persisted and applied is ever
     ACKed *)
  let apply_all t records (g, o) =
    List.iter t.apply records;
    with_lock t (fun () ->
        t.applied_records <- t.applied_records + List.length records;
        t.gen <- g;
        t.applied_off <- o)

  let session t fd mirror =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    (* a fresh mirror starts over at generation 1, offset 0 *)
    apply_all t [] (Xsb.Journal.Mirror.position mirror);
    let hello_gen, hello_off =
      if Xsb.Journal.Mirror.fresh mirror then (0L, 0) else Xsb.Journal.Mirror.position mirror
    in
    Printf.fprintf oc "%s HELLO %Ld %Ld %d\n" proto_tag (with_lock t (fun () -> t.epoch))
      hello_gen hello_off;
    flush oc;
    (* report the persisted+applied frontier back to the primary's
       semi-sync barrier — after every frame that moved it and on every
       heartbeat *)
    let send_ack () =
      (match Xsb.Failpoint.check "repl.standby.ack" with
      | Some _ -> raise (Xsb.Failpoint.Injected_crash "repl.standby.ack")
      | None -> ());
      let e, g, o = with_lock t (fun () -> (t.epoch, t.gen, t.applied_off)) in
      Printf.fprintf oc "ACK %Ld %Ld %d\n" e g o;
      flush oc
    in
    let touch () = with_lock t (fun () -> t.last_contact <- Xsb.Mclock.now ()) in
    while not (Atomic.get t.stopped) do
      let line = read_line ic in
      touch ();
      match Net.words line with
      | [ "DATA"; g; o; lenw ] -> (
          let g, o = parse_pos g o in
          let len = parse_len lenw in
          let data = really_input_string ic len in
          (match Xsb.Failpoint.check "repl.standby.apply" with
          | Some _ -> raise (Xsb.Failpoint.Injected_crash "repl.standby.apply")
          | None -> ());
          match Xsb.Journal.Mirror.data mirror ~gen:g ~off:o data with
          | Error (eg, eo) -> proto_error "DATA at %Ld/%d but standby expects %Ld/%d" g o eg eo
          | Ok (records, frontier) ->
              with_lock t (fun () ->
                  if Int64.equal t.primary_gen g then t.primary_off <- max t.primary_off (o + len)
                  else if Int64.compare t.primary_gen g < 0 then begin
                    t.primary_gen <- g;
                    t.primary_off <- o + len
                  end);
              apply_all t records (g, frontier);
              send_ack ())
      | [ "SNAP"; g; lenw ] -> (
          let covered =
            match Int64.of_string_opt g with
            | Some g when Int64.compare g 0L > 0 -> g
            | _ -> proto_error "bad SNAP generation %S" g
          in
          let blob = really_input_string ic (parse_len lenw) in
          (* seeding a fresh mirror hands back the snapshot's records;
             at a rotation boundary they are already live *)
          match Xsb.Journal.Mirror.snapshot mirror ~covered blob with
          | Error local ->
              fatal
                "primary compacted past this standby's position (generation %Ld vs local %Ld); \
                 re-seed it from an empty data directory"
                covered local
          | Ok records ->
              with_lock t (fun () -> t.snapshots_received <- t.snapshots_received + 1);
              apply_all t records (Xsb.Journal.Mirror.position mirror);
              send_ack ())
      | [ "EPOCH"; e ] ->
          adopt_epoch t mirror (parse_epoch e);
          send_ack ()
      | [ "HB"; e; g; o ] ->
          adopt_epoch t mirror (parse_epoch e);
          let g, o = parse_pos g o in
          with_lock t (fun () ->
              if Int64.compare g t.primary_gen > 0 then begin
                t.primary_gen <- g;
                t.primary_off <- o
              end
              else if Int64.equal g t.primary_gen then t.primary_off <- max t.primary_off o);
          send_ack ()
      | "ERR" :: rest -> fatal "primary refused: %s" (String.concat " " rest)
      | ws -> proto_error "unexpected replication frame %S" (String.concat " " ws)
    done

  let rec nap t s =
    if s > 0.0 && not (Atomic.get t.stopped) then begin
      Thread.delay (Float.min 0.05 s);
      nap t (s -. 0.05)
    end

  (* one session per connection. Each opens the mirror afresh at the
     applied frontier, so bytes a dropped session left past it (a torn
     chunk, an unfinished frame) are truncated before the stream
     resumes there. *)
  let rec run t =
    if (not (Atomic.get t.stopped)) && with_lock t (fun () -> t.fatal) = None then begin
      (match Net.connect t.primary_host t.primary_port with
      | exception (Unix.Unix_error _ | Not_found | Net.Unknown_host _) -> nap t reconnect_delay
      | fd ->
          with_lock t (fun () ->
              t.conn_fd <- Some fd;
              t.connected <- true);
          let park msg = with_lock t (fun () -> t.fatal <- Some msg) in
          (try
             let g, o = with_lock t (fun () -> (t.gen, t.applied_off)) in
             let mirror =
               Xsb.Journal.Mirror.open_ ~dir:t.dir ~keep_generations:t.keep_generations
                 ~generation:g ~offset:o
             in
             Fun.protect
               ~finally:(fun () -> Xsb.Journal.Mirror.close mirror)
               (fun () -> session t fd mirror)
           with
          | Fatal msg -> park msg
          | Xsb.Journal.Io_error { site; message } ->
              (* a failed write or fsync is never applied or ACKed *)
              park (Printf.sprintf "mirror I/O failed at %s: %s" site message)
          | Xsb.Journal.Corrupt_record msg -> park ("corrupt replication stream: " ^ msg)
          | End_of_file | Sys_error _ | Unix.Unix_error _ | Protocol_error _ -> ()
          | Xsb.Failpoint.Injected_crash _ -> ()  (* simulated death: reconnect and resume *)
          | e -> park ("replication apply failed: " ^ Printexc.to_string e));
          with_lock t (fun () ->
              t.conn_fd <- None;
              t.connected <- false);
          (try Unix.close fd with Unix.Unix_error _ -> ());
          nap t reconnect_delay);
      run t
    end

  let start ~primary_host ~primary_port ~dir ~generation ~offset ~epoch ~keep_generations ~apply
      () =
    let t =
      {
        dir;
        keep_generations;
        primary_host;
        primary_port;
        apply;
        stopped = Atomic.make false;
        m = Mutex.create ();
        gen = generation;
        applied_off = offset;
        primary_gen = 0L;
        primary_off = 0;
        applied_records = 0;
        snapshots_received = 0;
        epoch;
        last_contact = Xsb.Mclock.now ();
        connected = false;
        fatal = None;
        conn_fd = None;
        thread = None;
      }
    in
    t.thread <- Some (Thread.create (fun () -> run t) ());
    t

  let stop t =
    if not (Atomic.exchange t.stopped true) then begin
      (match with_lock t (fun () -> t.conn_fd) with
      | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      | None -> ());
      match t.thread with Some th -> Thread.join th | None -> ()
    end
end
