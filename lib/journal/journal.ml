open Xsb_db

(* ---------- sync policies ---------- *)

type sync_policy =
  | Never
  | Interval of int
  | Always
  | Group of { window_us : int; max_batch : int }

let default_group = Group { window_us = 200; max_batch = 256 }

let sync_policy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let interval n =
    match int_of_string_opt n with Some n when n > 0 -> Some (Interval n) | _ -> None
  in
  let group rest =
    (* "MS" or "MS,BATCH"; the window is given in (possibly fractional)
       milliseconds *)
    let window ms =
      match float_of_string_opt ms with
      | Some ms when ms >= 0.0 -> Some (int_of_float (ms *. 1000.0))
      | _ -> None
    in
    match String.index_opt rest ',' with
    | None -> (
        match window rest with
        | Some w -> Some (Group { window_us = w; max_batch = 256 })
        | None -> None)
    | Some i -> (
        let ms = String.sub rest 0 i
        and batch = String.sub rest (i + 1) (String.length rest - i - 1) in
        match (window ms, int_of_string_opt batch) with
        | Some w, Some b when b > 0 -> Some (Group { window_us = w; max_batch = b })
        | _ -> None)
  in
  match s with
  | "never" -> Some Never
  | "always" -> Some Always
  | "interval" -> Some (Interval 64)
  | "group" -> Some default_group
  | _ -> (
      match String.index_opt s '=' with
      | Some i when String.sub s 0 i = "interval" ->
          interval (String.sub s (i + 1) (String.length s - i - 1))
      | Some i when String.sub s 0 i = "group" ->
          group (String.sub s (i + 1) (String.length s - i - 1))
      | _ -> interval s)

let sync_policy_to_string = function
  | Never -> "never"
  | Always -> "always"
  | Interval n -> Printf.sprintf "interval=%d" n
  | Group { window_us; max_batch } ->
      Printf.sprintf "group=%g,%d" (float_of_int window_us /. 1000.0) max_batch

(* ---------- mutation records ---------- *)

(* the records and their codec live in [Record]; the journal frames them *)
type mutation = Record.t

exception Corrupt_record = Record.Corrupt_record

let apply_mutation = Record.apply

(* ---------- framing ---------- *)

(* a bound on one record (one clause), far below an allocation that a
   corrupt length field could use to take the process down *)
let max_record = (256 * 1024 * 1024) + 4096

let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  Codec.put_u32 b (String.length payload);
  Codec.put_u32 b (Crc32.to_int (Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

let frame_record m = frame (Record.encode m)

type read_result =
  | Record of mutation * int
  | End_clean
  | End_torn
  | Corrupt of string

let get_be32 buf pos = Int32.to_int (String.get_int32_be buf pos) land 0xffffffff

let read_framed buf pos =
  let len = String.length buf in
  if pos = len then End_clean
  else if len - pos < 8 then End_torn
  else
    let rlen = get_be32 buf pos in
    let crc = get_be32 buf (pos + 4) in
    if rlen > max_record then
      if pos + 8 + rlen > len then End_torn else Corrupt "implausible record length"
    else if pos + 8 + rlen > len then End_torn
    else
      let payload = String.sub buf (pos + 8) rlen in
      if Crc32.to_int (Crc32.string payload) <> crc then
        (* a bad checksum on the very last record is a torn write; one
           with valid data after it cannot be *)
        if pos + 8 + rlen = len then End_torn else Corrupt "record checksum mismatch"
      else
        match Record.decode payload with
        | m -> Record (m, pos + 8 + rlen)
        | exception Corrupt_record msg -> Corrupt msg

(* records, end-of-valid-prefix offset, how scanning ended *)
let scan buf start =
  let rec go acc pos =
    match read_framed buf pos with
    | Record (m, next) -> go (m :: acc) next
    | End_clean -> (List.rev acc, pos, `Clean)
    | End_torn -> (List.rev acc, pos, `Torn)
    | Corrupt msg -> (List.rev acc, pos, `Corrupt msg)
  in
  go [] start

(* ---------- file headers ---------- *)

let journal_magic = "XSBJNL02"
let snapshot_magic = "XSBSNP03"
let header_len = 24

(* magic (8) | generation (i64 BE) | epoch (i64 BE). The epoch is the
   failover fencing term (DESIGN.md §14): it only ever moves forward,
   at promotion, and every replication frame carries it. *)
let header magic gen epoch =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Buffer.add_int64_be b gen;
  Buffer.add_int64_be b epoch;
  Buffer.contents b

let header_epoch buf = String.get_int64_be buf 16

exception Recovery_error of {
  file : string;
  offset : int;
  records_ok : int;
  message : string;
}

(* a file of the data directory must start with [magic]; another
   version of the same format (its first six bytes agree) is refused by
   name, since no reader for it is kept *)
let check_header ~magic path buf =
  let fail message = raise (Recovery_error { file = path; offset = 0; records_ok = 0; message }) in
  let found = String.sub buf 0 (min 8 (String.length buf)) in
  if found <> magic then
    if String.length found = 8 && String.sub found 0 6 = String.sub magic 0 6 then
      fail (Printf.sprintf "unsupported format %s (this version reads %s)" found magic)
    else fail (Printf.sprintf "bad header: not a %s file" magic);
  if String.length buf < header_len then fail "truncated header"

(* ---------- the journal ---------- *)

type config = {
  dir : string;
  sync : sync_policy;
  compact_bytes : int;
  keep_generations : int;
}

let default_config ~dir =
  { dir; sync = Always; compact_bytes = 8 * 1024 * 1024; keep_generations = 0 }

type stats = {
  mutable records_appended : int;
  mutable bytes_appended : int;
  mutable fsyncs : int;
  mutable compactions : int;
  mutable recovered_records : int;
  mutable torn_bytes_dropped : int;
  mutable recovery_ms : float;
  mutable group_batches : int;
  mutable group_batch_records : int;
}

let fresh_stats () =
  {
    records_appended = 0;
    bytes_appended = 0;
    fsyncs = 0;
    compactions = 0;
    recovered_records = 0;
    torn_bytes_dropped = 0;
    recovery_ms = 0.0;
    group_batches = 0;
    group_batch_records = 0;
  }

type t = {
  cfg : config;
  db : Database.t;
  mutable fd : Unix.file_descr;
  mutable written : int;
  mutable synced : int;
  mutable pending : int;  (* records appended since the last fsync *)
  mutable generation : int64;
  mutable epoch : int64;
  mutable failed_site : string option;
  mutable closed : bool;
  mutable attached : bool;
  (* operator declarations cannot be enumerated back out of [Ops.t],
     so every one that enters the stream is carried into snapshots *)
  mutable op_decls : mutation list;  (* reversed *)
  stats : stats;
  (* concurrency: [m] guards every mutable field above. Byte offsets
     reset at rotation, so commit barriers wait on the cumulative
     record counters instead — those never go backwards. *)
  m : Mutex.t;
  nonempty : Condition.t;  (* wakes the group committer *)
  acked : Condition.t;  (* durability watermark advanced (or failed) *)
  sync_done : Condition.t;  (* the committer left its unlocked fsync *)
  mutable appended_records : int;  (* cumulative across rotations *)
  mutable synced_records : int;  (* cumulative; includes compaction *)
  mutable syncing : bool;  (* committer is inside fsync with [m] free *)
  mutable commit_error : exn option;  (* committer failure, for waiters *)
  mutable committer : Thread.t option;
  mutable stop_committer : bool;
}

exception Io_error of { site : string; message : string }

let io_error site message = raise (Io_error { site; message })

let guard_usable j =
  if j.closed then io_error "journal" "journal is closed";
  match j.failed_site with
  | Some site -> io_error site "journal write path failed earlier; reopen to recover"
  | None -> ()

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

(* poisoning must also wake commit-barrier waiters: a journal that will
   never sync again must raise in them, not strand them *)
let mark_failed j site =
  j.failed_site <- Some site;
  Condition.broadcast j.acked;
  Condition.broadcast j.sync_done

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The one failpoint wrapper of the write path: [f] runs after the
   failpoint [site]. An injected [Fail], or a Unix error from [f],
   calls [poison site] and raises the typed [Io_error] (for the journal
   that poisoning is the server's read-only trigger); an injected crash
   calls [poison site] and raises [Failpoint.Injected_crash] after
   [torn n] has mimicked the first [n] bytes of a short write.
   [~fp:false] skips the failpoint: recovery's own writes have none. *)
let io ?(fp = true) ?(torn = ignore) ?(poison = ignore) site f =
  (match if fp then Failpoint.check site else None with
  | None -> ()
  | Some Failpoint.Fail ->
      poison site;
      io_error site "injected I/O failure"
  | Some action ->
      poison site;
      (match action with
      | Failpoint.Short_write n -> ( try torn n with Unix.Unix_error _ -> ())
      | Failpoint.Fail | Failpoint.Crash -> ());
      raise (Failpoint.Injected_crash site));
  try f ()
  with Unix.Unix_error (e, _, _) ->
    poison site;
    io_error site (Unix.error_message e)

let write_at ?fp ?poison site fd bytes =
  io ?fp ?poison site
    ~torn:(fun n -> write_all fd (String.sub bytes 0 (min (max n 0) (String.length bytes))))
    (fun () -> write_all fd bytes)

(* directory fsync: makes a rename durable. Some filesystems refuse
   fsync on directories; that is not a data-loss signal. *)
let fsync_dir_raw dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      close_noerr fd

let sync_dir ?poison site dir = io ?poison site (fun () -> fsync_dir_raw dir)

(* Atomic publish, the one way a file of the data directory is
   replaced: [bytes] go to [path].tmp, which is fsynced and renamed over
   [path], so a crash leaves either the old file or the whole new one —
   never a torn one. The caller fsyncs the directory to make the rename
   durable. Returns the new file's fd (a new inode: a hard link to the
   old file keeps the old bytes), positioned after [bytes]. The three
   sites name the write, the fsync and the rename. *)
let publish ?fp ?poison (write, sync, rename) path bytes =
  let tmp = path ^ ".tmp" in
  let fd =
    io ~fp:false ?poison write (fun () ->
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  match
    write_at ?fp ?poison write fd bytes;
    io ?fp ?poison sync (fun () -> Unix.fsync fd);
    io ?fp ?poison rename (fun () -> Unix.rename tmp path)
  with
  | () -> fd
  | exception e ->
      close_noerr fd;
      raise e

(* the one header-epoch stamp: rewrite the 8 epoch bytes of a journal
   header in place (the rest of the file is untouched, so mirrors stay
   byte-prefixes everywhere except this one fenced field). A file not
   yet past its header is left alone: the header still to come carries
   the epoch it was written with. *)
let stamp_header_epoch ?fp (write, sync) path epoch =
  let fd = io ~fp:false write (fun () -> Unix.openfile path [ Unix.O_WRONLY ] 0o644) in
  Fun.protect ~finally:(fun () -> close_noerr fd) @@ fun () ->
  if io ~fp:false write (fun () -> Unix.lseek fd 0 Unix.SEEK_END) >= header_len then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 epoch;
    io ~fp:false write (fun () -> ignore (Unix.lseek fd 16 Unix.SEEK_SET));
    write_at ?fp write fd (Bytes.to_string b);
    io ?fp sync (fun () -> Unix.fsync fd)
  end

(* ---------- recovery ---------- *)

let read_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let journal_path cfg = Filename.concat cfg.dir "journal.log"
let snapshot_path cfg = Filename.concat cfg.dir "snapshot.bin"
let epochs_path cfg = Filename.concat cfg.dir "epochs.log"

(* a fresh journal containing only its header, published atomically
   so a crash can never leave a torn header behind. The returned fd
   stays valid across the rename and is positioned at the end of the
   header. *)
let create_journal_file jpath gen epoch =
  let site = "journal.open" in
  let fd = publish ~fp:false (site, site, site) jpath (header journal_magic gen epoch) in
  fsync_dir_raw (Filename.dirname jpath);
  fd

(* ---------- the group committer ---------- *)

(* fsync now (caller holds [m]) and release every barrier waiter *)
let do_sync j =
  io ~poison:(mark_failed j) "journal.append.sync" (fun () -> Unix.fsync j.fd);
  j.synced <- j.written;
  j.synced_records <- j.appended_records;
  j.pending <- 0;
  j.stats.fsyncs <- j.stats.fsyncs + 1;
  Condition.broadcast j.acked

(* wait (holding [m]) until the cumulative durable-record watermark
   covers [target], re-raising a committer failure into the waiter *)
let rec await_records j target =
  if j.synced_records >= target then ()
  else
    match j.commit_error with
    | Some e -> raise e
    | None -> (
        match j.failed_site with
        | Some site -> io_error site "journal write path failed; record not durable"
        | None ->
            Condition.wait j.acked j.m;
            await_records j target)

(* The dedicated group-commit thread: writers enqueue records and block
   on [acked]; this thread performs one fsync covering the whole batch.
   After each ack it waits a settle window (yield-based — stdlib
   [Condition] has no timed wait) for the just-released writers to get
   their next record in, so batches converge on the writer count
   instead of alternating 1 / w-1. *)
let committer_loop j window_us max_batch =
  let window_s = float_of_int window_us *. 1e-6 in
  let quiet_s = Float.min 25e-6 (Float.max 5e-6 (window_s *. 0.25)) in
  Mutex.lock j.m;
  while not j.stop_committer do
    while
      (not j.stop_committer)
      && (j.written = j.synced || j.failed_site <> None || j.commit_error <> None)
    do
      Condition.wait j.nonempty j.m
    done;
    if not j.stop_committer then begin
      (if window_us > 0 then
         let deadline = Xsb_obs.Mclock.now () +. window_s in
         let last = ref j.appended_records in
         let last_growth = ref (Xsb_obs.Mclock.now ()) in
         let continue = ref true in
         while !continue do
           if
             j.stop_committer || j.failed_site <> None
             || j.appended_records - j.synced_records >= max_batch
           then continue := false
           else begin
             Mutex.unlock j.m;
             Thread.yield ();
             Mutex.lock j.m;
             let t = Xsb_obs.Mclock.now () in
             if j.appended_records > !last then begin
               last := j.appended_records;
               last_growth := t
             end;
             if t >= deadline || t -. !last_growth >= quiet_s then continue := false
           end
         done);
      if j.failed_site = None && j.written > j.synced then begin
        let upto_bytes = j.written and upto_records = j.appended_records in
        (* fsync with [m] released so writers keep enqueueing the next
           batch; [syncing] keeps compaction from swapping the fd away
           underneath the in-flight fsync *)
        j.syncing <- true;
        Mutex.unlock j.m;
        let failure =
          try
            io ~poison:(mark_failed j) "journal.append.sync" (fun () -> Unix.fsync j.fd);
            None
          with e -> Some e
        in
        Mutex.lock j.m;
        j.syncing <- false;
        (match failure with
        | None ->
            if upto_bytes > j.synced then begin
              j.stats.group_batches <- j.stats.group_batches + 1;
              j.stats.group_batch_records <-
                j.stats.group_batch_records + (upto_records - j.synced_records);
              j.synced <- upto_bytes;
              j.synced_records <- max j.synced_records upto_records;
              j.pending <- j.appended_records - upto_records;
              j.stats.fsyncs <- j.stats.fsyncs + 1
            end
        | Some e -> if j.commit_error = None then j.commit_error <- Some e);
        Condition.broadcast j.acked;
        Condition.broadcast j.sync_done
      end
    end
  done;
  Mutex.unlock j.m

let start_committer j =
  match j.cfg.sync with
  | Group { window_us; max_batch } ->
      j.committer <- Some (Thread.create (fun () -> committer_loop j window_us max_batch) ())
  | Never | Interval _ | Always -> ()

let open_common ~replay ~tolerate_corruption cfg db =
  let t0 = Unix.gettimeofday () in
  mkdir_p cfg.dir;
  let jpath = journal_path cfg and spath = snapshot_path cfg in
  let stats = fresh_stats () in
  let op_decls = ref [] in
  let recovery_error file offset records_ok message =
    raise (Recovery_error { file; offset; records_ok; message })
  in
  let apply_all file records =
    List.iteri
      (fun i m ->
        (match m with Record.Declare_op _ -> op_decls := m :: !op_decls | _ -> ());
        if replay then
          try Record.apply db m
          with Corrupt_record msg -> recovery_error file (-1) i ("record failed to apply: " ^ msg))
      records;
    if replay then stats.recovered_records <- stats.recovered_records + List.length records
  in
  (* 1. the snapshot. It is published atomically, so unlike the journal
     it has no legitimate torn tail: anything short of clean is
     corruption (recoverable as a prefix only under
     [~tolerate_corruption]). *)
  let snap_gen, snap_epoch =
    match read_file spath with
    | None -> (0L, 1L)
    | Some buf ->
        check_header ~magic:snapshot_magic spath buf;
        let gen = String.get_int64_be buf 8 in
        let records, end_pos, status = scan buf header_len in
        (match status with
        | `Clean -> ()
        | (`Torn | `Corrupt _) when tolerate_corruption -> ()
        | `Torn -> recovery_error spath end_pos (List.length records) "truncated snapshot"
        | `Corrupt msg -> recovery_error spath end_pos (List.length records) msg);
        apply_all spath records;
        (gen, header_epoch buf)
  in
  (* 2. the journal tail *)
  let generation, epoch, fd, written =
    match read_file jpath with
    | None ->
        let g = Int64.add snap_gen 1L in
        (g, snap_epoch, create_journal_file jpath g snap_epoch, header_len)
    | Some buf when String.length buf < header_len ->
        (* crashed while the very first header was being written: no
           record can ever have followed it *)
        let g = Int64.add snap_gen 1L in
        (g, snap_epoch, create_journal_file jpath g snap_epoch, header_len)
    | Some buf ->
        check_header ~magic:journal_magic jpath buf;
        let g = String.get_int64_be buf 8 in
        let e =
          let je = header_epoch buf in
          if Int64.compare je snap_epoch > 0 then je else snap_epoch
        in
        if Int64.compare g snap_gen <= 0 then begin
          (* stale: the crash hit compaction after the snapshot rename
             but before the journal rotation — every record here is
             already inside the snapshot, so replaying would double
             them. Rotate to the next generation. *)
          let g' = Int64.add snap_gen 1L in
          (g', e, create_journal_file jpath g' e, header_len)
        end
        else if Int64.compare g (Int64.add snap_gen 1L) > 0 then
          recovery_error jpath 8 0
            (Printf.sprintf "journal generation %Ld skips snapshot generation %Ld" g snap_gen)
        else begin
          let records, end_pos, status = scan buf header_len in
          (match status with
          | `Clean -> ()
          | `Torn -> stats.torn_bytes_dropped <- String.length buf - end_pos
          | `Corrupt _ when tolerate_corruption ->
              stats.torn_bytes_dropped <- String.length buf - end_pos
          | `Corrupt msg -> recovery_error jpath end_pos (List.length records) msg);
          apply_all jpath records;
          (* drop the torn tail so the next append starts at the end of
             the valid prefix *)
          let fd =
            try Unix.openfile jpath [ Unix.O_WRONLY ] 0o644
            with Unix.Unix_error (e, _, _) -> io_error "journal.open" (Unix.error_message e)
          in
          (try
             if end_pos < String.length buf then Unix.ftruncate fd end_pos;
             ignore (Unix.lseek fd end_pos Unix.SEEK_SET);
             Unix.fsync fd
           with Unix.Unix_error (e, _, _) ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             io_error "journal.open" (Unix.error_message e));
          (g, e, fd, end_pos)
        end
  in
  stats.recovery_ms <- 1000.0 *. (Unix.gettimeofday () -. t0);
  let j =
    {
      cfg;
      db;
      fd;
      written;
      synced = written;
      pending = 0;
      generation;
      epoch;
      failed_site = None;
      closed = false;
      attached = false;
      op_decls = !op_decls;
      stats;
      m = Mutex.create ();
      nonempty = Condition.create ();
      acked = Condition.create ();
      sync_done = Condition.create ();
      appended_records = 0;
      synced_records = 0;
      syncing = false;
      commit_error = None;
      committer = None;
      stop_committer = false;
    }
  in
  start_committer j;
  j

let open_ ?(tolerate_corruption = false) cfg db =
  open_common ~replay:true ~tolerate_corruption cfg db

(* recovery bookkeeping without replay: for a standby whose database is
   already live (it applied the stream as it arrived), promotion needs a
   writable journal positioned at the end of the mirrored file — minus
   any torn tail — with the op-declaration list snapshots will need. *)
let resume ?(tolerate_corruption = false) cfg db =
  open_common ~replay:false ~tolerate_corruption cfg db

(* ---------- appending ---------- *)

(* everything reachable from the database right now, as one snapshot
   record stream: the records that rebuild each predicate, then the
   HiLog, module and operator declarations. The declarations come last
   because rebuilding a predicate starts by removing it, which drops a
   HiLog declaration no other predicate of that name still uses. *)
let snapshot_records j =
  List.concat_map Record.of_pred (Database.preds j.db)
  @ List.map (fun s -> Record.Declare_hilog s) (Database.hilog_symbols j.db)
  @ List.map
      (fun (m : Database.module_info) ->
        Record.Declare_module
          { module_name = m.Database.module_name; exports = m.Database.exports })
      (Database.modules j.db)
  @ List.rev j.op_decls

(* ---------- generation archives ---------- *)

let archive_journal_path cfg gen =
  Filename.concat cfg.dir (Printf.sprintf "journal.%Ld.log" gen)

let archive_snapshot_path cfg gen =
  Filename.concat cfg.dir (Printf.sprintf "snapshot.%Ld.bin" gen)

(* archive by hard link: the rotation rename then replaces the
   directory entry while the old inode lives on under the archive name
   — no data is copied. Best-effort: a crash in between just leaves an
   archive that the next rotation overwrites. *)
let link_replace src dst =
  (try Unix.unlink dst with Unix.Unix_error _ -> ());
  try Unix.link src dst with Unix.Unix_error _ -> ()

(* keep the newest [keep_generations] archived journals (plus the
   snapshots needed to replay them: journal.<g>.log replays on top of
   snapshot.<g-1>.bin) *)
let prune_archives cfg ~next_gen =
  if cfg.keep_generations > 0 then
    match Sys.readdir cfg.dir with
    | exception Sys_error _ -> ()
    | entries ->
        let keep_from = Int64.sub next_gen (Int64.of_int cfg.keep_generations) in
        Array.iter
          (fun name ->
            let unlink () =
              try Unix.unlink (Filename.concat cfg.dir name) with Unix.Unix_error _ -> ()
            in
            match Scanf.sscanf_opt name "journal.%Ld.log%!" (fun g -> g) with
            | Some g when Int64.compare g keep_from < 0 -> unlink ()
            | Some _ -> ()
            | None -> (
                match Scanf.sscanf_opt name "snapshot.%Ld.bin%!" (fun g -> g) with
                | Some g when Int64.compare g (Int64.pred keep_from) < 0 -> unlink ()
                | _ -> ()))
          entries

(* the generation a file's header names, if it has a whole header *)
let header_generation path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          if in_channel_length ic < header_len then None
          else Some (String.get_int64_be (really_input_string ic header_len) 8))

(* The generation boundary, the one sequence both writers of a data
   directory run (compaction on a primary, {!Mirror.snapshot} on a
   standby). With [archive], the outgoing snapshot.bin is set aside
   under the generation its header names (the replay base of the
   oldest archived journal). [snapshot], covering [gen], is published
   and [published] runs once it is durable: from here on recovery
   prefers it and ignores the stale-generation journal. With
   [archive], the outgoing journal.log is kept as journal.<gen>.log.
   Then [journal] (the first bytes of generation [gen + 1]) is
   published as the new journal.log — a new inode, so the archive
   keeps the old bytes — and its fd goes to [switch] before the
   directory fsync: the rename is the commit point. Last, old
   archives are pruned. [sites] names the write, fsync and rename of
   each publish and the directory fsync. *)
let rotate cfg ~poison ~sites:(snap_sites, journal_sites, dir_site) ~archive ~gen ~snapshot
    ~journal ~published ~switch =
  let jpath = journal_path cfg and spath = snapshot_path cfg in
  (if archive then
     match header_generation spath with
     | Some g -> link_replace spath (archive_snapshot_path cfg g)
     | None -> ());
  close_noerr (publish ~poison snap_sites spath snapshot);
  sync_dir ~poison dir_site cfg.dir;
  published ();
  if archive then link_replace jpath (archive_journal_path cfg gen);
  switch (publish ~poison journal_sites jpath journal);
  sync_dir ~poison dir_site cfg.dir;
  prune_archives cfg ~next_gen:(Int64.succ gen)

let compact_locked j =
  guard_usable j;
  (* never swap the fd away underneath the committer's in-flight fsync *)
  while j.syncing do
    Condition.wait j.sync_done j.m
  done;
  guard_usable j;
  let archive = j.cfg.keep_generations > 0 in
  (* when archiving, settle the outgoing generation onto disk so the
     archived file is complete *)
  if archive && j.written > j.synced then do_sync j;
  let b = Buffer.create 65536 in
  Buffer.add_string b (header snapshot_magic j.generation j.epoch);
  List.iter (fun m -> Buffer.add_string b (frame_record m)) (snapshot_records j);
  let next = Int64.add j.generation 1L in
  rotate j.cfg ~poison:(mark_failed j) ~archive ~gen:j.generation
    ~sites:
      ( ("snapshot.write", "snapshot.sync", "snapshot.rename"),
        ("journal.rotate.write", "journal.rotate.sync", "journal.rotate.rename"),
        "dir.sync" )
    ~snapshot:(Buffer.contents b) ~journal:(header journal_magic next j.epoch)
    ~published:(fun () ->
      (* everything enqueued so far is now durable through the
         snapshot, whether or not its journal bytes were ever fsynced *)
      j.synced_records <- j.appended_records;
      Condition.broadcast j.acked)
    ~switch:(fun fd ->
      close_noerr j.fd;
      j.fd <- fd;
      j.generation <- next;
      j.written <- header_len;
      j.synced <- header_len;
      j.pending <- 0);
  j.stats.compactions <- j.stats.compactions + 1

let with_lock j f =
  Mutex.lock j.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock j.m) f

let compact j = with_lock j (fun () -> compact_locked j)

(* the shared append path: write [ms] (pre-framed into [bytes]) as one
   [write(2)], then apply the sync policy. Under [Group], [wait] decides
   whether to block on the commit barrier here ([append]/[append_batch])
   or leave that to a later {!barrier} (the deferred hook of [attach],
   used by the server so the fsync wait happens outside its session
   lock). *)
let append_k j ~wait ms =
  match ms with
  | [] -> ()
  | ms ->
      let bytes = String.concat "" (List.map frame_record ms) in
      let n = List.length ms in
      with_lock j @@ fun () ->
      guard_usable j;
      List.iter
        (fun m -> match m with Record.Declare_op _ -> j.op_decls <- m :: j.op_decls | _ -> ())
        ms;
      write_at ~poison:(mark_failed j) "journal.append.write" j.fd bytes;
      j.written <- j.written + String.length bytes;
      j.pending <- j.pending + n;
      j.appended_records <- j.appended_records + n;
      j.stats.records_appended <- j.stats.records_appended + n;
      j.stats.bytes_appended <- j.stats.bytes_appended + String.length bytes;
      (match j.cfg.sync with
      | Always -> do_sync j
      | Interval k -> if j.pending >= k then do_sync j
      | Never -> ()
      | Group _ ->
          Condition.signal j.nonempty;
          if wait then await_records j j.appended_records);
      if j.cfg.compact_bytes > 0 && j.written >= j.cfg.compact_bytes then compact_locked j

let append j m = append_k j ~wait:true [ m ]
let append_batch j ms = append_k j ~wait:true ms

let barrier j =
  with_lock j @@ fun () ->
  match j.cfg.sync with
  | Group _ when j.synced_records < j.appended_records ->
      guard_usable j;
      Condition.signal j.nonempty;
      await_records j j.appended_records
  | _ -> ()

let sync j =
  with_lock j @@ fun () ->
  guard_usable j;
  match j.cfg.sync with
  | Group _ ->
      if j.synced_records < j.appended_records || j.written > j.synced then begin
        Condition.signal j.nonempty;
        await_records j j.appended_records;
        (* record watermarks can be satisfied by a compaction while raw
           bytes still trail; settle those directly *)
        if j.written > j.synced && not j.syncing then do_sync j
      end
  | Never | Interval _ | Always -> if j.written > j.synced || j.pending > 0 then do_sync j

let close j =
  Mutex.lock j.m;
  if j.closed then Mutex.unlock j.m
  else begin
    (* retire the committer first so the final sync below is ours *)
    j.stop_committer <- true;
    Condition.broadcast j.nonempty;
    let committer = j.committer in
    Mutex.unlock j.m;
    (match committer with Some th -> Thread.join th | None -> ());
    Mutex.lock j.m;
    if not j.closed then begin
      if j.failed_site = None && j.written > j.synced then (try do_sync j with _ -> ());
      j.synced_records <- max j.synced_records j.appended_records;
      j.closed <- true;
      (try Unix.close j.fd with Unix.Unix_error _ -> ());
      Condition.broadcast j.acked
    end;
    Mutex.unlock j.m
  end

let attach ?(deferred = false) j =
  if not j.attached then begin
    j.attached <- true;
    (* closed journals go quiet (a detached CLI session keeps working);
       failed ones keep raising so the caller can degrade explicitly.
       [deferred] skips the group-commit barrier inside the hook — the
       caller promises to call {!barrier} before acknowledging. *)
    let record m = if not j.closed then append_k j ~wait:(not deferred) [ Record.of_db_mutation m ] in
    Database.on_mutation j.db record
  end

let written_bytes j = with_lock j (fun () -> j.written)
let durable_bytes j = with_lock j (fun () -> j.synced)
let generation j = with_lock j (fun () -> j.generation)
let position j = with_lock j (fun () -> (j.generation, j.written))
let durable_position j = with_lock j (fun () -> (j.generation, j.synced))
let failed j = j.failed_site
let stats j = j.stats

(* ---------- epochs (failover fencing) ---------- *)

let epoch j = with_lock j (fun () -> j.epoch)

(* Promotion: retire the current epoch, recording where its authority
   ends (the fence), and stamp the next epoch into the live journal
   header. The fence line in epochs.log is what lets this node — as a
   future primary — accept a stale-epoch standby that stayed within the
   old epoch's replicated prefix, and refuse one that diverged past it
   (a deposed primary with unshipped writes). *)
let bump_epoch j =
  with_lock j @@ fun () ->
  guard_usable j;
  (* settle the outgoing epoch on disk so the fence position is final *)
  while j.syncing do
    Condition.wait j.sync_done j.m
  done;
  guard_usable j;
  if j.written > j.synced then do_sync j;
  let old = j.epoch in
  let next = Int64.add old 1L in
  let epath = epochs_path j.cfg in
  let site = "epoch.fence" in
  let fd =
    io ~fp:false site (fun () ->
        Unix.openfile epath [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644)
  in
  Fun.protect ~finally:(fun () -> close_noerr fd) (fun () ->
      write_at ~fp:false site fd (Printf.sprintf "%Ld %Ld %d\n" old j.generation j.synced);
      io ~fp:false site (fun () -> Unix.fsync fd));
  let site = "epoch.stamp" in
  stamp_header_epoch ~fp:false (site, site) (journal_path j.cfg) next;
  fsync_dir_raw j.cfg.dir;
  j.epoch <- next;
  next

(* where [epoch]'s authority ended on this node, from epochs.log *)
let epoch_fence j e =
  match read_file (epochs_path j.cfg) with
  | None -> None
  | Some buf ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line " %Ld %Ld %d" (fun ep g o -> (ep, g, o)) with
          | Some (ep, g, o) when Int64.equal ep e -> Some (g, o)
          | _ -> acc)
        None
        (String.split_on_char '\n' buf)

(* ---------- streaming reads (the replication feed) ---------- *)

type chunk =
  | Chunk of string  (** raw framed bytes starting at the given offset *)
  | Rotated  (** past the end of an archived generation: advance *)
  | At_tip  (** caller is at the durable frontier of the live file *)
  | Gone  (** that generation is not on disk (pruned or never existed) *)

let read_range path off len =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          if off >= size then Some ""
          else begin
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let len = min len (size - off) in
            let buf = Bytes.create len in
            let rec go got =
              if got >= len then len
              else
                match Unix.read fd buf got (len - got) with 0 -> got | n -> go (got + n)
            in
            let got = go 0 in
            Some (Bytes.sub_string buf 0 got)
          end)

(* only bytes covered by an fsync are ever handed out: a standby must
   never hold bytes its primary could still lose in a crash *)
let read_chunk j ~gen ~off ~max_bytes =
  with_lock j @@ fun () ->
  let c = Int64.compare gen j.generation in
  if c > 0 then Gone
  else if c = 0 then begin
    if off >= j.synced then At_tip
    else
      match read_range (journal_path j.cfg) off (min max_bytes (j.synced - off)) with
      | Some "" | None -> At_tip
      | Some data -> Chunk data
  end
  else begin
    match read_range (archive_journal_path j.cfg gen) off max_bytes with
    | None -> Gone
    | Some "" -> Rotated
    | Some data -> Chunk data
  end

let snapshot_blob j =
  with_lock j @@ fun () ->
  match read_file (snapshot_path j.cfg) with
  | Some buf when String.length buf >= header_len -> Some (String.get_int64_be buf 8, buf)
  | Some _ | None -> None

(* the snapshot covering exactly [gen]: the live one if it is current,
   else the archived copy kept alongside the archived journals — what a
   standby needs at each generation boundary to keep its local
   (snapshot, journal) pair consistent *)
let snapshot_blob_for j gen =
  with_lock j @@ fun () ->
  let covering path =
    match read_file path with
    | Some buf when String.length buf >= header_len && Int64.equal (String.get_int64_be buf 8) gen
      ->
        Some buf
    | Some _ | None -> None
  in
  match covering (snapshot_path j.cfg) with
  | Some buf -> Some buf
  | None -> covering (archive_snapshot_path j.cfg gen)

(* ---------- the standby's mirror ---------- *)

module Mirror = struct
  type nonrec t = {
    cfg : config;
    mutable fd : Unix.file_descr;  (* journal.log, positioned at [frontier + pending] *)
    mutable gen : int64;
    mutable frontier : int;  (* frame-aligned: every byte before it has been returned *)
    pending : Buffer.t;  (* durable bytes past the frontier: an unfinished frame *)
    mutable fresh : bool;  (* no state, and nothing received since opening *)
  }

  (* the mirror's own failpoint sites, so arming a primary's journal
     site never fires inside an in-process standby. Nothing is
     poisoned: after an I/O error the caller stops using the mirror. *)
  let write_site = "mirror.write"
  let sync_site = "mirror.sync"

  let open_ ~dir ~keep_generations ~generation ~offset =
    let cfg = { (default_config ~dir) with keep_generations } in
    (* a directory that has never applied anything and has no
       snapshot asks to be seeded rather than for generation-1 bytes
       its primary may long have compacted away *)
    let fresh =
      Int64.equal generation 1L && offset <= header_len
      && not (Sys.file_exists (snapshot_path cfg))
    in
    let frontier = if fresh then 0 else offset in
    let fd =
      io ~fp:false write_site (fun () ->
          Unix.openfile (journal_path cfg) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)
    in
    (* drop bytes past the frontier: the tail of a frame the previous
       session never finished receiving *)
    (try
       io ~fp:false write_site (fun () ->
           Unix.ftruncate fd frontier;
           ignore (Unix.lseek fd frontier Unix.SEEK_SET))
     with e ->
       close_noerr fd;
       raise e);
    {
      cfg;
      fd;
      gen = (if fresh then 1L else generation);
      frontier;
      pending = Buffer.create 4096;
      fresh;
    }

  let position t = (t.gen, t.frontier)
  let fresh t = t.fresh
  let close t = close_noerr t.fd

  (* decode the whole frames now in [pending] (after the generation
     header, which must be complete before the frontier moves) *)
  let drain t =
    let buf = Buffer.contents t.pending in
    let skip = max 0 (header_len - t.frontier) in
    if String.length buf < skip then []
    else begin
      if t.frontier = 0 && String.sub buf 0 8 <> journal_magic then
        raise
          (Corrupt_record
             (Printf.sprintf "replicated generation %Ld does not start with a journal header" t.gen));
      let records, stop, status = scan buf skip in
      (match status with `Corrupt msg -> raise (Corrupt_record msg) | `Clean | `Torn -> ());
      Buffer.clear t.pending;
      Buffer.add_substring t.pending buf stop (String.length buf - stop);
      t.frontier <- t.frontier + stop;
      records
    end

  let data t ~gen ~off chunk =
    t.fresh <- false;
    let expected = t.frontier + Buffer.length t.pending in
    if not (Int64.equal gen t.gen && off = expected) then Error (t.gen, expected)
    else begin
      write_at write_site t.fd chunk;
      io sync_site (fun () -> Unix.fsync t.fd);
      Buffer.add_string t.pending chunk;
      let records = drain t in
      Ok (records, t.frontier)
    end

  let snapshot t ~covered blob =
    if
      String.length blob < header_len
      || String.sub blob 0 8 <> snapshot_magic
      || not (Int64.equal (String.get_int64_be blob 8) covered)
    then raise (Corrupt_record (Printf.sprintf "bad snapshot blob for generation %Ld" covered));
    let seed = t.fresh in
    if not (seed || (Int64.equal covered t.gen && Buffer.length t.pending = 0)) then Error t.gen
    else begin
      let records =
        if not seed then []
        else
          match scan blob header_len with
          | records, _, `Clean -> records
          | _ -> raise (Corrupt_record "corrupt snapshot stream")
      in
      (* an empty journal.log is a valid crash state: recovery recreates
         the header for generation covered+1, which is exactly what the
         next DATA frame will deliver. Only a mirror that held [covered]
         archives it; a seeded one held nothing. *)
      let sites = (write_site, sync_site, sync_site) in
      rotate t.cfg ~poison:ignore ~sites:(sites, sites, sync_site)
        ~archive:((not seed) && t.cfg.keep_generations > 0)
        ~gen:covered ~snapshot:blob ~journal:"" ~published:ignore
        ~switch:(fun fd ->
          close_noerr t.fd;
          t.fd <- fd;
          t.gen <- Int64.succ covered;
          t.frontier <- 0;
          Buffer.clear t.pending;
          t.fresh <- false);
      Ok records
    end

  let stamp_epoch t epoch =
    stamp_header_epoch (write_site, sync_site) (journal_path t.cfg) epoch
end

(* ---------- point-in-time recovery from the archives ---------- *)

let recover_at ?(upto = max_int) ~dir ~generation:gen db =
  let cfg = default_config ~dir in
  let recovery_error file offset records_ok message =
    raise (Recovery_error { file; offset; records_ok; message })
  in
  let scan_file ~magic ~want_gen path buf =
    check_header ~magic path buf;
    let g = String.get_int64_be buf 8 in
    if Int64.compare g want_gen <> 0 then
      recovery_error path 8 0
        (Printf.sprintf "file covers generation %Ld, wanted %Ld" g want_gen);
    let records, end_pos, status = scan buf header_len in
    (match status with
    | `Clean | `Torn -> ()  (* a torn tail is still a valid prefix *)
    | `Corrupt msg -> recovery_error path end_pos (List.length records) msg);
    records
  in
  (* 1. the base state: the snapshot taken when generation [gen] began *)
  let base = Int64.pred gen in
  if Int64.compare base 0L > 0 then begin
    let path =
      let archived = archive_snapshot_path cfg base in
      if Sys.file_exists archived then archived else snapshot_path cfg
    in
    match read_file path with
    | None -> recovery_error path 0 0 (Printf.sprintf "no snapshot for generation %Ld" base)
    | Some buf ->
        List.iter (Record.apply db) (scan_file ~magic:snapshot_magic ~want_gen:base path buf)
  end;
  (* 2. replay the generation itself, up to the requested record *)
  let path =
    let archived = archive_journal_path cfg gen in
    if Sys.file_exists archived then archived else journal_path cfg
  in
  match read_file path with
  | None -> recovery_error path 0 0 (Printf.sprintf "no journal for generation %Ld" gen)
  | Some buf ->
      let records = scan_file ~magic:journal_magic ~want_gen:gen path buf in
      let applied = ref 0 in
      List.iter
        (fun m ->
          if !applied < upto then begin
            Record.apply db m;
            incr applied
          end)
        records;
      !applied

let stats_json j =
  with_lock j @@ fun () ->
  Xsb_obs.Json.Obj
    [
      ("generation", Xsb_obs.Json.Int (Int64.to_int j.generation));
      ("epoch", Xsb_obs.Json.Int (Int64.to_int j.epoch));
      ("sync", Xsb_obs.Json.String (sync_policy_to_string j.cfg.sync));
      ("records_appended", Xsb_obs.Json.Int j.stats.records_appended);
      ("bytes_appended", Xsb_obs.Json.Int j.stats.bytes_appended);
      ("fsyncs", Xsb_obs.Json.Int j.stats.fsyncs);
      ("compactions", Xsb_obs.Json.Int j.stats.compactions);
      ("recovered_records", Xsb_obs.Json.Int j.stats.recovered_records);
      ("torn_bytes_dropped", Xsb_obs.Json.Int j.stats.torn_bytes_dropped);
      ("recovery_ms", Xsb_obs.Json.Float j.stats.recovery_ms);
      ("written_bytes", Xsb_obs.Json.Int j.written);
      ("durable_bytes", Xsb_obs.Json.Int j.synced);
      ("group_batches", Xsb_obs.Json.Int j.stats.group_batches);
      ("group_batch_records", Xsb_obs.Json.Int j.stats.group_batch_records);
    ]

let publish_metrics j reg =
  let module M = Xsb_obs.Metrics in
  with_lock j @@ fun () ->
  let s = j.stats in
  let g help name v =
    M.Gauge.set (M.gauge reg ~help ("xsb_journal_" ^ name)) v
  in
  g "Records appended to the journal." "records_appended_total"
    (Float.of_int s.records_appended);
  g "Payload bytes appended to the journal." "bytes_appended_total"
    (Float.of_int s.bytes_appended);
  g "fsync(2) calls issued by the journal." "fsyncs_total" (Float.of_int s.fsyncs);
  g "Snapshot compactions performed." "compactions_total" (Float.of_int s.compactions);
  g "Records replayed at recovery (snapshot + journal)." "recovered_records"
    (Float.of_int s.recovered_records);
  g "Torn tail bytes dropped at recovery." "torn_bytes_dropped"
    (Float.of_int s.torn_bytes_dropped);
  g "Wall-clock milliseconds spent in the last recovery." "recovery_ms" s.recovery_ms;
  g "Journal file size, including records not yet fsynced." "written_bytes"
    (Float.of_int j.written);
  g "Bytes known durable (covered by the last fsync)." "durable_bytes"
    (Float.of_int j.synced);
  g "Durability lag: written bytes not yet fsynced." "lag_bytes"
    (Float.of_int (j.written - j.synced));
  g "Group-commit batches fsynced." "group_batches_total" (Float.of_int s.group_batches);
  g "Records acknowledged by group-commit batches." "group_batch_records_total"
    (Float.of_int s.group_batch_records);
  g "Failover fencing epoch stamped in the journal header." "epoch" (Int64.to_float j.epoch)

let pp_stats ppf j =
  Format.fprintf ppf
    "journal: generation %Ld, %d records / %d bytes appended, %d fsyncs, %d compactions, %d \
     recovered, recovery %.1f ms, durable %d/%d bytes@."
    j.generation j.stats.records_appended j.stats.bytes_appended j.stats.fsyncs
    j.stats.compactions j.stats.recovered_records j.stats.recovery_ms j.synced j.written
