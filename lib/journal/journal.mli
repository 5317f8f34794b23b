(** Crash-safe persistence for the dynamic database: a write-ahead
    journal of {!Xsb_db.Database} mutations plus snapshot/replay
    recovery.

    On-disk layout (inside one data directory):

    - [journal.log] — header (magic ["XSBJNL02"] + i64 generation +
      i64 failover epoch), then CRC32-framed, length-prefixed mutation
      records: [u32 length | u32 crc32(payload) | payload]. Payloads
      use the same validated codec as object files ([Xsb_db.Codec]) —
      no [Marshal] anywhere on the recovery path.
    - [snapshot.bin] — header (magic ["XSBSNP02"] + i64 covered
      generation + i64 epoch), then the same record framing:
      declaration records followed by one whole-database object-file
      image.
    - [epochs.log] — one text line [<epoch> <gen> <off>] per retired
      epoch: the fence position where that epoch's authority ended
      (written by {!bump_epoch} at promotion).

    Recovery replays [snapshot + journal tail]. A torn or corrupt
    {e final} journal record is a clean EOF (the file is truncated back
    to the valid prefix); corruption {e before} the tail raises a typed
    {!Recovery_error} whose valid prefix can still be recovered with
    [~tolerate_corruption:true]. Compaction writes a fresh snapshot via
    write-temp + rename + fsync-dir, then atomically rotates the
    journal; generation numbers make a crash at any point in that
    sequence safe (a journal whose generation the snapshot already
    covers is ignored, never replayed twice).

    Durability contract, by {!sync_policy}: after [append] returns
    under [Always], the record is fsynced — a crash (even [kill -9])
    loses nothing acknowledged. Under [Interval n]/[Never], a crash may
    lose un-fsynced acknowledged records, but recovery always yields a
    {e prefix} of the acknowledged stream, never a reordering or a
    phantom. *)

open Xsb_db

type sync_policy =
  | Never  (** leave syncing to the OS page cache *)
  | Interval of int  (** fsync every [n] records (and on {!sync}/{!close}) *)
  | Always  (** fsync before every append acknowledges *)
  | Group of { window_us : int; max_batch : int }
      (** group commit: concurrent appenders block on a commit barrier
          while a dedicated committer thread issues one fsync for the
          whole batch. [window_us] bounds how long the committer waits
          for the batch to stop growing (its settle window);
          [max_batch] forces an early fsync once that many records are
          pending. Durability contract on return from [append] is the
          same as [Always] — only the fsyncs are shared. *)

val default_group : sync_policy
(** [Group { window_us = 200; max_batch = 256 }]. *)

val sync_policy_of_string : string -> sync_policy option
(** ["never"], ["always"], ["interval"] (= every 64 records),
    ["interval=N"], a bare record count [N], ["group"],
    ["group=MS"] (window in fractional milliseconds), or
    ["group=MS,BATCH"]. *)

val sync_policy_to_string : sync_policy -> string

(** {1 Mutation records} *)

type mutation =
  | Add_clause of {
      name : string;
      arity : int;
      front : bool;
      dynamic : bool;
      clause : Xsb_term.Canon.t;  (** [':-'(Head, Body)], HiLog-encoded *)
    }
  | Retract_clause of { name : string; arity : int; clause : Xsb_term.Canon.t }
  | Remove_pred of { name : string; arity : int }
  | Set_tabled of { name : string; arity : int }
  | Set_table_mode of { name : string; arity : int; mode : Pred.table_mode }
  | Set_dynamic of { name : string; arity : int }
  | Set_index of {
      name : string;
      arity : int;
      spec : Pred.index_spec;
      size_hint : int option;
    }
  | Declare_hilog of string
  | Declare_module of { module_name : string; exports : (string * int) list }
  | Declare_op of { priority : int; fixity : string; op_name : string }
  | Load_image of string
      (** a whole-database object-file image (snapshot records only) *)

val of_db_mutation : Database.mutation -> mutation
(** The journal-record rendering of a database mutation. *)

val apply_mutation : Database.t -> mutation -> unit
(** Replay one record into a database (recovery path). Applying a
    [Retract_clause]/[Remove_pred] whose target is already gone is a
    no-op, so replay is deterministic. Raises {!Corrupt_record} for a
    structurally impossible record (e.g. a clause that is not
    [':-'/2]). *)

(** {1 The record codec} (exposed for the property tests) *)

exception Corrupt_record of string

val encode_mutation : mutation -> string
(** Payload bytes (unframed). *)

val decode_mutation : string -> mutation
(** Raises {!Corrupt_record} on anything [encode_mutation] cannot have
    produced; never [Marshal]s, never reads out of bounds. *)

val frame_record : mutation -> string
(** [u32 length | u32 crc | payload] — what [append] writes. *)

type read_result =
  | Record of mutation * int  (** the decoded record and the next offset *)
  | End_clean  (** exactly at end of input *)
  | End_torn  (** an incomplete frame, or a bad CRC on the final record *)
  | Corrupt of string
      (** a bad CRC (or an undecodable CRC-valid payload) with more
          data after it — not explicable as a torn tail *)

val read_framed : string -> int -> read_result
(** Read one framed record at the given offset. *)

(** {1 The journal} *)

type config = {
  dir : string;  (** the data directory; created if missing *)
  sync : sync_policy;
  compact_bytes : int;
      (** auto-compact when the journal exceeds this many bytes;
          [0] disables auto-compaction ({!compact} still works) *)
  keep_generations : int;
      (** archive this many rotated journal generations (as
          [journal.<gen>.log], with their base snapshots as
          [snapshot.<gen>.bin]) instead of discarding them, enabling
          point-in-time recovery ({!recover_at}) and standby catch-up
          across compactions. [0] (the default) keeps none. *)
}

val default_config : dir:string -> config
(** [sync = Always], [compact_bytes = 8 MiB], [keep_generations = 0]. *)

type t

exception Io_error of { site : string; message : string }
(** The disk write path failed (or a failpoint injected a failure) at
    the named site. The journal is poisoned: every later [append]
    re-raises, so a caller can degrade to read-only service. *)

exception Recovery_error of {
  file : string;
  offset : int;
  records_ok : int;
  message : string;
}
(** Corruption before the journal tail (or anywhere in a snapshot).
    [records_ok] records up to [offset] are valid and recoverable with
    [~tolerate_corruption:true]. *)

val open_ : ?tolerate_corruption:bool -> config -> Database.t -> t
(** Open the data directory, recovering [snapshot + journal tail] into
    the database (which should already hold any non-durable program,
    e.g. server preloads — recovery replays on top). Creates the
    directory and an empty journal on first use. Does {e not} attach
    the mutation hook — call {!attach} after a successful open, so
    recovery itself is never re-journaled. *)

val resume : ?tolerate_corruption:bool -> config -> Database.t -> t
(** Like {!open_} but without replaying anything into the database:
    scans the snapshot and journal only for bookkeeping (generation,
    end-of-valid-prefix position, operator declarations) and truncates
    a torn tail. For promoting a standby whose database is already
    live — its session applied the records as they streamed in, so
    replaying them again would double every clause. *)

val attach : ?deferred:bool -> t -> unit
(** Subscribe to the database's mutation hook: from now on every
    mutation is appended (and fsynced per the policy) before the
    mutator's call returns. Idempotent. With [~deferred:true] and a
    {!Group} policy the hook only enqueues — the caller promises to
    call {!barrier} before acknowledging, so the fsync wait happens
    outside whatever lock guards the database. *)

val append : t -> mutation -> unit
(** Explicit append (normally the hook calls this). Raises {!Io_error}
    on write failure; the record is durable on return iff the policy
    says so (under {!Group} it blocks on the commit barrier).
    Thread-safe, as is the whole interface. *)

val append_batch : t -> mutation list -> unit
(** Append several records as one transaction: a single [write(2)] and
    a single commit-barrier wait. The batch is acknowledged as a whole,
    which is what lets group commit amortize one fsync over many
    records even from a single writer. *)

val barrier : t -> unit
(** Block until every record enqueued so far is durable (no-op under
    non-group policies, where [append] already was). Raises {!Io_error}
    if the write path failed with records still unacknowledged. *)

val sync : t -> unit
(** fsync the journal now (the server's [SYNC] op). *)

val compact : t -> unit
(** Write a new snapshot covering everything, then atomically start a
    fresh journal generation. Crash-safe at every intermediate point. *)

val close : t -> unit
(** Final sync (unless poisoned) and close. Further appends raise;
    the attached hook goes quiet instead of raising. *)

val written_bytes : t -> int
(** Journal file size, including records not yet fsynced. *)

val durable_bytes : t -> int
(** Journal bytes known to have reached stable storage. *)

val generation : t -> int64

val header_len : int
(** Size of the [journal.log] / [snapshot.bin] file header (24 bytes:
    magic, generation, epoch). The first record starts here. *)

val epoch : t -> int64
(** The failover fencing epoch stamped in the live journal header.
    Starts at 1 in a fresh directory; moves forward only at
    {!bump_epoch}. *)

val bump_epoch : t -> int64
(** Retire the current epoch and return the next one (promotion).
    Settles pending bytes, appends the fence line
    [<old_epoch> <generation> <durable_off>] to [epochs.log] (fsynced),
    and rewrites the epoch field of the live journal header in place.
    Raises {!Io_error} if any of that fails. *)

val epoch_fence : t -> int64 -> (int64 * int) option
(** Where the given (retired) epoch's authority ended on this node, as
    [(generation, offset)] from [epochs.log] — the acceptance bound for
    a stale-epoch standby trying to resume: positions at or before the
    fence are prefixes of the replicated stream, positions past it
    diverged. [None] when this node never retired that epoch. *)

val position : t -> int64 * int
(** [(generation, written_bytes)], read atomically. *)

val durable_position : t -> int64 * int
(** [(generation, durable_bytes)], read atomically — the watermark a
    replication streamer may ship up to. *)

val failed : t -> string option
(** The poisoned-journal reason, if the write path has failed. *)

(** {1 Streaming reads and archives} (the replication feed) *)

type chunk =
  | Chunk of string  (** raw framed bytes starting at the given offset *)
  | Rotated  (** past the end of an archived generation: advance *)
  | At_tip  (** at the durable frontier of the live generation *)
  | Gone  (** that generation is not on disk (pruned or never existed) *)

val read_chunk : t -> gen:int64 -> off:int -> max_bytes:int -> chunk
(** Read up to [max_bytes] raw journal bytes of generation [gen]
    starting at byte offset [off] (offsets include the {!header_len}
    file header, so a fresh reader starts at 0). Only fsync-covered bytes of
    the live generation are ever returned — a standby must never hold
    bytes its primary could still lose. Archived generations
    ([keep_generations]) are complete, so [Rotated] at their end means
    "continue with [gen+1] at offset 0". *)

val snapshot_blob : t -> (int64 * string) option
(** The current snapshot file, verbatim with its header, and the
    generation it covers — a fresh standby's bootstrap image. [None]
    before the first compaction (replay generation 1 from scratch
    instead). *)

val snapshot_blob_for : t -> int64 -> string option
(** The snapshot covering exactly that generation — the live
    [snapshot.bin] if it is current, else the archived
    [snapshot.<gen>.bin]. What a replication streamer hands a standby
    at a generation boundary. *)

val archive_journal_path : config -> int64 -> string
(** [journal.<gen>.log] in the data directory: where a rotation keeps
    generation [gen] when [keep_generations > 0]. *)

val recover_at : ?upto:int -> dir:string -> generation:int64 -> Database.t -> int
(** Point-in-time recovery from the archives: rebuild the state the
    database had within generation [generation] — its base snapshot
    ([snapshot.<gen-1>.bin]) plus the first [upto] records of
    [journal.<gen>.log] (default: all of them; the live files are used
    when the generation has not rotated away yet). Returns the number
    of journal records applied. Raises {!Recovery_error} if the needed
    archives were pruned. *)

(** {1 The standby's mirror}

    A standby's data directory has the same layout as its primary's,
    and this is its only writer: the replication applier hands it the
    raw bytes the primary ships, and the mirror keeps [journal.log] a
    byte-for-byte prefix of the primary's generation, installs each
    snapshot at a generation boundary with the same rotation compaction
    runs (archives, atomic publish, pruning), and stamps adopted epochs
    into the header — so the directory always recovers, and promotes
    through {!resume}, like a primary's. Writes pass their own
    failpoint sites, [mirror.write] and [mirror.sync]. An I/O failure
    raises {!Io_error}; the caller must then stop using the mirror
    (a standby parks). *)
module Mirror : sig
  type t

  val open_ : dir:string -> keep_generations:int -> generation:int64 -> offset:int -> t
  (** Open [journal.log] at the frame-aligned frontier [(generation,
      offset)] (the position recovery reported, or where the previous
      mirror left off) and truncate any torn tail past it. A directory
      with no state — generation 1, nothing past the header, no
      snapshot — is {!fresh}: its journal is emptied so the stream can
      start from byte 0 or seed it with a snapshot. *)

  val fresh : t -> bool
  (** The mirror holds no state and has received nothing yet: it asks
      its primary to seed it ([HELLO .. 0 0]). *)

  val position : t -> int64 * int
  (** [(generation, frontier)]: every byte before the frontier is
      durable and has been returned as records (offsets include the
      file header). *)

  val data : t -> gen:int64 -> off:int -> string -> (mutation list * int, int64 * int) result
  (** Write and fsync one chunk of generation [gen] at byte [off] —
      one [write(2)] and one [fsync(2)] — then return the complete
      records it can now decode and the new frame-aligned frontier. A
      chunk that does not start where the mirror ends is refused
      unwritten: [Error] carries the expected [(generation, offset)].
      Raises {!Corrupt_record} on a bad header or a corrupt record. *)

  val snapshot : t -> covered:int64 -> string -> (mutation list, int64) result
  (** Install a verbatim snapshot file covering generation [covered]:
      validate its header, archive the outgoing pair (when the mirror
      held [covered] and [keep_generations > 0]), publish it as
      [snapshot.bin], start an empty [journal.log] for [covered + 1]
      and prune old archives. A {!fresh} mirror is being seeded: the
      blob's records are returned for the caller to apply (they are
      checked before anything is written). Otherwise they are already
      live and [[]] is returned. [Error local_generation] when the
      snapshot is neither a seed nor the boundary of the generation
      the mirror holds in full. Raises {!Corrupt_record} on a bad
      blob. *)

  val stamp_epoch : t -> int64 -> unit
  (** Write an adopted epoch into the mirrored header (the primary
      rewrote its own in place, which the byte stream never re-ships),
      so a restart does not resurrect the old epoch. *)

  val close : t -> unit
end

(** {1 Metrics} *)

type stats = {
  mutable records_appended : int;
  mutable bytes_appended : int;
  mutable fsyncs : int;
  mutable compactions : int;
  mutable recovered_records : int;  (** snapshot + journal records replayed *)
  mutable torn_bytes_dropped : int;  (** truncated-away torn tail bytes *)
  mutable recovery_ms : float;
  mutable group_batches : int;  (** fsyncs issued by the group committer *)
  mutable group_batch_records : int;  (** records those batches covered *)
}

val stats : t -> stats
val stats_json : t -> Xsb_obs.Json.t
val pp_stats : Format.formatter -> t -> unit

val publish_metrics : t -> Xsb_obs.Metrics.t -> unit
(** Snapshot durability state into a metrics registry as
    [xsb_journal_*] gauges: append/fsync/compaction counts, recovery
    figures, and the written/durable byte watermarks with their lag.
    Values are sampled at call time — callers refresh per scrape. *)
