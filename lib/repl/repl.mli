(** Journal-shipping replication: a primary streams its write-ahead
    journal — the same framed bytes crash recovery trusts — to
    standbys, which apply each record to a live session as it arrives
    (DESIGN.md §13–§14). This module is the wire protocol, the apply
    and the ACK; it does no file I/O of its own. A standby's data
    directory is written only by {!Xsb.Journal.Mirror}, which keeps it
    a byte-for-byte copy of the primary's.

    Wire protocol (one TCP connection per standby, full-duplex after
    the handshake):
    {v
    standby -> primary   XSBR2 HELLO <epoch> <gen> <off>
                         ACK <epoch> <gen> <off>            (repeated)
    primary -> standby   EPOCH <epoch>                      (first frame)
                         SNAP <gen> <len>       + <len> snapshot bytes
                         DATA <gen> <off> <len> + <len> journal bytes
                         HB <epoch> <gen> <off>
                         ERR <message>
    v}

    Only fsync-covered bytes are ever shipped, so a standby can never
    hold state its primary could still lose; the surviving state after
    any failover is a prefix of the acknowledged mutation stream. A
    snapshot travels at bootstrap ([HELLO .. 0 0]) and at every
    generation boundary, keeping the standby's local
    [(snapshot.bin, journal.log)] pair valid for its own crash
    recovery — and for promotion via {!Xsb.Journal.resume}.

    Failover safety rests on the monotonic {e epoch}
    ({!Xsb.Journal.epoch}): a promotion bumps it, and the handshake
    fences on it — a deposed primary that comes back is refused unless
    its position lies inside the prefix the new timeline shares with
    the old one ({!Xsb.Journal.epoch_fence}), so a split brain cannot
    merge silently. The ACK stream feeds the semi-synchronous commit
    barrier ({!Primary.wait_synced}): with [--sync-standby=K] a write
    is acknowledged to the client only once K standbys hold it. *)

exception Protocol_error of string

(** The primary side: a listener that serves the journal feed. *)
module Primary : sig
  type t

  val start :
    ?host:string ->
    ?registry:Xsb.Metrics.t ->
    ?on_deposed:(int64 -> unit) ->
    port:int ->
    journal:Xsb.Journal.t ->
    unit ->
    t
  (** Bind (port 0 picks an ephemeral one) and serve on a
      {!Net.listen} listener. Each accepted
      standby gets its own streamer thread (reading
      {!Xsb.Journal.read_chunk} / {!Xsb.Journal.snapshot_blob_for})
      plus an ack-reader thread feeding {!wait_synced}. [?on_deposed]
      fires when a peer connects with a {e higher} epoch — this node
      was failed over away from and should stop accepting writes. With
      [?registry], publishes [xsb_repl_standbys],
      [xsb_repl_shipped_bytes_total],
      [xsb_repl_snapshots_shipped_total], [xsb_repl_sync_degraded],
      and per-slot [xsb_repl_standby_connected{standby=N}],
      [xsb_repl_standby_lag_bytes{standby=N}] and
      [xsb_repl_standby_acked_off{standby=N}] gauges (slots are
      reused, so cardinality is bounded by peak concurrency). The
      journal should archive at least one generation
      ([keep_generations >= 1]) so a standby can follow across a
      compaction. *)

  val port : t -> int
  val standbys : t -> int
  val shipped_bytes : t -> int

  val wait_synced : t -> k:int -> gen:int64 -> off:int -> timeout_s:float -> bool
  (** The semi-synchronous commit barrier: block until [k] standbys
      have acknowledged journal position [(gen, off)] as persisted and
      applied, or [timeout_s] elapses. [true] means the write is
      provably on [k] standbys; [false] means the wait degraded to
      asynchronous (the write is still durable locally). [k <= 0]
      returns [true] immediately. *)

  val degraded : t -> bool
  (** [true] after a {!wait_synced} timed out, until a later wait
      succeeds in time — mirrored by the [xsb_repl_sync_degraded]
      gauge. *)

  val stop : t -> unit
  (** Close the listener and every feed; joins all threads. *)
end

(** The standby side: connect, mirror, decode, apply, ack. *)
module Standby : sig
  type t

  type status = {
    connected : bool;
    generation : int64;  (** local journal generation being mirrored *)
    applied_off : int;  (** frame-aligned applied frontier (file offset) *)
    applied_records : int;
    primary_generation : int64;  (** primary durable watermark, from heartbeats *)
    primary_off : int;
    lag_bytes : int;
        (** bytes behind the primary's durable watermark; a sentinel
            ~1e9 while a whole generation behind *)
    snapshots_received : int;
    epoch : int64;  (** highest failover epoch seen (start value or adopted) *)
    seconds_since_contact : float;
        (** monotonic seconds since any frame arrived — the failover
            monitor's heartbeat-loss signal *)
    fatal : string option;
        (** set when the applier parked: stale position, stale-epoch
            primary, or a corrupt stream — reconnecting cannot help *)
  }

  val start :
    primary_host:string ->
    primary_port:int ->
    dir:string ->
    generation:int64 ->
    offset:int ->
    epoch:int64 ->
    keep_generations:int ->
    apply:(Xsb.Journal.mutation -> unit) ->
    unit ->
    t
  (** Spawn the applier thread. [generation]/[offset] is the local
      journal position after recovery ({!Xsb.Journal.position}) — the
      standby resumes the stream there, or asks to be seeded when it
      has no state. Every connection opens a {!Xsb.Journal.Mirror} on
      [dir] at the applied frontier; each DATA frame costs the mirror
      one write and one fsync before its records are applied and
      ACKed, and a snapshot is installed with the primary's own
      rotation, archiving [keep_generations] generations. [epoch] is
      the local journal's fencing epoch ({!Xsb.Journal.epoch}); the
      standby adopts any higher epoch the primary announces (stamping
      it into the mirrored header) and parks fatally on a lower one.
      [apply] receives each replicated record (and each
      bootstrap-snapshot record) and must do its own locking against
      concurrent readers. Reconnects with backoff until {!stop}; a
      dropped connection resumes at the applied frontier. An I/O error
      on the mirror parks the standby ([fatal]): the failed bytes are
      never applied or ACKed. *)

  val status : t -> status

  val stop : t -> unit
  (** Disconnect and join the applier —
      after which the data directory is quiescent and
      {!Xsb.Journal.resume} can take over (promotion). *)
end
