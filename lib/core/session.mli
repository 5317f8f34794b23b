(** A convenient front end bundling a database with an SLG engine: the
    programmatic equivalent of XSB's read-eval-print loop. *)

open Xsb_slg

type t

val create : ?mode:Machine.mode -> ?scheduling:Machine.scheduling -> unit -> t

val db : t -> Xsb_db.Database.t
val engine : t -> Engine.t

val consult : t -> string -> unit
(** Load program text. *)

val consult_file : t -> string -> unit

val query : t -> string -> Engine.solution list
val query_first : t -> string -> Engine.solution option
val succeeds : t -> string -> bool
val count : t -> string -> int

val pp_solution : t -> Engine.solution Fmt.t
(** ["X = f(Y), Z = 3"]-style rendering using the session's operators. *)

val render_solutions : t -> (Buffer.t -> unit) -> Engine.solution list -> unit
(** [render_solutions t emit solutions] renders each solution exactly as
    {!pp_solution} does, into one scratch buffer through one formatter,
    and passes the buffer holding that row to [emit] (which must not
    keep it: the next row overwrites it). No string is made per row. *)

val show : t -> string -> unit
(** Run a query and print its solutions, REPL-style, to stdout. *)

val wfs_query : t -> string -> Xsb_wfs.Residual.solution list
(** Three-valued query (sessions created with
    [~mode:Machine.Well_founded]). *)

val stats : t -> Machine.stats
(** The engine's evaluation counters (live record; reset by an engine
    reset / [abolish_all_tables]). *)

(** {1 Observability} *)

val recorder : t -> Xsb_obs.Obs.Recorder.t

val add_sink : t -> Xsb_obs.Obs.Sink.t -> unit
(** Attach a trace sink (pretty / JSONL / ring buffer / custom); the
    engine then emits typed {!Xsb_obs.Obs.Event.t}s for new subgoals,
    answers, suspensions/resumptions, negation waits, SCC completions,
    drains and abolishes. *)

val clear_sinks : t -> unit

val metrics : t -> Xsb_obs.Metrics.t
(** The registry the per-predicate profile records into. *)

val set_profiling : ?registry:Xsb_obs.Metrics.t -> t -> bool -> unit
(** Enable per-predicate profiling (the [--profile] report) into
    [registry], or into a registry of the session's own (see
    {!Xsb_slg.Engine.set_profiling}). *)

val pp_profile : Format.formatter -> t -> unit
val pp_table_dump : Format.formatter -> t -> unit

val sink_of_spec : out:out_channel -> string -> Xsb_obs.Obs.Sink.t option
(** Build the sink named by a [--trace]/[XSB_TRACE] spec — ["pretty"],
    ["jsonl"] (or ["json"]), ["null"] — writing to [out]. [None] for an
    unknown spec. *)
