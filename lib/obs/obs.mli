(** Observability for the SLG engine: a typed trace-event stream with
    pluggable sinks, and the per-predicate profile.

    The engine owns one {!Recorder.t} (events) and one {!Profile.t}
    (profile handles on a {!Metrics} registry) per environment; both
    are inert until a sink is attached / profiling is enabled, so the
    disabled-path cost is a single boolean read per emission site. *)

(** {1 Events} *)

module Event : sig
  type kind =
    | New_subgoal  (** a table was created for a fresh tabled subgoal *)
    | Call  (** a predicate call was selected (tabled or not) *)
    | Answer  (** a new answer entered table space *)
    | Dup_answer  (** a derived answer was already present (dedup hit) *)
    | Suspend  (** a derivation suspended as a consumer of a table *)
    | Resume  (** a suspended derivation was resumed with an answer *)
    | Negation_wait
        (** a derivation blocked on an incomplete negative literal (or a
            [tfindall/3] wait) *)
    | Scc_complete of int  (** an SCC of [n] subgoals closed incrementally *)
    | Complete  (** one subgoal was marked complete *)
    | Drain  (** queued answers are being delivered to a consumer *)
    | Abolish of int  (** [n] completed tables were abolished *)
    | Invalidate of int
        (** a mutation invalidated [n] dependent incremental tables *)
    | Repair of int  (** [n] stale incremental tables were re-evaluated in place *)
    | Fold  (** an answer was folded into an existing subsumptive answer *)
    | Subsume
        (** a call was served by a subsuming table (call subsumption):
            no new generator, answers filtered through unification *)

  type t = {
    seq : int;  (** per-recorder sequence number, strictly monotonic *)
    step : int;  (** engine resolution-step counter at emission *)
    subgoal : int;  (** subgoal id, 0 when the event has no table *)
    pred : string;  (** ["name/arity"], [""] when unknown *)
    call : string;  (** the canonical call / answer, rendered as text *)
    depth : int;  (** evaluation nesting depth (0 = top-level) *)
    kind : kind;
  }

  val kind_name : kind -> string
  val pp : Format.formatter -> t -> unit

  val to_json : t -> Json.t
  val of_json : Json.t -> t option
end

(** {1 The ring buffer} *)

module Ring : sig
  type t

  val create : int -> t
  (** Fixed capacity (positive); the buffer overwrites its oldest entry
      once full. *)

  val add : t -> Event.t -> unit
  val length : t -> int
  val capacity : t -> int
  val clear : t -> unit

  val to_list : t -> Event.t list
  (** Oldest first. *)
end

(** {1 Sinks and the recorder} *)

module Sink : sig
  type t =
    | Null  (** accepts and drops events (overhead measurements) *)
    | Pretty of Format.formatter
    | Jsonl of out_channel  (** one JSON object per line, flushed per event *)
    | Ring of Ring.t
    | Custom of (Event.t -> unit)

  val emit : t -> Event.t -> unit
end

module Recorder : sig
  type t

  val create : unit -> t

  val active : t -> bool
  (** [false] iff no sink is attached — the engine's fast-path guard;
      emission sites must not even construct events when inactive. *)

  val attach : t -> Sink.t -> unit
  (** Sinks stack: every attached sink receives every event. *)

  val clear : t -> unit

  val emit :
    t ->
    step:int ->
    subgoal:int ->
    pred:string ->
    call:string ->
    depth:int ->
    Event.kind ->
    unit
  (** Assigns the next sequence number and fans the event out to every
      attached sink. *)
end

(** {1 The per-predicate profile}

    The engine's profile is a set of labelled series in a {!Metrics}
    registry, one [pred="name/arity"] child per predicate:
    [xsb_pred_{calls,subgoals,answers,dup_answers,suspensions,resolutions}_total]
    counters, [xsb_pred_task_seconds] (inclusive seconds inside the
    predicate's scheduler tasks) and [xsb_pred_peak_answers] (largest
    answer table observed). Reports are rendered from a scrape of the
    registry, so they always agree with [METRICS]. *)

module Profile : sig
  type handles = {
    calls : Metrics.Counter.t;
    subgoals : Metrics.Counter.t;
    answers : Metrics.Counter.t;
    dup_answers : Metrics.Counter.t;
    suspensions : Metrics.Counter.t;
    resolutions : Metrics.Counter.t;
    task_seconds : Metrics.Gauge.t;  (** grown with {!Metrics.Gauge.add} *)
    peak_answers : Metrics.Gauge.t;  (** raised with {!Metrics.Gauge.set_max} *)
  }

  type t
  (** A registry plus a cache of the handles of every predicate
      recorded into it. *)

  val create : Metrics.t -> t
  val registry : t -> Metrics.t

  val handles : t -> string * int -> handles
  (** Find-or-register a predicate's series; one table probe once
      cached. Predicates whose name starts with ['$'] (private query
      tables) get handles that record nothing. *)

  val find : t -> string * int -> handles option
  (** The cached handles, if the predicate was ever recorded. *)

  type row = {
    r_pred : string;  (** ["name/arity"] *)
    r_calls : int;
    r_subgoals : int;
    r_answers : int;
    r_dup_answers : int;
    r_suspensions : int;
    r_resolutions : int;
    r_time : float;  (** seconds *)
    r_peak : int;
  }

  val rows : Metrics.t -> row list
  (** Every profiled predicate of the registry, read back through
      {!Metrics.Exposition.validate}; sorted hottest-first (time, then
      answers, then calls). *)

  val pp_report : Format.formatter -> Metrics.t -> unit
  (** The [--profile] table. *)

  val report_to_json : Metrics.t -> Json.t
end
