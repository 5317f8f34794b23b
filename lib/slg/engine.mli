(** The public query interface to the SLG engine.

    An engine wraps a {!Xsb_db.Database.t} with a table store and runs
    queries under SLG resolution (paper §3): finite and non-redundant on
    datalog, polynomial for (modularly) stratified programs, with
    well-founded delaying available via [~mode:Well_founded]. *)

open Xsb_term
open Xsb_db

type t

val create : ?mode:Machine.mode -> ?scheduling:Machine.scheduling -> Database.t -> t
val db : t -> Database.t
val env : t -> Machine.env

(** {1 Loading} *)

val consult_string : t -> string -> unit
(** Load a program text (clauses and directives); deferred [:- Goal]
    directives are executed. *)

val consult_string_count : t -> string -> int
(** Like {!consult_string}, returning the number of clauses loaded. *)

val consult_file : t -> string -> unit

(** {1 Queries} *)

type solution = {
  bindings : (string * Term.t) list;  (** named query variables, in order *)
  conditional : bool;  (** true when the answer carries delayed literals *)
  delays : Machine.delay list;
}

val query : t -> Term.t -> solution list
(** All solutions of a goal term, to completion. Variable names are taken
    from the terms' source names where available. *)

val query_string : t -> string -> solution list
(** Parse (with the database's operators) and run. *)

val query_first : t -> Term.t -> solution option
(** Stop the evaluation at the first answer (existential query). *)

val query_first_string : t -> string -> solution option

(** {1 Bounded queries}

    One code path, shared by the CLI's [--timeout]/[--max-steps] flags
    and the query server's per-request deadlines, that turns
    interruption into a typed result instead of an escaping
    {!Machine.Step_limit}. *)

type row
(** One answer of a query, read in place from its answer table. Valid
    only during the callback it is passed to. *)

val row_bindings : row -> (int -> string -> Canon.t -> unit) -> unit
(** [row_bindings r f] calls [f i name value] for the [i]-th named query
    variable, in order from 0, with its binding in table space. The
    bindings number their variables together, by first occurrence. *)

val row_vars : row -> int
(** The number of distinct variables in the row's bindings. *)

val row_conditional : row -> bool
(** The answer carries delayed literals. *)

val row_solution : row -> solution
(** The row as live terms, its fresh variables shared across bindings. *)

val run_rows :
  ?max_steps:int ->
  ?stop:(unit -> bool) ->
  ?limit:int ->
  t ->
  Term.t ->
  (row -> bool) ->
  [ `Answers | `Truncated | `Timeout ]
(** [run_rows ?max_steps ?stop ?limit t goal emit] evaluates [goal] and
    hands each answer to [emit], in order, until [emit] refuses one by
    returning [false]. The result says how the evaluation ended:

    - [`Answers]: it reached its fixpoint;
    - [`Truncated]: it stopped at the [limit]-th answer. The stop is
      polled between derivation steps, so a few more answers than
      [limit] may reach [emit];
    - [`Timeout]: the [stop] callback fired, or the per-query
      [max_steps] budget ran out; the answers derived before the
      interruption reach [emit].

    [max_steps] is a step budget for this query alone, relative to the
    engine's running counter (a non-positive budget is ignored; an
    engine-wide {!set_max_steps} bound still applies, and when it is the
    tighter of the two its overrun still raises {!Machine.Step_limit},
    possibly after some rows). [stop] is polled during evaluation
    (wall-clock deadlines, cancellation). Whatever the ending, the
    private query table is dropped and the trail restored, so table
    space stays consistent for the next query on the same engine. *)

type bounded =
  [ `Answers of solution list  (** evaluation reached its fixpoint *)
  | `Truncated of solution list  (** stopped at the [limit]-th answer *)
  | `Timeout of solution list
    (** the [stop] callback fired, or the per-query [max_steps] budget
        ran out; carries the answers derived before interruption *) ]

val run_bounded :
  ?max_steps:int -> ?stop:(unit -> bool) -> ?limit:int -> t -> Term.t -> bounded
(** {!run_rows}, collecting every row it hands out as a {!solution}. *)

val run_bounded_string :
  ?max_steps:int -> ?stop:(unit -> bool) -> ?limit:int -> t -> string -> bounded

val succeeds : t -> string -> bool
val count_solutions : t -> string -> int

(** {1 Control} *)

val set_tabling : t -> bool -> unit
(** Disable to execute everything by SLDNF, ignoring table declarations
    (used for the paper's SLDNF comparison rows). *)

val scheduling : t -> Machine.scheduling

val set_scheduling : t -> Machine.scheduling -> unit
(** Switch the answer-scheduling strategy ({!Machine.scheduling}) for
    subsequent queries; tables already completed are unaffected. *)

val set_max_steps : t -> int -> unit
(** Raise {!Machine.Step_limit} after this many resolution steps
    (0 = unlimited); demonstrates SLD non-termination finitely. *)

(** {1 Observability} *)

val recorder : t -> Xsb_obs.Obs.Recorder.t
(** The engine's trace-event recorder (see {!Xsb_obs.Obs}). Inert until
    a sink is attached. *)

val add_sink : t -> Xsb_obs.Obs.Sink.t -> unit
(** Attach a sink; every subsequent engine event (new subgoal, answer,
    suspend/resume, negation wait, SCC completion, drain, abolish) is
    delivered to it. Sinks stack. *)

val clear_sinks : t -> unit
(** Detach every sink; tracing returns to zero cost. *)

val metrics : t -> Xsb_obs.Metrics.t
(** The registry the per-predicate profile records into (see
    {!Xsb_obs.Obs.Profile}). *)

val set_profiling : ?registry:Xsb_obs.Metrics.t -> t -> bool -> unit
(** Enable the per-predicate profile (calls, subgoals, answers,
    duplicates, suspensions, resolutions, task wall time, peak
    answer-table size) as [xsb_pred_*] series. With [~registry] it
    records there (sessions sharing a registry add up); without, enabling
    from a disabled state starts a fresh registry of its own. Disabling
    stops recording and keeps the samples readable. *)

val call_count : t -> string -> int -> int
(** Number of calls made to a predicate since profiling was enabled
    (every session recording into the same registry counts). *)

val pp_profile : Format.formatter -> t -> unit
(** The sortable [--profile] report of {!metrics}, hottest predicate
    first. *)

val pp_table_dump : Format.formatter -> t -> unit
(** The [table_dump/0] report of live table space. *)

val stats : t -> Machine.stats

val table_space_bytes : t -> int
(** See {!Machine.table_space_bytes}. *)

val call_index_bytes : t -> int
(** See {!Machine.call_index_bytes}. *)

val table_bytes_by_pred : t -> ((string * int) * int) list
(** See {!Machine.table_bytes_by_pred}. *)

val publish_metrics : t -> Xsb_obs.Metrics.t -> unit
(** Snapshot the engine's observable state into a metrics registry:
    every {!Machine.stats} counter as [xsb_engine_stat{kind=...}], the
    live table count, total table-space and call-index byte estimates,
    and per-predicate [xsb_table_bytes{pred="name/arity"}] gauges.
    Values are sampled at call time — callers build (or refresh) the
    registry per scrape. Shared by the server's [METRICS] op and the
    CLI's [--metrics-dump]. *)

val reset_tables : t -> unit
(** Abolish the completed tables (see {!Machine.abolish_tables};
    incomplete tables of an in-progress evaluation are retained) and
    reset the evaluation counters. *)

val tables : t -> (Canon.t * bool * Canon.t list) list
(** [(subgoal key, complete?, answer templates)] for every table. *)
