(** The SLG evaluation machine (paper §3): tabled resolution with
    consumer suspension/resumption, batch completion, SLG negation,
    existential negation, and (in well-founded mode) delaying.

    This is the low-level interface; use {!Engine} for queries. *)

open Xsb_term
open Xsb_db

exception Engine_error of string
exception Floundered of Term.t
exception Non_stratified of Canon.t list
exception Step_limit
exception Prolog_ball of Canon.t
(** An uncaught [throw/1] ball. *)

type mode = Stratified | Well_founded

(** Scheduling strategies for tabled evaluation (cf. Areias & Rocha, "On
    Combining Linear-Based Strategies for Tabled Evaluation of Logic
    Programs"). [Batched] eagerly drains every new answer to all
    registered consumers; [Local] keeps answers inside the producer's
    strongly-connected component of subgoals until the SCC completes and
    only then returns them outward. Both strategies compute the same
    answer sets; they differ in answer-arrival order and in how long
    suspension state stays live. *)
type scheduling = Local | Batched

val scheduling_of_string : string -> scheduling option
(** ["local"] / ["batched"] (case-insensitive). *)

val scheduling_to_string : scheduling -> string

val default_scheduling : unit -> scheduling
(** [Batched] unless the [XSB_SCHEDULING] environment variable names a
    strategy (the CI matrix runs the suites under both). *)

(** Delayed literals of conditional answers. *)
type delay =
  | Dneg of Canon.t  (** delayed ground negation [tnot G] *)
  | Dpos of Canon.t * Canon.t  (** (subgoal, answer) used conditionally *)

val compare_delay : delay -> delay -> int
(** Explicit structural order (via {!Canon.compare}), so delay-list
    normalization and answer-clause dedup do not depend on the physical
    representation of canonical terms. *)

val compare_delays : delay list -> delay list -> int

type answer = { mutable a_subst : Canon.t array; a_delays : delay list }
(** An answer as its substitution factor: [a_subst.(i)] binds the
    subgoal key's variable [i] (numbered by first occurrence), the
    tuple's own variables numbered by first occurrence across it. The
    whole instance is {!answer_template}. [a_subst] is mutable for answer
    subsumption only: folding a better value into an existing answer
    rewrites it in place. *)

type sstate = Incomplete | Complete

type subgoal = {
  skey : Canon.t;
  s_id : int;
  s_pred : string * int;
  mutable s_state : sstate;
  mutable s_owner_eval : int;
  s_store : answer Xsb_index.Answer_store.Index.t;
      (** trie-indexed answer clauses, in insertion order (paper §4.5) *)
  mutable s_uncond : int;  (** how many stored answers are unconditional *)
  mutable s_consumers : consumer list;
      (** registered while the table is incomplete; emptied when the
          evaluation that completes it ends *)
  mutable s_deps : subgoal list;
      (** dependency-graph out-edges: tables this subgoal's suspended
          derivations consume from or negatively wait on *)
  mutable s_tasks : int;  (** queued scheduler tasks feeding this subgoal *)
  mutable s_scc : int;  (** SCC id from the last incremental Tarjan pass *)
  s_mode : Pred.table_mode;
      (** the predicate's tabling mode at table creation *)
  mutable s_dyn_reads : (string * int) list;
      (** dynamic predicates whose clauses this subgoal's derivations
          resolved against (incremental-tabling dependency leaves) *)
  mutable s_neg_dep : bool;
      (** a feeding derivation used negation/if-then-else/aggregation:
          invalidate, never repair *)
  mutable s_stale : bool;
      (** completed but awaiting in-place repair (see {!repair_stale}) *)
  s_lattice : lattice option;  (** answer-subsumptive tables only *)
}

and lattice = {
  l_op : Xsb_index.Answer_store.Subsumption.op;
  l_seen : unit Canon.Tbl.t;  (** raw answers already folded *)
  l_holders : (int * answer) Canon.Tbl.t;
      (** key columns -> (position, holder answer) *)
}

and consumer = {
  c_table : subgoal;
  c_owner : subgoal;
  c_snapshot : Canon.t;
  c_delays : delay list;
  mutable c_consumed : int;
  mutable c_scheduled : bool;  (** a [Drain] task is already queued *)
  c_filter : Canon.t option;
      (** call subsumption: [Some probe] marks a subsumed consumer, whose
          call is a proper instance of the producer's subgoal; drains
          probe the producer's time-stamped answer index with the call
          mapped into the producer's substitution space, from the
          consumer's last-poll stamp, and filter candidates by
          unification with the snapshot call *)
  mutable c_live : live option;
      (** the snapshot, opened into live terms at the first resumption
          and resumed in place by every later one *)
  mutable c_busy : bool;
      (** a resumption is running on [c_live]; another one opens a fresh
          copy *)
}

and live = {
  l_args : Term.t array;
      (** the call's subterms at the first occurrences of the table
          key's variables, which an answer's substitution binds *)
  l_goals : Term.t list;
  l_template : Term.t;
}

type waiter_kind = Wneg | Wgoal

type waiter = {
  w_table : subgoal;
  w_owner : subgoal;
  w_kind : waiter_kind;
  w_snapshot : Canon.t;
  w_delays : delay list;
}

type task = Drain of consumer | Generate of subgoal | Run of run

and run = {
  r_owner : subgoal;
  r_snapshot : Canon.t;
  r_delays : delay list;
  r_skip_first : bool;
  r_extra_delay : delay option;
}

type stats = {
  mutable st_subgoals : int;
  mutable st_answers : int;
  mutable st_dup_answers : int;
  mutable st_suspensions : int;
  mutable st_resumptions : int;
  mutable st_resolutions : int;
  mutable st_neg_suspensions : int;
  mutable st_nested_evals : int;
  mutable st_completions : int;
  mutable st_answer_probes : int;  (** indexed answer retrievals *)
  mutable st_answer_candidates : int;  (** candidates those probes returned *)
  mutable st_answer_full_size : int;
      (** table sizes a full scan would have visited *)
  mutable st_subsumed_calls : int;
      (** bound calls served from a completed subsuming table *)
  mutable st_subsumption_hits : int;
      (** calls that found a live subsuming table through the call index
          (Subsumption mode) and created no generator of their own *)
  mutable st_answers_filtered : int;
      (** producer answers a subsumed consumer's unification rejected *)
  mutable st_drains_scheduled : int;  (** Drain tasks queued (after dedup) *)
  mutable st_sccs_completed : int;
      (** SCCs closed by incremental completion, before the global fixpoint *)
  mutable st_early_completions : int;
      (** subgoals completed incrementally (members of those SCCs) *)
  mutable st_max_scc_size : int;  (** largest SCC closed incrementally *)
  mutable st_invalidations : int;
      (** completed tables dropped by a database mutation *)
  mutable st_repairs : int;
      (** stale incremental tables re-derived in place *)
  mutable st_folds : int;
      (** answers folded into an existing subsumptive answer *)
  mutable st_steps : int;
}

val fresh_stats : unit -> stats

val reset_stats : stats -> unit
(** Zero every counter in place (the record is shared by live
    references). Called by {!abolish_tables} so an engine reset cannot
    leak counters into the next run's measurements. *)

val pp_stats : Format.formatter -> stats -> unit
(** The [statistics/0] report, one counter per line. *)

type env = {
  db : Database.t;
  trail : Trail.t;
  tables : subgoal Canon.Tbl.t;
  call_index : (string * int, Canon.t Xsb_index.Answer_store.Index.t) Hashtbl.t;
      (** call subsumption: per-predicate discrimination trie over the
          subgoal keys of Subsumption-mode tables; probed with
          [retrieve_subsuming] when a fresh call arrives, candidates
          validated against [tables] *)
  mode : mode;
  mutable scheduling : scheduling;
  mutable tabling_enabled : bool;
  mutable next_eval : int;
  mutable next_subgoal : int;
  mutable next_barrier : int;
  mutable max_steps : int;
  stats : stats;
  mutable out : Format.formatter;
  collectors : (Term.t * Term.t list ref) Stack.t;
  mutable captured_incomplete : subgoal option;
  mutable stop : (unit -> bool) option;
  obs : Xsb_obs.Obs.Recorder.t;
      (** typed trace-event stream; inert until a sink is attached *)
  mutable profiling : bool;  (** the per-predicate profile records *)
  mutable profile : Xsb_obs.Obs.Profile.t;
      (** per-predicate profile handles on a metrics registry; written
          only while [profiling] *)
}

type eval = {
  e_id : int;
  e_depth : int;  (** nesting depth: 0 for top-level evaluations *)
  e_env : env;
  e_tasks : task Queue.t;
      (** FIFO: generators run before the drains they caused; [Drain]
          tasks are deduplicated via [c_scheduled] *)
  mutable e_waiters : waiter list;
  mutable e_created : subgoal list;
  mutable e_scc_dirty : bool;
      (** the dependency graph changed since the last Tarjan pass *)
}

val create_env : ?mode:mode -> ?scheduling:scheduling -> Database.t -> env
val new_eval : env -> eval option -> eval

val create_table : eval -> Canon.t -> string * int -> subgoal
val delete_table : env -> subgoal -> unit

val remove_tables_for : env -> string * int -> int
(** Drop every {e completed} table for the given predicate; returns how
    many were dropped. Called when the predicate is abolished, so stale
    memoized answers cannot survive a re-declaration. *)

val find_table : env -> Canon.t -> subgoal option
val has_unconditional : subgoal -> bool
val has_any_answer : subgoal -> bool

val answer_template : subgoal -> answer -> Canon.t
(** The answer as an instance of the subgoal: its key with the
    substitution applied. *)

val answer_count : subgoal -> int
val iter_answers : (answer -> unit) -> subgoal -> unit
(** In insertion order. *)

val fold_answers : ('a -> answer -> 'a) -> 'a -> subgoal -> 'a

val completed_call : env -> Term.t -> subgoal option
(** The table a query that is exactly one tabled call can read its
    answers from directly: the call's variant table, if it is complete,
    not stale, not answer-subsumptive, and holds unconditional answers
    only. [None] for every other goal (conjunctions, control constructs,
    builtins, call-subsumption hits, incomplete or conditional tables). *)

val note_call : env -> depth:int -> string * int -> Term.t -> unit
(** Count a call of the predicate in the profile
    ([xsb_pred_calls_total]) and emit its [Call] trace event, as every
    evaluated predicate call does. *)

val step : env -> unit
(** Charge one evaluation step; raises {!Step_limit} once [max_steps]
    (when positive) is exceeded. *)

(** {1 Table-space memory accounting}

    Estimated bytes on the {!Canon.size_bytes} model: answer tries
    (nodes, edges, entries, answer substitutions and delay lists) plus the
    per-table bookkeeping hashtables. Upper-bound estimates that track
    growth — the measurement substrate for table eviction; surfaced in
    [statistics/1] ([table_bytes], [call_index_bytes]), [table_dump/0]
    and the server's METRICS exposition. *)

val table_bytes : subgoal -> int
val table_space_bytes : env -> int

val call_index_bytes : env -> int
(** The call-subsumption discrimination tries ({!env.call_index}). *)

val table_bytes_by_pred : env -> ((string * int) * int) list
(** Per predicate, summed over its (non-private) tables, largest
    first. *)

val abolish_tables : env -> unit
(** Abolish the completed tables and {!reset_stats} the counters.
    Incomplete tables belong to an in-progress evaluation and are
    retained — abolishing them would leave that evaluation's
    bookkeeping pointing at detached subgoals. *)

val pp_table_dump : Format.formatter -> env -> unit
(** The [table_dump/0] report: every (non-private) table with its
    completion state and answers. *)

val susp_term : Term.t -> Term.t list -> Term.t -> Canon.t
(** [susp_term first rest template] packages a derivation state for a
    [Run] task or a snapshot. *)

val push_task : eval -> task -> unit

val run_eval : ?stop:(unit -> bool) -> eval -> unit
(** Run the evaluation's scheduler to fixpoint (or until [stop]). May
    raise {!Non_stratified} (in [Stratified] mode), {!Floundered},
    {!Engine_error}, {!Step_limit}. *)

val abandon_eval : eval -> unit
(** Delete the evaluation's incomplete tables and drop its tasks. *)

(** {1 Incremental tabling} *)

val note_mutation : env -> Database.mutation -> unit
(** React to a database mutation: completed tables transitively affected
    by the mutated predicate (via [s_dyn_reads] and [s_deps]) are
    dropped — except incremental tables affected by a pure clause
    addition whose derivations were negation-free, which are marked
    stale for in-place repair instead. A mutation of a {e static}
    predicate conservatively invalidates every completed table. Wired to
    {!Database.on_mutation} by {!Engine.create}. *)

val repair_stale : env -> unit
(** Re-derive every stale incremental table in place, all in one
    evaluation (so mutually-dependent tables reach their joint
    fixpoint). Existing answers are kept; generators re-run against the
    grown clause set. If the repair evaluation fails, the stale tables
    are dropped and the next call re-evaluates from scratch. Called by
    the engine at the start of each query. *)
