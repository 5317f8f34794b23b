(* The SLG engine: SLD resolution extended with variant-based tabling,
   as described in section 3 of the paper.

   Derivations are run by a depth-first interpreter whose continuation is
   an explicit list of goal terms. When a derivation selects a tabled
   call, it either consumes a completed table's answers inline, or it is
   reified into a *consumer*: a canonicalized snapshot of the call and
   the remaining resolvent ("copying to table space"; this plays the
   role of the SLG-WAM's stack freezing — see DESIGN.md §3). New answers
   resume consumers from their snapshot. An evaluation's scheduler
   drives generator and resumption tasks to fixpoint; completion is
   computed in batch at each fixpoint, excluding subgoals that can still
   receive answers through derivations suspended on negative literals.
   Negative literals over fresh subgoals are evaluated in *nested*
   evaluations, which is also what implements existential negation's
   early termination and table reclamation (e_tnot/tcut, §4.4). *)

open Xsb_term
open Xsb_db
module Answer_index = Xsb_index.Answer_store.Index
module Subsumption = Xsb_index.Answer_store.Subsumption
module Obs = Xsb_obs.Obs

exception Engine_error of string
exception Floundered of Term.t
exception Non_stratified of Canon.t list
exception Step_limit

let error fmt = Fmt.kstr (fun s -> raise (Engine_error s)) fmt

type mode = Stratified | Well_founded

(* Scheduling strategies (Areias & Rocha): [Batched] eagerly drains every
   new answer to all registered consumers; [Local] keeps answers inside
   the producer's strongly-connected component of subgoals until the SCC
   completes, and only then returns them outward. Both compute the same
   answer sets; they differ in answer-arrival order and in how much
   suspension state stays live. *)
type scheduling = Local | Batched

let scheduling_of_string s =
  match String.lowercase_ascii s with
  | "local" -> Some Local
  | "batched" -> Some Batched
  | _ -> None

let scheduling_to_string = function Local -> "local" | Batched -> "batched"

(* the CI matrix sets XSB_SCHEDULING to run every suite under both
   strategies; unset, the historical eager behaviour is the default *)
let default_scheduling () =
  match Sys.getenv_opt "XSB_SCHEDULING" with
  | Some s -> ( match scheduling_of_string s with Some x -> x | None -> Batched)
  | None -> Batched

(* Delayed literals attached to conditional answers (section 3.1): a
   delayed ground negation, or a positive literal that was resolved
   against a conditional answer of some table. *)
type delay = Dneg of Canon.t | Dpos of Canon.t * Canon.t

(* explicit order: delay-list normalization and answer-clause dedup must
   not depend on the physical representation of canonical terms *)
let compare_delay d1 d2 =
  match (d1, d2) with
  | Dneg a, Dneg b -> Canon.compare a b
  | Dneg _, Dpos _ -> -1
  | Dpos _, Dneg _ -> 1
  | Dpos (s1, t1), Dpos (s2, t2) -> (
      match Canon.compare s1 s2 with 0 -> Canon.compare t1 t2 | c -> c)

let compare_delays = List.compare compare_delay

type answer = { mutable a_subst : Canon.t array; a_delays : delay list }
(* An answer is its substitution factor (Swift & Warren): [a_subst.(i)]
   binds the subgoal key's variable [i], in first-occurrence order, and
   numbers its own variables by first occurrence across the tuple. The
   call's bound arguments live once, in the key; [answer_template]
   rebuilds the whole instance. [a_subst] is mutable for answer
   subsumption only: folding a better value into an existing answer
   rewrites it in place, so consumers resumed afterwards see the
   improved value *)

type sstate = Incomplete | Complete

type subgoal = {
  skey : Canon.t;
  s_id : int;
  s_pred : string * int;
  mutable s_state : sstate;
  mutable s_owner_eval : int;
  s_store : answer Answer_index.t;
      (* trie-indexed answer clauses (paper §4.5): SLG keeps distinct
         answer *clauses* — the same template may be supported by several
         delay lists (§3.1) — in insertion order, retrievable by the
         bound-argument skeleton of a consuming call *)
  mutable s_uncond : int;
      (* how many of the stored answers are unconditional; whether a
         given template has one is read off its trie terminal *)
  mutable s_consumers : consumer list;  (* reverse registration order *)
  mutable s_deps : subgoal list;
      (* subgoal dependency graph, out-edges: tables this subgoal's
         suspended derivations consume from (positive) or wait on
         (negative); the SCCs of this graph are the units of incremental
         completion *)
  mutable s_tasks : int;  (* queued scheduler tasks that feed this subgoal *)
  mutable s_scc : int;  (* SCC id from the last Tarjan pass (see refresh_sccs) *)
  s_mode : Pred.table_mode;  (* the predicate's tabling mode at table creation *)
  mutable s_dyn_reads : (string * int) list;
      (* dynamic predicates whose clauses this subgoal's derivations
         resolved against — the leaves of the incremental-tabling
         dependency graph (static-predicate reads are not tracked; a
         static mutation invalidates wholesale) *)
  mutable s_neg_dep : bool;
      (* some derivation feeding this table went through negation,
         if-then-else or aggregation: clause additions are then not
         monotone, so the table can be invalidated but never repaired *)
  mutable s_stale : bool;
      (* completed, but a repairable mutation has happened since: must be
         re-derived in place before the next query reads it *)
  s_lattice : lattice option;  (* answer-subsumptive tables only *)
}

and lattice = {
  l_op : Subsumption.op;
  l_seen : unit Canon.Tbl.t;
      (* raw answers already folded, so re-derivations through value
         cycles terminate *)
  l_holders : (int * answer) Canon.Tbl.t;  (* key columns -> (position, holder answer) *)
}

and consumer = {
  c_table : subgoal;
  c_owner : subgoal;
  c_snapshot : Canon.t;  (* $susp(Call, GoalsList, Template) *)
  c_delays : delay list;
  mutable c_consumed : int;
  mutable c_scheduled : bool;  (* a Drain task is already queued *)
  c_filter : Canon.t option;
      (* call subsumption: [Some probe] marks a *subsumed* consumer — its
         call is a proper instance of the producer's subgoal, so a drain
         probes the time-stamped answer index with [probe] (the call in
         the producer's substitution space, see [probe_of]) from the
         consumer's last-poll stamp instead of walking every answer;
         unification with the snapshot call filters the candidates *)
  mutable c_live : live option;
      (* the snapshot opened into live terms at the first resumption and
         reused by every later one: an answer binds [l_args] on the
         trail, the continuation runs, and the undo unbinds them *)
  mutable c_busy : bool;
      (* a resumption is running on [c_live]; a nested one opens a fresh
         copy of the snapshot instead *)
}

and live = {
  l_args : Term.t array;
      (* the call's subterms at the first occurrences of the table key's
         variables: the places an answer's substitution binds *)
  l_goals : Term.t list;
  l_template : Term.t;
}

type waiter_kind = Wneg | Wgoal

type waiter = {
  w_table : subgoal;
  w_owner : subgoal;
  w_kind : waiter_kind;
  w_snapshot : Canon.t;  (* $susp(BlockedGoal, GoalsList, Template) *)
  w_delays : delay list;
}

type task =
  | Drain of consumer
  | Generate of subgoal
  | Run of run

and run = {
  r_owner : subgoal;
  r_snapshot : Canon.t;  (* $susp(First, GoalsList, Template) *)
  r_delays : delay list;
  r_skip_first : bool;  (* WFS resume: delay the blocked literal instead *)
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
  mutable st_answer_probes : int;  (* indexed answer retrievals *)
  mutable st_answer_candidates : int;  (* candidates those probes returned *)
  mutable st_answer_full_size : int;  (* table sizes a full scan would have visited *)
  mutable st_subsumed_calls : int;  (* bound calls served from a completed subsuming table *)
  mutable st_subsumption_hits : int;
      (* calls that found a live subsuming table through the call index
         (Subsumption mode) and so created no generator of their own *)
  mutable st_answers_filtered : int;
      (* producer answers a subsumed consumer's unification rejected *)
  mutable st_drains_scheduled : int;  (* Drain tasks queued (after dedup) *)
  mutable st_sccs_completed : int;  (* SCCs closed by incremental completion *)
  mutable st_early_completions : int;  (* subgoals completed before the global fixpoint *)
  mutable st_max_scc_size : int;  (* largest SCC closed incrementally *)
  mutable st_invalidations : int;  (* completed tables dropped by a mutation *)
  mutable st_repairs : int;  (* stale incremental tables re-derived in place *)
  mutable st_folds : int;  (* answers folded into an existing subsumptive answer *)
  mutable st_steps : int;
}

let fresh_stats () =
  {
    st_subgoals = 0;
    st_answers = 0;
    st_dup_answers = 0;
    st_suspensions = 0;
    st_resumptions = 0;
    st_resolutions = 0;
    st_neg_suspensions = 0;
    st_nested_evals = 0;
    st_completions = 0;
    st_answer_probes = 0;
    st_answer_candidates = 0;
    st_answer_full_size = 0;
    st_subsumed_calls = 0;
    st_subsumption_hits = 0;
    st_answers_filtered = 0;
    st_drains_scheduled = 0;
    st_sccs_completed = 0;
    st_early_completions = 0;
    st_max_scc_size = 0;
    st_invalidations = 0;
    st_repairs = 0;
    st_folds = 0;
    st_steps = 0;
  }

(* Zero the counters in place (the record is shared by live references —
   [Engine.stats] hands it out once). Called by [abolish_tables], so an
   engine reset between runs cannot leak [st_max_scc_size] and friends
   into the next session's measurements. *)
let reset_stats st =
  st.st_subgoals <- 0;
  st.st_answers <- 0;
  st.st_dup_answers <- 0;
  st.st_suspensions <- 0;
  st.st_resumptions <- 0;
  st.st_resolutions <- 0;
  st.st_neg_suspensions <- 0;
  st.st_nested_evals <- 0;
  st.st_completions <- 0;
  st.st_answer_probes <- 0;
  st.st_answer_candidates <- 0;
  st.st_answer_full_size <- 0;
  st.st_subsumed_calls <- 0;
  st.st_subsumption_hits <- 0;
  st.st_answers_filtered <- 0;
  st.st_drains_scheduled <- 0;
  st.st_sccs_completed <- 0;
  st.st_early_completions <- 0;
  st.st_max_scc_size <- 0;
  st.st_invalidations <- 0;
  st.st_repairs <- 0;
  st.st_folds <- 0;
  st.st_steps <- 0

let pp_stats ppf st =
  Fmt.pf ppf
    "subgoals: %d@.answers: %d (dups %d)@.suspensions: %d@.resumptions: %d@.resolutions: \
     %d@.negative suspensions: %d@.nested evaluations: %d@.completions: %d@.answer index probes: \
     %d@.answer index candidates: %d (of %d stored)@.subsumed calls: %d@.subsumption hits: \
     %d@.answers filtered: %d@.drains scheduled: \
     %d@.sccs completed: %d@.early completions: %d@.max scc size: %d@.invalidations: \
     %d@.repairs: %d@.folds: %d@.steps: %d@."
    st.st_subgoals st.st_answers st.st_dup_answers st.st_suspensions st.st_resumptions
    st.st_resolutions st.st_neg_suspensions st.st_nested_evals st.st_completions
    st.st_answer_probes st.st_answer_candidates st.st_answer_full_size st.st_subsumed_calls
    st.st_subsumption_hits st.st_answers_filtered
    st.st_drains_scheduled st.st_sccs_completed st.st_early_completions st.st_max_scc_size
    st.st_invalidations st.st_repairs st.st_folds st.st_steps

type env = {
  db : Database.t;
  trail : Trail.t;
  tables : subgoal Canon.Tbl.t;
  call_index : (string * int, Canon.t Answer_index.t) Hashtbl.t;
      (* call subsumption: per-predicate discrimination trie over the
         subgoal keys of Subsumption-mode tables, probed with
         [retrieve_subsuming] when a fresh call arrives. Entries are
         never removed (the trie has no deletion); retrieval validates
         every candidate against [tables], so keys of deleted or
         invalidated tables are simply dead entries *)
  mode : mode;
  mutable scheduling : scheduling;
  mutable tabling_enabled : bool;
  mutable next_eval : int;
  mutable next_subgoal : int;
  mutable next_barrier : int;
  mutable max_steps : int;  (* 0 = unlimited *)
  stats : stats;
  mutable out : Format.formatter;
  collectors : (Term.t * Term.t list ref) Stack.t;
  mutable captured_incomplete : subgoal option;
  mutable stop : (unit -> bool) option;
  obs : Obs.Recorder.t;
      (* typed trace-event stream; inert until a sink is attached *)
  mutable profiling : bool;  (* the per-predicate profile records *)
  mutable profile : Obs.Profile.t;
      (* per-predicate profile handles on a metrics registry; written
         only while [profiling] *)
}

type eval = {
  e_id : int;
  e_depth : int;  (* nesting depth: 0 for top-level evaluations *)
  e_env : env;
  e_tasks : task Queue.t;
      (* FIFO: generators run before the drains they caused, and the
         queue stays O(live consumers) thanks to [c_scheduled] dedup *)
  mutable e_waiters : waiter list;
  mutable e_created : subgoal list;
  mutable e_scc_dirty : bool;
      (* the dependency graph changed since the last Tarjan pass *)
}

exception Cut_signal of int
exception Found
exception Touched_outer of subgoal
exception Stop_eval

(* a thrown Prolog term, copied to table space so it survives
   backtracking (throw/1, catch/3) *)
exception Prolog_ball of Canon.t

let create_env ?(mode = Stratified) ?scheduling db =
  let scheduling =
    match scheduling with Some s -> s | None -> default_scheduling ()
  in
  {
    db;
    trail = Trail.create ();
    tables = Canon.Tbl.create 256;
    call_index = Hashtbl.create 16;
    mode;
    scheduling;
    tabling_enabled = true;
    next_eval = 0;
    next_subgoal = 0;
    next_barrier = 0;
    max_steps = 0;
    stats = fresh_stats ();
    out = Format.std_formatter;
    collectors = Stack.create ();
    captured_incomplete = None;
    stop = None;
    obs = Obs.Recorder.create ();
    profiling = false;
    profile = Obs.Profile.create (Xsb_obs.Metrics.create ());
  }

let new_eval env parent =
  env.next_eval <- env.next_eval + 1;
  (match parent with
  | Some _ -> env.stats.st_nested_evals <- env.stats.st_nested_evals + 1
  | None -> ());
  {
    e_id = env.next_eval;
    e_depth = (match parent with Some p -> p.e_depth + 1 | None -> 0);
    e_env = env;
    e_tasks = Queue.create ();
    e_waiters = [];
    e_created = [];
    e_scc_dirty = false;
  }

let fresh_barrier env =
  env.next_barrier <- env.next_barrier + 1;
  env.next_barrier

let step env =
  env.stats.st_steps <- env.stats.st_steps + 1;
  if env.max_steps > 0 && env.stats.st_steps > env.max_steps then raise Step_limit;
  (* existential early termination can interrupt a running derivation *)
  if env.stats.st_steps land 15 = 0 then
    match env.stop with Some stop when stop () -> raise Stop_eval | _ -> ()

(* The subgoal a task can produce answers for: within one evaluation, a
   table only ever gains answers through tasks it owns, so a zero
   [s_tasks] count means the subgoal is quiescent — the local condition
   incremental completion builds on. *)
let task_owner = function
  | Generate sub -> sub
  | Drain c -> c.c_owner
  | Run r -> r.r_owner

let push_task ev task =
  let owner = task_owner task in
  owner.s_tasks <- owner.s_tasks + 1;
  Queue.add task ev.e_tasks

(* Drain tasks are deduplicated: a consumer with a drain already queued
   gets no second one, so the task queue stays O(live consumers) instead
   of O(answers x consumers) on cyclic programs. *)
let schedule_drain ev consumer =
  if not consumer.c_scheduled then begin
    consumer.c_scheduled <- true;
    ev.e_env.stats.st_drains_scheduled <- ev.e_env.stats.st_drains_scheduled + 1;
    push_task ev (Drain consumer)
  end

(* ------------------------------------------------------------------ *)
(* Observability: event emission and per-predicate metrics.

   Every emission site is guarded on [Obs.Recorder.active] /
   [env.profiling] — one boolean read — so the hot path pays
   nothing while tracing and profiling are off. Term rendering (the
   [call] field) happens only on the active path. *)

let pred_str (name, arity) = name ^ "/" ^ string_of_int arity

let obs_on env = Obs.Recorder.active env.obs

(* an event about a table: carries the subgoal id and its predicate *)
let emit_sub env ~depth sub kind call =
  Obs.Recorder.emit env.obs ~step:env.stats.st_steps ~subgoal:sub.s_id
    ~pred:(pred_str sub.s_pred) ~call ~depth kind

(* an event about a plain goal (no table attached) *)
let emit_goal env ~depth pred kind call =
  Obs.Recorder.emit env.obs ~step:env.stats.st_steps ~subgoal:0 ~pred:(pred_str pred)
    ~call ~depth kind

let key_str key = Term.to_string (Canon.to_term key)

module Counter = Xsb_obs.Metrics.Counter

(* a predicate's profile handles: one table probe; callers check
   [env.profiling] first *)
let prof env key = Obs.Profile.handles env.profile key

(* a predicate call: the profile's call count and the Call event *)
let note_call env ~depth pred goal =
  if env.profiling then Counter.incr (prof env pred).calls;
  if obs_on env then emit_goal env ~depth pred Obs.Event.Call (Term.to_string goal)

(* ------------------------------------------------------------------ *)
(* Snapshots: a suspended derivation copied to table space. *)

let susp_term first goals template =
  Canon.of_term (Term.Struct ("$susp", [| first; Term.list_ goals; template |]))

let open_susp snapshot =
  match Term.deref (Canon.to_term snapshot) with
  | Term.Struct ("$susp", [| first; goals; template |]) -> (
      match Term.to_list goals with
      | Some goals -> (first, goals, template)
      | None -> error "corrupt suspension snapshot")
  | _ -> error "corrupt suspension snapshot"

let open_live consumer =
  let call, goals, template = open_susp consumer.c_snapshot in
  { l_args = Canon.factor_term consumer.c_table.skey call; l_goals = goals; l_template = template }

(* ------------------------------------------------------------------ *)
(* Answers as substitutions *)

(* the answer trie's key for a substitution: its bindings as the
   arguments of one struct *)
let subst_key subst = Canon.CStruct ("", subst)

let answer_template sub a = Canon.instantiate sub.skey a.a_subst

(* [skel], an instance of [sub]'s key, as an answer-trie probe *)
let probe_of sub skel =
  match Canon.factor sub.skey skel with
  | Some tuple -> subst_key tuple
  | None -> error "%s is not an instance of its table's key" (key_str skel)

(* Unify the places [args] with an answer's substitution, rebuilt with
   fresh variables shared across the tuple. *)
let unify_subst trail args subst =
  let terms = Canon.to_terms subst in
  let rec go i = i = Array.length args || (Unify.unify trail args.(i) terms.(i) && go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Tables *)

let find_table env key = Canon.Tbl.find_opt env.tables key

let create_table ev key pred_key =
  let env = ev.e_env in
  env.next_subgoal <- env.next_subgoal + 1;
  env.stats.st_subgoals <- env.stats.st_subgoals + 1;
  let mode =
    match Database.find env.db (fst pred_key) (snd pred_key) with
    | Some p -> Pred.table_mode p
    | None -> Pred.Variant  (* private $queryN tables *)
  in
  let sub =
    {
      skey = key;
      s_id = env.next_subgoal;
      s_pred = pred_key;
      s_state = Incomplete;
      s_owner_eval = ev.e_id;
      s_store = Answer_index.create ();
      s_uncond = 0;
      s_consumers = [];
      s_deps = [];
      s_tasks = 0;
      s_scc = 0;
      s_mode = mode;
      s_dyn_reads = [];
      s_neg_dep = false;
      s_stale = false;
      s_lattice =
        (match mode with
        | Pred.Subsumptive l_op ->
            Some { l_op; l_seen = Canon.Tbl.create 4; l_holders = Canon.Tbl.create 4 }
        | _ -> None);
    }
  in
  Canon.Tbl.replace env.tables key sub;
  (* call subsumption: make this subgoal retrievable by later, more
     specific calls. Re-creations after an invalidation find their key
     already present (the trie has no deletion), so the index stays
     duplicate-free. *)
  (match mode with
  | Pred.Subsumption ->
      let idx =
        match Hashtbl.find_opt env.call_index pred_key with
        | Some idx -> idx
        | None ->
            let idx = Answer_index.create () in
            Hashtbl.add env.call_index pred_key idx;
            idx
      in
      ignore (Answer_index.insert idx key ~absorbed:(fun _ -> true) key : int option)
  | _ -> ());
  ev.e_created <- sub :: ev.e_created;
  ev.e_scc_dirty <- true;
  if env.profiling then Counter.incr (prof env pred_key).subgoals;
  if obs_on env then
    emit_sub env ~depth:ev.e_depth sub Obs.Event.New_subgoal (key_str key);
  sub

let delete_table env sub = Canon.Tbl.remove env.tables sub.skey

(* Drop every completed table whose subgoal predicate is [pred_key].
   Used when the predicate itself is abolished: its tables memoize
   answers derived from clauses that no longer exist, so a later call
   must re-evaluate against the (possibly re-declared) predicate.
   Incomplete tables are retained for the same reason as in
   [abolish_tables] below. *)
let remove_tables_for env pred_key =
  let doomed =
    Canon.Tbl.fold
      (fun key sub acc ->
        if sub.s_pred = pred_key && sub.s_state = Complete then key :: acc else acc)
      env.tables []
  in
  List.iter (Canon.Tbl.remove env.tables) doomed;
  List.length doomed

let has_unconditional sub = sub.s_uncond > 0

let answer_count sub = Answer_index.size sub.s_store
let has_any_answer sub = answer_count sub > 0
let iter_answers f sub = Answer_index.iter f sub.s_store
let fold_answers f acc sub = Answer_index.fold_left f acc sub.s_store

(* Abolish the completed tables. Incomplete tables belong to an
   in-progress evaluation: detaching them would leave [e_created],
   registered consumers and waiters pointing at subgoals the completion
   phase still marks Complete (and let a concurrent variant call build a
   second table for the same subgoal), so they are retained — the safe
   library rendering of XSB's "abolishing a table in use" error. *)
let abolish_tables env =
  let doomed =
    Canon.Tbl.fold
      (fun key sub acc -> if sub.s_state = Complete then key :: acc else acc)
      env.tables []
  in
  List.iter (Canon.Tbl.remove env.tables) doomed;
  Hashtbl.reset env.call_index;
  if obs_on env then
    Obs.Recorder.emit env.obs ~step:env.stats.st_steps ~subgoal:0 ~pred:"" ~call:""
      ~depth:0 (Obs.Event.Abolish (List.length doomed));
  (* an engine reset starts the counters over: measurements of the next
     run must not inherit st_max_scc_size and friends (ISSUE PR 3) *)
  reset_stats env.stats

(* ------------------------------------------------------------------ *)
(* The subgoal dependency graph and incremental SCC completion.

   Edges are recorded when a derivation suspends: a consumer of table T
   owned by subgoal S adds S -> T (positive), a negative waiter likewise
   (negative). A strongly-connected component of incomplete subgoals can
   be completed as soon as (a) no member has a queued task, (b) every
   table a member depends on outside the SCC is already complete, (c) no
   derivation suspended on a negative literal can still feed a member,
   and (d) no member-owned consumer has undelivered answers. This is the
   library rendering of the SLG-WAM's completion instruction: tables
   close as their SCC is exhausted instead of at the global fixpoint, so
   completed-table reuse (inline consumption, subsumption, early tnot
   failure) fires mid-evaluation. *)

let add_dep ev owner table =
  if not (List.memq table owner.s_deps) then begin
    owner.s_deps <- table :: owner.s_deps;
    ev.e_scc_dirty <- true
  end

(* Transitive taint for incremental repair: a table whose derivation
   consumed from a tainted table cannot be repaired either. Run to
   fixpoint over a set being completed, since the set may contain cycles
   and is marked in arbitrary order. *)
let smear_neg_dep members =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        if (not m.s_neg_dep) && List.exists (fun d -> d.s_neg_dep) m.s_deps then begin
          m.s_neg_dep <- true;
          changed := true
        end)
      members
  done

let is_subsumptive sub =
  match sub.s_mode with Pred.Subsumptive _ -> true | _ -> false

(* Record that [owner]'s derivations resolved against the clauses of a
   dynamic predicate: the leaf edges of the incremental dependency
   graph. *)
let note_dyn_read owner pred =
  if Pred.kind pred = Pred.Dynamic then begin
    let key = (Pred.name pred, Pred.arity pred) in
    if not (List.mem key owner.s_dyn_reads) then
      owner.s_dyn_reads <- key :: owner.s_dyn_reads
  end

(* Iterative Tarjan over this evaluation's incomplete subgoals; assigns
   [s_scc] ids. Lazy: only re-run when the graph changed. *)
let refresh_sccs ev =
  if ev.e_scc_dirty then begin
    ev.e_scc_dirty <- false;
    let nodes = List.filter (fun s -> s.s_state = Incomplete) ev.e_created in
    let idx = Hashtbl.create 64 and low = Hashtbl.create 64 in
    let onstack = Hashtbl.create 64 in
    let stack = Stack.create () in
    let counter = ref 0 and next_scc = ref 0 in
    let succs s = List.filter (fun d -> d.s_state = Incomplete) s.s_deps in
    let strongconnect v0 =
      let frames = Stack.create () in
      let open_node v =
        Hashtbl.replace idx v.s_id !counter;
        Hashtbl.replace low v.s_id !counter;
        incr counter;
        Stack.push v stack;
        Hashtbl.replace onstack v.s_id ();
        Stack.push (v, ref (succs v)) frames
      in
      open_node v0;
      while not (Stack.is_empty frames) do
        let v, rest = Stack.top frames in
        match !rest with
        | w :: tl ->
            rest := tl;
            if not (Hashtbl.mem idx w.s_id) then open_node w
            else if Hashtbl.mem onstack w.s_id then
              Hashtbl.replace low v.s_id
                (min (Hashtbl.find low v.s_id) (Hashtbl.find idx w.s_id))
        | [] ->
            ignore (Stack.pop frames);
            if Hashtbl.find low v.s_id = Hashtbl.find idx v.s_id then begin
              incr next_scc;
              let rec pop () =
                let w = Stack.pop stack in
                Hashtbl.remove onstack w.s_id;
                w.s_scc <- !next_scc;
                if w != v then pop ()
              in
              pop ()
            end;
            (match Stack.top_opt frames with
            | Some (p, _) ->
                Hashtbl.replace low p.s_id
                  (min (Hashtbl.find low p.s_id) (Hashtbl.find low v.s_id))
            | None -> ())
      done
    in
    List.iter (fun v -> if not (Hashtbl.mem idx v.s_id) then strongconnect v) nodes
  end

let mark_complete ev sub =
  let env = ev.e_env in
  sub.s_state <- Complete;
  env.stats.st_completions <- env.stats.st_completions + 1;
  if obs_on env then emit_sub env ~depth:ev.e_depth sub Obs.Event.Complete (key_str sub.skey)

let run_of_waiter w =
  Run
    {
      r_owner = w.w_owner;
      r_snapshot = w.w_snapshot;
      r_delays = w.w_delays;
      r_skip_first = false;
      r_extra_delay = None;
    }

(* Try to complete the SCC of [sub]. Called whenever a subgoal's queued
   task count drops to zero, and cascaded from completions it enables. *)
let rec try_complete ev sub =
  if sub.s_state = Incomplete && sub.s_tasks = 0 then begin
    refresh_sccs ev;
    let scc = sub.s_scc in
    let members =
      List.filter (fun s -> s.s_state = Incomplete && s.s_scc = scc) ev.e_created
    in
    let in_scc s = s.s_state = Incomplete && s.s_scc = scc in
    let blocked =
      List.exists (fun m -> m.s_tasks > 0) members
      || List.exists
           (fun m ->
             List.exists (fun d -> d.s_state = Incomplete && d.s_scc <> scc) m.s_deps)
           members
      || List.exists (fun w -> in_scc w.w_owner) ev.e_waiters
      || List.exists
           (fun m ->
             List.exists
               (fun c -> in_scc c.c_owner && c.c_consumed < answer_count m)
               m.s_consumers)
           members
    in
    if not blocked then complete_scc ev members
  end

and complete_scc ev members =
  let env = ev.e_env in
  let n = List.length members in
  env.stats.st_sccs_completed <- env.stats.st_sccs_completed + 1;
  env.stats.st_early_completions <- env.stats.st_early_completions + n;
  if n > env.stats.st_max_scc_size then env.stats.st_max_scc_size <- n;
  (if obs_on env then
     match members with
     | first :: _ ->
         emit_sub env ~depth:ev.e_depth first (Obs.Event.Scc_complete n) (key_str first.skey)
     | [] -> ());
  smear_neg_dep members;
  List.iter (mark_complete ev) members;
  ev.e_scc_dirty <- true;
  (* deliver answers deferred by local scheduling to cross-SCC consumers,
     and wake their owners so completion cascades outward *)
  List.iter
    (fun m -> List.iter (fun c -> schedule_drain ev c) m.s_consumers)
    members;
  ignore (resolve_waiters ev : bool)

(* Waiters blocked on now-complete tables resume; negative waiters whose
   (ground) subgoal has acquired an unconditional answer fail outright.
   Returns whether any waiter was resolved. *)
and resolve_waiters ev =
  let resumable, blocked =
    List.partition (fun w -> w.w_table.s_state = Complete) ev.e_waiters
  in
  let failed, blocked =
    List.partition
      (fun w -> w.w_kind = Wneg && has_unconditional w.w_table)
      blocked
  in
  ev.e_waiters <- blocked;
  List.iter (fun w -> push_task ev (run_of_waiter w)) resumable;
  (* a dropped waiter no longer pins its owner's SCC open *)
  List.iter (fun w -> try_complete ev w.w_owner) failed;
  resumable <> [] || failed <> []

(* Local scheduling can defer drains across SCC boundaries; before a
   fixpoint judgement every undelivered answer must be scheduled. *)
let flush_deferred_drains ev =
  let any = ref false in
  List.iter
    (fun s ->
      if s.s_state = Incomplete then
        List.iter
          (fun c ->
            if (not c.c_scheduled) && c.c_consumed < answer_count s then begin
              any := true;
              schedule_drain ev c
            end)
          s.s_consumers)
    ev.e_created;
  !any

(* ------------------------------------------------------------------ *)
(* Goal classification *)

let pred_key_of goal =
  match Term.deref goal with
  | Term.Atom name -> (name, 0)
  | Term.Struct (name, args) -> (name, Array.length args)
  | Term.Int _ | Term.Float _ -> error "number used as a goal"
  | Term.Var _ -> error "unbound variable used as a goal"

let args_of goal =
  match Term.deref goal with
  | Term.Struct (_, args) -> args
  | _ -> [||]

(* The fully-open variant of a call: pred(V0,...,Vn-1). When a bound call
   has no variant table but the open call's table is already complete,
   the answers of the bound call are exactly the matching subset of the
   open table — retrieved through the answer index instead of
   re-evaluating the program (subsumptive consumption of completed
   tables; cf. Cruz & Rocha on instance retrieval for subsumptive
   tabling). *)
let open_key_of goal =
  match Term.deref goal with
  | Term.Struct (f, args) when Array.length args > 0 ->
      Some (Canon.CStruct (f, Array.init (Array.length args) (fun i -> Canon.CVar i)))
  | _ -> None

let subsuming_completed env goal key =
  match open_key_of goal with
  | Some okey when not (Canon.equal okey key) -> (
      match find_table env okey with
      | Some sub when sub.s_state = Complete -> Some sub
      | _ -> None)
  | _ -> None

(* Call-subsumption retrieval (Subsumption mode): probe the predicate's
   call index for a live table whose subgoal subsumes [key]. A completed
   table is preferred (inline consumption, no suspension); otherwise an
   incomplete table owned by this evaluation serves, with the new call
   becoming a subsumed consumer. Incomplete tables of *other*
   evaluations are skipped — subsumption is an optimization, and
   declining it avoids any cross-evaluation interaction. *)
let subsuming_live env ev key pred_key =
  match Hashtbl.find_opt env.call_index pred_key with
  | None -> None
  | Some idx ->
      let live =
        List.filter_map
          (fun (_, k) ->
            match find_table env k with
            | Some sub
              when (not sub.s_stale)
                   && (sub.s_state = Complete || sub.s_owner_eval = ev.e_id) ->
                Some sub
            | _ -> None)
          (Answer_index.retrieve_subsuming idx key)
      in
      match List.find_opt (fun sub -> sub.s_state = Complete) live with
      | Some sub -> Some sub
      | None -> ( match live with sub :: _ -> Some sub | [] -> None)

let is_tabled env goal =
  env.tabling_enabled
  &&
  let name, arity = pred_key_of goal in
  match Database.find env.db name arity with Some p -> Pred.tabled p | None -> false

(* Whether [solve] hands [goal] to [solve_call]: the control constructs
   and builtins that [solve_atom] and [solve_struct] dispatch first never
   reach a user predicate, tabled or not. *)
let reaches_call goal =
  match Term.deref goal with
  | Term.Atom
      ( "true" | "fail" | "false" | "!" | "tcut" | "nl" | "listing" | "statistics"
      | "table_dump" | "profile" | "halt" | "abolish_all_tables" | "$found$" | "$collect$"
      | "table_all" ) ->
      false
  | Term.Atom _ -> true
  | Term.Struct (name, args) -> (
      match (name, Array.length args) with
      | ("," | ";" | "->"), 2
      | ("$endscope" | "\\+" | "not" | "tnot" | "e_tnot" | "throw"), 1
      | "catch", 3
      | ("findall" | "tfindall" | "bagof" | "setof"), 3
      | "statistics", 1
      | "get_calls", 1
      | "get_returns", 2 ->
          false
      | ("call" | "table" | "dynamic" | "hilog" | "index" | "op"), _ -> false
      | _, arity -> Builtins.lookup name arity = None)
  | Term.Int _ | Term.Float _ | Term.Var _ -> false

(* The table a query that is exactly one tabled call can read its
   answers from directly: its variant table, complete and not stale, not
   answer-subsumptive, and holding unconditional answers only — so every
   answer is final and is one solution of the query. Anything else is
   [None] and evaluates through a query table. *)
let completed_call env goal =
  if not (reaches_call goal && is_tabled env goal) then None
  else
    match find_table env (Canon.of_term goal) with
    | Some sub
      when sub.s_state = Complete && (not sub.s_stale) && (not (is_subsumptive sub))
           && answer_count sub = sub.s_uncond ->
        Some sub
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Table-space introspection (ISSUE PR 3): the builtins statistics/1,
   table_dump/0, get_calls/1 and get_returns/2 reify the engine's
   internal state as terms queryable from the object language, the
   library rendering of XSB's statistics/1 and table-inspection
   predicates. *)

(* --- table-space memory accounting (ISSUE PR 8) ---

   Estimated bytes per table: the answer trie (nodes, edges, entries and
   the answer payloads — template plus delay list) and the per-table
   bookkeeping hashtables. Estimates on the [Canon.size_bytes] model: an
   upper bound that tracks growth, cheap enough to compute at scrape
   time, precise enough to drive the ROADMAP's table-eviction work. *)

let word = 8

let delay_bytes = function
  | Dneg g -> (2 * word) + Canon.size_bytes g
  | Dpos (sg, ans) -> (3 * word) + Canon.size_bytes sg + Canon.size_bytes ans

let answer_bytes a =
  (3 * word)
  + Canon.tuple_bytes a.a_subst
  + List.fold_left (fun acc d -> acc + (3 * word) + delay_bytes d) 0 a.a_delays

(* a [Canon.Tbl]: the table itself plus its keys; values are unboxed or
   shared with the answer store *)
let canon_tbl_bytes tbl =
  Canon.hashtbl_bytes (Canon.Tbl.length tbl)
  + Canon.Tbl.fold (fun k _ acc -> acc + Canon.size_bytes k) tbl 0

let table_bytes sub =
  (* the subgoal record, and the cons cells of its dependency lists *)
  (18 * word)
  + ((List.length sub.s_deps + List.length sub.s_dyn_reads) * 3 * word)
  + Canon.size_bytes sub.skey
  + Answer_index.footprint answer_bytes sub.s_store
  +
  match sub.s_lattice with
  | None -> 0
  | Some l ->
      (5 * word) + canon_tbl_bytes l.l_seen + canon_tbl_bytes l.l_holders
      + (Canon.Tbl.length l.l_holders * 3 * word)  (* (position, holder) pairs *)

let table_space_bytes env =
  Canon.Tbl.fold (fun _ sub acc -> acc + table_bytes sub) env.tables 0

let call_index_bytes env =
  Hashtbl.fold
    (fun _ idx acc -> acc + Answer_index.footprint Canon.size_bytes idx)
    env.call_index 0

(* estimated bytes per predicate, summed over its tables, largest
   first — the per-table byte gauges of the METRICS exposition *)
let table_bytes_by_pred env =
  let acc : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  Canon.Tbl.iter
    (fun _ sub ->
      if (fst sub.s_pred).[0] <> '$' then
        let prev = Option.value ~default:0 (Hashtbl.find_opt acc sub.s_pred) in
        Hashtbl.replace acc sub.s_pred (prev + table_bytes sub))
    env.tables;
  Hashtbl.fold (fun pred bytes rows -> (pred, bytes) :: rows) acc []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* the statistics record as a [name = value] list *)
let stats_term env =
  let st = env.stats in
  let pair name v = Term.app "=" [ Term.Atom name; Term.Int v ] in
  Term.list_
    [
      pair "subgoals" st.st_subgoals;
      pair "answers" st.st_answers;
      pair "dup_answers" st.st_dup_answers;
      pair "suspensions" st.st_suspensions;
      pair "resumptions" st.st_resumptions;
      pair "resolutions" st.st_resolutions;
      pair "neg_suspensions" st.st_neg_suspensions;
      pair "nested_evals" st.st_nested_evals;
      pair "completions" st.st_completions;
      pair "subsumed_calls" st.st_subsumed_calls;
      pair "subsumption_hits" st.st_subsumption_hits;
      pair "answers_filtered" st.st_answers_filtered;
      pair "sccs_completed" st.st_sccs_completed;
      pair "early_completions" st.st_early_completions;
      pair "max_scc_size" st.st_max_scc_size;
      pair "invalidations" st.st_invalidations;
      pair "repairs" st.st_repairs;
      pair "folds" st.st_folds;
      pair "steps" st.st_steps;
      pair "tables" (Canon.Tbl.length env.tables);
      pair "table_bytes" (table_space_bytes env);
      pair "call_index_bytes" (call_index_bytes env);
    ]

let sorted_tables env =
  Canon.Tbl.fold (fun _ sub acc -> sub :: acc) env.tables []
  |> List.sort (fun a b -> compare a.s_id b.s_id)

(* private $queryN tables are engine bookkeeping, not program state *)
let user_tables env =
  List.filter (fun sub -> (fst sub.s_pred).[0] <> '$') (sorted_tables env)

let pp_table_dump ppf env =
  let tables = user_tables env in
  Fmt.pf ppf "table space: %d table%s, ~%d bytes (+%d call-index bytes)@." (List.length tables)
    (if List.length tables = 1 then "" else "s")
    (List.fold_left (fun acc sub -> acc + table_bytes sub) 0 tables)
    (call_index_bytes env);
  List.iter
    (fun sub ->
      Fmt.pf ppf "%s  [%s, %d answer%s, ~%d bytes]@." (key_str sub.skey)
        (match sub.s_state with Complete -> "complete" | Incomplete -> "incomplete")
        (answer_count sub)
        (if answer_count sub = 1 then "" else "s")
        (table_bytes sub);
      iter_answers
        (fun a ->
          Fmt.pf ppf "  %s%s@." (key_str (answer_template sub a))
            (if a.a_delays = [] then "" else " (conditional)"))
        sub)
    tables

(* ------------------------------------------------------------------ *)
(* The interpreter.

   [solve ev ~det ~owner ~template ~delays ~barrier goals] explores all
   derivations of [goals]; solutions reaching the empty resolvent emit
   an answer for [owner]. Alternatives are explored depth-first with
   trail-based undo. [det] marks deterministic contexts (conditions of
   if-then-else, \+, findall sub-derivations) where suspension is not
   possible: there, incomplete own-eval tables are consumed by snapshot
   ("capture" semantics, as XSB's findall on incomplete tables) and
   fresh tabled calls are completed in nested evaluations. *)

let rec solve ev ~det ~owner ~template ~delays ~barrier goals =
  let env = ev.e_env in
  step env;
  match goals with
  | [] -> emit_answer ev owner template delays
  | goal :: rest -> (
      match Term.deref goal with
      | Term.Var _ -> error "unbound variable used as a goal"
      | Term.Int _ | Term.Float _ -> error "number used as a goal"
      | Term.Atom name -> solve_atom ev ~det ~owner ~template ~delays ~barrier name goal rest
      | Term.Struct (name, args) ->
          solve_struct ev ~det ~owner ~template ~delays ~barrier name args goal rest)

and continue ev ~det ~owner ~template ~delays ~barrier rest =
  solve ev ~det ~owner ~template ~delays ~barrier rest

and solve_atom ev ~det ~owner ~template ~delays ~barrier name goal rest =
  match name with
  | "true" -> continue ev ~det ~owner ~template ~delays ~barrier rest
  | "fail" | "false" -> ()
  | "!" ->
      continue ev ~det ~owner ~template ~delays ~barrier rest;
      raise (Cut_signal barrier)
  | "tcut" ->
      (* tcut/0 (paper §4.4): behaves as a cut; the freeing of tables cut
         over is performed by the nested-evaluation machinery of e_tnot,
         which abandons (frees) tables with no outside users. Used
         standalone it is the paper's "simple noop" case plus the cut. *)
      continue ev ~det ~owner ~template ~delays ~barrier rest;
      raise (Cut_signal barrier)
  | "nl" ->
      Format.pp_print_newline ev.e_env.out ();
      continue ev ~det ~owner ~template ~delays ~barrier rest
  | "listing" -> continue ev ~det ~owner ~template ~delays ~barrier rest
  | "statistics" ->
      pp_stats ev.e_env.out ev.e_env.stats;
      continue ev ~det ~owner ~template ~delays ~barrier rest
  | "table_dump" ->
      pp_table_dump ev.e_env.out ev.e_env;
      continue ev ~det ~owner ~template ~delays ~barrier rest
  | "profile" ->
      Obs.Profile.pp_report ev.e_env.out (Obs.Profile.registry ev.e_env.profile);
      continue ev ~det ~owner ~template ~delays ~barrier rest
  | "halt" -> error "halt/0 is not available inside the library engine"
  | "abolish_all_tables" ->
      abolish_tables ev.e_env;
      continue ev ~det ~owner ~template ~delays ~barrier rest
  | "$found$" -> raise Found
  | "$collect$" ->
      let tmpl, acc = Stack.top ev.e_env.collectors in
      acc := Term.copy tmpl :: !acc;
      ()
  | "table_all" ->
      let scope = List.map (fun p -> (Pred.name p, Pred.arity p)) (Database.preds ev.e_env.db) in
      Table_all.apply ev.e_env.db ~scope;
      continue ev ~det ~owner ~template ~delays ~barrier rest
  | _ -> solve_call ev ~det ~owner ~template ~delays ~barrier goal rest

and solve_struct ev ~det ~owner ~template ~delays ~barrier name args goal rest =
  let env = ev.e_env in
  let next rest = continue ev ~det ~owner ~template ~delays ~barrier rest in
  match (name, args) with
  | ",", [| a; b |] -> next (a :: b :: rest)
  | ";", [| l; r |] -> (
      match Term.deref l with
      | Term.Struct ("->", [| cond; then_ |]) ->
          solve_ite ev ~det ~owner ~template ~delays ~barrier cond then_ r rest
      | _ ->
          let m = Trail.mark env.trail in
          next (l :: rest);
          Trail.undo_to env.trail m;
          next (r :: rest);
          Trail.undo_to env.trail m)
  | "->", [| cond; then_ |] ->
      solve_ite ev ~det ~owner ~template ~delays ~barrier cond then_ (Term.Atom "fail") rest
  | "$endscope", [| b |] -> (
      match Term.deref b with
      | Term.Int b -> continue ev ~det ~owner ~template ~delays ~barrier:b rest
      | _ -> error "corrupt cut scope marker")
  | ("\\+" | "not"), [| g |] ->
      solve_ite ev ~det ~owner ~template ~delays ~barrier g (Term.Atom "fail") (Term.Atom "true")
        rest
  | "tnot", [| g |] -> solve_tnot ev ~det ~owner ~template ~delays ~barrier ~existential:false g rest
  | "e_tnot", [| g |] ->
      solve_tnot ev ~det ~owner ~template ~delays ~barrier ~existential:true g rest
  | "throw", [| ball |] -> raise (Prolog_ball (Canon.of_term (Term.deref ball)))
  | "catch", [| g; catcher; recovery |] ->
      (* the catch window extends over [g]'s derivations; balls thrown by
         derivations resumed from table space after suspension escape to
         the top (see the manual's tabling restrictions) *)
      let m = Trail.mark env.trail in
      let b = fresh_barrier env in
      (try
         with_cut_catch env b (fun () ->
             continue ev ~det ~owner ~template ~delays ~barrier:b
               (Term.deref g :: Term.Struct ("$endscope", [| Term.Int barrier |]) :: rest))
       with Prolog_ball ball ->
         Trail.undo_to env.trail m;
         let ball_term = Canon.to_term ball in
         let m2 = Trail.mark env.trail in
         if Unify.unify env.trail catcher ball_term then begin
           continue ev ~det ~owner ~template ~delays ~barrier (recovery :: rest);
           Trail.undo_to env.trail m2
         end
         else begin
           Trail.undo_to env.trail m2;
           raise (Prolog_ball ball)
         end)
  | "call", [| g |] ->
      let b = fresh_barrier env in
      with_cut_catch env b (fun () ->
          continue ev ~det ~owner ~template ~delays ~barrier:b
            (Term.deref g :: Term.Struct ("$endscope", [| Term.Int barrier |]) :: rest))
  | "call", _ when Array.length args >= 2 ->
      let g = build_call args in
      next (g :: rest)
  | "findall", [| tmpl; g; out |] ->
      solve_findall ev ~det ~owner ~template ~delays ~barrier ~tabled_wait:false tmpl g out rest
  | "tfindall", [| tmpl; g; out |] ->
      solve_findall ev ~det ~owner ~template ~delays ~barrier ~tabled_wait:true tmpl g out rest
  | "bagof", [| tmpl; g; out |] ->
      let g = strip_carets g in
      solve_findall ev ~det ~owner ~template ~delays ~barrier ~tabled_wait:false ~require:true tmpl
        g out rest
  | "setof", [| tmpl; g; out |] ->
      let g = strip_carets g in
      solve_findall ev ~det ~owner ~template ~delays ~barrier ~tabled_wait:false ~require:true
        ~sort:true tmpl g out rest
  | ("table" | "dynamic" | "hilog" | "index" | "op"), _ -> (
      match Loader.process_directive env.db goal with
      | `Handled -> next rest
      | `Table_all | `Deferred _ -> error "unsupported runtime directive")
  | "statistics", [| arg |] ->
      (* statistics(S): S unifies with the counters as a [name = value]
         list (statistics/1-style introspection) *)
      let m = Trail.mark env.trail in
      if Unify.unify env.trail arg (stats_term env) then next rest;
      Trail.undo_to env.trail m
  | "get_calls", [| c |] ->
      (* get_calls(Call): enumerate the tabled subgoals present in table
         space, most recently created last *)
      List.iter
        (fun sub ->
          let m = Trail.mark env.trail in
          if Unify.unify env.trail c (Canon.to_term sub.skey) then next rest;
          Trail.undo_to env.trail m)
        (user_tables env)
  | "get_returns", [| c; r |] ->
      (* get_returns(Call, Answer): for each table whose subgoal unifies
         with Call, enumerate its answers into Answer *)
      List.iter
        (fun sub ->
          (* snapshot: the continuation may grow the table mid-iteration *)
          let answers = List.rev (fold_answers (fun acc a -> a :: acc) [] sub) in
          let m = Trail.mark env.trail in
          if Unify.unify env.trail c (Canon.to_term sub.skey) then
            List.iter
              (fun (a : answer) ->
                let m2 = Trail.mark env.trail in
                if Unify.unify env.trail r (Canon.to_term (answer_template sub a)) then next rest;
                Trail.undo_to env.trail m2)
              answers;
          Trail.undo_to env.trail m)
        (user_tables env)
  | _ -> (
      match Builtins.lookup name (Array.length args) with
      | Some b -> (
          try
            Builtins.run b env.trail env.db env.out args (fun () ->
                continue ev ~det ~owner ~template ~delays ~barrier rest)
          with
          | Arith.Arith_error msg ->
              raise
                (Prolog_ball
                   (Canon.of_term
                      (Term.app "error" [ Term.app "evaluation_error" [ Term.Atom msg ]; Term.Atom name ])))
          | Builtins.Builtin_error msg ->
              raise
                (Prolog_ball
                   (Canon.of_term
                      (Term.app "error" [ Term.Atom msg; Term.Atom name ]))))
      | None -> solve_call ev ~det ~owner ~template ~delays ~barrier goal rest)

and build_call args =
  let g = Term.deref args.(0) in
  let extra = Array.sub args 1 (Array.length args - 1) in
  match g with
  | Term.Atom name -> Term.struct_ name extra
  | Term.Struct (name, gargs) -> Term.Struct (name, Array.append gargs extra)
  | Term.Var _ -> error "unbound variable in call/N"
  | Term.Int _ | Term.Float _ -> error "number used as a goal in call/N"

and strip_carets g =
  match Term.deref g with Term.Struct ("^", [| _; g |]) -> strip_carets g | g -> g

and with_cut_catch env b f =
  let m = Trail.mark env.trail in
  try f ()
  with Cut_signal b' when b' = b ->
    Trail.undo_to env.trail m

(* if-then-else: find the first solution of [cond] (keeping its
   bindings), commit to it and run [then_]; otherwise run [else_]. The
   condition runs in a deterministic context. *)
and solve_ite ev ~det ~owner ~template ~delays ~barrier cond then_ else_ rest =
  let env = ev.e_env in
  (* committing to the first solution (or its absence) is not monotone
     under clause addition: taint the owner against incremental repair *)
  owner.s_neg_dep <- true;
  let m = Trail.mark env.trail in
  let b = fresh_barrier env in
  let succeeded =
    try
      solve ev ~det:true ~owner ~template ~delays ~barrier:b [ cond; Term.Atom "$found$" ];
      false
    with
    | Found -> true
    | Cut_signal b' when b' = b ->
        Trail.undo_to env.trail m;
        false
  in
  if succeeded then begin
    continue ev ~det ~owner ~template ~delays ~barrier (then_ :: rest);
    Trail.undo_to env.trail m
  end
  else begin
    Trail.undo_to env.trail m;
    continue ev ~det ~owner ~template ~delays ~barrier (else_ :: rest)
  end

(* findall and its relatives: collect every solution of [g] in a
   deterministic sub-derivation. *)
and solve_findall ev ~det ~owner ~template ~delays ~barrier ~tabled_wait ?(require = false)
    ?(sort = false) tmpl g out rest =
  let env = ev.e_env in
  (* the collected list shrinks no answer but changes as a term when
     clauses are added: not repairable *)
  owner.s_neg_dep <- true;
  let acc = ref [] in
  Stack.push (tmpl, acc) env.collectors;
  let saved_capture = env.captured_incomplete in
  env.captured_incomplete <- None;
  let m = Trail.mark env.trail in
  let b = fresh_barrier env in
  let finish () = ignore (Stack.pop env.collectors) in
  (try solve ev ~det:true ~owner ~template ~delays ~barrier:b [ g; Term.Atom "$collect$" ]
   with e ->
     finish ();
     env.captured_incomplete <- saved_capture;
     Trail.undo_to env.trail m;
     raise e);
  finish ();
  Trail.undo_to env.trail m;
  let captured = env.captured_incomplete in
  env.captured_incomplete <- saved_capture;
  match captured with
  | Some sub when tabled_wait ->
      (* tfindall/3 (paper §4.7): suspend until the table has been
         completed, then re-execute. *)
      suspend_waiter ev ~kind:Wgoal ~owner ~template ~delays sub
        (Term.Struct ("tfindall", [| tmpl; g; out |]))
        rest
  | _ ->
      let solutions = List.rev !acc in
      let solutions =
        if sort then List.sort_uniq Term.compare solutions else solutions
      in
      if require && solutions = [] then ()
      else begin
        let m = Trail.mark env.trail in
        if Unify.unify env.trail out (Term.list_ solutions) then
          continue ev ~det ~owner ~template ~delays ~barrier rest;
        Trail.undo_to env.trail m
      end

(* ------------------------------------------------------------------ *)
(* Predicate calls *)

and solve_call ev ~det ~owner ~template ~delays ~barrier goal rest =
  let env = ev.e_env in
  let key = pred_key_of goal in
  note_call env ~depth:ev.e_depth key goal;
  match Database.find env.db (fst key) (snd key) with
  | None -> ()  (* unknown predicate: fails, as an empty relation *)
  | Some pred ->
      if Pred.tabled pred && env.tabling_enabled then
        solve_tabled ev ~det ~owner ~template ~delays ~barrier goal rest
      else solve_untabled ev ~det ~owner ~template ~delays ~barrier pred goal rest

and solve_untabled ev ~det ~owner ~template ~delays ~barrier pred goal rest =
  let endscope = Term.Struct ("$endscope", [| Term.Int barrier |]) in
  resolve ev ~det ~owner ~template ~delays pred goal (endscope :: rest)

(* Clause resolution, for untabled calls and table generators alike:
   every candidate clause that does not clash with [goal] is renamed and
   unified with it, and its body runs ahead of [rest] under a fresh cut
   barrier. *)
and resolve ev ~det ~owner ~template ~delays pred goal rest =
  let env = ev.e_env in
  note_dyn_read owner pred;
  let b = fresh_barrier env in
  let call_args = args_of goal in
  let candidates = Pred.lookup pred call_args in
  let h = if env.profiling then Some (prof env (Pred.name pred, Pred.arity pred)) else None in
  with_cut_catch env b (fun () ->
      List.iter
        (fun clause ->
          if not (Pred.clashes call_args clause) then begin
            let m = Trail.mark env.trail in
            env.stats.st_resolutions <- env.stats.st_resolutions + 1;
            (match h with Some h -> Counter.incr h.resolutions | None -> ());
            let head, body = Pred.renamed clause in
            if Unify.unify env.trail goal head then
              solve ev ~det ~owner ~template ~delays ~barrier:b (body :: rest);
            Trail.undo_to env.trail m
          end)
        candidates)

(* Consume the answers of a table inline, as ordinary alternatives. Used
   for completed tables and for "capture" semantics on incomplete ones.
   [skel] is the canonical skeleton of [goal]: a variant call (the common
   case under variant tabling) takes every answer in insertion order; a
   call bound tighter than the table key probes the answer index and
   unifies only against the candidates. *)
and consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel sub goal rest =
  let env = ev.e_env in
  (* consumption is a dependency edge: if [sub] is later invalidated by
     a mutation, [owner]'s table is transitively affected *)
  if owner != sub then add_dep ev owner sub;
  if sub.s_neg_dep then owner.s_neg_dep <- true;
  let args = Canon.factor_term sub.skey goal in
  let each a =
    let m = Trail.mark env.trail in
    let delays' =
      if a.a_delays = [] then delays
      else begin
        owner.s_neg_dep <- true;
        Dpos (sub.skey, answer_template sub a) :: delays
      end
    in
    if unify_subst env.trail args a.a_subst then
      continue ev ~det ~owner ~template ~delays:delays' ~barrier rest;
    Trail.undo_to env.trail m
  in
  let n = answer_count sub in
  env.stats.st_answer_probes <- env.stats.st_answer_probes + 1;
  env.stats.st_answer_full_size <- env.stats.st_answer_full_size + n;
  (* subsumptive tables scan in full even for bound calls: in-place
     folding leaves the answer trie keyed by superseded substitutions,
     so the index cannot be trusted — unification filters instead *)
  if is_subsumptive sub || Canon.equal skel sub.skey then begin
    env.stats.st_answer_candidates <- env.stats.st_answer_candidates + n;
    let rec loop i =
      if i < n then begin
        each (Answer_index.get sub.s_store i);
        loop (i + 1)
      end
    in
    loop 0
  end
  else begin
    let candidates = Answer_index.lookup sub.s_store (probe_of sub skel) in
    env.stats.st_answer_candidates <- env.stats.st_answer_candidates + List.length candidates;
    List.iter (fun (_, a) -> each a) candidates
  end

and register_consumer ?filter ev sub ~owner ~template ~delays goal rest =
  let env = ev.e_env in
  env.stats.st_suspensions <- env.stats.st_suspensions + 1;
  if env.profiling then Counter.incr (prof env sub.s_pred).suspensions;
  if obs_on env then
    emit_sub env ~depth:ev.e_depth sub Obs.Event.Suspend (Term.to_string goal);
  let consumer =
    {
      c_table = sub;
      c_owner = owner;
      c_snapshot = susp_term goal rest template;
      c_delays = delays;
      c_consumed = 0;
      c_scheduled = false;
      c_filter = Option.map (probe_of sub) filter;
      c_live = None;
      c_busy = false;
    }
  in
  sub.s_consumers <- consumer :: sub.s_consumers;
  add_dep ev owner sub;
  if sub.s_neg_dep then owner.s_neg_dep <- true;
  match env.scheduling with
  | Batched when not (is_subsumptive sub) -> schedule_drain ev consumer
  | _ ->
      (* local scheduling: a consumer outside the producer's SCC gets its
         answers when the SCC completes, not before. Subsumptive tables
         use this discipline under every strategy — an eagerly exported
         answer may later be folded into a better one, and a downstream
         variant table has no way to retract it *)
      refresh_sccs ev;
      if owner.s_scc = sub.s_scc then schedule_drain ev consumer

and solve_tabled ev ~det ~owner ~template ~delays ~barrier goal rest =
  let env = ev.e_env in
  let key = Canon.of_term goal in
  match find_table env key with
  | Some sub when sub.s_state = Complete ->
      consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel:key sub goal rest
  | Some sub ->
      if sub.s_owner_eval = ev.e_id then
        if det then begin
          (* deterministic context: capture currently-available answers *)
          env.captured_incomplete <- Some sub;
          consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel:key sub goal rest
        end
        else register_consumer ev sub ~owner ~template ~delays goal rest
      else raise (Touched_outer sub)
  | None -> (
      let pred_key = pred_key_of goal in
      let subsumption_mode =
        match Database.find env.db (fst pred_key) (snd pred_key) with
        | Some p -> Pred.table_mode p = Pred.Subsumption
        | None -> false
      in
      match (if subsumption_mode then subsuming_live env ev key pred_key else None) with
      | Some sub ->
          (* call subsumption: the new call is an instance of [sub]'s
             subgoal — consume that table instead of evaluating anew *)
          env.stats.st_subsumption_hits <- env.stats.st_subsumption_hits + 1;
          if obs_on env then
            emit_sub env ~depth:ev.e_depth sub Obs.Event.Subsume (Term.to_string goal);
          if sub.s_state = Complete then begin
            env.stats.st_subsumed_calls <- env.stats.st_subsumed_calls + 1;
            consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel:key sub goal rest
          end
          else if det then begin
            (* deterministic context: capture currently-available answers *)
            env.captured_incomplete <- Some sub;
            consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel:key sub goal rest
          end
          else
            (* subsumed consumer: no generator of its own; drains probe
               the producer's time-stamped answer index with this call's
               skeleton *)
            register_consumer ~filter:key ev sub ~owner ~template ~delays goal rest
      | None -> (
          match subsuming_completed env goal key with
          | Some sub ->
              (* bound call over a completed more-general table:
                 answer-index retrieval instead of re-evaluating *)
              env.stats.st_subsumed_calls <- env.stats.st_subsumed_calls + 1;
              consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel:key sub goal rest
          | None ->
              if det then begin
                (* complete the subgoal in a nested evaluation, then
                   consume *)
                let sub = nested_completion ev goal key in
                consume_inline ev ~det ~owner ~template ~delays ~barrier ~skel:key sub goal
                  rest
              end
              else begin
                let sub = create_table ev key pred_key in
                push_task ev (Generate sub);
                register_consumer ev sub ~owner ~template ~delays goal rest
              end))

(* Run a nested evaluation that fully completes the subgoal for [goal].
   Raises [Touched_outer] (after cleaning up) if the nested evaluation
   depends on an in-progress table of an outer evaluation. *)
and nested_completion ?stop_on_first ev goal key =
  let env = ev.e_env in
  let nested = new_eval env (Some ev) in
  let sub = create_table nested key (pred_key_of goal) in
  push_task nested (Generate sub);
  let stop =
    match stop_on_first with
    | Some () -> Some (fun () -> has_any_answer sub)
    | None -> None
  in
  (try run_eval ?stop nested
   with e ->
     (* a completed table with a conditional answer may be delayed on an
        incomplete one that [abandon_eval] is about to delete; kept, it
        would read that delay as false *)
     List.iter
       (fun sub ->
         if sub.s_state = Complete && sub.s_uncond < answer_count sub then delete_table env sub)
       nested.e_created;
     abandon_eval nested;
     raise e);
  if sub.s_state = Incomplete then begin
    (* stopped early: free the tables created for this existential check
       (the paper's tcut: they have no users outside) *)
    abandon_eval nested;
    sub.s_state <- Complete;
    sub.s_consumers <- [];
    (* the subgoal itself is detached from the table store but its
       answers remain readable by our caller *)
    sub
  end
  else sub

and abandon_eval nested =
  let env = nested.e_env in
  List.iter (fun sub -> if sub.s_state = Incomplete then delete_table env sub) nested.e_created;
  Queue.clear nested.e_tasks;
  nested.e_waiters <- []

(* ------------------------------------------------------------------ *)
(* Negation: tnot/1 and e_tnot/1 (paper §4.4) *)

and solve_tnot ev ~det ~owner ~template ~delays ~barrier ~existential g rest =
  let env = ev.e_env in
  owner.s_neg_dep <- true;
  let g = Term.deref g in
  if not (Term.is_ground g) then raise (Floundered g);
  if not (is_tabled env g) then begin
    let name, arity = pred_key_of g in
    match env.mode with
    | Well_founded when env.tabling_enabled && Database.find env.db name arity <> None ->
        (* Under WFS, negation-as-failure over an untabled predicate
           recurses through plain SLD and loops forever on negative
           cycles (p :- tnot(q). q :- tnot(p).). Auto-table the negated
           subgoal so the delaying machinery has a table to wait on, and
           retry as a proper tabled negation. *)
        Database.set_tabled env.db name arity;
        solve_tnot ev ~det ~owner ~template ~delays ~barrier ~existential g rest
    | _ ->
        (* stratified mode: negation on a non-tabled predicate falls
           back to negation as failure, as in XSB *)
        solve_ite ev ~det ~owner ~template ~delays ~barrier g (Term.Atom "fail")
          (Term.Atom "true") rest
  end
  else
    let key = Canon.of_term g in
    let decide sub =
      if has_unconditional sub then ()
      else if has_any_answer sub then begin
        (* only conditional answers: the negation is undefined unless
           delays simplify; delay it *)
        match env.mode with
        | Well_founded ->
            continue ev ~det ~owner ~template ~delays:(Dneg key :: delays) ~barrier rest
        | Stratified -> raise (Non_stratified [ key ])
      end
      else continue ev ~det ~owner ~template ~delays ~barrier rest
    in
    match find_table env key with
    | Some sub when sub.s_state = Complete -> decide sub
    | Some sub when has_unconditional sub ->
        (* the positive subgoal already has an unconditional answer: the
           negation fails now, completion not needed *)
        ()
    | Some sub ->
        if det then raise (Touched_outer sub)
        else if sub.s_owner_eval = ev.e_id then
          suspend_waiter ev ~kind:Wneg ~owner ~template ~delays sub
            (Term.Struct ((if existential then "e_tnot" else "tnot"), [| g |]))
            rest
        else raise (Touched_outer sub)
    | None -> (
        (* optimistic nested evaluation; on failure to complete locally,
           evaluate the subgoal as part of this evaluation and wait *)
        match
          if existential then nested_completion ~stop_on_first:() ev g key
          else nested_completion ev g key
        with
        | sub -> decide sub
        | exception Touched_outer _ ->
            if det then
              error "negation over an in-progress table inside a deterministic context"
            else begin
              let sub =
                match find_table env key with
                | Some sub -> sub
                | None ->
                    let sub = create_table ev key (pred_key_of g) in
                    push_task ev (Generate sub);
                    sub
              in
              suspend_waiter ev ~kind:Wneg ~owner ~template ~delays sub
                (Term.Struct ((if existential then "e_tnot" else "tnot"), [| g |]))
                rest
            end)

and suspend_waiter ev ~kind ~owner ~template ~delays sub blocked rest =
  let env = ev.e_env in
  env.stats.st_neg_suspensions <- env.stats.st_neg_suspensions + 1;
  if obs_on env then
    emit_sub env ~depth:ev.e_depth sub Obs.Event.Negation_wait (Term.to_string blocked);
  let waiter =
    {
      w_table = sub;
      w_owner = owner;
      w_kind = kind;
      w_snapshot = susp_term blocked rest template;
      w_delays = delays;
    }
  in
  add_dep ev owner sub;
  ev.e_waiters <- waiter :: ev.e_waiters

(* ------------------------------------------------------------------ *)
(* Answers *)

and emit_answer ev owner template delays =
  let subst = Canon.of_terms (Canon.factor_term owner.skey template) in
  (* delay lists are sets: normalize so duplicate answer clauses are
     detected and lists stay bounded through cycles *)
  let delays = List.sort_uniq compare_delay delays in
  match owner.s_lattice with
  | Some lattice when delays = [] -> emit_subsumptive ev owner lattice subst
  | _ -> emit_plain ev owner subst delays

and note_dup_answer ev owner subst =
  let env = ev.e_env in
  env.stats.st_dup_answers <- env.stats.st_dup_answers + 1;
  if env.profiling then Counter.incr (prof env owner.s_pred).dup_answers;
  if obs_on env then
    emit_sub env ~depth:ev.e_depth owner Obs.Event.Dup_answer
      (key_str (Canon.instantiate owner.skey subst))

(* stats, drains and early termination common to every new answer *)
and note_new_answer ev owner subst =
  let env = ev.e_env in
  env.stats.st_answers <- env.stats.st_answers + 1;
  if env.profiling then begin
    let h = prof env owner.s_pred in
    Counter.incr h.answers;
    Xsb_obs.Metrics.Gauge.set_max h.peak_answers (float_of_int (answer_count owner))
  end;
  if obs_on env then
    emit_sub env ~depth:ev.e_depth owner Obs.Event.Answer
      (key_str (Canon.instantiate owner.skey subst));
  schedule_drains ev owner;
  (* existential evaluations stop precisely at the answer that
     satisfies them (e_tnot's early termination, §4.4) *)
  match env.stop with Some stop when stop () -> raise Stop_eval | _ -> ()

and emit_plain ev owner subst delays =
  if delays <> [] then owner.s_neg_dep <- true;
  (* an answer clause is a duplicate of one with the same delay list;
     an unconditional answer absorbs conditional ones for the same
     substitution too (SLG simplification) — if it still has that
     substitution: answer subsumption folds holders in place, off their
     trie path *)
  let absorbed a =
    compare_delays a.a_delays delays = 0
    || (a.a_delays = [] && Array.for_all2 Canon.equal a.a_subst subst)
  in
  let answer = { a_subst = subst; a_delays = delays } in
  match Answer_index.insert owner.s_store (subst_key subst) ~absorbed answer with
  | None -> note_dup_answer ev owner subst
  | Some _ ->
      if delays = [] then owner.s_uncond <- owner.s_uncond + 1;
      note_new_answer ev owner subst

(* Answer subsumption: one stored answer per combination of key columns
   (all arguments but the last); a new answer with an already-seen key
   folds its value column into the holder under the lattice operation,
   rewriting the stored substitution in place and rewinding consumers
   that had already passed it. Only unconditional answers fold;
   conditional ones take the plain path. The columns are split on the
   rebuilt template; a folded value that the call's own value argument
   rules out (a count under a bound value) stores nothing, as no
   consumer of the call could take it. *)
and emit_subsumptive ev owner lattice subst =
  let env = ev.e_env and op = lattice.l_op in
  let raw = Canon.instantiate owner.skey subst in
  match Subsumption.split raw with
  | None -> emit_plain ev owner subst []
  | Some (k, v) ->
      if Canon.Tbl.mem lattice.l_seen raw then note_dup_answer ev owner subst
      else begin
        Canon.Tbl.add lattice.l_seen raw ();
        let functor_name =
          match raw with Canon.CStruct (f, _) -> f | _ -> assert false
        in
        let lattice_op f =
          try f ()
          with Subsumption.Not_numeric t ->
            error "subsumptive(%s) over a non-numeric value column: %s"
              (Subsumption.op_to_string op) (key_str t)
        in
        let factor value = Canon.factor owner.skey (Subsumption.rebuild functor_name k value) in
        match Canon.Tbl.find_opt lattice.l_holders k with
        | None -> (
            match factor (lattice_op (fun () -> Subsumption.initial op v)) with
            | None -> note_dup_answer ev owner subst
            | Some folded ->
                owner.s_uncond <- owner.s_uncond + 1;
                let answer = { a_subst = folded; a_delays = [] } in
                let pos = Answer_index.add owner.s_store (subst_key folded) answer in
                Canon.Tbl.replace lattice.l_holders k (pos, answer);
                note_new_answer ev owner folded)
        | Some (pos, holder) -> (
            let current =
              match Subsumption.split (answer_template owner holder) with
              | Some (_, c) -> c
              | None -> assert false
            in
            match
              Option.bind (lattice_op (fun () -> Subsumption.fold op ~current v)) factor
            with
            | None -> note_dup_answer ev owner subst  (* subsumed *)
            | Some folded ->
                holder.a_subst <- folded;
                env.stats.st_folds <- env.stats.st_folds + 1;
                if obs_on env then
                  emit_sub env ~depth:ev.e_depth owner Obs.Event.Fold
                    (key_str (answer_template owner holder));
                (* consumers that already passed the holder re-consume it
                   (and everything after it) with the improved value *)
                List.iter
                  (fun c -> if c.c_consumed > pos then c.c_consumed <- pos)
                  owner.s_consumers;
                schedule_drains ev owner;
                (match env.stop with Some stop when stop () -> raise Stop_eval | _ -> ()))
      end

and schedule_drains ev owner =
  match ev.e_env.scheduling with
  | Batched when not (is_subsumptive owner) ->
      List.iter (fun c -> schedule_drain ev c) owner.s_consumers
  | _ ->
      (* keep the new answer inside the producer's SCC; cross-SCC
         consumers are drained by complete_scc (or the fixpoint flush).
         Subsumptive producers always defer: exported answers must be
         final, and folds only settle when the SCC does *)
      refresh_sccs ev;
      List.iter
        (fun c ->
          if c.c_owner.s_state = Complete || c.c_owner.s_scc = owner.s_scc then
            schedule_drain ev c)
        owner.s_consumers

(* ------------------------------------------------------------------ *)
(* Scheduler *)

and run_task ev task =
  let env = ev.e_env in
  match task with
  | Generate sub ->
      let pattern = Canon.to_term sub.skey in
      let name, arity = sub.s_pred in
      let pred =
        match Database.find env.db name arity with
        | Some p -> p
        | None -> error "tabled predicate %s/%d disappeared" name arity
      in
      resolve ev ~det:false ~owner:sub ~template:pattern ~delays:[] pred pattern []
  | Drain consumer ->
      let store = consumer.c_table.s_store in
      if obs_on env then
        emit_sub env ~depth:ev.e_depth consumer.c_table Obs.Event.Drain
          (key_str consumer.c_table.skey);
      (* the loops re-read the size, so answers emitted mid-drain are
         consumed here rather than scheduling a redundant self-drain *)
      (match consumer.c_filter with
      | Some probe ->
          (* subsumed consumer: [c_consumed] is its last-poll stamp.
             Probe the time-stamped index for candidates newer than the
             stamp — [iter_matching] snapshots its candidate list before
             resuming anything, so answers arriving mid-iteration are
             picked up by the outer loop, each exactly once *)
          while consumer.c_consumed < Answer_index.size store do
            let from = consumer.c_consumed in
            let n = Answer_index.size store in
            consumer.c_consumed <- n;
            env.stats.st_answer_probes <- env.stats.st_answer_probes + 1;
            env.stats.st_answer_full_size <- env.stats.st_answer_full_size + (n - from);
            Answer_index.iter_matching ~from store probe (fun _ a ->
                env.stats.st_answer_candidates <- env.stats.st_answer_candidates + 1;
                resume_consumer ev consumer a)
          done
      | None ->
          while consumer.c_consumed < Answer_index.size store do
            let i = consumer.c_consumed in
            consumer.c_consumed <- i + 1;
            resume_consumer ev consumer (Answer_index.get store i)
          done);
      consumer.c_scheduled <- false
  | Run r ->
      env.stats.st_resumptions <- env.stats.st_resumptions + 1;
      let m = Trail.mark env.trail in
      let first, goals, template = open_susp r.r_snapshot in
      if obs_on env then
        emit_sub env ~depth:ev.e_depth r.r_owner Obs.Event.Resume (Term.to_string first);
      let goals = if r.r_skip_first then goals else first :: goals in
      let delays = match r.r_extra_delay with Some d -> d :: r.r_delays | None -> r.r_delays in
      let b = fresh_barrier env in
      (try solve ev ~det:false ~owner:r.r_owner ~template ~delays ~barrier:b goals with
      | Cut_signal b' when b' = b -> ()
      | Cut_signal _ -> error "cut outside its scope (cut over a table suspension?)");
      Trail.undo_to env.trail m

(* Resume [consumer] with one answer, in place: the answer binds the
   opened snapshot's call on the trail, the continuation runs, and the
   undo — on every exit, exceptions included — leaves the snapshot
   unbound for the next answer. A resumption that arrives while another
   runs on the same consumer takes a fresh copy instead. *)
and resume_consumer ev consumer answer =
  let env = ev.e_env in
  let table = consumer.c_table in
  env.stats.st_resumptions <- env.stats.st_resumptions + 1;
  if obs_on env then
    emit_sub env ~depth:ev.e_depth table Obs.Event.Resume (key_str (answer_template table answer));
  if table.s_neg_dep then consumer.c_owner.s_neg_dep <- true;
  let delays =
    if answer.a_delays = [] then consumer.c_delays
    else begin
      consumer.c_owner.s_neg_dep <- true;
      Dpos (table.skey, answer_template table answer) :: consumer.c_delays
    end
  in
  let live, in_place =
    match consumer.c_live with
    | _ when consumer.c_busy -> (open_live consumer, false)
    | Some live -> (live, true)
    | None ->
        let live = open_live consumer in
        consumer.c_live <- Some live;
        (live, true)
  in
  let m = Trail.mark env.trail in
  let b = fresh_barrier env in
  let release () =
    Trail.undo_to env.trail m;
    if in_place then consumer.c_busy <- false
  in
  if in_place then consumer.c_busy <- true;
  match
    if unify_subst env.trail live.l_args answer.a_subst then begin
      try
        solve ev ~det:false ~owner:consumer.c_owner ~template:live.l_template ~delays ~barrier:b
          live.l_goals
      with
      | Cut_signal b' when b' = b -> ()
      | Cut_signal _ -> error "cut outside its scope (cut over a table suspension?)"
    end
    else if consumer.c_filter <> None then
      (* a subsumed consumer's filter rejected a producer answer (an
         index candidate that does not unify with the specific call) *)
      env.stats.st_answers_filtered <- env.stats.st_answers_filtered + 1
  with
  | () -> release ()
  | exception e ->
      release ();
      raise e

(* Run an evaluation to fixpoint. [stop] is polled between tasks
   (existential early termination). *)
and run_eval ?stop ev =
  let env = ev.e_env in
  let saved_stop = env.stop in
  env.stop <- stop;
  let finally () =
    env.stop <- saved_stop;
    (* a completed table is only read from now on: it keeps its
       answers, [s_deps] and [s_dyn_reads] and frees its suspension
       state, as the SLG-WAM does. A kept consumer would pin its owner's
       derivation state — for a query's consumer, the whole answer trie
       of the already deleted query table *)
    List.iter (fun s -> if s.s_state = Complete then s.s_consumers <- []) ev.e_created
  in
  let stopped () = match stop with Some f -> f () | None -> false in
  let rec loop () =
    if stopped () then ()
    else
      match Queue.take_opt ev.e_tasks with
      | Some task ->
          let owner = task_owner task in
          owner.s_tasks <- owner.s_tasks - 1;
          (if env.profiling then begin
             (* inclusive wall time: nested evaluations run inside a task
                also bill their own predicates *)
             let h = prof env owner.s_pred in
             let t0 = Xsb_obs.Mclock.now () in
             Fun.protect
               ~finally:(fun () ->
                 Xsb_obs.Metrics.Gauge.add h.task_seconds (Xsb_obs.Mclock.now () -. t0))
               (fun () -> run_task ev task)
           end
           else run_task ev task);
          (* quiescent subgoal: its SCC may now be exhausted *)
          try_complete ev owner;
          loop ()
      | None -> completion_phase ()
  and completion_phase () =
    (* Positive fixpoint reached: no derivation can produce new answers
       except through derivations suspended on negations. Complete every
       incomplete subgoal that cannot be fed (transitively) by a waiter's
       resumption, then resume waiters whose tables completed. *)
    if flush_deferred_drains ev then loop ()
    else begin
    let incomplete = List.filter (fun s -> s.s_state = Incomplete) ev.e_created in
    if ev.e_waiters = [] then begin
      smear_neg_dep incomplete;
      List.iter (mark_complete ev) incomplete
    end
    else begin
      let module Iset = Set.Make (Int) in
      (* flow edges: answers of [s] can reach consumers' owners *)
      let reachable = Hashtbl.create 16 in
      let seeds = List.map (fun w -> w.w_owner) ev.e_waiters in
      let rec visit s =
        if not (Hashtbl.mem reachable s.s_id) then begin
          Hashtbl.replace reachable s.s_id ();
          if s.s_state = Incomplete then
            List.iter (fun c -> visit c.c_owner) s.s_consumers
        end
      in
      List.iter visit seeds;
      let completable = List.filter (fun s -> not (Hashtbl.mem reachable s.s_id)) incomplete in
      smear_neg_dep completable;
      List.iter (mark_complete ev) completable;
      if completable <> [] then ev.e_scc_dirty <- true;
      if resolve_waiters ev then loop ()
      else begin
        (* every waiter waits on a table inside the negative loop *)
        match ev.e_env.mode with
        | Stratified ->
            raise (Non_stratified (List.map (fun w -> w.w_table.skey) ev.e_waiters))
        | Well_founded ->
            let waiters = ev.e_waiters in
            ev.e_waiters <- [];
            List.iter
              (fun w ->
                match w.w_kind with
                | Wneg ->
                    push_task ev
                      (Run
                         {
                           r_owner = w.w_owner;
                           r_snapshot = w.w_snapshot;
                           r_delays = w.w_delays;
                           r_skip_first = true;
                           r_extra_delay = Some (Dneg w.w_table.skey);
                         })
                | Wgoal ->
                    error "tfindall over a non-stratified loop")
              waiters;
            loop ()
      end
    end
    end
  in
  (try loop () with
  | Stop_eval -> finally ()
  | e ->
      finally ();
      raise e);
  finally ()

(* ------------------------------------------------------------------ *)
(* Incremental tabling: invalidation and repair (ISSUE 6 tentpole).

   Completed tables record which dynamic predicates their derivations
   read ([s_dyn_reads], recorded at clause resolution) and which other
   tables they consumed from ([s_deps], recorded at consumer
   registration and inline consumption). When the database mutates, the
   completed tables transitively affected are either dropped
   (invalidated) or, when the mutation is a pure clause addition and no
   affected derivation went through negation/aggregation ([s_neg_dep]),
   marked stale and re-derived in place at the start of the next query —
   existing answers are kept, generation re-runs against the grown
   clause set, and the monotonicity of definite programs guarantees the
   repaired table equals a from-scratch evaluation. *)

let completed_tables env =
  Canon.Tbl.fold
    (fun _ sub acc -> if sub.s_state = Complete then sub :: acc else acc)
    env.tables []

(* Completed tables transitively affected by a mutation of the dynamic
   predicate [pkey]: direct readers, then the reverse closure over
   consumption edges. *)
let affected_tables env pkey =
  let all = completed_tables env in
  let affected = Hashtbl.create 16 in
  let any_direct = ref false in
  List.iter
    (fun s ->
      if List.mem pkey s.s_dyn_reads then begin
        Hashtbl.replace affected s.s_id ();
        any_direct := true
      end)
    all;
  let changed = ref !any_direct in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        if
          (not (Hashtbl.mem affected s.s_id))
          && List.exists (fun d -> Hashtbl.mem affected d.s_id) s.s_deps
        then begin
          Hashtbl.replace affected s.s_id ();
          changed := true
        end)
      all
  done;
  List.filter (fun s -> Hashtbl.mem affected s.s_id) all

let note_mutation env (m : Database.mutation) =
  match m with
  | Database.Added_clause { pred; _ } | Database.Retracted_clause { pred; _ } ->
      let addition = match m with Database.Added_clause _ -> true | _ -> false in
      let affected =
        if Pred.kind pred = Pred.Dynamic then
          affected_tables env (Pred.name pred, Pred.arity pred)
        else
          (* static-predicate reads are not tracked (the hot resolution
             path stays clean): consulting clauses into a live engine
             conservatively invalidates every completed table *)
          completed_tables env
      in
      if affected <> [] then begin
        let repairable, doomed =
          List.partition
            (fun s -> addition && s.s_mode = Pred.Incremental && not s.s_neg_dep)
            affected
        in
        List.iter (fun s -> s.s_stale <- true) repairable;
        List.iter (fun s -> Canon.Tbl.remove env.tables s.skey) doomed;
        if doomed <> [] then begin
          env.stats.st_invalidations <- env.stats.st_invalidations + List.length doomed;
          if obs_on env then
            Obs.Recorder.emit env.obs ~step:env.stats.st_steps ~subgoal:0 ~pred:""
              ~call:"" ~depth:0 (Obs.Event.Invalidate (List.length doomed))
        end
      end
  | _ -> ()

(* Re-derive the stale tables in place. The whole stale set runs in one
   evaluation so mutually-dependent tables reach their joint fixpoint;
   each keeps its answer store (additions only ever add answers) and
   gets a fresh generator against the grown clause set. If the repair
   evaluation fails for any reason the stale tables are dropped instead:
   the next call re-evaluates from scratch, which is always sound. *)
let repair_stale env =
  let stale =
    Canon.Tbl.fold
      (fun _ s acc -> if s.s_stale && s.s_state = Complete then s :: acc else acc)
      env.tables []
  in
  if stale <> [] then begin
    let ev = new_eval env None in
    List.iter
      (fun s ->
        s.s_stale <- false;
        s.s_state <- Incomplete;
        s.s_owner_eval <- ev.e_id;
        s.s_consumers <- [];
        s.s_tasks <- 0;
        ev.e_created <- s :: ev.e_created;
        push_task ev (Generate s))
      stale;
    ev.e_scc_dirty <- true;
    match run_eval ev with
    | () ->
        env.stats.st_repairs <- env.stats.st_repairs + List.length stale;
        if obs_on env then
          Obs.Recorder.emit env.obs ~step:env.stats.st_steps ~subgoal:0 ~pred:""
            ~call:"" ~depth:0 (Obs.Event.Repair (List.length stale))
    | exception _ ->
        List.iter (fun s -> Canon.Tbl.remove env.tables s.skey) stale;
        abandon_eval ev
  end
let _ = error
