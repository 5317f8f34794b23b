open Xsb_term
open Xsb_db

type t = { database : Database.t; env : Machine.env; mutable query_counter : int }

let create ?mode ?scheduling database =
  let t = { database; env = Machine.create_env ?mode ?scheduling database; query_counter = 0 } in
  (* abolishing a predicate must also abolish its memoized answers:
     without this, a completed table for p/N keeps answering from
     clauses that no longer exist after remove_pred + re-declare *)
  Database.on_mutation database (function
    | Database.Removed_pred { name; arity } ->
        ignore (Machine.remove_tables_for t.env (name, arity))
    | (Database.Added_clause _ | Database.Retracted_clause _) as m ->
        (* incremental tabling: drop (or mark for repair) only the
           completed tables the mutation actually affects *)
        Machine.note_mutation t.env m
    | _ -> ());
  t

let db t = t.database
let env t = t.env

type solution = {
  bindings : (string * Term.t) list;
  conditional : bool;
  delays : Machine.delay list;
}

let var_name fallback v =
  match v.Term.vname with Some n -> n | None -> Printf.sprintf "_%s%d" fallback v.Term.vid

(* A query's bounds: an answer limit, an external stop, and whether a
   [Step_limit] is this query's own step budget running out. *)
type bounds = { limit : int option; stop : (unit -> bool) option; budget_binding : bool }

let limit_hit b count = match b.limit with Some n -> count >= n | None -> false
let stop_hit b = match b.stop with Some f -> f () | None -> false

(* How a query that found [count] answers ended: [`Complete] (fixpoint
   reached), [`Limit] (the answer limit was hit) or [`Interrupted] (the
   [stop] callback fired; a step budget running out is [`Interrupted]
   too). *)
let ending b count =
  if limit_hit b count then `Limit else if stop_hit b then `Interrupted else `Complete

(* The solutions of [goal] read straight out of its completed variant
   table [sub] (see [Machine.completed_call]): no query table, and no
   answer is canonicalized or inserted again. Every answer is an
   instance of the table's key, whose i-th variable is the goal's i-th
   variable in [names] order (both number variables by first
   occurrence), so one walk of the key against an answer finds every
   binding; the binding tuple is converted as one term, so the fresh
   variables of a non-ground answer are shared across its bindings.

   Steps are charged as the query-table path charges them — one for the
   call, one per answer — so a step budget interrupts after the same
   rows; [limit] and [stop] are checked before each answer, as the
   scheduler checks them between answers. *)
let read_completed b t goal names sub =
  let env = t.env in
  let key = sub.Machine.skey in
  let nvars = List.length names in
  let solution (a : Machine.answer) =
    let slots = Array.make nvars key in
    let rec bind k x =
      match (k, x) with
      | Canon.CVar i, _ -> slots.(i) <- x
      | Canon.CStruct (_, ks), Canon.CStruct (_, xs) ->
          for j = 0 to Array.length ks - 1 do
            bind ks.(j) xs.(j)
          done
      | _ -> ()
    in
    bind key a.Machine.a_template;
    let args =
      match Canon.to_term (Canon.CStruct ("", slots)) with
      | Term.Struct (_, args) -> Array.to_list args
      | _ -> []
    in
    { bindings = List.combine names args; conditional = false; delays = [] }
  in
  let n = Machine.answer_count sub in
  let found = ref [] and count = ref 0 in
  let ending =
    match
      Machine.note_call env ~depth:0 sub.Machine.s_pred goal;
      Machine.step env;
      while !count < n && (not (limit_hit b !count)) && not (stop_hit b) do
        Machine.step env;
        found := solution (Xsb_index.Answer_store.Index.get sub.Machine.s_store !count) :: !found;
        incr count
      done
    with
    | () -> ending b !count
    | exception Machine.Step_limit when b.budget_binding -> `Interrupted
  in
  (List.rev !found, ending)

(* Evaluate [goal] against a fresh, private query table, then read the
   answers back out of table space. The query table is always dropped
   and the trail restored, whatever the ending. *)
let eval_query b t goal names vars =
  t.query_counter <- t.query_counter + 1;
  let functor_name = Printf.sprintf "$query%d" t.query_counter in
  let template = Term.struct_ functor_name (Array.of_list (List.map (fun v -> Term.Var v) vars)) in
  let ev = Machine.new_eval t.env None in
  let qsub = Machine.create_table ev (Canon.of_term template) (functor_name, List.length vars) in
  Machine.push_task ev
    (Machine.Run
       {
         r_owner = qsub;
         r_snapshot = Machine.susp_term goal [] template;
         r_delays = [];
         r_skip_first = false;
         r_extra_delay = None;
       });
  let stop_fn =
    match (b.limit, b.stop) with
    | None, None -> None
    | _ -> Some (fun () -> limit_hit b (Machine.answer_count qsub) || stop_hit b)
  in
  let trail_mark = Xsb_term.Trail.mark t.env.Machine.trail in
  let finish () =
    (* never leave in-progress tables behind: they would block later
       queries. A stopped evaluation may have been interrupted
       mid-derivation, so restore the trail too. *)
    Xsb_term.Trail.undo_to t.env.Machine.trail trail_mark;
    Machine.abandon_eval ev;
    Machine.delete_table t.env qsub
  in
  let ending =
    match Machine.run_eval ?stop:stop_fn ev with
    | () -> ending b (Machine.answer_count qsub)
    | exception Machine.Step_limit when b.budget_binding -> `Interrupted
    | exception e ->
        finish ();
        raise e
  in
  let solutions =
    Machine.fold_answers
      (fun acc (a : Machine.answer) ->
        let instance = Canon.to_term a.Machine.a_template in
        let args =
          match Term.deref instance with
          | Term.Struct (_, args) -> Array.to_list args
          | _ -> []
        in
        {
          bindings = List.combine names args;
          conditional = a.Machine.a_delays <> [];
          delays = a.Machine.a_delays;
        }
        :: acc)
      [] qsub
    |> List.rev
  in
  finish ();
  (solutions, ending)

(* Run [goal] to completion (or first answer / answer limit / external
   stop / step budget) and return the solutions found together with how
   the evaluation ended (see [ending]). A goal that is one call of a
   tabled predicate whose variant table is complete is read from that
   table; any other goal is evaluated through a private query table. *)
let run_query_bounded ?limit ?stop ?max_steps t goal =
  let goal = Database.encode t.database goal in
  (* stale incremental tables are repaired before the query reads them;
     runs under the engine-wide step bound, not this query's budget *)
  Machine.repair_stale t.env;
  let vars = Term.vars goal in
  let names = List.map (var_name "G") vars in
  (* a per-query step budget, relative to the engine's running step
     counter. Install it only when it is the binding bound: if a tighter
     engine-wide [set_max_steps] bound is already in place (or no usable
     budget was given), a [Step_limit] overrun is the engine-wide
     bound's and must keep raising, not be reported as `Interrupted. *)
  let saved_max = t.env.Machine.max_steps in
  let budget_binding =
    match max_steps with
    | Some budget when budget > 0 ->
        let absolute = t.env.Machine.stats.Machine.st_steps + budget in
        if saved_max > 0 && saved_max <= absolute then false
        else begin
          t.env.Machine.max_steps <- absolute;
          true
        end
    | _ -> false
  in
  let b = { limit; stop; budget_binding } in
  Fun.protect
    ~finally:(fun () -> t.env.Machine.max_steps <- saved_max)
    (fun () ->
      match Machine.completed_call t.env goal with
      | Some sub -> read_completed b t goal names sub
      | None -> eval_query b t goal names vars)

let run_query ?(first = false) t goal =
  fst (run_query_bounded ?limit:(if first then Some 1 else None) t goal)

let query t goal = run_query t goal

let query_first t goal = match run_query ~first:true t goal with s :: _ -> Some s | [] -> None

type bounded =
  [ `Answers of solution list | `Truncated of solution list | `Timeout of solution list ]

let run_bounded ?max_steps ?stop ?limit t goal : bounded =
  let solutions, ending = run_query_bounded ?limit ?stop ?max_steps t goal in
  match ending with
  | `Complete -> `Answers solutions
  | `Limit -> `Truncated solutions
  | `Interrupted -> `Timeout solutions

let parse t text = Xsb_parse.Parser.term_of_string ~ops:(Database.ops t.database) text

let run_bounded_string ?max_steps ?stop ?limit t text =
  run_bounded ?max_steps ?stop ?limit t (parse t text)

let query_string t text = query t (parse t text)
let query_first_string t text = query_first t (parse t text)
let succeeds t text = query_first_string t text <> None
let count_solutions t text = List.length (query_string t text)

let run_deferred t goals = List.iter (fun g -> ignore (query t g)) goals

let consult_string_count t source =
  let result = Loader.consult_string t.database source in
  run_deferred t result.Loader.deferred_goals;
  result.Loader.clauses_loaded

let consult_string t source = ignore (consult_string_count t source)

let consult_file t path =
  let result = Loader.consult_file t.database path in
  run_deferred t result.Loader.deferred_goals

let set_tabling t flag = t.env.Machine.tabling_enabled <- flag

let scheduling t = t.env.Machine.scheduling
let set_scheduling t strategy = t.env.Machine.scheduling <- strategy
let set_max_steps t n = t.env.Machine.max_steps <- n

let recorder t = t.env.Machine.obs
let metrics t = Xsb_obs.Obs.Profile.registry t.env.Machine.profile

let add_sink t sink = Xsb_obs.Obs.Recorder.attach t.env.Machine.obs sink
let clear_sinks t = Xsb_obs.Obs.Recorder.clear t.env.Machine.obs

(* enabling records into [registry], or into a fresh registry when
   profiling was off; disabling keeps the samples readable *)
let set_profiling ?registry t flag =
  let env = t.env in
  if flag && (Option.is_some registry || not env.Machine.profiling) then
    env.Machine.profile <-
      Xsb_obs.Obs.Profile.create
        (match registry with Some r -> r | None -> Xsb_obs.Metrics.create ());
  env.Machine.profiling <- flag

let call_count t name arity =
  match Xsb_obs.Obs.Profile.find t.env.Machine.profile (name, arity) with
  | Some h -> Xsb_obs.Metrics.Counter.value h.calls
  | None -> 0

let pp_profile ppf t = Xsb_obs.Obs.Profile.pp_report ppf (metrics t)
let pp_table_dump ppf t = Machine.pp_table_dump ppf t.env

let stats t = t.env.Machine.stats

let table_space_bytes t = Machine.table_space_bytes t.env
let call_index_bytes t = Machine.call_index_bytes t.env
let table_bytes_by_pred t = Machine.table_bytes_by_pred t.env

let publish_metrics t reg =
  let module M = Xsb_obs.Metrics in
  let s = t.env.Machine.stats in
  let stat kind v =
    let g =
      M.gauge reg ~labels:[ ("kind", kind) ]
        ~help:"SLG evaluation counters since the last table reset."
        "xsb_engine_stat"
    in
    M.Gauge.set g (Float.of_int v)
  in
  stat "subgoals" s.Machine.st_subgoals;
  stat "answers" s.Machine.st_answers;
  stat "dup_answers" s.Machine.st_dup_answers;
  stat "suspensions" s.Machine.st_suspensions;
  stat "resumptions" s.Machine.st_resumptions;
  stat "resolutions" s.Machine.st_resolutions;
  stat "neg_suspensions" s.Machine.st_neg_suspensions;
  stat "nested_evals" s.Machine.st_nested_evals;
  stat "completions" s.Machine.st_completions;
  stat "answer_probes" s.Machine.st_answer_probes;
  stat "answer_candidates" s.Machine.st_answer_candidates;
  stat "answer_full_size" s.Machine.st_answer_full_size;
  stat "subsumed_calls" s.Machine.st_subsumed_calls;
  stat "subsumption_hits" s.Machine.st_subsumption_hits;
  stat "answers_filtered" s.Machine.st_answers_filtered;
  stat "drains_scheduled" s.Machine.st_drains_scheduled;
  stat "sccs_completed" s.Machine.st_sccs_completed;
  stat "early_completions" s.Machine.st_early_completions;
  stat "max_scc_size" s.Machine.st_max_scc_size;
  stat "invalidations" s.Machine.st_invalidations;
  stat "repairs" s.Machine.st_repairs;
  stat "folds" s.Machine.st_folds;
  stat "steps" s.Machine.st_steps;
  M.Gauge.set
    (M.gauge reg ~help:"Live tabled subgoals." "xsb_engine_tables")
    (Float.of_int (Canon.Tbl.length t.env.Machine.tables));
  M.Gauge.set
    (M.gauge reg
       ~help:"Estimated bytes of all answer tables (tries, entries, bookkeeping)."
       "xsb_table_space_bytes")
    (Float.of_int (table_space_bytes t));
  M.Gauge.set
    (M.gauge reg
       ~help:"Estimated bytes of the call-subsumption discrimination tries."
       "xsb_call_index_bytes")
    (Float.of_int (call_index_bytes t));
  List.iter
    (fun ((name, arity), bytes) ->
      let g =
        M.gauge reg
          ~labels:[ ("pred", Printf.sprintf "%s/%d" name arity) ]
          ~help:"Estimated table bytes per tabled predicate." "xsb_table_bytes"
      in
      M.Gauge.set g (Float.of_int bytes))
    (table_bytes_by_pred t)

let reset_tables t = Machine.abolish_tables t.env

let tables t =
  Canon.Tbl.fold
    (fun key (sub : Machine.subgoal) acc ->
      let answers =
        Machine.fold_answers
          (fun acc (a : Machine.answer) -> a.Machine.a_template :: acc)
          [] sub
        |> List.rev
      in
      (key, sub.Machine.s_state = Machine.Complete, answers) :: acc)
    t.env.Machine.tables []
