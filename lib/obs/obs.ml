(* The observability layer of the SLG engine (ISSUE PR 3).

   Three pieces, all engine-agnostic (this library depends only on the
   stdlib and Unix):

   - {!Event}: a typed trace-event record. The engine emits one per
     interesting transition (new subgoal, answer, suspension, SCC
     completion, ...), each carrying the subgoal id, the canonical call
     rendered as text, the evaluation-nesting depth, the engine's
     resolution-step counter, and a per-recorder monotonic sequence
     number.

   - {!Sink} / {!Recorder}: pluggable event consumers. A recorder with
     no sinks is inert — the engine guards every emission on
     {!Recorder.active}, so tracing costs one boolean read when
     disabled. Sinks: pretty printing (human debugging), JSONL (one
     object per line, machine-readable, parsed back by {!Json}), an
     in-memory ring buffer (tests), and a custom callback.

   - {!Profile}: the per-predicate profile (calls, answers, duplicates,
     suspensions, resolutions, inclusive wall time sampled around
     scheduler tasks, peak answer-table size) as labelled series in a
     {!Metrics} registry, rendered from a scrape of that registry as a
     sortable report ([--profile]) or as JSON (bench snapshots). *)

(* ------------------------------------------------------------------ *)

module Event = struct
  type kind =
    | New_subgoal  (** a table was created for a fresh tabled subgoal *)
    | Call  (** a predicate call was selected (tabled or not) *)
    | Answer  (** a new answer entered table space *)
    | Dup_answer  (** a derived answer was already present (dedup hit) *)
    | Suspend  (** a derivation suspended as a consumer of a table *)
    | Resume  (** a suspended derivation was resumed with an answer *)
    | Negation_wait  (** a derivation blocked on an incomplete negative literal *)
    | Scc_complete of int  (** an SCC of [n] subgoals closed incrementally *)
    | Complete  (** one subgoal was marked complete *)
    | Drain  (** queued answers of a table are being delivered to a consumer *)
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
    call : string;  (** the canonical call / answer, rendered *)
    depth : int;  (** evaluation nesting depth (0 = top-level) *)
    kind : kind;
  }

  let kind_name = function
    | New_subgoal -> "new_subgoal"
    | Call -> "call"
    | Answer -> "answer"
    | Dup_answer -> "dup_answer"
    | Suspend -> "suspend"
    | Resume -> "resume"
    | Negation_wait -> "negation_wait"
    | Scc_complete _ -> "scc_complete"
    | Complete -> "complete"
    | Drain -> "drain"
    | Abolish _ -> "abolish"
    | Invalidate _ -> "invalidate"
    | Repair _ -> "repair"
    | Fold -> "fold"
    | Subsume -> "subsume"

  let pp ppf e =
    let extra =
      match e.kind with
      | Scc_complete n -> Printf.sprintf " (scc size %d)" n
      | Abolish n | Invalidate n | Repair n -> Printf.sprintf " (%d tables)" n
      | _ -> ""
    in
    Format.fprintf ppf "[%6d @%d sg%d d%d] %-13s %-10s %s%s" e.seq e.step e.subgoal
      e.depth (kind_name e.kind) e.pred e.call extra

  let to_json e =
    let base =
      [
        ("seq", Json.Int e.seq);
        ("step", Json.Int e.step);
        ("event", Json.String (kind_name e.kind));
        ("subgoal", Json.Int e.subgoal);
        ("pred", Json.String e.pred);
        ("call", Json.String e.call);
        ("depth", Json.Int e.depth);
      ]
    in
    let extra =
      match e.kind with
      | Scc_complete n -> [ ("scc_size", Json.Int n) ]
      | Abolish n | Invalidate n | Repair n -> [ ("tables", Json.Int n) ]
      | _ -> []
    in
    Json.Obj (base @ extra)

  let of_json j =
    let ( let* ) = Option.bind in
    let* seq = Option.bind (Json.member "seq" j) Json.as_int in
    let* step = Option.bind (Json.member "step" j) Json.as_int in
    let* name = Option.bind (Json.member "event" j) Json.as_string in
    let* subgoal = Option.bind (Json.member "subgoal" j) Json.as_int in
    let* pred = Option.bind (Json.member "pred" j) Json.as_string in
    let* call = Option.bind (Json.member "call" j) Json.as_string in
    let* depth = Option.bind (Json.member "depth" j) Json.as_int in
    let int_field k = Option.bind (Json.member k j) Json.as_int in
    let* kind =
      match name with
      | "new_subgoal" -> Some New_subgoal
      | "call" -> Some Call
      | "answer" -> Some Answer
      | "dup_answer" -> Some Dup_answer
      | "suspend" -> Some Suspend
      | "resume" -> Some Resume
      | "negation_wait" -> Some Negation_wait
      | "scc_complete" -> Option.map (fun n -> Scc_complete n) (int_field "scc_size")
      | "complete" -> Some Complete
      | "drain" -> Some Drain
      | "abolish" -> Option.map (fun n -> Abolish n) (int_field "tables")
      | "invalidate" -> Option.map (fun n -> Invalidate n) (int_field "tables")
      | "repair" -> Option.map (fun n -> Repair n) (int_field "tables")
      | "fold" -> Some Fold
      | "subsume" -> Some Subsume
      | _ -> None
    in
    Some { seq; step; subgoal; pred; call; depth; kind }
end

(* ------------------------------------------------------------------ *)

module Ring = struct
  (* fixed-capacity event buffer that overwrites its oldest entry: the
     test sink, and a crash-dump buffer ("what were the last N events") *)
  type t = {
    capacity : int;
    mutable length : int;
    mutable next : int;  (* index of the slot the next event goes into *)
    slots : Event.t option array;
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Obs.Ring.create: capacity must be positive";
    { capacity; length = 0; next = 0; slots = Array.make capacity None }

  let add t e =
    t.slots.(t.next) <- Some e;
    t.next <- (t.next + 1) mod t.capacity;
    if t.length < t.capacity then t.length <- t.length + 1

  let length t = t.length
  let capacity t = t.capacity

  let clear t =
    Array.fill t.slots 0 t.capacity None;
    t.length <- 0;
    t.next <- 0

  (* oldest first *)
  let to_list t =
    let start = (t.next - t.length + t.capacity) mod t.capacity in
    List.init t.length (fun i ->
        match t.slots.((start + i) mod t.capacity) with
        | Some e -> e
        | None -> assert false)
end

(* ------------------------------------------------------------------ *)

module Sink = struct
  type t =
    | Null  (** accepts and drops events (overhead measurements) *)
    | Pretty of Format.formatter
    | Jsonl of out_channel  (** one JSON object per line, flushed per event *)
    | Ring of Ring.t
    | Custom of (Event.t -> unit)

  let emit sink e =
    match sink with
    | Null -> ()
    | Pretty ppf -> Format.fprintf ppf "%a@." Event.pp e
    | Jsonl oc ->
        output_string oc (Json.to_string (Event.to_json e));
        output_char oc '\n';
        flush oc
    | Ring r -> Ring.add r e
    | Custom f -> f e
end

module Recorder = struct
  type t = { mutable sinks : Sink.t list; mutable seq : int }

  let create () = { sinks = []; seq = 0 }

  (* the engine's fast-path guard: no sinks, no event construction *)
  let active t = t.sinks <> []

  let attach t sink = t.sinks <- t.sinks @ [ sink ]
  let clear t = t.sinks <- []

  let emit t ~step ~subgoal ~pred ~call ~depth kind =
    t.seq <- t.seq + 1;
    let e = { Event.seq = t.seq; step; subgoal; pred; call; depth; kind } in
    List.iter (fun sink -> Sink.emit sink e) t.sinks
end

(* ------------------------------------------------------------------ *)

module Profile = struct
  let help what = Printf.sprintf "Per-predicate profile: %s." what

  type handles = {
    calls : Metrics.Counter.t;
    subgoals : Metrics.Counter.t;
    answers : Metrics.Counter.t;
    dup_answers : Metrics.Counter.t;
    suspensions : Metrics.Counter.t;
    resolutions : Metrics.Counter.t;
    task_seconds : Metrics.Gauge.t;
    peak_answers : Metrics.Gauge.t;
  }

  let register reg label =
    let labels = [ ("pred", label) ] in
    let counter name what = Metrics.counter reg ~labels ~help:(help what) name in
    let gauge name what = Metrics.gauge reg ~labels ~help:(help what) name in
    {
      calls = counter "xsb_pred_calls_total" "times the predicate was selected as a goal";
      subgoals = counter "xsb_pred_subgoals_total" "tabled subgoals created (tables)";
      answers = counter "xsb_pred_answers_total" "new answers entering its tables";
      dup_answers = counter "xsb_pred_dup_answers_total" "derived answers already present";
      suspensions = counter "xsb_pred_suspensions_total" "consumers registered on its tables";
      resolutions = counter "xsb_pred_resolutions_total" "program-clause resolutions";
      task_seconds =
        gauge "xsb_pred_task_seconds" "inclusive seconds inside its scheduler tasks";
      peak_answers = gauge "xsb_pred_peak_answers" "largest answer table observed";
    }

  (* private predicates ($queryN tables, one per query) get handles on a
     disabled registry: recording them would add series without bound *)
  let ignored =
    let reg = Metrics.create () in
    Metrics.set_enabled reg false;
    register reg "$"

  type t = { registry : Metrics.t; cache : (string * int, handles) Hashtbl.t }

  let create registry = { registry; cache = Hashtbl.create 32 }
  let registry t = t.registry
  let find t key = Hashtbl.find_opt t.cache key

  let handles t ((name, arity) as key) =
    if String.length name > 0 && name.[0] = '$' then ignored
    else
      match Hashtbl.find_opt t.cache key with
      | Some h -> h
      | None ->
          let h = register t.registry (name ^ "/" ^ string_of_int arity) in
          Hashtbl.add t.cache key h;
          h

  type row = {
    r_pred : string;  (* "name/arity" *)
    r_calls : int;
    r_subgoals : int;
    r_answers : int;
    r_dup_answers : int;
    r_suspensions : int;
    r_resolutions : int;
    r_time : float;  (* seconds *)
    r_peak : int;
  }

  (* read back from a scrape, so the report and METRICS cannot
     disagree; sorted hottest-first: time, then answers, then calls *)
  let rows registry =
    let samples =
      match Metrics.Exposition.validate (Metrics.to_text registry) with
      | Ok samples -> samples
      | Error why -> failwith ("Obs.Profile.rows: invalid exposition: " ^ why)
    in
    List.filter_map
      (fun (fam, s) ->
        match List.assoc_opt "pred" s.Metrics.Exposition.s_labels with
        | Some pred when fam = "xsb_pred_calls_total" ->
            let get name =
              Option.value ~default:0.0
                (Metrics.Exposition.find ~labels:[ ("pred", pred) ] samples name)
            in
            let int name = int_of_float (get name) in
            Some
              {
                r_pred = pred;
                r_calls = int "xsb_pred_calls_total";
                r_subgoals = int "xsb_pred_subgoals_total";
                r_answers = int "xsb_pred_answers_total";
                r_dup_answers = int "xsb_pred_dup_answers_total";
                r_suspensions = int "xsb_pred_suspensions_total";
                r_resolutions = int "xsb_pred_resolutions_total";
                r_time = get "xsb_pred_task_seconds";
                r_peak = int "xsb_pred_peak_answers";
              }
        | _ -> None)
      samples
    |> List.sort (fun a b ->
           compare (b.r_time, b.r_answers, b.r_calls, a.r_pred)
             (a.r_time, a.r_answers, a.r_calls, b.r_pred))

  let dup_ratio r =
    let total = r.r_answers + r.r_dup_answers in
    if total = 0 then 0.0 else float_of_int r.r_dup_answers /. float_of_int total

  let pp_report ppf registry =
    let rows = rows registry in
    Format.fprintf ppf "%-20s %8s %8s %8s %6s %6s %8s %6s %10s@." "predicate" "calls"
      "subgoals" "answers" "dups" "dup%" "susp" "peak" "time(ms)";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-20s %8d %8d %8d %6d %5.1f%% %8d %6d %10.3f@." r.r_pred r.r_calls
          r.r_subgoals r.r_answers r.r_dup_answers (100.0 *. dup_ratio r) r.r_suspensions
          r.r_peak (1000.0 *. r.r_time))
      rows;
    if rows = [] then Format.fprintf ppf "(no samples — was profiling enabled?)@."

  let row_to_json r =
    Json.Obj
      [
        ("pred", Json.String r.r_pred);
        ("calls", Json.Int r.r_calls);
        ("subgoals", Json.Int r.r_subgoals);
        ("answers", Json.Int r.r_answers);
        ("dup_answers", Json.Int r.r_dup_answers);
        ("dup_ratio", Json.Float (dup_ratio r));
        ("suspensions", Json.Int r.r_suspensions);
        ("resolutions", Json.Int r.r_resolutions);
        ("peak_table", Json.Int r.r_peak);
        ("time_ms", Json.Float (1000.0 *. r.r_time));
      ]

  let report_to_json registry = Json.List (List.map row_to_json (rows registry))
end
