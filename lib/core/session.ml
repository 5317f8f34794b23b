open Xsb_slg

type t = { database : Xsb_db.Database.t; eng : Engine.t }

let create ?mode ?scheduling () =
  let database = Xsb_db.Database.create () in
  { database; eng = Engine.create ?mode ?scheduling database }

let db t = t.database
let engine t = t.eng

let consult t source = Engine.consult_string t.eng source
let consult_file t path = Engine.consult_file t.eng path

let query t text = Engine.query_string t.eng text
let query_first t text = Engine.query_first_string t.eng text
let succeeds t text = Engine.succeeds t.eng text
let count t text = Engine.count_solutions t.eng text

(* A row's text is "X = f(Y), Z = 3": [add_name] starts the [i]-th
   binding, and [add_end] writes "true" for a row without bindings and
   " (undefined)" after a conditional answer. *)
let add_name b i name =
  if i > 0 then Buffer.add_string b ", ";
  Buffer.add_string b name;
  Buffer.add_string b " = "

let add_end b ~empty ~conditional =
  if empty then Buffer.add_string b "true";
  if conditional then Buffer.add_string b " (undefined)"

(* terms print with the session's current operators *)
let ops t = Xsb_db.Database.ops t.database

let pp_solution t ppf (s : Engine.solution) =
  let b = Buffer.create 64 and ops = ops t in
  List.iteri
    (fun i (name, v) ->
      add_name b i name;
      Xsb_parse.Pretty.add ~ops b v)
    s.Engine.bindings;
  add_end b ~empty:(s.Engine.bindings = []) ~conditional:s.Engine.conditional;
  Fmt.string ppf (Buffer.contents b)

let add_row t b row =
  let ops = ops t and vbase = Xsb_term.Term.fresh_vids (Engine.row_vars row) in
  let empty = ref true in
  Engine.row_bindings row (fun i name v ->
      empty := false;
      add_name b i name;
      Xsb_parse.Pretty.add_canon ~ops ~vbase b v);
  add_end b ~empty:!empty ~conditional:(Engine.row_conditional row)

let show t text =
  match query t text with
  | [] -> Fmt.pr "no@."
  | solutions ->
      List.iter (fun s -> Fmt.pr "%a@." (pp_solution t) s) solutions;
      Fmt.pr "yes (%d solution%s)@." (List.length solutions)
        (if List.length solutions = 1 then "" else "s")

let wfs_query t text = Xsb_wfs.Residual.query_string t.eng text

let stats t = Engine.stats t.eng

(* --- observability (ISSUE PR 3) --- *)

let recorder t = Engine.recorder t.eng
let add_sink t sink = Engine.add_sink t.eng sink
let clear_sinks t = Engine.clear_sinks t.eng
let metrics t = Engine.metrics t.eng
let set_profiling ?registry t flag = Engine.set_profiling ?registry t.eng flag
let pp_profile ppf t = Engine.pp_profile ppf t.eng
let pp_table_dump ppf t = Engine.pp_table_dump ppf t.eng

(* the sink named by --trace / XSB_TRACE; [out] is the --trace-out
   destination shared by both formats *)
let sink_of_spec ~out spec =
  match String.lowercase_ascii spec with
  | "pretty" -> Some (Xsb_obs.Obs.Sink.Pretty (Format.formatter_of_out_channel out))
  | "jsonl" | "json" -> Some (Xsb_obs.Obs.Sink.Jsonl out)
  | "null" -> Some Xsb_obs.Obs.Sink.Null
  | _ -> None

