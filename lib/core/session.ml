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

let pp_bindings pp_term ppf (s : Engine.solution) =
  if s.Engine.bindings = [] then Fmt.string ppf "true"
  else
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any ", ") (fun ppf (n, v) -> Fmt.pf ppf "%s = %a" n pp_term v))
      s.Engine.bindings;
  if s.Engine.conditional then Fmt.string ppf " (undefined)"

(* terms print with the session's current operators *)
let term_printer t = Xsb_parse.Pretty.pp ~ops:(Xsb_db.Database.ops t.database) ()

let pp_solution t ppf s = pp_bindings (term_printer t) ppf s

let render_solutions t emit solutions =
  let row = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer row in
  let pp_term = term_printer t in
  List.iter
    (fun s ->
      Buffer.clear row;
      pp_bindings pp_term ppf s;
      Format.pp_print_flush ppf ();
      emit row)
    solutions

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

