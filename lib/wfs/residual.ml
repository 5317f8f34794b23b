open Xsb_term
open Xsb_slg

let of_tables engine =
  let env = Engine.env engine in
  let ground = Ground.create () in
  Canon.Tbl.iter
    (fun _ (sub : Machine.subgoal) ->
      Machine.iter_answers
        (fun (a : Machine.answer) ->
          let template = Machine.answer_template sub a in
          if a.Machine.a_delays = [] then Ground.add_fact ground template
          else
            let pos =
              List.filter_map
                (function Machine.Dpos (_, t) -> Some t | Machine.Dneg _ -> None)
                a.Machine.a_delays
            in
            let neg =
              List.filter_map
                (function Machine.Dneg k -> Some k | Machine.Dpos _ -> None)
                a.Machine.a_delays
            in
            Ground.add_rule ground template ~pos ~neg)
        sub)
    env.Machine.tables;
  ground

let truth_and a b =
  match (a, b) with
  | Ground.False, _ | _, Ground.False -> Ground.False
  | Ground.Undefined, _ | _, Ground.Undefined -> Ground.Undefined
  | Ground.True, Ground.True -> Ground.True

let truth_not = function
  | Ground.True -> Ground.False
  | Ground.False -> Ground.True
  | Ground.Undefined -> Ground.Undefined

let delay_truth ground delays =
  List.fold_left
    (fun acc d ->
      let v =
        match d with
        | Machine.Dpos (_, t) -> Ground.wfs ground t
        | Machine.Dneg k -> truth_not (Ground.wfs ground k)
      in
      truth_and acc v)
    Ground.True delays

type solution = { bindings : (string * Term.t) list; truth : Ground.truth }

let query engine goal =
  let answers = Engine.query engine goal in
  let ground = of_tables engine in
  (* an answer template may be supported by several answer clauses with
     different delay lists: merge them, taking the strongest truth. Key
     on the structural binding list, not its printed form — printing is
     lossy (1 and 1.0 both print as "1"), so distinct solutions could
     collide *)
  let merged : solution Canon.Tbl.t = Canon.Tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Engine.solution) ->
      match delay_truth ground s.Engine.delays with
      | Ground.False -> ()
      | truth -> (
          let key = Canon.of_term (Term.list_ (List.map snd s.Engine.bindings)) in
          match Canon.Tbl.find_opt merged key with
          | None ->
              Canon.Tbl.add merged key { bindings = s.Engine.bindings; truth };
              order := key :: !order
          | Some existing ->
              if existing.truth = Ground.Undefined && truth = Ground.True then
                Canon.Tbl.replace merged key { existing with truth }))
    answers;
  List.rev_map (fun key -> Canon.Tbl.find merged key) !order

let query_string engine text =
  query engine
    (Xsb_parse.Parser.term_of_string ~ops:(Xsb_db.Database.ops (Engine.db engine)) text)

let stable_models ?max_unknowns engine = Ground.stable_models ?max_unknowns (of_tables engine)
