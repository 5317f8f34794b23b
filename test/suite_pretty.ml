(* The one term writer — [Pretty.add] for live terms, [Pretty.add_canon]
   for table-space terms, [Session.add_row] for query rows — against the
   frozen Format-based printer in pretty_oracle.ml: byte for byte on
   generated terms under random operator tables, and on every answer of
   the differential corpus. *)

open Xsb

(* tier-1 runs one fixed seed; CI's matrix sets QCHECK_SEED *)
let rand () =
  Random.State.make [| Option.fold ~none:24 ~some:int_of_string (Sys.getenv_opt "QCHECK_SEED") |]

(* Fresh variables print as [_G<id>] with ids from a process-wide
   counter, so two renderings of one answer differ in the ids. Each id
   is rewritten relative to the row's first: the text keeps which
   variables are shared and that the ids are consecutive. *)
let relative_vids s =
  let b = Buffer.create (String.length s) and first = ref None in
  let n = String.length s in
  let rec go i =
    if i < n then
      if i + 2 < n && s.[i] = '_' && s.[i + 1] = 'G' && s.[i + 2] >= '0' && s.[i + 2] <= '9' then begin
        let j = ref (i + 2) in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        let id = int_of_string (String.sub s (i + 2) (!j - i - 2)) in
        let base = match !first with Some f -> f | None -> (first := Some id; id) in
        Printf.bprintf b "_G%d" (id - base);
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* --- generated terms --- *)

(* operator names, names that need quotes, and the writer's special
   functors *)
let names =
  [ "a"; "foo"; "x_1"; "f"; "[]"; "{}"; "!"; ";"; ","; "|"; ""; "Abc"; "_u"; "hello world"; "it's";
    "back\\slash"; "new\nline"; "+"; "-"; "*"; "**"; "^"; "=.."; "\\+"; ":-"; "->"; "is"; "mod";
    "apply"; "."; "-->"; "tnot"; "op" ]

let floats = [ 0.0; -0.0; 1.5; -2.25; 1e20; 1e-7; Float.pi; 100.0; Float.nan; Float.infinity; Float.neg_infinity ]

(* two anonymous variables, two named ones, and two bound ones the
   writer must dereference *)
let vars =
  let trail = Trail.create () in
  let bound target =
    let v = Term.fresh_var () in
    (match v with Term.Var r -> Term.bind trail r target | _ -> ());
    v
  in
  [ Term.fresh_var (); Term.fresh_var (); Term.fresh_var ~name:"X" (); Term.fresh_var ~name:"Y_1" ();
    bound (Term.app "g" [ Term.Int (-3) ]);
    bound (Term.list_ [ Term.Int 1; Term.atom "b" ]) ]

let term_gen =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (3, map Term.atom (oneofl names));
        (2, map Term.int (oneof [ int_range (-20) 20; oneofl [ max_int; min_int ] ]));
        (1, map (fun x -> Term.Float x) (oneof [ oneofl floats; float ]));
        (2, oneofl vars);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               ( 5,
                 let* name = oneofl names and* args = list_size (int_range 1 3) sub in
                 return (Term.app name args) );
               ( 2,
                 (* a proper or a partial list *)
                 let* items = list_size (int_range 1 4) sub
                 and* tail = frequency [ (2, pure Term.nil); (1, sub) ] in
                 return (List.fold_right Term.cons items tail) );
               (1, map (fun x -> Term.app "{}" [ x ]) sub);
               ( 1,
                 let* f = sub and* args = list_size (int_range 1 3) sub in
                 return (Term.app "apply" (f :: args)) );
             ])

(* an operator table: the standard one or an empty one, then random
   declarations (priority 0 removes one) *)
type ops_spec = { standard : bool; decls : (int * Ops.fixity * string) list }

let ops_gen =
  let open QCheck2.Gen in
  let fixity = oneofl Ops.[ XFX; XFY; YFX; FY; FX; XF; YF ] in
  let decl = triple (oneof [ pure 0; int_range 1 1200 ]) fixity (oneofl names) in
  map2 (fun standard decls -> { standard; decls }) bool (list_size (int_range 0 6) decl)

let ops_of spec =
  let ops = if spec.standard then Ops.create () else Ops.empty () in
  List.iter (fun (p, f, name) -> Ops.add ops p f name) spec.decls;
  ops

let print_case (spec, hilog, max_depth, term) =
  Printf.sprintf "%s ops%s, hilog %b, max_depth %d: %s"
    (if spec.standard then "standard" else "empty")
    (String.concat ""
       (List.map (fun (p, f, n) -> Printf.sprintf " op(%d,%s,%S)" p (Ops.fixity_to_string f) n) spec.decls))
    hilog max_depth (Term.to_string term)

let agree what got want =
  got = want || QCheck2.Test.fail_reportf "%s: writer %S, oracle %S" what got want

let writer_matches_oracle =
  QCheck2.Test.make ~count:1500 ~name:"writer = frozen Format printer on generated terms" ~print:print_case
    QCheck2.Gen.(quad ops_gen bool (int_range 0 4) term_gen)
    (fun (spec, hilog, max_depth, term) ->
      let ops = ops_of spec in
      let want = Fmt.str "%a" (Pretty_oracle.pp ~ops ~hilog ~max_depth ()) term in
      let b = Buffer.create 16 in
      Pretty.add ~ops ~hilog ~max_depth b term;
      (* the table-space path, against the term [Canon.to_term] builds:
         its variables take the ids from [vbase] on *)
      let c = Canon.of_term term in
      let vbase = Term.fresh_vids 0 in
      let live = Canon.to_term c in
      let cb = Buffer.create 16 in
      Pretty.add_canon ~ops ~vbase cb c;
      agree "add" (Buffer.contents b) want
      && agree "pp" (Fmt.str "%a" (Pretty.pp ~ops ~hilog ~max_depth ()) term) want
      && agree "add_canon" (Buffer.contents cb) (Fmt.str "%a" (Pretty_oracle.pp ~ops ()) live))

(* --- the differential corpus: every answer row, written both ways --- *)

(* Every row of [goal], written from the table by [Session.add_row] and
   by the oracle from the row's live solution. Each goal runs twice: the
   first run evaluates it through a query table, the second reads a
   completed table where there is one. *)
let rows_agree session goal =
  let engine = Session.engine session in
  let run () =
    let ok = ref true in
    ignore
      (Engine.run_rows engine (Parser.term_of_string goal) (fun row ->
           let b = Buffer.create 32 in
           Session.add_row session b row;
           let got = relative_vids (Buffer.contents b) in
           let want = relative_vids (Pretty_oracle.row session (Engine.row_solution row)) in
           ok := !ok && agree goal got want;
           true));
    !ok
  in
  run () && run ()

let datalog_rows =
  QCheck2.Test.make ~count:100 ~name:"corpus rows: datalog" ~print:Generators.datalog_text
    Generators.datalog_program_gen (fun dp ->
      let session = Session.create () in
      Session.consult session (":- table p/2, q/2, r/2.\n" ^ Generators.datalog_text dp);
      List.for_all
        (fun h -> rows_agree session (h ^ "(X,Y)") && rows_agree session (h ^ "(2,X)"))
        Generators.datalog_idb)

let negation_rows ~mode name gen =
  QCheck2.Test.make ~count:100 ~name ~print:Generators.stratified_text gen (fun rules ->
      let session = Session.create ~mode () in
      Session.consult session (":- table p0/1, p1/1, p2/1.\n" ^ Generators.stratified_text rules);
      List.for_all
        (fun p -> rows_agree session (p ^ "(X)") && rows_agree session (p ^ "(1)"))
        [ "p0"; "p1"; "p2" ])

let props =
  [
    writer_matches_oracle;
    datalog_rows;
    negation_rows ~mode:Machine.Stratified "corpus rows: stratified negation" Generators.stratified_gen;
    negation_rows ~mode:Machine.Well_founded "corpus rows: well-founded, conditional answers"
      Generators.nonstratified_gen;
  ]

let suite = List.map (QCheck_alcotest.to_alcotest ~long:false ~rand:(rand ())) props
