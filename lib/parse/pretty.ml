open Xsb_term

let default_ops = lazy (Ops.create ())

(* The writer prints two representations of a term with one code path:
   a live [Term.t], and a table-space [Canon.t] whose variable [n] is
   printed with the id [vbase + n]. *)
type _ repr = Live : Term.t repr | Table : Canon.t repr

type ctx = { b : Buffer.t; ops : Ops.t; hilog : bool; max_depth : int; vbase : int }

let add_var b name vid =
  Buffer.add_char b '_';
  Buffer.add_string b name;
  Buffer.add_string b (Int.to_string vid)

let rec term : type a. ctx -> a repr -> int -> int -> a -> unit =
 fun c r depth maxp t ->
  if c.max_depth > 0 && depth > c.max_depth then Buffer.add_string c.b "..."
  else
    match r with
    | Live -> (
        match Term.deref t with
        | Term.Atom name -> Term.add_atom c.b name
        | Term.Int i -> Buffer.add_string c.b (Int.to_string i)
        | Term.Float x -> Printf.bprintf c.b "%g" x
        | Term.Var v -> add_var c.b (Option.value v.Term.vname ~default:"G") v.Term.vid
        | Term.Struct (name, args) -> compound c r depth maxp name args)
    | Table -> (
        match t with
        | Canon.CAtom name -> Term.add_atom c.b name
        | Canon.CInt i -> Buffer.add_string c.b (Int.to_string i)
        | Canon.CFloat x -> Printf.bprintf c.b "%g" x
        | Canon.CVar n -> add_var c.b "G" (c.vbase + n)
        | Canon.CStruct (name, args) -> compound c r depth maxp name args)

and compound : type a. ctx -> a repr -> int -> int -> string -> a array -> unit =
 fun c r depth maxp name args ->
  let b = c.b in
  match (name, args) with
  | ".", [| h; tl |] ->
      Buffer.add_char b '[';
      elements c r depth h tl;
      Buffer.add_char b ']'
  | "{}", [| x |] ->
      Buffer.add_char b '{';
      term c r (depth + 1) 1200 x;
      Buffer.add_char b '}'
  | "apply", _ when c.hilog && Array.length args >= 2 ->
      term c r (depth + 1) 0 args.(0);
      arguments c r depth args 1
  | _, [| left; right |] -> (
      match Ops.infix c.ops name with
      | Some (p, fixity) ->
          let lmax = match fixity with Ops.YFX -> p | _ -> p - 1 in
          let rmax = match fixity with Ops.XFY -> p | _ -> p - 1 in
          if p > maxp then Buffer.add_char b '(';
          term c r (depth + 1) lmax left;
          if name = "," then Buffer.add_char b ','
          else begin
            Buffer.add_char b ' ';
            Buffer.add_string b name;
            Buffer.add_char b ' '
          end;
          term c r (depth + 1) rmax right;
          if p > maxp then Buffer.add_char b ')'
      | None -> plain c r depth name args)
  | _, [| arg |] -> (
      match Ops.prefix c.ops name with
      | Some (p, fixity) ->
          let amax = match fixity with Ops.FY -> p | _ -> p - 1 in
          if p > maxp then Buffer.add_char b '(';
          Buffer.add_string b name;
          Buffer.add_char b ' ';
          term c r (depth + 1) amax arg;
          if p > maxp then Buffer.add_char b ')'
      | None -> plain c r depth name args)
  | _ -> plain c r depth name args

and plain : type a. ctx -> a repr -> int -> string -> a array -> unit =
 fun c r depth name args ->
  Term.add_atom c.b name;
  arguments c r depth args 0

(* [(args.(from),...)], each argument one level below its term *)
and arguments : type a. ctx -> a repr -> int -> a array -> int -> unit =
 fun c r depth args from ->
  Buffer.add_char c.b '(';
  for i = from to Array.length args - 1 do
    if i > from then Buffer.add_char c.b ',';
    term c r (depth + 1) 999 args.(i)
  done;
  Buffer.add_char c.b ')'

(* the elements of a list from its head [h] and tail [tl], all one level
   below the list itself *)
and elements : type a. ctx -> a repr -> int -> a -> a -> unit =
 fun c r depth h tl ->
  term c r (depth + 1) 999 h;
  match r with
  | Live -> (
      match Term.deref tl with
      | Term.Atom "[]" -> ()
      | Term.Struct (".", [| h; tl |]) ->
          Buffer.add_char c.b ',';
          elements c r depth h tl
      | tl ->
          Buffer.add_char c.b '|';
          term c r (depth + 1) 999 tl)
  | Table -> (
      match tl with
      | Canon.CAtom "[]" -> ()
      | Canon.CStruct (".", [| h; tl |]) ->
          Buffer.add_char c.b ',';
          elements c r depth h tl
      | tl ->
          Buffer.add_char c.b '|';
          term c r (depth + 1) 999 tl)

let add ?ops ?(hilog = true) ?(max_depth = 0) b t =
  let ops = match ops with Some ops -> ops | None -> Lazy.force default_ops in
  term { b; ops; hilog; max_depth; vbase = 0 } Live 1 1200 t

let add_canon ~ops ~vbase b t = term { b; ops; hilog = true; max_depth = 0; vbase } Table 1 1200 t

let to_string ?ops ?hilog t =
  let b = Buffer.create 64 in
  add ?ops ?hilog b t;
  Buffer.contents b

let pp ?ops ?hilog ?max_depth () ppf t =
  let b = Buffer.create 64 in
  add ?ops ?hilog ?max_depth b t;
  Fmt.string ppf (Buffer.contents b)
