(* The Format-based term and row printer as it was before rows were
   written into a [Buffer.t]: a frozen copy of [Xsb_parse.Pretty.pp] and
   of [Session.pp_solution]'s row format, kept only as the oracle that
   the writer must match byte for byte (see suite_pretty.ml). Only the
   [open] differs from the original. Do not edit it to follow a change
   in the writer. *)

open Xsb

let default_ops = lazy (Ops.create ())

let pp ?ops ?(hilog = true) ?(max_depth = 0) () ppf term =
  let ops = match ops with Some ops -> ops | None -> Lazy.force default_ops in
  let rec go depth maxp ppf term =
    if max_depth > 0 && depth > max_depth then Fmt.string ppf "..."
    else
      match Term.deref term with
      | Term.Atom name -> Term.pp ppf (Term.Atom name)
      | Term.Int i -> Fmt.int ppf i
      | Term.Float x -> Fmt.float ppf x
      | Term.Var _ as v -> Term.pp ppf v
      | Term.Struct (".", [| _; _ |]) as t -> pp_list depth ppf t
      | Term.Struct ("{}", [| t |]) -> Fmt.pf ppf "{%a}" (go (depth + 1) 1200) t
      | Term.Struct ("apply", args) when hilog && Array.length args >= 2 ->
          let f = args.(0) in
          let rest = Array.sub args 1 (Array.length args - 1) in
          Fmt.pf ppf "%a(%a)"
            (go (depth + 1) 0)
            f
            Fmt.(array ~sep:(Fmt.any ",") (go (depth + 1) 999))
            rest
      | Term.Struct (name, [| l; r |]) as t -> (
          match Ops.infix ops name with
          | Some (p, fixity) ->
              let lmax = match fixity with Ops.YFX -> p | _ -> p - 1 in
              let rmax = match fixity with Ops.XFY -> p | _ -> p - 1 in
              let body ppf () =
                if name = "," then
                  Fmt.pf ppf "%a,%a" (go (depth + 1) lmax) l (go (depth + 1) rmax) r
                else
                  Fmt.pf ppf "%a %s %a" (go (depth + 1) lmax) l name (go (depth + 1) rmax) r
              in
              if p > maxp then Fmt.pf ppf "(%a)" body () else body ppf ()
          | None -> pp_plain depth ppf t)
      | Term.Struct (name, [| arg |]) as t -> (
          match Ops.prefix ops name with
          | Some (p, fixity) ->
              let amax = match fixity with Ops.FY -> p | _ -> p - 1 in
              let body ppf () = Fmt.pf ppf "%s %a" name (go (depth + 1) amax) arg in
              if p > maxp then Fmt.pf ppf "(%a)" body () else body ppf ()
          | None -> pp_plain depth ppf t)
      | Term.Struct _ as t -> pp_plain depth ppf t
  and pp_plain depth ppf = function
    | Term.Struct (name, args) ->
        Term.pp ppf (Term.Atom name);
        Fmt.pf ppf "(%a)" Fmt.(array ~sep:(Fmt.any ",") (go (depth + 1) 999)) args
    | t -> Term.pp ppf t
  and pp_list depth ppf t =
    let rec elements ppf t =
      match Term.deref t with
      | Term.Struct (".", [| h; tl |]) -> (
          go (depth + 1) 999 ppf h;
          match Term.deref tl with
          | Term.Atom "[]" -> ()
          | Term.Struct (".", [| _; _ |]) ->
              Fmt.string ppf ",";
              elements ppf tl
          | rest -> Fmt.pf ppf "|%a" (go (depth + 1) 999) rest)
      | _ -> assert false
    in
    Fmt.pf ppf "[%a]" elements t
  in
  go 1 1200 ppf term


let pp_bindings pp_term ppf (s : Engine.solution) =
  if s.Engine.bindings = [] then Fmt.string ppf "true"
  else
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any ", ") (fun ppf (n, v) -> Fmt.pf ppf "%s = %a" n pp_term v))
      s.Engine.bindings;
  if s.Engine.conditional then Fmt.string ppf " (undefined)"

(* a row as [Session.pp_solution] printed it, with the session's operators *)
let row session s = Fmt.str "%a" (pp_bindings (pp ~ops:(Database.ops (Session.db session)) ())) s
