(** Operator-aware term printing, the inverse of {!Parser} for display
    purposes (REPL answers, clause listings, [write/1], the query
    server's rows). One writer appends to a [Buffer.t]; {!pp} and
    {!to_string} wrap it. *)

open Xsb_term

val add : ?ops:Ops.t -> ?hilog:bool -> ?max_depth:int -> Buffer.t -> Term.t -> unit
(** [add ~ops ~hilog ~max_depth b t] appends [t] to [b] using the
    operator table. When [hilog] is true (the default),
    [apply(F,A1,..,An)] structures are decoded back to HiLog application
    syntax [F(A1,..,An)]. [max_depth] truncates deep terms with [...]
    (0 = unlimited, the default). *)

val add_canon : ops:Ops.t -> vbase:int -> Buffer.t -> Canon.t -> unit
(** [add_canon ~ops ~vbase b c] appends the table-space term [c] as {!add}
    prints [Canon.to_term c], without building it. Canonical variable
    [n] prints as [_G] followed by [vbase + n]: with
    [vbase = Term.fresh_vids (Canon.nvars c)], the ids the variables of
    [Canon.to_term c] would have taken. *)

val pp : ?ops:Ops.t -> ?hilog:bool -> ?max_depth:int -> unit -> Term.t Fmt.t
(** {!add} as a formatter. *)

val to_string : ?ops:Ops.t -> ?hilog:bool -> Term.t -> string
