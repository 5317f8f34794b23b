(** Hash-based clause indexing on a field or a combination of up to three
    fields, as declared by [:- index(p/5, [1,2,3+5])] (paper §4.5).

    An index over fields [F] maps the tuple of outer symbols of a clause
    head's [F]-arguments to the set of clauses with those symbols. Clause
    heads with a variable in any indexed field go into a catch-all bucket
    that every retrieval must also return. Retrieval is only possible when
    every indexed argument of the call is bound (to the outer-symbol
    level); {!lookup} returns [None] otherwise and the caller falls back
    to the next index or a scan.

    Candidates are returned in clause order and are a superset of the
    matching clauses; unification does the exact filtering. *)

open Xsb_term

type t

val fields : t -> int list
(** 1-based argument positions this index discriminates on. *)

val create : ?size_hint:int -> int list -> t
(** [create fields] builds an empty index on the given 1-based argument
    positions (1 to 3 of them). [size_hint] sets the initial hash-table
    size, as XSB lets the user override the hash size. *)

val insert : t -> int -> Term.t array -> unit
(** [insert t clause_id head_args] adds a clause (append position given
    by [clause_id], which must be increasing). *)

val lookup : t -> Term.t array -> int list option
(** [lookup t call_args] returns candidate clause ids in increasing
    order, or [None] when some indexed call argument is unbound. *)

val usable : t -> Term.t array -> bool
(** Whether all indexed positions of the call are bound. *)
