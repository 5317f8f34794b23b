(** One predicate: clause storage plus its indexes.

    XSB distinguishes static predicates (compiled, fixed) from dynamic
    ones (modifiable one tuple at a time; the normal representation of
    the extensional database). Both support hash indexing on argument
    combinations; static predicates additionally support first-string
    indexing (paper §4.2, §4.5). *)

open Xsb_term
(* for Arg_hash, First_string *)

open Xsb_index

type kind = Static | Dynamic

type table_mode =
  | Variant  (** plain variant tabling (the default) *)
  | Incremental
      (** completed tables record the dynamic predicates and tables they
          read; a mutation invalidates — or, for pure additions to
          definite programs, repairs — only the dependent tables *)
  | Subsumptive of Answer_store.Subsumption.op
      (** answers sharing key columns (all arguments but the last) fold
          into a single answer under the lattice operation *)
  | Subsumption
      (** call-subsumption tabling: a call whose subgoal is an instance
          of an existing table's subgoal becomes a {e subsumed consumer}
          of that table — no new generator — with answers filtered
          through unification with the more specific call *)

val table_mode_to_string : table_mode -> string

type clause = {
  id : int;  (** position key: clauses are returned in increasing id order *)
  head : Term.t;
  body : Term.t;  (** conjunction term; [true] for facts *)
}

type index_spec =
  | Fields of int list list
      (** [:- index(p/5,[1,2,3+5])]: one hash index per element, tried in
          order; each element indexes on up to three fields. *)
  | First_string_index  (** trie indexing on the pre-order head string *)
  | Disc_tree_index
      (** full discrimination tree: first-string indexing "across
          variables" (§4.5's in-development variant) *)

type t

val create : ?kind:kind -> string -> int -> t
val name : t -> string
val arity : t -> int
val kind : t -> kind
val set_kind : t -> kind -> unit
val tabled : t -> bool
val set_tabled : t -> bool -> unit
val table_mode : t -> table_mode
val set_table_mode : t -> table_mode -> unit

val set_index : t -> ?size_hint:int -> index_spec -> unit
(** Declare the indexing for this predicate; existing clauses are
    re-indexed. The default is a hash index on the first argument. A
    combination of more than three fields, or with a field outside
    [1..arity], is kept in {!index_spec} but builds no index. *)

val index_spec : t -> index_spec

val assertz : t -> head:Term.t -> body:Term.t -> clause
val asserta : t -> head:Term.t -> body:Term.t -> clause

val remove : t -> clause -> unit
(** Retract one clause by identity, in O(1) amortized: the indexes keep
    its id (lookups skip it) until retracted clauses outnumber live ones
    and the indexes are rebuilt. *)

val clause_count : t -> int

val clauses : t -> clause list
(** All live clauses in order. *)

val lookup : t -> Term.t array -> clause list
(** Candidate clauses for a call with the given (possibly unbound)
    arguments, using the best applicable index; a superset of the
    unifiable clauses, in clause order.

    When no hash index serves the call, the spec is [Fields], the
    predicate has more than {!demand_index_min_clauses} live clauses and
    some argument is bound, the call first builds a single-field hash
    index on the first bound argument (just-in-time indexing). Such an
    index is kept up to date like a declared one until the next
    {!set_index}, or until retracted clauses outnumber live ones and
    {!remove} rebuilds the indexes; it is derived state: {!index_spec}
    does not report it, and nothing persists it. *)

val demand_index_min_clauses : int
(** A predicate needs more live clauses than this before a call builds
    an index on demand. *)

val hash_index_fields : t -> int list list
(** The fields of every hash index in use: the declared ones in order,
    then those built on demand. *)

val clashes : Term.t array -> clause -> bool
(** [clashes call_args clause]: some argument of the call and of the
    clause head are bound to different outer symbols, so the call cannot
    resolve with the clause. Allocates nothing; a clause that clashes
    need not be renamed. *)

val renamed : clause -> Term.t * Term.t
(** The clause's head and body renamed apart with fresh variables. A
    ground clause comes back as stored, without a copy: nothing in it
    can be bound. *)
