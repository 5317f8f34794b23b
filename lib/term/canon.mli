(** Canonical, immutable representation of a term with variables numbered
    by first occurrence. Two terms are variants iff their canonical forms
    are equal, which makes [Canon.t] the right key type for subgoal tables
    and for answer duplicate checks ("copying into table space"). *)

type t =
  | CVar of int  (** 0-based, in order of first occurrence *)
  | CAtom of string
  | CInt of int
  | CFloat of float
  | CStruct of string * t array

val of_term : Term.t -> t
(** Snapshot of the dereferenced term. *)

val of_terms : Term.t array -> t array
(** Snapshot of several terms, their variables numbered together, by
    first occurrence across the array. *)

val to_term : t -> Term.t
(** Rebuild with fresh variables (consistent within one call). *)

val to_terms : t array -> Term.t array
(** Rebuild several terms, their fresh variables shared as numbered. *)

val nvars : t -> int
(** Number of distinct variables. *)

(** {1 Substitution factoring}

    A {e tuple} for a key holds the bindings of the key's variables, in
    first-occurrence order. When the key and the instance are canonical,
    the tuple numbers its variables by first occurrence across the tuple,
    so two instances of one key are variants exactly when their tuples
    are. *)

val instantiate : t -> t array -> t
(** [instantiate key tuple]: [key] with its variable [i] replaced by
    [tuple.(i)]. Canonical when both are. *)

val factor : t -> t -> t array option
(** [factor key inst]: the tuple [t] with [instantiate key t = inst], or
    [None] when [inst] is not an instance of [key]. *)

val factor_term : t -> Term.t -> Term.t array
(** [factor_term key term]: the live subterms of [term] at the first
    occurrences of [key]'s variables, shared, not copied. [term] must be
    an instance of [key]: [Invalid_argument] where it lacks the key's
    structure. *)

val is_ground : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val size_bytes : t -> int
(** Estimated heap footprint in bytes: constructor blocks plus string
    payloads, on a 64-bit runtime. Atom and functor names are counted in
    full even though the runtime may share them — table-space accounting
    wants an upper bound that tracks growth, not exact liveness. *)

val tuple_bytes : t array -> int
(** Estimated heap bytes of a tuple: the array block and its elements. *)

val string_bytes : string -> int
(** Estimated heap bytes of a string block, on the same model. *)

val hashtbl_bytes : int -> int
(** Estimated heap bytes of a stdlib [Hashtbl] holding [n] bindings, not
    counting the keys and values themselves: the record, the bucket array
    (at least 16 buckets, doubled as the table grows) and one bucket cell
    per binding. *)

val pp : t Fmt.t

module Tbl : Hashtbl.S with type key = t
