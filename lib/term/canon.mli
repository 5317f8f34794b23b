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

val to_term : t -> Term.t
(** Rebuild with fresh variables (consistent within one call). *)

val nvars : t -> int
(** Number of distinct variables. *)

val is_ground : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val size_bytes : t -> int
(** Estimated heap footprint in bytes: constructor blocks plus string
    payloads, on a 64-bit runtime. Atom and functor names are counted in
    full even though the runtime may share them — table-space accounting
    wants an upper bound that tracks growth, not exact liveness. *)

val string_bytes : string -> int
(** Estimated heap bytes of a string block, on the same model. *)

val hashtbl_bytes : int -> int
(** Estimated heap bytes of a stdlib [Hashtbl] holding [n] bindings, not
    counting the keys and values themselves: the record, the bucket array
    (at least 16 buckets, doubled as the table grows) and one bucket cell
    per binding. *)

val pp : t Fmt.t

module Tbl : Hashtbl.S with type key = t
