(** Mutation records: the one serialised form of a change to the
    database. The write-ahead journal appends them, a snapshot is a
    stream of them, an object-file image ({!Obj_file}) carries them,
    and a standby applies the ones its primary ships. Every one of
    those readers decodes with {!get} and applies with {!apply}.

    The codec is {!Codec}'s: big-endian integers, length-prefixed
    strings, a tag byte per variant, every tag, length and count
    validated, so untrusted bytes can at worst produce a typed error. *)

type t =
  | Add_clause of {
      name : string;
      arity : int;
      front : bool;
      dynamic : bool;
      clause : Xsb_term.Canon.t;  (** [':-'(Head, Body)], HiLog-encoded *)
    }
  | Retract_clause of { name : string; arity : int; clause : Xsb_term.Canon.t }
  | Remove_pred of { name : string; arity : int }
  | Set_tabled of { name : string; arity : int }
  | Set_table_mode of { name : string; arity : int; mode : Pred.table_mode }
  | Set_dynamic of { name : string; arity : int }
  | Set_index of {
      name : string;
      arity : int;
      spec : Pred.index_spec;
      size_hint : int option;
    }
  | Declare_hilog of string
  | Declare_module of { module_name : string; exports : (string * int) list }
  | Declare_op of { priority : int; fixity : string; op_name : string }

exception Corrupt_record of string

val of_db_mutation : Database.mutation -> t
(** The record of a database mutation (what the journal appends). *)

val of_pred : Pred.t -> t list
(** The records that rebuild a predicate as it is now: [Remove_pred],
    [Set_index], [Set_dynamic] when dynamic, [Set_tabled] or
    [Set_table_mode] when tabled, then one [Add_clause] per clause in
    clause order. An index built on demand is derived state and is not
    carried. *)

val apply : Database.t -> t -> unit
(** Apply one record. Applying a [Retract_clause]/[Remove_pred] whose
    target is already gone is a no-op, so replay is deterministic.
    Raises {!Corrupt_record} only for a record {!get} never returns (a
    clause that is not [':-'/2], an unknown operator fixity), and
    {!Database.Table_mode_conflict} like {!Database.set_table_mode}. *)

(** {1 The codec} *)

val put : Buffer.t -> t -> unit
(** Append the record's bytes. *)

val get : Codec.cursor -> t
(** Read one record. Raises {!Codec.Decode_error} on anything {!put}
    cannot have produced, and on records {!apply} could not apply: a
    clause record whose clause is not [':-'(Head, Body)] with a head of
    the record's name and arity, an operator priority above 1200 or an
    unknown fixity. *)

val encode : t -> string
(** {!put} into a fresh string. *)

val decode : string -> t
(** {!get} of exactly the whole string; raises {!Corrupt_record}. *)
