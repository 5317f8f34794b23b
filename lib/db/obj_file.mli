(** Object files (paper §4.6): pre-compiled predicate images that load
    without parsing. "Since object files contain precompiled code,
    loading an object file is about 12x faster than loading through the
    formatted read and assert."

    An image is a versioned envelope (magic ["XSBOBJ04"], payload
    length, payload digest) around the mutation records ({!Record})
    that rebuild each saved predicate — {!Record.of_pred}: its index,
    kind, table mode and clauses. It is the journal's record codec, so
    loading an image, recovering a snapshot, replaying the journal and
    a standby's apply share one decoder and one apply function. *)

exception Bad_object_file of string

val save : Database.t -> (string * int) list -> string -> unit
(** [save db preds path] writes the given predicates to [path]. *)

val save_all : Database.t -> string -> unit

val load : Database.t -> string -> int
(** Load an object file into the database; returns the clause count.
    Existing predicates with the same name/arity are replaced. Raises
    {!Bad_object_file} — never [Failure] or [End_of_file] — on
    truncated or corrupt images, and on a table mode that conflicts
    with the one its predicate has. Every record is decoded and checked
    before any is applied, so a refused image leaves the database
    unchanged; arbitrary (even adversarial) bytes are safe to feed in. *)

val load_string : Database.t -> string -> int
(** {!load} from in-memory image bytes (the server's [CONSULT fmt=obj]
    path, where the bytes are untrusted network input). Same safety and
    typed-error guarantees. *)
