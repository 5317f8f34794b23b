(** First-order terms with mutable variable bindings.

    Terms are the universal data representation of the engine. HiLog terms
    are represented in their first-order [apply/N] encoding (see
    {!Xsb_hilog}). Variables carry a mutable binding cell; destructive
    binding is recorded on a {!Trail.t} so that it can be undone on
    backtracking. *)

type t =
  | Atom of string
  | Int of int
  | Float of float
  | Var of var
  | Struct of string * t array
      (** Invariant: the argument array of a [Struct] is non-empty; a
          zero-arity structure is an [Atom]. *)

and var = private {
  vid : int;  (** unique id, used for printing and ordering *)
  mutable binding : t option;
  vname : string option;  (** source-level name, if any *)
}

(** {1 Construction} *)

val fresh_var : ?name:string -> unit -> t
(** A fresh, unbound variable wrapped as a term. *)

val var : ?name:string -> unit -> var

val fresh_vids : int -> int
(** [fresh_vids n] takes the ids that [n] calls of {!var} would give, in
    order, and returns the first: consecutive unless another thread
    makes variables at the same time. For printing variables that are
    never built (a table-space answer written out directly). *)

val atom : string -> t
val int : int -> t

val struct_ : string -> t array -> t
(** [struct_ f args] builds [f(args)]; returns [Atom f] when [args] is
    empty. *)

val app : string -> t list -> t
(** List version of {!struct_}. *)

(** {1 Lists} *)

val nil : t
val cons : t -> t -> t

val list_ : t list -> t
(** Proper list term from its elements. *)

val to_list : t -> t list option
(** Elements of a proper list term; [None] if not a proper list. *)

(** {1 Binding} *)

val deref : t -> t
(** Follow variable bindings to the representative term. The result is
    never a bound variable. *)

val bind : Trail.t -> var -> t -> unit
(** Destructively bind an unbound variable, recording it on the trail.
    Raises [Invalid_argument] on an already-bound variable. *)

(** {1 Inspection} *)

val is_ground : t -> bool

val vars : t -> var list
(** Distinct unbound variables, in first-occurrence order. *)

val functor_of : t -> (string * int) option
(** Name/arity of the principal functor of a dereferenced atom or
    structure; [None] for variables and numbers. *)

val size : t -> int
(** Number of symbol occurrences (dereferenced). *)

(** {1 Copying} *)

val copy : t -> t
(** A copy of the dereferenced term with all unbound variables
    consistently replaced by fresh ones. Bound parts are resolved. *)

val copy2 : t -> t -> t * t
(** Copy two terms sharing one variable renaming. *)

(** {1 Comparison} *)

val compare : t -> t -> int
(** Standard order of terms: Var < Number < Atom < Compound; compounds by
    arity, then name, then arguments left to right. Dereferences. *)

val equal : t -> t -> bool
(** Structural equality modulo dereferencing ([==/2] on dereferenced
    terms). *)

(** {1 Printing} *)

val pp : t Fmt.t
(** Canonical syntax: quoted atoms where needed, list sugar, [_Gn] names
    for anonymous variables. Does not consult an operator table. *)

val to_string : t -> string

val add_atom : Buffer.t -> string -> unit
(** Append an atom as {!pp} prints it: quoted and escaped where needed. *)
