(** Unification and related relations on terms. *)

val unify : ?occurs_check:bool -> Trail.t -> Term.t -> Term.t -> bool
(** [unify trail t u] attempts to unify [t] and [u], binding variables
    destructively (recorded on [trail]). On failure all bindings made by
    this call are undone. [occurs_check] defaults to [false], as in the
    WAM. *)

val clash : Term.t -> Term.t -> bool
(** True when both terms are bound and their outer symbols differ (atom,
    number, or functor name and arity), so they cannot unify. Looks at
    the outer symbol only and allocates nothing. *)

val variant : Term.t -> Term.t -> bool
(** True when the two terms are equal up to a renaming of variables. Does
    not bind anything. *)

val instance_of : Trail.t -> instance:Term.t -> general:Term.t -> bool
(** One-sided matching: true when [instance] is an instance of [general]
    (a substitution for [general]'s variables alone makes them equal).
    Binds nothing; the trail is not used. *)
