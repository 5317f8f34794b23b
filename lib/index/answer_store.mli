(** Answer-clause storage with duplicate detection (paper §4.5).

    Answers returned for a tabled subgoal are copied to table space in
    canonical form; inserting an answer that is a variant of an existing
    one fails the inserting derivation path, which is how SLG avoids
    duplicate computation. Answers retain insertion order so that
    consumers can resume incrementally from the position they have
    already consumed.

    The store is the trie-based answer index the paper describes as under
    development, which integrates the index with the storage of the
    answers: the index and the storage of the answer clauses are one
    structure, and the trie is searchable by the bound-argument skeleton
    of a call, so a bound call retrieves only the candidate answers whose
    token prefix can unify instead of scanning the whole table. Entries
    carry an arbitrary payload ['a] (the machine stores its answer
    records); the same key may hold several entries — the machine keeps
    one per (template, delay list) answer clause. *)

open Xsb_term

module Index : sig
  type 'a t

  val create : ?size_hint:int -> unit -> 'a t

  val size : 'a t -> int
  (** Number of entries (answer clauses, not distinct templates). *)

  val get : 'a t -> int -> 'a
  (** Entry by insertion position, [0 .. size-1]; consumers resume
      incrementally from the position they have already consumed. *)

  val iter : ('a -> unit) -> 'a t -> unit
  (** In insertion order. *)

  val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

  val insert : 'a t -> Canon.t -> absorbed:('a -> bool) -> 'a -> int option
  (** [insert t key ~absorbed x] appends [x] under [key] and returns its
      insertion position, unless an entry already stored under exactly
      this key satisfies [absorbed]: then the index is unchanged and the
      result is [None]. Duplicate detection and insertion are one walk of
      the trie. *)

  val add : 'a t -> Canon.t -> 'a -> int
  (** Append an entry under [key] unconditionally; returns its insertion
      position. *)

  val find : 'a t -> Canon.t -> 'a list
  (** Entries stored under exactly this key (variant lookup), in
      insertion order. *)

  val lookup : 'a t -> Canon.t -> (int * 'a) list
  (** Candidate entries for a call skeleton, sorted by insertion
      position: every stored key that could unify with the skeleton is
      returned (skeleton variables match any stored subterm; stored
      variables match any skeleton subterm). A superset of the truly
      unifying answers — non-linear variable constraints are not
      checked — so callers still unify, but only against candidates. *)

  val iter_matching : ?from:int -> 'a t -> Canon.t -> (int -> 'a -> unit) -> unit
  (** [iter_matching ~from t skel f] applies [f pos entry] to candidates
      with insertion position [>= from], in insertion order. The trie is
      time-stamped — every node records the newest insertion position in
      its subtree — so branches holding nothing at or after [from] are
      skipped entirely: a late-arriving consumer that polls with its
      last-seen stamp pays for the new answers, not a rescan. *)

  val footprint : ('a -> int) -> 'a t -> int
  (** [footprint payload_bytes t]: estimated heap bytes of the whole
      index — trie nodes, their child tables (made on a node's first
      child) and edges with their token payloads, entry cells, the
      insertion-order vector, and every stored payload through
      [payload_bytes]. An estimate on the same model as
      [Canon.size_bytes], for table-space accounting. *)

  val retrieve_subsuming : 'a t -> Canon.t -> (int * 'a) list
  (** Call-subsumption retrieval (Cruz & Rocha, "Efficient Instance
      Retrieval of Subgoals for Subsumptive Tabled Evaluation"): the
      entries whose stored key {e subsumes} [probe] — the probe is an
      instance of the key under one-sided unification — sorted by
      insertion position. Unlike {!lookup} this is exact, not a
      candidate superset: stored variables are matched through a binding
      environment, so non-linear keys (e.g. [p(X,X)]) only match probes
      whose corresponding subterms coincide. Variant keys subsume their
      own variants, so an exact hit is included. *)
end

(** Answer subsumption (lattice tabling): the column algebra for tables
    declared [:- table p/N as subsumptive(Op)]. Such a table keeps one
    answer per combination of its first N-1 ("key") arguments; the last
    argument is the value column, folded under [Op] when another answer
    with the same key arrives. The SLG machine owns the per-table
    bookkeeping (which answer holds each key, rewinding consumers when a
    value improves); the key/value factoring and the lattice operations
    live here. *)
module Subsumption : sig
  type op = Min | Max | Sum | Count | First

  val op_of_string : string -> op option
  val op_to_string : op -> string

  exception Not_numeric of Canon.t
  (** Raised by [Sum] (and [Count] on a corrupted store) when a value
      column is not a number. *)

  val split : Canon.t -> (Canon.t * Canon.t) option
  (** Factor an answer template into its key part (a [$subsume_key]
      struct over all arguments but the last) and its value column.
      [None] for templates that are not structs of arity >= 1. *)

  val rebuild : string -> Canon.t -> Canon.t -> Canon.t
  (** [rebuild functor_name key value] reassembles an answer template
      from a key produced by {!split} and a value column. *)

  val compare_values : Canon.t -> Canon.t -> int
  (** Numeric comparison when both sides are numbers (ints and floats
      compare by value), standard order of canonical terms otherwise. *)

  val initial : op -> Canon.t -> Canon.t
  (** The stored value column for the very first answer of a key. *)

  val fold : op -> current:Canon.t -> Canon.t -> Canon.t option
  (** Fold an incoming value into the current one; [None] means the
      stored answer already subsumes the new one (no change). *)
end

