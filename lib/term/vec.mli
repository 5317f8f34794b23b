(** Minimal growable array (OCaml 5.1 has no [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val capacity : 'a t -> int
(** Slots allocated, used or not. *)

val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val clear : 'a t -> unit
