(** Test-only fault injection for the journal's I/O sites.

    Every write, fsync and rename in {!Journal} passes through a named
    failpoint. Arming a site makes its next (or [after]-th next) hit
    fail or "crash"; the kill-and-recover property test walks every
    site in turn and asserts recovery yields exactly the acknowledged
    mutation prefix.

    Armed failpoints are one-shot: once triggered, the site disarms
    itself, so the recovery that follows a simulated crash runs clean.
    The registry is global and mutex-protected (the server tests arm
    sites from the test thread while workers write). Production code
    never arms anything, so the cost of an unarmed site is one mutex
    cycle and a hash lookup on the journal's I/O path, the replication
    stream, and each [accept] of a listener (site ["net.accept"]). *)

type action =
  | Fail  (** the operation fails with a typed [Journal.Io_error] — models EIO/ENOSPC *)
  | Crash  (** raise {!Injected_crash} before the operation — models [kill -9] *)
  | Short_write of int
      (** write only the first [n] bytes, then raise {!Injected_crash} —
          models a torn write (power loss mid-[write]) *)

exception Injected_crash of string
(** The simulated process death; carries the site name. Harnesses catch
    it, abandon the journal value, and recover from disk. *)

val arm : ?after:int -> string -> action -> unit
(** [arm site action] triggers on the next hit of [site];
    [~after:n] skips the first [n] hits. Re-arming replaces. *)

val disarm : string -> unit

val reset : unit -> unit
(** Disarm everything and zero the hit counters. *)

val hits : string -> int
(** How many times [site] was passed since the last {!reset}. *)

val all_hits : unit -> (string * int) list
(** Every site hit since the last {!reset}, with counts (sorted by
    name). Lets a harness enumerate the crash points of a workload. *)

val check : string -> action option
(** Used by {!Journal} at each I/O site: records a hit and returns the
    armed action if the countdown expired (disarming the site). *)
