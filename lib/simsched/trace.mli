(** Execution tracing as a per-world event bus.

    Each {!Scheduler} owns a bus ({!Scheduler.trace_bus}); {!Env} publishes
    every memory access — including CAS/FAA, the persistence instructions
    and compute charges — {!Mutex} publishes lock operations, and the
    ResPCT runtime publishes restart-point markers, all on the same bus.
    Consumers (race checker, RP advisor, observability probes) attach as
    subscribers; nothing is process-global. *)

type event =
  | Load of { tid : int; addr : int }
  | Store of { tid : int; addr : int }
  | Rmw of { tid : int; addr : int }
      (** marks that the immediately preceding load/store pair at [addr]
          was one atomic CAS/FAA *)
  | Pwb of { tid : int; addr : int }
  | Psync of { tid : int }
  | Compute of { tid : int; ns : float }
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Restart_point of { tid : int; id : int }

type bus
type subscription

val create_bus : unit -> bus

val active : bus -> bool
(** Whether any subscriber is attached. Producers guard event construction
    on this, making the disabled path one count test. *)

val emit : bus -> event -> unit
(** Deliver to every subscriber, in attach order. *)

val subscribe : bus -> (event -> unit) -> subscription
val unsubscribe : bus -> subscription -> unit

(** {2 Recorder} — the accumulate-then-analyse subscriber *)

type recorder

val attach : bus -> recorder
val detach : bus -> recorder -> unit

val events : recorder -> event list
(** Events in program order. *)

val count : recorder -> int

val record : bus -> (unit -> 'a) -> 'a * event list
(** Run a computation with a fresh recorder attached and return its trace;
    the recorder is detached afterwards. *)
