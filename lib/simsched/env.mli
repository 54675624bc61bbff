(** Execution environment binding a memory backend to a {!Scheduler}.

    Simulated programs access memory exclusively through these wrappers:
    latencies are charged to the running thread's virtual clock and every
    access is a preemption point. Every world runs over a
    {!Simnvm.Backend.t}: {!make} wraps the simulator, {!make_backend} takes
    any backend (e.g. a memory-mapped file), and both share one access
    path. *)

type t

val make : Simnvm.Memsys.t -> Scheduler.t -> t
(** [make_backend (Simnvm.Backend.of_memsys mem)]. *)

val make_backend : Simnvm.Backend.t -> Scheduler.t -> t
(** Couple an arbitrary backend with a scheduler (installs the charge
    hook and thread-id provider through the backend record). *)

val backend : t -> Simnvm.Backend.t
(** The backend ops record. For {!make} worlds this is
    [Simnvm.Backend.of_memsys] of the simulator. *)

val sched : t -> Scheduler.t

val bus : t -> Trace.bus
(** The world's trace bus (same as [Scheduler.trace_bus (sched t)]): every
    wrapper below publishes its access on it, including {!cas}/{!faa}
    (which emit the constituent load/store plus an [Rmw] marker) and
    {!compute}. *)

val load : t -> Simnvm.Addr.t -> int
(** Read a word; charges latency; preemption point. *)

val store : t -> Simnvm.Addr.t -> int -> unit
(** Write a word; charges latency; preemption point. *)

val pwb : t -> Simnvm.Addr.t -> unit
(** clwb the word's line; preemption point. *)

val psync : t -> unit
(** sfence; preemption point. *)

val serialize_rmw : t -> Simnvm.Addr.t -> (unit -> 'a) -> 'a
(** Run [f] inside the exclusive-ownership window of the address's cache
    line: conflicting atomic sequences on one line serialise in virtual
    time, as the line does between cores. Used by lock-free algorithms for
    their linearisation + flush chains. *)

val cas : t -> Simnvm.Addr.t -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap (no preemption point between read and write). *)

val faa : t -> Simnvm.Addr.t -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val compute : t -> float -> unit
(** Charge pure computation time (non-memory work of a kernel). *)

val line_words : t -> int
(** Cache-line size of the underlying memory system, in words. *)
