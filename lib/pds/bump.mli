(** Volatile bump allocator with size-class free lists, modelling [malloc]
    for the transient programs. Bookkeeping is host-level and atomic
    between simulation yield points; only a flat time cost is charged. *)

type t

val create : Simsched.Env.t -> base:int -> limit:int -> t
(** Allocator over the arena [base, limit). *)

val dram : Simsched.Env.t -> t
(** Allocator over the world's whole volatile DRAM region. *)

val alloc : t -> words:int -> int
(** Allocate (free list first, then bump).
    @raise Failure when the arena is exhausted.
    @raise Invalid_argument if [words <= 0]. *)

val free : t -> int -> words:int -> unit
(** Return a block to its size class (immediately reusable: volatile). *)

val used : t -> base:int -> int
(** Words bumped from the arena so far. *)
