(** An allocation-free subscriber list, shared by the {!Memsys} event
    pipeline and the scheduler's trace bus.

    Subscribers are stored as parallel id/function arrays with an explicit
    count: {!subscribe} grows by doubling, {!unsubscribe} shifts in place,
    so steady-state attach/detach churn allocates nothing. Delivery is in
    attach order, which keeps anything derived from events deterministic.
    Subscribers must not subscribe or unsubscribe from within a callback. *)

type 'e t

val create : first_id:int -> 'e t
(** An empty list whose first subscription gets id [first_id]. *)

val active : 'e t -> bool
(** Whether any subscriber is attached. Producers guard event construction
    on this, so the disabled path is one count test. *)

val emit : 'e t -> 'e -> unit
(** Deliver to every subscriber, in attach order. *)

val subscribe : 'e t -> ('e -> unit) -> int
(** Attach a subscriber; returns its id. *)

val unsubscribe : 'e t -> int -> unit
(** Detach one subscriber (no-op if already detached). *)

val clear : 'e t -> unit
(** Detach every subscriber. *)

val count : 'e t -> int
