(** Persistence-backend seam: the {!Memsys}-shaped operations consumed by
    the checkpointing runtime, the recovery procedure and the persistent
    data structures, as a record of closures (the {!Pds.Mem_iface} idiom).

    Backends implement PCSO-flavoured persistence over some medium: word
    [load]/[store] through a volatile view, [pwb]/[psync] to make lines
    durable, a crash-surviving image read through [persisted], and enough
    geometry ([line_words], [nvm_words], [dram_words]) for the runtime to
    compute its metadata {!Respct.Layout}. {!of_memsys} adapts the
    simulator; [lib/filemem] provides the memory-mapped-file backend.

    Contract notes:
    - addresses in [0, nvm_words) are durable-capable, addresses in
      [nvm_words, nvm_words + dram_words) are volatile scratch;
    - [persisted], [peek], [poke_persisted] and [image] are host-level
      oracle views: no latency charge, no event;
    - a backend whose medium can fail raises {!Memsys.Media_error} from
      [load] exactly as the simulator does, and [scrub_line] clears the
      failure (zeroing the line);
    - [subscribe] returns the matching unsubscribe thunk. *)

type t = {
  name : string;
  line_words : int;
  nvm_words : int;
  dram_words : int;
  load : int -> int;
  store : int -> int -> unit;
  pwb : int -> unit;
  psync : unit -> unit;
  peek : int -> int;  (** logical (volatile-coherent) view; free, silent *)
  persisted : int -> int;  (** durable image view; free, silent *)
  poke_persisted : int -> int -> unit;
  is_nvm : int -> bool;
  crash : unit -> unit;  (** drop all volatile state, keep the image *)
  scrub_line : int -> unit;
  flush_all : unit -> unit;
  image : unit -> int array;
  subscribe : (Event.t -> unit) -> unit -> unit;
  set_charge : (float -> unit) -> unit;
  get_charge : unit -> float -> unit;
  set_tid_provider : (unit -> int) -> unit;
}

val of_memsys : Memsys.t -> t
(** The simulator as a backend. [Simsched.Env.make] runs every simulated
    world through this record; the hot closures call {!Memsys} directly. *)
