(* Persistence-backend seam: the Memsys-shaped operations the runtime,
   the recovery procedure and the persistent data structures actually
   consume, lifted into a first-class record so a second backend (a
   memory-mapped file, a remote store) can slide in underneath them.

   A record of closures rather than a functor, deliberately: it matches
   the existing Pds.Mem_iface idiom, keeps every module monomorphic (no
   functor explosion through Runtime/Recovery/Heap), and lets one world
   hold backends of different provenance side by side (the prockill
   parent recovers a file image while its oracles run over a simulated
   one). It is the only way a world touches memory: Simsched.Env calls
   these closures on every access, for the simulator as for a file. *)

type t = {
  name : string;  (* "simnvm", "filemem:<path>", ... *)
  line_words : int;
  nvm_words : int;
  dram_words : int;
  load : int -> int;
  store : int -> int -> unit;
  pwb : int -> unit;
  psync : unit -> unit;
  peek : int -> int;
  persisted : int -> int;
  poke_persisted : int -> int -> unit;
  is_nvm : int -> bool;
  crash : unit -> unit;
  scrub_line : int -> unit;
  flush_all : unit -> unit;
  image : unit -> int array;
  subscribe : (Event.t -> unit) -> unit -> unit;
  set_charge : (float -> unit) -> unit;
  get_charge : unit -> float -> unit;
  set_tid_provider : (unit -> int) -> unit;
}

let of_memsys m =
  let cfg = Memsys.config m in
  {
    name = "simnvm";
    line_words = cfg.Memsys.line_words;
    nvm_words = cfg.Memsys.nvm_words;
    dram_words = cfg.Memsys.dram_words;
    (* Eta-expanded, not partially applied: each hot access is one closure
       call straight into a direct Memsys call. *)
    load = (fun a -> Memsys.load m a);
    store = (fun a v -> Memsys.store m a v);
    pwb = (fun a -> Memsys.pwb m a);
    psync = (fun () -> Memsys.psync m);
    peek = Memsys.peek m;
    persisted = Memsys.persisted m;
    poke_persisted = Memsys.poke_persisted m;
    is_nvm = Memsys.is_nvm m;
    crash = (fun () -> Memsys.crash m);
    scrub_line = Memsys.scrub_line m;
    flush_all = (fun () -> Memsys.flush_all m);
    image = (fun () -> Memsys.image m);
    subscribe =
      (fun f ->
        let s = Memsys.subscribe m f in
        fun () -> Memsys.unsubscribe m s);
    set_charge = Memsys.set_charge m;
    get_charge = (fun () -> Memsys.get_charge m);
    set_tid_provider = Memsys.set_tid_provider m;
  }
