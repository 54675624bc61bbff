(* Dedup (Parsec): a data-processing pipeline whose stages synchronise with
   condition variables — the paper's heavily lock-based application and the
   exercise for the Figure 7 cond_wait protocol.

   Stages: producer -> [chunk queue] -> hashers -> [hashed queue] ->
   writers. Writers insert (hash -> chunk id) into the persistent
   deduplication table (the ResPCT hash map in the durable variant) and
   count unique chunks. Every queue wait uses checkpoint_allow /
   checkpoint_prevent so checkpoints can proceed while a stage is blocked. *)

type cfg = {
  chunks : int;
  distinct : int; (* number of distinct chunk contents (duplication rate) *)
  hashers : int;
  writers : int;
  queue_cap : int;
}

let default_cfg =
  { chunks = 8_000; distinct = 2_000; hashers = 32; writers = 31; queue_cap = 64 }

let hash_compute_ns = 150.0 (* per-chunk fingerprint arithmetic *)

(* Bounded queue on simulated synchronisation primitives. The [-1] value is
   the end-of-stream marker, broadcast once per consumer. *)
module Bq = struct
  type t = {
    items : int Queue.t;
    cap : int;
    m : Simsched.Mutex.t;
    not_empty : Simsched.Condvar.t;
    not_full : Simsched.Condvar.t;
  }

  let create name cap =
    {
      items = Queue.create ();
      cap;
      m = Simsched.Mutex.create ~name ();
      not_empty = Simsched.Condvar.create ~name:(name ^ ".ne") ();
      not_full = Simsched.Condvar.create ~name:(name ^ ".nf") ();
    }

  (* [wait] abstracts the cond_wait protocol: ResPCT variants pass
     Runtime.cond_wait, transient ones plain Condvar.wait. *)
  let push sched wait t v =
    Simsched.Mutex.lock sched t.m;
    while Queue.length t.items >= t.cap do
      wait t.not_full t.m
    done;
    Queue.push v t.items;
    Simsched.Condvar.signal sched t.not_empty;
    Simsched.Mutex.unlock sched t.m

  let pop sched wait t =
    Simsched.Mutex.lock sched t.m;
    while Queue.is_empty t.items do
      wait t.not_empty t.m
    done;
    let v = Queue.pop t.items in
    Simsched.Condvar.signal sched t.not_full;
    Simsched.Mutex.unlock sched t.m;
    v
end

(* Returns (virtual makespan, number of unique chunks found). *)
let run env persistence (cfg : cfg) =
  let sched = Simsched.Env.sched env in
  let chunk_q = Bq.create "chunkq" cfg.queue_cap in
  let hashed_q = Bq.create "hashedq" cfg.queue_cap in
  let unique = ref 0 in
  let unique_m = Simsched.Mutex.create ~name:"unique" () in
  let table = ref None in
  let nthreads = 1 + cfg.hashers + cfg.writers in
  let setup () =
    match persistence with
    | App_env.Durable rt ->
        table :=
          Some (`Respct (Pds.Hashmap_respct.create rt ~slot:0 ~buckets:4096))
    | App_env.Transient ->
        let nvm_words = (Simsched.Env.backend env).Simnvm.Backend.nvm_words in
        let bump = Pds.Bump.create env ~base:(nvm_words / 2) ~limit:nvm_words in
        table :=
          Some
            (`Transient
              (Pds.Hashmap_transient.create env
                 (Pds.Mem_iface.of_env_bump env bump)
                 ~buckets:4096))
  in
  let wait_of ~slot cv m =
    match persistence with
    | App_env.Transient -> Simsched.Condvar.wait sched cv m
    | App_env.Durable rt -> Respct.Runtime.cond_wait rt ~slot cv m
  in
  let makespan =
    App_env.run_workers ~setup env persistence ~nthreads (fun ~slot ->
        let wait cv m = wait_of ~slot cv m in
        if slot = 0 then begin
          (* producer: fragment the input stream *)
          for i = 0 to cfg.chunks - 1 do
            Simsched.Env.compute env 30.0;
            Bq.push sched wait chunk_q ((i * 2654435761) mod cfg.distinct);
            App_env.rp persistence ~slot 1
          done;
          for _ = 1 to cfg.hashers do
            Bq.push sched wait chunk_q (-1)
          done
        end
        else if slot <= cfg.hashers then begin
          (* hashers: fingerprint each chunk *)
          let continue = ref true in
          while !continue do
            App_env.rp persistence ~slot 2;
            let c = Bq.pop sched wait chunk_q in
            if c = -1 then continue := false
            else begin
              Simsched.Env.compute env hash_compute_ns;
              Bq.push sched wait hashed_q c
            end
          done;
          Bq.push sched wait hashed_q (-1)
        end
        else begin
          (* writers: insert into the persistent dedup table *)
          let continue = ref true in
          while !continue do
            App_env.rp persistence ~slot 3;
            let c = Bq.pop sched wait hashed_q in
            if c = -1 then begin
              continue := false;
              (* recycle the marker so every writer terminates regardless of
                 the hasher/writer ratio *)
              Bq.push sched wait hashed_q (-1)
            end
            else begin
              let fresh =
                match Option.get !table with
                | `Respct m -> Pds.Hashmap_respct.insert m ~slot ~key:c ~value:1
                | `Transient m ->
                    Pds.Hashmap_transient.insert m ~slot ~key:c ~value:1
              in
              if fresh then
                Simsched.Mutex.with_lock sched unique_m (fun () -> incr unique)
            end
          done
        end)
  in
  (makespan, !unique)
