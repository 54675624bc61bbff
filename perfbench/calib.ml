(* Host-speed calibration: a fixed mix of the work the simulator does on
   the host (random reads and writes over a large array, hash-table lookups
   and inserts, short-lived and promoted allocation, block copies), in the
   benchmark's own code, timed in [pieces] equal parts. *)

let pieces = 8
let words = 1 lsl 22

(* Host ms of [run] on the host that host-time metrics are reported at. *)
let reference_ms = 100.0

let run () =
  let a = Array.make words 0 in
  let b = Array.make (words / 8) 0 in
  let h = Hashtbl.create 65536 in
  let kept = ref [] in
  let x = ref 12345 in
  Array.init pieces (fun _ ->
      let t0 = Clock.now_ns () in
      for j = 1 to 150_000 do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        let i = !x land (words - 1) in
        a.(i) <- a.(i) + 1;
        let k = !x land 0xffff in
        (match Hashtbl.find_opt h k with
        | Some r -> incr r
        | None -> Hashtbl.replace h k (ref 1));
        if !x land 7 = 0 then ignore (Sys.opaque_identity (Array.make 4 !x));
        if !x land 15 = 0 then kept := (!x, j) :: !kept;
        if j land 16383 = 0 then begin
          Array.blit a (!x land (words / 2)) b 0 (words / 8);
          kept := []
        end
      done;
      Clock.now_ns () - t0)
