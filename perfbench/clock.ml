(* Host time: a monotonic nanosecond clock read without allocation. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* Cost of one clock read, taken as the median of many back-to-back pairs;
   sampled per-call timings subtract it. *)
let overhead_ns =
  lazy
    (let n = 2001 in
     let d =
       Array.init n (fun _ ->
           let a = now_ns () in
           let b = now_ns () in
           b - a)
     in
     Array.sort compare d;
     d.(n / 2))
