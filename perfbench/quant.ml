(* Order statistics over host-time and virtual-time samples. *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Percentile of an [Obs.Metrics] histogram: the upper bound of the bucket
   holding the nearest rank (the largest sample when that is the overflow
   bucket). *)
let histogram_bucket (h : Obs.Metrics.histogram) p =
  let n = h.Obs.Metrics.n in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    let bounds = h.Obs.Metrics.bounds in
    let nb = Array.length bounds in
    let rec go i below =
      let below = below + h.Obs.Metrics.buckets.(i) in
      if i = nb then h.Obs.Metrics.max
      else if below >= rank then bounds.(i)
      else go (i + 1) below
    in
    go 0 0

(* Growable float buffer for latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let bigger = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 bigger 0 b.n;
      b.a <- bigger
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let s = Array.sub b.a 0 b.n in
    Array.sort Float.compare s;
    s
end
