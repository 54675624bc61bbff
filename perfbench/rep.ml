(* One repetition of a workload, as bench.ml aggregates it. *)

type t = {
  setup_s : float;  (** host time before the measured window opens *)
  window_s : float;  (** host time of the measured window *)
  segments : int array;
      (** host ns of consecutive pieces of the window, cut at points of the
          workload's own progress (every [n] map ops, every [n] explored
          worlds), so piece [i] does the same work in every repetition of
          a seed; they sum to [window_s] *)
  units : int;  (** units of work completed in the window *)
  attempted : int;
  failed : int;
  sim : (string * float) list;  (** end-to-end virtual-time results *)
  fingerprint : (string * float) list;
      (** counts and virtual results that must repeat exactly per seed *)
  layer : (string * float) list;  (** per-layer values of this repetition *)
  violations : string list;  (** failed output checks *)
}

(* GC work over a window, from [Gc.quick_stat] deltas. *)
type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

let gc_layer ~units (a : gc_mark) =
  let b = gc_mark () in
  let u = float_of_int (max 1 units) in
  [
    ("gc.minor_words_per_op", (b.minor -. a.minor) /. u);
    ("gc.promoted_words_per_op", (b.promoted -. a.promoted) /. u);
    ("gc.major_collections", float_of_int (b.majors - a.majors));
  ]

(* Host-time marks at progress points of the window, turned into
   [segments]. *)
module Marks = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let mark b =
    if b.n = Array.length b.a then begin
      let bigger = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 bigger 0 b.n;
      b.a <- bigger
    end;
    b.a.(b.n) <- Clock.now_ns ();
    b.n <- b.n + 1

  (* Durations between successive marks. *)
  let segments b = Array.init (max 0 (b.n - 1)) (fun i -> b.a.(i + 1) - b.a.(i))
end

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
