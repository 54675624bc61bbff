(* Allocation-free subscriber list: parallel id/function arrays with an
   explicit count. Used by Memsys (memory events) and Simsched.Trace
   (scheduler-level access events). *)

type 'e t = {
  mutable ids : int array;
  mutable fns : ('e -> unit) array;
  mutable n : int;
  mutable next : int;
}

let create ~first_id = { ids = [||]; fns = [||]; n = 0; next = first_id }
let[@inline] active t = t.n > 0
let count t = t.n
let no_fn _ = ()

let emit t ev =
  let fns = t.fns in
  for i = 0 to t.n - 1 do
    (Array.unsafe_get fns i) ev
  done

let subscribe t f =
  let id = t.next in
  t.next <- id + 1;
  let n = t.n in
  if n = Array.length t.ids then begin
    let cap = max 4 (2 * n) in
    let ids = Array.make cap (-1) and fns = Array.make cap no_fn in
    Array.blit t.ids 0 ids 0 n;
    Array.blit t.fns 0 fns 0 n;
    t.ids <- ids;
    t.fns <- fns
  end;
  t.ids.(n) <- id;
  t.fns.(n) <- f;
  t.n <- n + 1;
  id

(* In-place left shift: no list round-trip, no allocation. The vacated slot
   gets a no-op function so the subscriber can be collected (and so an emit
   that captured the array mid-removal calls a harmless stub rather than a
   stale closure). *)
let unsubscribe t id =
  let n = t.n in
  let found = ref (-1) in
  for i = 0 to n - 1 do
    if !found < 0 && t.ids.(i) = id then found := i
  done;
  match !found with
  | -1 -> ()
  | at ->
      for i = at to n - 2 do
        t.ids.(i) <- t.ids.(i + 1);
        t.fns.(i) <- t.fns.(i + 1)
      done;
      t.ids.(n - 1) <- -1;
      t.fns.(n - 1) <- no_fn;
      t.n <- n - 1

let clear t =
  for i = 0 to t.n - 1 do
    t.ids.(i) <- -1;
    t.fns.(i) <- no_fn
  done;
  t.n <- 0
