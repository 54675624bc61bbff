(* Host-time spans recorded from the benchmark's own code around its calls
   into each layer. A span has a name, a start, an end and a parent; spans
   stay in memory and are summarised when the run ends. A disabled tracer
   records nothing. *)

type span = { name : string; parent : int; t0 : int; mutable t1 : int }

type t = {
  on : bool;
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list; (* open spans, innermost first *)
}

let dummy = { name = ""; parent = -1; t0 = 0; t1 = 0 }
let create ~on = { on; spans = Array.make 1024 dummy; n = 0; stack = [] }

let enter t name =
  if not t.on then -1
  else begin
    if t.n = Array.length t.spans then begin
      let bigger = Array.make (2 * t.n) dummy in
      Array.blit t.spans 0 bigger 0 t.n;
      t.spans <- bigger
    end;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = t.n in
    t.spans.(id) <- { name; parent; t0 = Clock.now_ns (); t1 = -1 };
    t.n <- id + 1;
    t.stack <- id :: t.stack;
    id
  end

let leave t id =
  if id >= 0 then begin
    t.spans.(id).t1 <- Clock.now_ns ();
    t.stack <- List.filter (fun s -> s <> id) t.stack
  end

let with_span t name f =
  let id = enter t name in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

type agg = { count : int; total_ns : int; self_ns : int }

(* Per-name count, total and self time. Self time is a span's duration
   minus the durations of its children. *)
let summary t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 && s.t1 >= 0 then
      child.(s.parent) <- child.(s.parent) + (s.t1 - s.t0)
  done;
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.t1 >= 0 then begin
      let d = s.t1 - s.t0 in
      let a =
        match Hashtbl.find_opt tbl s.name with
        | Some a -> a
        | None ->
            order := s.name :: !order;
            { count = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace tbl s.name
        {
          count = a.count + 1;
          total_ns = a.total_ns + d;
          self_ns = a.self_ns + d - child.(i);
        }
    end
  done;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* Sum summaries of several runs, keeping first-seen order. *)
let merge summaries =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (name, a) ->
          match List.assoc_opt name acc with
          | None -> acc @ [ (name, a) ]
          | Some b ->
              List.map
                (fun (n, x) ->
                  if n = name then
                    ( n,
                      {
                        count = a.count + b.count;
                        total_ns = a.total_ns + b.total_ns;
                        self_ns = a.self_ns + b.self_ns;
                      } )
                  else (n, x))
                acc)
        acc s)
    [] summaries
