(* Minimal JSON document type with a deterministic printer.

   Hand-rolled on purpose: the container has no JSON library baked in and
   determinism of the output bytes is a test requirement (two same-seed
   runs must serialise to identical files). Objects are association lists,
   so field order is exactly construction order — never Hashtbl iteration
   order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Floats print with enough digits to round-trip but without the noise of
   %.17g; NaN/inf are not valid JSON so they degrade to null. *)
let float_repr f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | _ when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | _ -> Printf.sprintf "%.12g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

(* Indented variant for files meant to be read by humans and diffed. *)
let rec write_indent buf level = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      let pad = String.make ((level + 1) * 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          write_indent buf (level + 1) x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (level * 2) ' ');
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      let pad = String.make ((level + 1) * 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          write_indent buf (level + 1) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (level * 2) ' ');
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  write_indent buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string_pretty v))
