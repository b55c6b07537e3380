(* A minimal JSON printer: the benchmark's result line and its input
   record.  No JSON library is available, so it is written here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest of %.15g/%.16g/%.17g that reads back to the same float, so
   every digit of the measurement survives and nothing more. *)
let float_to_string x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Json: %f is not a JSON number" x);
  let try_prec p = Printf.sprintf "%.*g" p x in
  let s =
    List.fold_left
      (fun acc p ->
        match acc with
        | Some _ -> acc
        | None ->
            let s = try_prec p in
            if float_of_string s = x then Some s else None)
      None [ 15; 16; 17 ]
  in
  match s with Some s -> s | None -> try_prec 17

let escape buf s =
  Buffer.add_char buf '"';
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
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_to_string x)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          escape buf k;
          Buffer.add_string buf ": ";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf
