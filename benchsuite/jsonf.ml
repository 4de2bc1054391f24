(* JSON with floating-point numbers, for BENCHMARK.json and the result
   files. [Check.Json] carries integers only, which is enough for the
   trace but not for bounds and timings. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

(* The shortest decimal that reads back as the same float. *)
let number x =
  let exact p = float_of_string (Printf.sprintf "%.*g" p x) = x in
  Printf.sprintf "%.*g" (if exact 15 then 15 else if exact 16 then 16 else 17) x

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num x ->
      if Float.is_finite x then Buffer.add_string b (number x)
      else Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      Check.Json.escape_to b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun k v ->
          if k > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_string b ", ";
          to_buffer b (Str key);
          Buffer.add_string b ": ";
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

let parse (s : string) : t =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < len && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      skip_ws ())
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then (
      pos := !pos + n;
      v)
    else fail ("expected " ^ word)
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= len then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | _ -> fail "unsupported escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while !pos < len && String.contains "+-0123456789.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x when !pos > start -> Num x
    | _ -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (str ())
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (
          incr pos;
          List [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = str () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '-' | '0' .. '9' -> num ()
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing characters";
  v

let member k = function
  | Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> raise (Error ("missing field " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_num = function Num x -> x | _ -> raise (Error "expected a number")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function List l -> l | _ -> raise (Error "expected an array")
