(* MiniC lexer. *)

type token =
  | Tident of string
  | Tint of int64
  | Tfloat of float
  | Tstring of string
  | Tchar of char
  | Tkw of string (* keyword *)
  | Tpunct of string (* operator / punctuation, longest-match *)
  | Teof

exception Error of string * int

let keywords =
  [
    "void"; "char"; "short"; "int"; "long"; "unsigned"; "signed"; "float";
    "double"; "struct"; "typedef"; "enum"; "if"; "else"; "while"; "do";
    "for"; "return"; "break"; "continue"; "switch"; "case"; "default";
    "sizeof"; "const"; "static"; "extern";
  ]

(* the keyword tokens by first character, made once *)
let keyword_tokens =
  let t = Array.make 256 [] in
  List.iter
    (fun k -> t.(Char.code k.[0]) <- (k, Tkw k) :: t.(Char.code k.[0]))
    keywords;
  t

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable peeked : token; (* meaningful when [has_peeked] *)
  mutable has_peeked : bool;
}

let create src = { src; pos = 0; line = 1; peeked = Teof; has_peeked = false }
let fail lx msg = raise (Error (msg, lx.line))

(* where the lexer stands, to come back to with [restore] *)
type mark = { mpos : int; mline : int; mpeeked : token; mhas_peeked : bool }

let save lx =
  {
    mpos = lx.pos;
    mline = lx.line;
    mpeeked = lx.peeked;
    mhas_peeked = lx.has_peeked;
  }

let restore lx m =
  lx.pos <- m.mpos;
  lx.line <- m.mline;
  lx.peeked <- m.mpeeked;
  lx.has_peeked <- m.mhas_peeked

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let rec skip_ws lx =
  if lx.pos >= String.length lx.src then ()
  else
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        skip_ws lx
    | '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/' ->
        while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_ws lx
    | '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '*' ->
        lx.pos <- lx.pos + 2;
        let rec go () =
          if lx.pos + 1 >= String.length lx.src then fail lx "unterminated comment"
          else if lx.src.[lx.pos] = '*' && lx.src.[lx.pos + 1] = '/' then
            lx.pos <- lx.pos + 2
          else begin
            if lx.src.[lx.pos] = '\n' then lx.line <- lx.line + 1;
            lx.pos <- lx.pos + 1;
            go ()
          end
        in
        go ();
        skip_ws lx
    | '#' ->
        (* preprocessor lines are ignored (workloads do not need cpp) *)
        while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_ws lx
    | _ -> ()

let escape_char lx c =
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> fail lx (Printf.sprintf "bad escape \\%c" c)

let read_number lx =
  let start = lx.pos in
  let is_hex =
    lx.pos + 1 < String.length lx.src
    && lx.src.[lx.pos] = '0'
    && (lx.src.[lx.pos + 1] = 'x' || lx.src.[lx.pos + 1] = 'X')
  in
  if is_hex then begin
    lx.pos <- lx.pos + 2;
    while
      lx.pos < String.length lx.src
      &&
      match lx.src.[lx.pos] with
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    do
      lx.pos <- lx.pos + 1
    done;
    let text = String.sub lx.src start (lx.pos - start) in
    (* swallow integer suffixes *)
    while
      lx.pos < String.length lx.src
      && (match lx.src.[lx.pos] with 'u' | 'U' | 'l' | 'L' -> true | _ -> false)
    do
      lx.pos <- lx.pos + 1
    done;
    match Int64.of_string_opt text with
    | Some v -> Tint v
    | None -> fail lx ("bad hex literal " ^ text)
  end
  else begin
    let saw_dot = ref false and saw_exp = ref false in
    let rec go () =
      if lx.pos >= String.length lx.src then ()
      else
        match lx.src.[lx.pos] with
        | '0' .. '9' ->
            lx.pos <- lx.pos + 1;
            go ()
        | '.' when not !saw_dot ->
            saw_dot := true;
            lx.pos <- lx.pos + 1;
            go ()
        | ('e' | 'E') when not !saw_exp ->
            saw_exp := true;
            lx.pos <- lx.pos + 1;
            if
              lx.pos < String.length lx.src
              && (lx.src.[lx.pos] = '+' || lx.src.[lx.pos] = '-')
            then lx.pos <- lx.pos + 1;
            go ()
        | _ -> ()
    in
    go ();
    let text = String.sub lx.src start (lx.pos - start) in
    (* suffixes *)
    while
      lx.pos < String.length lx.src
      &&
      match lx.src.[lx.pos] with
      | 'u' | 'U' | 'l' | 'L' | 'f' | 'F' -> true
      | _ -> false
    do
      lx.pos <- lx.pos + 1
    done;
    if !saw_dot || !saw_exp then
      match float_of_string_opt text with
      | Some f -> Tfloat f
      | None -> fail lx ("bad float literal " ^ text)
    else
      match Int64.of_string_opt text with
      | Some v -> Tint v
      | None -> fail lx ("bad integer literal " ^ text)
  end

(* whether [src] holds [k] at [start], [len] bytes long *)
let matches src start len k =
  String.length k = len
  &&
  let rec go j = j = len || (src.[start + j] = k.[j] && go (j + 1)) in
  go 1

let keyword_or_ident src start len =
  let rec find = function
    | [] -> Tident (String.sub src start len)
    | (k, tok) :: rest -> if matches src start len k then tok else find rest
  in
  find keyword_tokens.(Char.code src.[start])

(* the character [k] places past [lx.pos], or NUL past the end *)
let at lx k =
  if lx.pos + k < String.length lx.src then lx.src.[lx.pos + k] else '\000'

(* the operator [p], [n] characters long *)
let tok lx n p =
  lx.pos <- lx.pos + n;
  Tpunct p

(* An operator or punctuation token, longest match first, dispatched on
   its first character [c] at [lx.pos]. *)
let lex_punct lx c =
  match c with
  | '<' -> (
      match at lx 1 with
      | '<' -> if at lx 2 = '=' then tok lx 3 "<<=" else tok lx 2 "<<"
      | '=' -> tok lx 2 "<="
      | _ -> tok lx 1 "<")
  | '>' -> (
      match at lx 1 with
      | '>' -> if at lx 2 = '=' then tok lx 3 ">>=" else tok lx 2 ">>"
      | '=' -> tok lx 2 ">="
      | _ -> tok lx 1 ">")
  | '.' ->
      if at lx 1 = '.' && at lx 2 = '.' then tok lx 3 "..." else tok lx 1 "."
  | '=' -> if at lx 1 = '=' then tok lx 2 "==" else tok lx 1 "="
  | '!' -> if at lx 1 = '=' then tok lx 2 "!=" else tok lx 1 "!"
  | '&' -> (
      match at lx 1 with
      | '&' -> tok lx 2 "&&"
      | '=' -> tok lx 2 "&="
      | _ -> tok lx 1 "&")
  | '|' -> (
      match at lx 1 with
      | '|' -> tok lx 2 "||"
      | '=' -> tok lx 2 "|="
      | _ -> tok lx 1 "|")
  | '+' -> (
      match at lx 1 with
      | '+' -> tok lx 2 "++"
      | '=' -> tok lx 2 "+="
      | _ -> tok lx 1 "+")
  | '-' -> (
      match at lx 1 with
      | '-' -> tok lx 2 "--"
      | '=' -> tok lx 2 "-="
      | '>' -> tok lx 2 "->"
      | _ -> tok lx 1 "-")
  | '*' -> if at lx 1 = '=' then tok lx 2 "*=" else tok lx 1 "*"
  | '/' -> if at lx 1 = '=' then tok lx 2 "/=" else tok lx 1 "/"
  | '%' -> if at lx 1 = '=' then tok lx 2 "%=" else tok lx 1 "%"
  | '^' -> if at lx 1 = '=' then tok lx 2 "^=" else tok lx 1 "^"
  | '~' -> tok lx 1 "~"
  | '(' -> tok lx 1 "("
  | ')' -> tok lx 1 ")"
  | '{' -> tok lx 1 "{"
  | '}' -> tok lx 1 "}"
  | '[' -> tok lx 1 "["
  | ']' -> tok lx 1 "]"
  | ';' -> tok lx 1 ";"
  | ',' -> tok lx 1 ","
  | '?' -> tok lx 1 "?"
  | ':' -> tok lx 1 ":"
  | c -> fail lx (Printf.sprintf "unexpected character %C" c)

let lex_token lx =
  skip_ws lx;
  if lx.pos >= String.length lx.src then Teof
  else
    let c = lx.src.[lx.pos] in
    if is_ident_start c then begin
      let start = lx.pos in
      while lx.pos < String.length lx.src && is_ident_char lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      keyword_or_ident lx.src start (lx.pos - start)
    end
    else if c >= '0' && c <= '9' then read_number lx
    else if c = '"' then begin
      lx.pos <- lx.pos + 1;
      let buf = Buffer.create 16 in
      let rec go () =
        if lx.pos >= String.length lx.src then fail lx "unterminated string"
        else
          match lx.src.[lx.pos] with
          | '"' -> lx.pos <- lx.pos + 1
          | '\\' ->
              if lx.pos + 1 >= String.length lx.src then fail lx "bad escape";
              Buffer.add_char buf (escape_char lx lx.src.[lx.pos + 1]);
              lx.pos <- lx.pos + 2;
              go ()
          | c ->
              Buffer.add_char buf c;
              lx.pos <- lx.pos + 1;
              go ()
      in
      go ();
      Tstring (Buffer.contents buf)
    end
    else if c = '\'' then begin
      let n = String.length lx.src in
      lx.pos <- lx.pos + 1;
      if lx.pos >= n then fail lx "unterminated char literal";
      let ch =
        if lx.src.[lx.pos] = '\\' then begin
          if lx.pos + 1 >= n then fail lx "unterminated char literal";
          let e = escape_char lx lx.src.[lx.pos + 1] in
          lx.pos <- lx.pos + 2;
          e
        end
        else begin
          let ch = lx.src.[lx.pos] in
          lx.pos <- lx.pos + 1;
          ch
        end
      in
      if lx.pos >= n || lx.src.[lx.pos] <> '\'' then
        fail lx "unterminated char literal";
      lx.pos <- lx.pos + 1;
      Tchar ch
    end
    else lex_punct lx c

let peek lx =
  if lx.has_peeked then lx.peeked
  else begin
    let t = lex_token lx in
    lx.peeked <- t;
    lx.has_peeked <- true;
    t
  end

let next lx =
  if lx.has_peeked then begin
    lx.has_peeked <- false;
    lx.peeked
  end
  else lex_token lx

let line lx = lx.line
