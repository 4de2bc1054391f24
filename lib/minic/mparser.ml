(* MiniC recursive-descent parser with precedence climbing. Typedef names
   are tracked so the lexer-level ambiguity (type vs identifier) resolves
   the way C compilers do it. *)

open Mast

exception Error of string * int

type st = {
  lx : Mlexer.t;
  typedefs : (string, cty) Hashtbl.t;
  struct_tags : (string, int) Hashtbl.t; (* tag -> line it is first named on *)
}

let fail st msg = raise (Error (msg, Mlexer.line st.lx))

let expect_punct st p =
  match Mlexer.next st.lx with
  | Mlexer.Tpunct p' when p' = p -> ()
  | t ->
      fail st
        (Printf.sprintf "expected '%s'%s" p
           (match t with
           | Mlexer.Tident s -> Printf.sprintf " (got identifier %s)" s
           | Mlexer.Tpunct s -> Printf.sprintf " (got '%s')" s
           | Mlexer.Tkw s -> Printf.sprintf " (got keyword %s)" s
           | _ -> ""))

let expect_ident st what =
  match Mlexer.next st.lx with
  | Mlexer.Tident s -> s
  | _ -> fail st ("expected identifier for " ^ what)

let accept_punct st p =
  match Mlexer.peek st.lx with
  | Mlexer.Tpunct p' when p' = p ->
      ignore (Mlexer.next st.lx);
      true
  | _ -> false

let accept_kw st k =
  match Mlexer.peek st.lx with
  | Mlexer.Tkw k' when k' = k ->
      ignore (Mlexer.next st.lx);
      true
  | _ -> false

(* ---------- types ---------- *)

(* is the upcoming token the start of a type? *)
let starts_type st =
  match Mlexer.peek st.lx with
  | Mlexer.Tkw
      ( "void" | "char" | "short" | "int" | "long" | "unsigned" | "signed"
      | "float" | "double" | "struct" | "const" ) ->
      true
  | Mlexer.Tident name -> Hashtbl.mem st.typedefs name
  | _ -> false

let name_struct st tag =
  if not (Hashtbl.mem st.struct_tags tag) then
    Hashtbl.replace st.struct_tags tag (Mlexer.line st.lx)

let parse_base_type st : cty =
  let _ = accept_kw st "const" in
  match Mlexer.next st.lx with
  | Mlexer.Tkw "void" -> Cvoid
  | Mlexer.Tkw "char" -> Cchar
  | Mlexer.Tkw "float" -> Cfloat
  | Mlexer.Tkw "double" -> Cdouble
  | Mlexer.Tkw "short" ->
      ignore (accept_kw st "int");
      Cshort
  | Mlexer.Tkw "int" -> Cint
  | Mlexer.Tkw "long" ->
      ignore (accept_kw st "long");
      ignore (accept_kw st "int");
      Clong
  | Mlexer.Tkw "signed" ->
      if accept_kw st "char" then Cchar
      else if accept_kw st "short" then Cshort
      else if accept_kw st "long" then Clong
      else begin
        ignore (accept_kw st "int");
        Cint
      end
  | Mlexer.Tkw "unsigned" ->
      if accept_kw st "char" then Cuchar
      else if accept_kw st "short" then Cushort
      else if accept_kw st "long" then begin
        ignore (accept_kw st "long");
        Culong
      end
      else begin
        ignore (accept_kw st "int");
        Cuint
      end
  | Mlexer.Tkw "struct" ->
      let tag = expect_ident st "struct tag" in
      name_struct st tag;
      Cstruct tag
  | Mlexer.Tident name when Hashtbl.mem st.typedefs name ->
      Hashtbl.find st.typedefs name
  | _ -> fail st "expected a type"

let rec parse_pointers st ty =
  if accept_punct st "*" then begin
    ignore (accept_kw st "const");
    parse_pointers st (Cptr ty)
  end
  else ty

(* constant integer expressions for array bounds: literals, enum
   constants, + - * / %, parentheses *)
let rec parse_const_int st : int = parse_const_sum st

and parse_const_sum st =
  let a = ref (parse_const_term st) in
  let rec loop () =
    match Mlexer.peek st.lx with
    | Mlexer.Tpunct "+" ->
        ignore (Mlexer.next st.lx);
        a := !a + parse_const_term st;
        loop ()
    | Mlexer.Tpunct "-" ->
        ignore (Mlexer.next st.lx);
        a := !a - parse_const_term st;
        loop ()
    | _ -> ()
  in
  loop ();
  !a

and parse_const_term st =
  let a = ref (parse_const_atom st) in
  let rec loop () =
    match Mlexer.peek st.lx with
    | Mlexer.Tpunct "*" ->
        ignore (Mlexer.next st.lx);
        a := !a * parse_const_atom st;
        loop ()
    | Mlexer.Tpunct "/" ->
        ignore (Mlexer.next st.lx);
        a := !a / const_divisor st;
        loop ()
    | Mlexer.Tpunct "%" ->
        ignore (Mlexer.next st.lx);
        a := !a mod const_divisor st;
        loop ()
    | _ -> ()
  in
  loop ();
  !a

and const_divisor st =
  match parse_const_atom st with
  | 0 -> fail st "division by zero in a constant expression"
  | d -> d

and parse_const_atom st =
  match Mlexer.next st.lx with
  | Mlexer.Tint v -> Int64.to_int v
  | Mlexer.Tchar c -> Char.code c
  | Mlexer.Tpunct "-" -> -parse_const_atom st
  | Mlexer.Tpunct "(" ->
      let v = parse_const_int st in
      expect_punct st ")";
      v
  | Mlexer.Tident name -> (
      match Hashtbl.find_opt st.typedefs ("enum$" ^ name) with
      | Some (Carr (v, _)) -> v
      | _ -> fail st ("not a constant: " ^ name))
  | _ -> fail st "expected a constant expression"

(* abstract declarator for casts / sizeof: base, '*'s, optional [N] *)
let parse_abstract_type st : cty =
  let base = parse_base_type st in
  let ty = parse_pointers st base in
  let rec arrays ty =
    if accept_punct st "[" then begin
      let n = parse_const_int st in
      expect_punct st "]";
      Carr (n, arrays ty)
    end
    else ty
  in
  arrays ty

(* A declarator after the base type: pointers, a plain name or a function
   pointer "( * name )(params)", then array suffixes. Returns (type, name). *)
let rec parse_declarator st base : cty * string =
  let ty = parse_pointers st base in
  if accept_punct st "(" then begin
    (* function pointer: ( * name ) ( params ), possibly an array of
       function pointers: ( * name [N] ) ( params ) *)
    expect_punct st "*";
    let inner = parse_pointers st Cvoid in
    (* [inner] counts extra '*'s wrapping the function pointer *)
    let name = expect_ident st "function pointer name" in
    let arr_len =
      if accept_punct st "[" then begin
        let n = parse_const_int st in
        expect_punct st "]";
        Some n
      end
      else None
    in
    expect_punct st ")";
    expect_punct st "(";
    let params = parse_param_types st in
    let fty = Cptr (Cfunc (ty, params)) in
    let rec rewrap inner fty =
      match inner with Cptr t -> rewrap t (Cptr fty) | _ -> fty
    in
    let fty = rewrap inner fty in
    ((match arr_len with Some n -> Carr (n, fty) | None -> fty), name)
  end
  else begin
    let name = expect_ident st "declarator" in
    let rec arrays () =
      if accept_punct st "[" then begin
        let n = parse_const_int st in
        expect_punct st "]";
        let elem = arrays () in
        Carr (n, elem)
      end
      else ty
    in
    (arrays (), name)
  end

and parse_param_types st : cty list =
  if accept_punct st ")" then []
  else if
    (* "(void)" exactly; "void *" etc. falls through to normal parsing *)
    match Mlexer.peek st.lx with
    | Mlexer.Tkw "void" ->
        let mark = Mlexer.save st.lx in
        ignore (Mlexer.next st.lx);
        if Mlexer.peek st.lx = Mlexer.Tpunct ")" then begin
          ignore (Mlexer.next st.lx);
          true
        end
        else begin
          Mlexer.restore st.lx mark;
          false
        end
    | _ -> false
  then []
  else
    let rec go acc =
      let base = parse_base_type st in
      let ty = parse_pointers st base in
      (* optional parameter name and array suffix *)
      let ty =
        match Mlexer.peek st.lx with
        | Mlexer.Tident _ ->
            let _, _ = ((), expect_ident st "param") in
            if accept_punct st "[" then begin
              (match Mlexer.peek st.lx with
              | Mlexer.Tint _ -> ignore (Mlexer.next st.lx)
              | _ -> ());
              expect_punct st "]";
              Cptr ty
            end
            else ty
        | _ -> ty
      in
      if accept_punct st "," then go (ty :: acc)
      else begin
        expect_punct st ")";
        List.rev (ty :: acc)
      end
    in
    go []

(* ---------- expressions ---------- *)

let mk st desc = { desc; eline = Mlexer.line st.lx }

let rec parse_expr st : expr = parse_assign st

and parse_assign st : expr =
  let lhs = parse_cond st in
  match Mlexer.peek st.lx with
  | Mlexer.Tpunct "=" ->
      ignore (Mlexer.next st.lx);
      mk st (Eassign (lhs, parse_assign st))
  | Mlexer.Tpunct
      (("+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=")
       as p) ->
      ignore (Mlexer.next st.lx);
      let op =
        match p with
        | "+=" -> Badd
        | "-=" -> Bsub
        | "*=" -> Bmul
        | "/=" -> Bdiv
        | "%=" -> Bmod
        | "&=" -> Band
        | "|=" -> Bor
        | "^=" -> Bxor
        | "<<=" -> Bshl
        | _ -> Bshr
      in
      mk st (Eopassign (op, lhs, parse_assign st))
  | _ -> lhs

and parse_cond st : expr =
  let c = parse_binary st 0 in
  if accept_punct st "?" then begin
    let t = parse_expr st in
    expect_punct st ":";
    let e = parse_cond st in
    mk st (Econd (c, t, e))
  end
  else c

(* the precedence level of a binary operator token, lowest first; -1
   for a token that is none *)
and binop_level = function
  | Mlexer.Tpunct p -> (
      match p with
      | "||" -> 0
      | "&&" -> 1
      | "|" -> 2
      | "^" -> 3
      | "&" -> 4
      | "==" | "!=" -> 5
      | "<" | ">" | "<=" | ">=" -> 6
      | "<<" | ">>" -> 7
      | "+" | "-" -> 8
      | "*" | "/" | "%" -> 9
      | _ -> -1)
  | _ -> -1

and binop_of = function
  | "||" -> Blor
  | "&&" -> Bland
  | "|" -> Bor
  | "^" -> Bxor
  | "&" -> Band
  | "==" -> Beq
  | "!=" -> Bne
  | "<" -> Blt
  | ">" -> Bgt
  | "<=" -> Ble
  | ">=" -> Bge
  | "<<" -> Bshl
  | ">>" -> Bshr
  | "+" -> Badd
  | "-" -> Bsub
  | "*" -> Bmul
  | "/" -> Bdiv
  | _ -> Bmod

(* Precedence climbing: the operators of level [level] and above, each
   level left-associative. *)
and parse_binary st level : expr = climb st level (parse_unary st)

and climb st level lhs =
  let tok = Mlexer.peek st.lx in
  let l = binop_level tok in
  if l < level then lhs
  else begin
    ignore (Mlexer.next st.lx);
    let op =
      match tok with Mlexer.Tpunct p -> binop_of p | _ -> assert false
    in
    (* the right operand takes the operators that bind tighter *)
    let rhs = climb st (l + 1) (parse_unary st) in
    climb st level (mk st (Ebin (op, lhs, rhs)))
  end

and parse_unary st : expr =
  match Mlexer.peek st.lx with
  | Mlexer.Tpunct "-" ->
      ignore (Mlexer.next st.lx);
      mk st (Eun (Uneg, parse_unary st))
  | Mlexer.Tpunct "!" ->
      ignore (Mlexer.next st.lx);
      mk st (Eun (Unot, parse_unary st))
  | Mlexer.Tpunct "~" ->
      ignore (Mlexer.next st.lx);
      mk st (Eun (Ubnot, parse_unary st))
  | Mlexer.Tpunct "*" ->
      ignore (Mlexer.next st.lx);
      mk st (Ederef (parse_unary st))
  | Mlexer.Tpunct "&" ->
      ignore (Mlexer.next st.lx);
      mk st (Eaddr (parse_unary st))
  | Mlexer.Tpunct "++" ->
      ignore (Mlexer.next st.lx);
      mk st (Epreincr (1, parse_unary st))
  | Mlexer.Tpunct "--" ->
      ignore (Mlexer.next st.lx);
      mk st (Epreincr (-1, parse_unary st))
  | Mlexer.Tpunct "+" ->
      ignore (Mlexer.next st.lx);
      parse_unary st
  | Mlexer.Tkw "sizeof" ->
      ignore (Mlexer.next st.lx);
      expect_punct st "(";
      let ty =
        if starts_type st then parse_abstract_type st
        else fail st "sizeof of expressions not supported; use a type"
      in
      expect_punct st ")";
      mk st (Esizeof ty)
  | Mlexer.Tpunct "(" when is_cast st -> begin
      ignore (Mlexer.next st.lx);
      let ty = parse_abstract_type st in
      expect_punct st ")";
      mk st (Ecast (ty, parse_unary st))
    end
  | _ -> parse_postfix st

(* lookahead: '(' followed by a type starter means a cast *)
and is_cast st =
  (* cheap lookahead: save lexer position *)
  let mark = Mlexer.save st.lx in
  ignore (Mlexer.next st.lx);
  (* consume '(' *)
  let result = starts_type st in
  Mlexer.restore st.lx mark;
  result

and parse_postfix st : expr =
  let e = ref (parse_primary st) in
  let rec loop () =
    match Mlexer.peek st.lx with
    | Mlexer.Tpunct "[" ->
        ignore (Mlexer.next st.lx);
        let idx = parse_expr st in
        expect_punct st "]";
        e := mk st (Eindex (!e, idx));
        loop ()
    | Mlexer.Tpunct "(" ->
        ignore (Mlexer.next st.lx);
        let args =
          if accept_punct st ")" then []
          else
            let rec go acc =
              let a = parse_assign st in
              if accept_punct st "," then go (a :: acc)
              else begin
                expect_punct st ")";
                List.rev (a :: acc)
              end
            in
            go []
        in
        e := mk st (Ecall (!e, args));
        loop ()
    | Mlexer.Tpunct "." ->
        ignore (Mlexer.next st.lx);
        e := mk st (Efield (!e, expect_ident st "field"));
        loop ()
    | Mlexer.Tpunct "->" ->
        ignore (Mlexer.next st.lx);
        e := mk st (Earrow (!e, expect_ident st "field"));
        loop ()
    | Mlexer.Tpunct "++" ->
        ignore (Mlexer.next st.lx);
        e := mk st (Epostincr (1, !e));
        loop ()
    | Mlexer.Tpunct "--" ->
        ignore (Mlexer.next st.lx);
        e := mk st (Epostincr (-1, !e));
        loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st : expr =
  match Mlexer.next st.lx with
  | Mlexer.Tint v -> mk st (Eint v)
  | Mlexer.Tfloat f -> mk st (Efloat f)
  | Mlexer.Tstring s ->
      (* adjacent string literals concatenate *)
      let rec more acc =
        match Mlexer.peek st.lx with
        | Mlexer.Tstring s2 ->
            ignore (Mlexer.next st.lx);
            more (acc ^ s2)
        | _ -> acc
      in
      mk st (Estr (more s))
  | Mlexer.Tchar c -> mk st (Echar c)
  | Mlexer.Tident name -> mk st (Eident name)
  | Mlexer.Tpunct "(" ->
      let e = parse_expr st in
      expect_punct st ")";
      e
  | Mlexer.Tkw k -> fail st ("unexpected keyword " ^ k)
  | Mlexer.Tpunct p -> fail st ("unexpected '" ^ p ^ "'")
  | Mlexer.Teof -> fail st "unexpected end of file"

(* ---------- statements ---------- *)

let mks st sdesc = { sdesc; sline = Mlexer.line st.lx }

let rec parse_stmt st : stmt =
  match Mlexer.peek st.lx with
  | Mlexer.Tpunct "{" ->
      ignore (Mlexer.next st.lx);
      let rec go acc =
        if accept_punct st "}" then List.rev acc
        else go (parse_stmt st :: acc)
      in
      mks st (Sblock (go []))
  | Mlexer.Tpunct ";" ->
      ignore (Mlexer.next st.lx);
      mks st (Sblock [])
  | Mlexer.Tkw "if" ->
      ignore (Mlexer.next st.lx);
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let then_s = parse_stmt st in
      let else_s = if accept_kw st "else" then Some (parse_stmt st) else None in
      mks st (Sif (c, then_s, else_s))
  | Mlexer.Tkw "while" ->
      ignore (Mlexer.next st.lx);
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      mks st (Swhile (c, parse_stmt st))
  | Mlexer.Tkw "do" ->
      ignore (Mlexer.next st.lx);
      let body = parse_stmt st in
      if not (accept_kw st "while") then fail st "expected while after do";
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      expect_punct st ";";
      mks st (Sdo (body, c))
  | Mlexer.Tkw "for" ->
      ignore (Mlexer.next st.lx);
      expect_punct st "(";
      let init =
        if accept_punct st ";" then None
        else begin
          let s =
            if starts_type st then parse_decl_stmt st
            else
              let e = parse_expr st in
              expect_punct st ";";
              mks st (Sexpr e)
          in
          Some s
        end
      in
      let cond =
        if accept_punct st ";" then None
        else begin
          let e = parse_expr st in
          expect_punct st ";";
          Some e
        end
      in
      let step =
        if accept_punct st ")" then None
        else begin
          let e = parse_expr st in
          expect_punct st ")";
          Some e
        end
      in
      mks st (Sfor (init, cond, step, parse_stmt st))
  | Mlexer.Tkw "return" ->
      ignore (Mlexer.next st.lx);
      if accept_punct st ";" then mks st (Sreturn None)
      else begin
        let e = parse_expr st in
        expect_punct st ";";
        mks st (Sreturn (Some e))
      end
  | Mlexer.Tkw "break" ->
      ignore (Mlexer.next st.lx);
      expect_punct st ";";
      mks st Sbreak
  | Mlexer.Tkw "continue" ->
      ignore (Mlexer.next st.lx);
      expect_punct st ";";
      mks st Scontinue
  | Mlexer.Tkw "switch" ->
      ignore (Mlexer.next st.lx);
      expect_punct st "(";
      let sel = parse_expr st in
      expect_punct st ")";
      expect_punct st "{";
      let rec cases acc =
        if accept_punct st "}" then List.rev acc
        else if accept_kw st "case" then begin
          let v =
            match Mlexer.next st.lx with
            | Mlexer.Tint v -> v
            | Mlexer.Tchar c -> Int64.of_int (Char.code c)
            | Mlexer.Tpunct "-" -> (
                match Mlexer.next st.lx with
                | Mlexer.Tint v -> Int64.neg v
                | _ -> fail st "expected case constant")
            | Mlexer.Tident name -> (
                (* enum constant: resolved by codegen; encode via marker *)
                match Hashtbl.find_opt st.typedefs ("enum$" ^ name) with
                | Some (Carr (v, _)) -> Int64.of_int v
                | _ -> fail st ("unknown case constant " ^ name))
            | _ -> fail st "expected case constant"
          in
          expect_punct st ":";
          let body = case_body [] in
          cases ((Some v, body) :: acc)
        end
        else if accept_kw st "default" then begin
          expect_punct st ":";
          let body = case_body [] in
          cases ((None, body) :: acc)
        end
        else fail st "expected case or default"
      and case_body acc =
        match Mlexer.peek st.lx with
        | Mlexer.Tkw "case" | Mlexer.Tkw "default" | Mlexer.Tpunct "}" ->
            List.rev acc
        | _ -> case_body (parse_stmt st :: acc)
      in
      mks st (Sswitch (sel, cases []))
  | _ when starts_type st -> parse_decl_stmt st
  | _ ->
      let e = parse_expr st in
      expect_punct st ";";
      mks st (Sexpr e)

(* local declaration: type declarator [= init] (, declarator [= init])* ; *)
and parse_decl_stmt st : stmt =
  let base = parse_base_type st in
  let rec go acc =
    let ty, name = parse_declarator st base in
    let init = if accept_punct st "=" then Some (parse_assign st) else None in
    let acc = mks st (Sdecl (ty, name, init)) :: acc in
    if accept_punct st "," then go acc
    else begin
      expect_punct st ";";
      match acc with [ s ] -> s | _ -> mks st (Sseq (List.rev acc))
    end
  in
  go []

(* ---------- top level ---------- *)

let rec parse_init st : init =
  if accept_punct st "{" then begin
    let rec go acc =
      if accept_punct st "}" then List.rev acc
      else begin
        let i = parse_init st in
        if accept_punct st "," then go (i :: acc)
        else begin
          expect_punct st "}";
          List.rev (i :: acc)
        end
      end
    in
    Ilist (go [])
  end
  else Iexpr (parse_assign st)

let struct_bodies : (string * (cty * string) list) list ref = ref []

(* save/restore lookahead *)
let lookahead st f =
  let mark = Mlexer.save st.lx in
  let r = f () in
  Mlexer.restore st.lx mark;
  r

(* does "( void )" follow? *)
let void_paren_next st =
  lookahead st (fun () ->
      match Mlexer.next st.lx with
      | Mlexer.Tkw "void" -> Mlexer.peek st.lx = Mlexer.Tpunct ")"
      | _ -> false)

let rec parse_program src : program =
  let st =
    {
      lx = Mlexer.create src;
      typedefs = Hashtbl.create 16;
      struct_tags = Hashtbl.create 16;
    }
  in
  let decls = ref [] in
  let rec top () =
    match Mlexer.peek st.lx with
    | Mlexer.Teof -> ()
    | Mlexer.Tkw "typedef" ->
        ignore (Mlexer.next st.lx);
        let base = parse_base_type st in
        (* struct body allowed: typedef struct Tag { ... } Name; *)
        let base =
          if Mlexer.peek st.lx = Mlexer.Tpunct "{" then begin
            (match base with
            | Cstruct tag -> parse_struct_body st tag
            | _ -> fail st "typedef { ... } requires struct");
            base
          end
          else base
        in
        let ty, name = parse_declarator_no_array_init st base in
        Hashtbl.replace st.typedefs name ty;
        expect_punct st ";";
        top ()
    | Mlexer.Tkw "enum" ->
        ignore (Mlexer.next st.lx);
        (match Mlexer.peek st.lx with
        | Mlexer.Tident _ -> ignore (Mlexer.next st.lx)
        | _ -> ());
        expect_punct st "{";
        let counter = ref 0L in
        let rec go acc =
          let name = expect_ident st "enum constant" in
          let v =
            if accept_punct st "=" then begin
              match Mlexer.next st.lx with
              | Mlexer.Tint v ->
                  counter := v;
                  v
              | Mlexer.Tpunct "-" -> (
                  match Mlexer.next st.lx with
                  | Mlexer.Tint v ->
                      counter := Int64.neg v;
                      Int64.neg v
                  | _ -> fail st "expected enum value")
              | _ -> fail st "expected enum value"
            end
            else !counter
          in
          counter := Int64.add v 1L;
          (* record for switch-case lookup *)
          Hashtbl.replace st.typedefs ("enum$" ^ name)
            (Carr (Int64.to_int v, Cint));
          let acc = (name, v) :: acc in
          if accept_punct st "," then
            if Mlexer.peek st.lx = Mlexer.Tpunct "}" then List.rev acc
            else go acc
          else List.rev acc
        in
        let consts = go [] in
        expect_punct st "}";
        expect_punct st ";";
        decls := Denum consts :: !decls;
        top ()
    | Mlexer.Tkw "struct" when is_struct_def st ->
        ignore (Mlexer.next st.lx);
        let tag = expect_ident st "struct tag" in
        name_struct st tag;
        parse_struct_body st tag;
        expect_punct st ";";
        top ()
    | Mlexer.Tkw ("static" | "extern" | "const") ->
        ignore (Mlexer.next st.lx);
        top ()
    | _ ->
        let base = parse_base_type st in
        let ty, name = parse_declarator st base in
        (match Mlexer.peek st.lx with
        | Mlexer.Tpunct "(" -> begin
            (* function definition or declaration *)
            ignore (Mlexer.next st.lx);
            let params =
              if accept_punct st ")" then []
              else if void_paren_next st then begin
                ignore (Mlexer.next st.lx);
                ignore (Mlexer.next st.lx);
                []
              end
              else
                let rec go acc =
                  let pbase = parse_base_type st in
                  let pty, pname = parse_declarator st pbase in
                  (* array parameters decay to pointers *)
                  let pty =
                    match pty with Carr (_, e) -> Cptr e | t -> t
                  in
                  if accept_punct st "," then go ((pty, pname) :: acc)
                  else begin
                    expect_punct st ")";
                    List.rev ((pty, pname) :: acc)
                  end
                in
                go []
            in
            if accept_punct st ";" then
              (* declaration only: empty body list *)
              decls := Dfunc (ty, name, params, []) :: !decls
            else begin
              expect_punct st "{";
              let rec go acc =
                if accept_punct st "}" then List.rev acc
                else go (parse_stmt st :: acc)
              in
              let body =
                match go [] with
                | [] -> [ { sdesc = Sblock []; sline = Mlexer.line st.lx } ]
                | ss -> ss
              in
              decls := Dfunc (ty, name, params, body) :: !decls
            end;
            top ()
          end
        | _ ->
            let rec more ty name =
              let init =
                if accept_punct st "=" then Some (parse_init st) else None
              in
              decls := Dglobal (ty, name, init) :: !decls;
              if accept_punct st "," then begin
                let ty2, name2 = parse_declarator st base in
                more ty2 name2
              end
              else expect_punct st ";"
            in
            more ty name;
            top ())
  in
  top ();
  (* a struct named but never defined would reach code generation as a
     type that does not resolve *)
  (match
     Hashtbl.fold
       (fun tag line acc ->
         if List.mem_assoc tag !struct_bodies then acc else (line, tag) :: acc)
       st.struct_tags []
     |> List.sort compare
   with
  | (line, tag) :: _ -> raise (Error ("unknown struct " ^ tag, line))
  | [] -> ());
  List.rev !decls

and parse_struct_body st tag =
  expect_punct st "{";
  let fields = ref [] in
  let rec go () =
    if accept_punct st "}" then ()
    else begin
      let base = parse_base_type st in
      let rec field_group () =
        let fty, fname = parse_declarator st base in
        fields := (fty, fname) :: !fields;
        if accept_punct st "," then field_group () else expect_punct st ";"
      in
      field_group ();
      go ()
    end
  in
  go ();
  (* record under a synthetic key so codegen can fetch field lists *)
  Hashtbl.replace st.typedefs ("struct$" ^ tag) Cvoid;
  struct_bodies := (tag, List.rev !fields) :: !struct_bodies

(* peek: struct Tag { -> definition; struct Tag ident -> declaration use *)
and is_struct_def st =
  let mark = Mlexer.save st.lx in
  ignore (Mlexer.next st.lx) (* struct *);
  let result =
    match Mlexer.next st.lx with
    | Mlexer.Tident _ -> Mlexer.peek st.lx = Mlexer.Tpunct "{"
    | _ -> false
  in
  Mlexer.restore st.lx mark;
  result

(* typedef declarator cannot have an initializer *)
and parse_declarator_no_array_init st base = parse_declarator st base

(* entry point that also returns the struct bodies encountered *)
let parse src =
  struct_bodies := [];
  let prog = parse_program src in
  let structs = List.map (fun (t, fs) -> Dstruct (t, fs)) !struct_bodies in
  structs @ prog
