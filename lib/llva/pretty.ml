(* Textual LLVA assembly printer, following the paper's Fig. 2 syntax
   (LLVM 1.x style). The output round-trips through [Parser]/[Resolve].

   Within a function every value and block receives a unique printed name;
   unnamed or colliding names are renumbered. An instruction whose
   ExceptionsEnabled attribute differs from its opcode default carries an
   explicit "@ee(bool)" suffix. *)

open Ir

type namer = {
  mutable taken : (string, unit) Hashtbl.t;
  instr_names : (int, string) Hashtbl.t;
  block_names : (int, string) Hashtbl.t;
  arg_names : (int, string) Hashtbl.t;
}

let mk_namer () =
  {
    taken = Hashtbl.create 64;
    instr_names = Hashtbl.create 64;
    block_names = Hashtbl.create 64;
    arg_names = Hashtbl.create 16;
  }

let sanitize name =
  if name = "" then ""
  else
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
        | _ -> '_')
      name

let unique namer base =
  let base = sanitize base in
  let base = if base = "" then "v" else base in
  if not (Hashtbl.mem namer.taken base) then begin
    Hashtbl.replace namer.taken base ();
    base
  end
  else
    let rec go k =
      let cand = Printf.sprintf "%s.%d" base k in
      if Hashtbl.mem namer.taken cand then go (k + 1)
      else begin
        Hashtbl.replace namer.taken cand ();
        cand
      end
    in
    go 1

let name_function namer f =
  List.iter
    (fun a -> Hashtbl.replace namer.arg_names a.aid (unique namer a.aname))
    f.fargs;
  List.iter
    (fun b ->
      Hashtbl.replace namer.block_names b.blid
        (unique namer (if b.bname = "" then "bb" else b.bname));
      List.iter
        (fun i ->
          if not (Types.equal i.ity Types.Void) then
            Hashtbl.replace namer.instr_names i.iid (unique namer i.iname))
        b.instrs)
    f.fblocks

(* ---------- constants ---------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      let code = Char.code c in
      if code >= 32 && code < 127 && c <> '"' && c <> '\\' then
        Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "\\%02X" code))
    s;
  Buffer.contents buf

let float_repr v =
  (* a representation that parses back to the same float *)
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%h" v

let rec const_body c =
  match c.ckind with
  | Cbool b -> string_of_bool b
  | Cint v ->
      if Types.is_signed c.cty then Int64.to_string v
      else Printf.sprintf "%Lu" v
  | Cfloat v -> float_repr v
  | Cnull -> "null"
  | Czero -> "zeroinitializer"
  | Carray elems ->
      "[ " ^ String.concat ", " (List.map typed_const elems) ^ " ]"
  | Cstruct elems ->
      "{ " ^ String.concat ", " (List.map typed_const elems) ^ " }"
  | Cstring s -> Printf.sprintf "c\"%s\\00\"" (escape_string s)
  | Cglobal_ref name -> "%" ^ name

and typed_const c = Types.to_string c.cty ^ " " ^ const_body c

(* Whether two constants print alike ([typed_const a = typed_const b]),
   decided without printing; types and strings print injectively. Floats
   compare as [float_repr] prints them: bit for bit, except that a NaN
   prints as "nan" or "-nan" by its sign alone. *)
let same_float x y =
  if Float.is_nan x then Float.is_nan y && Float.sign_bit x = Float.sign_bit y
  else Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec same_const a b =
  Types.equal a.cty b.cty
  &&
  match (a.ckind, b.ckind) with
  | Cbool x, Cbool y -> x = y
  | Cint x, Cint y -> Int64.equal x y
  | Cfloat x, Cfloat y -> same_float x y
  | Cnull, Cnull | Czero, Czero -> true
  | Carray xs, Carray ys | Cstruct xs, Cstruct ys -> List.equal same_const xs ys
  | Cstring x, Cstring y | Cglobal_ref x, Cglobal_ref y -> String.equal x y
  | _ -> false

(* a hash that agrees with [same_const] *)
let rec hash_const c =
  let kind =
    match c.ckind with
    | Cbool b -> Bool.to_int b
    | Cint v -> Hashtbl.hash v
    | Cfloat v ->
        if Float.is_nan v then 2 + Bool.to_int (Float.sign_bit v)
        else Hashtbl.hash (Int64.bits_of_float v)
    | Cnull -> 4
    | Czero -> 5
    | Carray cs | Cstruct cs ->
        List.fold_left (fun h c -> (h * 31) + hash_const c) 6 cs
    | Cstring s | Cglobal_ref s -> Hashtbl.hash s
  in
  (Hashtbl.hash c.cty * 65599) + kind

(* ---------- values ---------- *)

let value_body namer v =
  match v with
  | Const c -> const_body c
  | Vreg i -> (
      match Hashtbl.find_opt namer.instr_names i.iid with
      | Some n -> "%" ^ n
      | None -> Printf.sprintf "%%__i%d" i.iid)
  | Varg a -> (
      match Hashtbl.find_opt namer.arg_names a.aid with
      | Some n -> "%" ^ n
      | None -> Printf.sprintf "%%__a%d" a.aid)
  | Vglobal g -> "%" ^ g.gname
  | Vfunc f -> "%" ^ f.fname
  | Vblock b -> (
      match Hashtbl.find_opt namer.block_names b.blid with
      | Some n -> "%" ^ n
      | None -> Printf.sprintf "%%__b%d" b.blid)
  | Vundef _ -> "undef"

let typed_value namer v =
  Types.to_string (type_of_value v) ^ " " ^ value_body namer v

let label namer v = "label " ^ value_body namer v

(* ---------- instructions ---------- *)

let instr_rhs namer i =
  let v k = value_body namer i.operands.(k) in
  let tv k = typed_value namer i.operands.(k) in
  let lbl k = label namer i.operands.(k) in
  match i.op with
  | Binop ((Shl | Shr) as op) ->
      (* the shift amount is a ubyte, printed with its own type *)
      Printf.sprintf "%s %s %s, %s" (binop_name op)
        (Types.to_string (type_of_value i.operands.(0)))
        (v 0) (tv 1)
  | Binop op ->
      Printf.sprintf "%s %s %s, %s" (binop_name op)
        (Types.to_string (type_of_value i.operands.(0)))
        (v 0) (v 1)
  | Setcc c ->
      Printf.sprintf "%s %s %s, %s" (cmp_name c)
        (Types.to_string (type_of_value i.operands.(0)))
        (v 0) (v 1)
  | Ret ->
      if Array.length i.operands = 0 then "ret void" else "ret " ^ tv 0
  | Br ->
      if Array.length i.operands = 1 then "br " ^ lbl 0
      else Printf.sprintf "br %s, %s, %s" (tv 0) (lbl 1) (lbl 2)
  | Mbr ->
      let rec cases k acc =
        if k >= Array.length i.operands then List.rev acc
        else cases (k + 2) (Printf.sprintf "%s, %s" (tv k) (lbl (k + 1)) :: acc)
      in
      Printf.sprintf "mbr %s, %s [ %s ]" (tv 0) (lbl 1)
        (String.concat ", " (cases 2 []))
  | Invoke ->
      let args =
        List.init
          (Array.length i.operands - 3)
          (fun k -> typed_value namer i.operands.(k + 3))
      in
      Printf.sprintf "invoke %s %s(%s) to %s except %s"
        (Types.to_string i.ity) (v 0)
        (String.concat ", " args)
        (lbl 1) (lbl 2)
  | Unwind -> "unwind"
  | Load -> "load " ^ tv 0
  | Store -> Printf.sprintf "store %s, %s" (tv 0) (tv 1)
  | Getelementptr ->
      let parts = List.init (Array.length i.operands) (fun k -> tv k) in
      "getelementptr " ^ String.concat ", " parts
  | Alloca ->
      let elem =
        match i.ity with
        | Types.Pointer e -> Types.to_string e
        | _ -> "?"
      in
      if Array.length i.operands = 0 then "alloca " ^ elem
      else Printf.sprintf "alloca %s, %s" elem (tv 0)
  | Cast ->
      Printf.sprintf "cast %s to %s" (tv 0) (Types.to_string i.ity)
  | Call ->
      let callee = i.operands.(0) in
      let args =
        List.init
          (Array.length i.operands - 1)
          (fun k -> typed_value namer i.operands.(k + 1))
      in
      let callee_str =
        match callee with
        | Vfunc _ -> Printf.sprintf "%s %s" (Types.to_string i.ity) (v 0)
        | _ ->
            (* indirect call: print the full pointer-to-function type *)
            Printf.sprintf "%s %s"
              (Types.to_string (type_of_value callee))
              (v 0)
      in
      Printf.sprintf "call %s(%s)" callee_str (String.concat ", " args)
  | Phi ->
      let pairs =
        List.map
          (fun (value, blk) ->
            Printf.sprintf "[ %s, %s ]" (value_body namer value)
              (value_body namer (Vblock blk)))
          (phi_incoming i)
      in
      Printf.sprintf "phi %s %s" (Types.to_string i.ity)
        (String.concat ", " pairs)

let instr_line namer i =
  let rhs = instr_rhs namer i in
  let lhs =
    if Types.equal i.ity Types.Void then rhs
    else
      match Hashtbl.find_opt namer.instr_names i.iid with
      | Some n -> Printf.sprintf "%%%s = %s" n rhs
      | None -> rhs
  in
  if i.exceptions_enabled <> default_exceptions_enabled i.op then
    Printf.sprintf "%s @ee(%b)" lhs i.exceptions_enabled
  else lhs

(* ---------- functions and modules ---------- *)

let func_header namer f =
  let params =
    List.map
      (fun a ->
        Printf.sprintf "%s %%%s" (Types.to_string a.aty)
          (match Hashtbl.find_opt namer.arg_names a.aid with
          | Some n -> n
          | None -> a.aname))
      f.fargs
  in
  let params = if f.fvarargs then params @ [ "..." ] else params in
  Printf.sprintf "%s %%%s(%s)"
    (Types.to_string f.freturn)
    f.fname
    (String.concat ", " params)

let func_to_buf buf f =
  let namer = mk_namer () in
  name_function namer f;
  if is_declaration f then
    Buffer.add_string buf ("declare " ^ func_header namer f ^ "\n")
  else begin
    Buffer.add_string buf (func_header namer f ^ " {\n");
    List.iter
      (fun b ->
        let bn =
          match Hashtbl.find_opt namer.block_names b.blid with
          | Some n -> n
          | None -> Printf.sprintf "__b%d" b.blid
        in
        Buffer.add_string buf (bn ^ ":\n");
        List.iter
          (fun i -> Buffer.add_string buf ("  " ^ instr_line namer i ^ "\n"))
          b.instrs)
      f.fblocks;
    Buffer.add_string buf "}\n"
  end

let func_to_string f =
  let buf = Buffer.create 1024 in
  func_to_buf buf f;
  Buffer.contents buf

let global_to_string g =
  let kind = if g.gconst then "constant" else "global" in
  match g.ginit with
  | Some init -> Printf.sprintf "%%%s = %s %s" g.gname kind (typed_const init)
  | None ->
      Printf.sprintf "%%%s = external %s %s" g.gname kind
        (Types.to_string g.gty)

let module_to_string m =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "; ModuleID = '%s'\n" m.mname);
  Buffer.add_string buf
    (Printf.sprintf "target pointersize = %d\n" (m.target.Target.ptr_size * 8));
  Buffer.add_string buf
    (Printf.sprintf "target endian = %s\n"
       (match m.target.Target.endian with
       | Target.Little -> "little"
       | Target.Big -> "big"));
  List.iter
    (fun (name, ty) ->
      Buffer.add_string buf
        (Printf.sprintf "%%%s = type %s\n" name (Types.to_string ty)))
    m.typedefs;
  List.iter
    (fun g -> Buffer.add_string buf (global_to_string g ^ "\n"))
    m.globals;
  List.iter
    (fun f ->
      Buffer.add_char buf '\n';
      func_to_buf buf f)
    m.funcs;
  Buffer.contents buf
