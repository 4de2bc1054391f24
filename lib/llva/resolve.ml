(* Second parsing phase: resolve a syntactic [Parser.amodule] into the
   in-memory IR. Performed in stages so forward references work:
   1. module shell: target, typedefs
   2. global and function shells (symbols)
   3. global initializers
   4. function bodies: first create every block and typed instruction
      shell, then fill in operands. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------- constants ---------- *)

let rec resolve_const ty (v : Parser.aval) : Ir.const =
  match v with
  | Parser.Vname n -> { Ir.cty = ty; ckind = Ir.Cglobal_ref n }
  | Parser.Vundef -> { Ir.cty = ty; ckind = Ir.Czero }
  | Parser.Vconst c -> (
      match c with
      | Parser.Abool b -> { Ir.cty = ty; ckind = Ir.Cbool b }
      | Parser.Aint x ->
          if Types.is_fp ty then { Ir.cty = ty; ckind = Ir.Cfloat (Int64.to_float x) }
          else (
            match Ir.normalize_int ty x with
            | v -> { Ir.cty = ty; ckind = Ir.Cint v }
            | exception Invalid_argument _ ->
                fail "integer constant of type %s" (Types.to_string ty))
      | Parser.Afloat x -> { Ir.cty = ty; ckind = Ir.Cfloat x }
      | Parser.Anull -> { Ir.cty = ty; ckind = Ir.Cnull }
      | Parser.Azero -> { Ir.cty = ty; ckind = Ir.Czero }
      | Parser.Astring s -> { Ir.cty = ty; ckind = Ir.Cstring s }
      | Parser.Aarray elems ->
          { Ir.cty = ty; ckind = Ir.Carray (List.map (fun (t, e) -> resolve_const t e) elems) }
      | Parser.Astruct elems ->
          {
            Ir.cty = ty;
            ckind = Ir.Cstruct (List.map (fun (t, e) -> resolve_const t e) elems);
          })

(* ---------- per-function resolution ---------- *)

type fctx = {
  m : Ir.modl;
  env : Types.env;
  locals : (string, Ir.value) Hashtbl.t;
  blocks : (string, Ir.block) Hashtbl.t;
}

let lookup_block ctx name =
  match Hashtbl.find_opt ctx.blocks name with
  | Some b -> b
  | None -> fail "unknown block label %%%s" name

let lookup_value ctx ty name =
  match Hashtbl.find_opt ctx.locals name with
  | Some v -> v
  | None -> (
      match Ir.find_func ctx.m name with
      | Some f -> Ir.Vfunc f
      | None -> (
          match Ir.find_global ctx.m name with
          | Some g -> Ir.Vglobal g
          | None -> fail "unknown value %%%s of type %s" name (Types.to_string ty)))

let resolve_value ctx ty (v : Parser.aval) : Ir.value =
  match v with
  | Parser.Vname n -> lookup_value ctx ty n
  | Parser.Vundef -> Ir.Vundef ty
  | Parser.Vconst _ -> Ir.Const (resolve_const ty v)

(* What a pointer-typed operand points to; any other type is a
   resolution error. *)
let pointee ctx ty =
  match Types.resolve ctx.env ty with
  | Types.Pointer t -> t
  | t -> fail "expected a pointer, got %s" (Types.to_string t)

(* Result type of a GEP from the AST: a struct index is a constant
   when it resolves to an integer constant, as in object code. *)
let gep_type ctx parts =
  let const (ty, v) = Gep.int_const (Ir.Const (resolve_const ty v)) in
  match parts with
  | [] -> fail "getelementptr needs a pointer operand"
  | (pty, _) :: indexes -> (
      match Gep.walk ctx.env ~const pty indexes with
      | Ok (_, ty) -> Types.Pointer ty
      | Error e -> fail "%s" (Gep.message e))

let call_result_type ctx ty =
  match Types.resolve ctx.env ty with
  | Types.Pointer fty -> (
      match Types.resolve ctx.env fty with
      | Types.Func (r, _, _) -> r
      | _ -> ty)
  | Types.Func (r, _, _) -> r
  | _ -> ty

let body_result_type ctx (body : Parser.abody) =
  match body with
  | Parser.Ibinop (_, ty, _, _) -> ty
  | Parser.Isetcc _ -> Types.Bool
  | Parser.Iload (pty, _) -> pointee ctx pty
  | Parser.Igep parts -> gep_type ctx parts
  | Parser.Ialloca (elem, _) -> Types.Pointer elem
  | Parser.Icast (_, dst) -> dst
  | Parser.Icall (ty, _, _) -> call_result_type ctx ty
  | Parser.Iinvoke (ty, _, _, _, _) -> call_result_type ctx ty
  | Parser.Iphi (ty, _) -> ty
  | Parser.Iret _ | Parser.Ibr _ | Parser.Icbr _ | Parser.Imbr _
  | Parser.Iunwind
  | Parser.Istore _ ->
      Types.Void

let opcode_of_body (body : Parser.abody) =
  match body with
  | Parser.Ibinop (op, _, _, _) -> Ir.Binop op
  | Parser.Isetcc (c, _, _, _) -> Ir.Setcc c
  | Parser.Iret _ -> Ir.Ret
  | Parser.Ibr _ | Parser.Icbr _ -> Ir.Br
  | Parser.Imbr _ -> Ir.Mbr
  | Parser.Iinvoke _ -> Ir.Invoke
  | Parser.Iunwind -> Ir.Unwind
  | Parser.Iload _ -> Ir.Load
  | Parser.Istore _ -> Ir.Store
  | Parser.Igep _ -> Ir.Getelementptr
  | Parser.Ialloca _ -> Ir.Alloca
  | Parser.Icast _ -> Ir.Cast
  | Parser.Icall _ -> Ir.Call
  | Parser.Iphi _ -> Ir.Phi

let fill_operands ctx (instr : Ir.instr) (body : Parser.abody) =
  let value (ty, v) = resolve_value ctx ty v in
  let lbl name = Ir.Vblock (lookup_block ctx name) in
  let ops =
    match body with
    | Parser.Ibinop (op, ty, a, b) ->
        let bty = match op with Ir.Shl | Ir.Shr -> Types.Ubyte | _ -> ty in
        [ resolve_value ctx ty a; resolve_value ctx bty b ]
    | Parser.Isetcc (_, ty, a, b) ->
        [ resolve_value ctx ty a; resolve_value ctx ty b ]
    | Parser.Iret None -> []
    | Parser.Iret (Some tv) -> [ value tv ]
    | Parser.Ibr l -> [ lbl l ]
    | Parser.Icbr (tv, t, f) -> [ value tv; lbl t; lbl f ]
    | Parser.Imbr (tv, default, cases) ->
        value tv :: lbl default
        :: List.concat_map (fun (cv, dest) -> [ value cv; lbl dest ]) cases
    | Parser.Iinvoke (ty, callee, args, normal, except) ->
        resolve_value ctx ty callee :: lbl normal :: lbl except
        :: List.map value args
    | Parser.Iunwind -> []
    | Parser.Iload tv -> [ value tv ]
    | Parser.Istore (v, p) -> [ value v; value p ]
    | Parser.Igep parts -> List.map value parts
    | Parser.Ialloca (_, None) -> []
    | Parser.Ialloca (_, Some tv) -> [ value tv ]
    | Parser.Icast (tv, _) -> [ value tv ]
    | Parser.Icall (ty, callee, args) ->
        resolve_value ctx ty callee :: List.map value args
    | Parser.Iphi (ty, pairs) ->
        List.concat_map
          (fun (v, b) -> [ resolve_value ctx ty v; lbl b ])
          pairs
  in
  instr.Ir.operands <- Array.of_list ops;
  Ir.register_operand_uses instr

let resolve_function ctx (f : Ir.func) (af : Parser.afunc) =
  Hashtbl.reset ctx.locals;
  Hashtbl.reset ctx.blocks;
  List.iter
    (fun (a : Ir.arg) ->
      if Hashtbl.mem ctx.locals a.Ir.aname then
        fail "duplicate parameter %%%s in %%%s" a.Ir.aname f.Ir.fname;
      Hashtbl.replace ctx.locals a.Ir.aname (Ir.Varg a))
    f.Ir.fargs;
  (* pass 1: create blocks and typed instruction shells *)
  let shells =
    List.map
      (fun (ab : Parser.ablock) ->
        if Hashtbl.mem ctx.blocks ab.Parser.alabel then
          fail "duplicate block label %%%s" ab.Parser.alabel;
        let b = Ir.mk_block ~name:ab.Parser.alabel () in
        Hashtbl.replace ctx.blocks ab.Parser.alabel b;
        Ir.append_block f b;
        (b, ab))
      af.Parser.ablocks
  in
  let pending =
    List.concat_map
      (fun ((b : Ir.block), (ab : Parser.ablock)) ->
        List.map
          (fun (ai : Parser.ainstr) ->
            let ty = body_result_type ctx ai.Parser.body in
            let name = Option.value ai.Parser.result ~default:"" in
            let instr =
              Ir.mk_instr ~name (opcode_of_body ai.Parser.body) [||] ty
            in
            (match ai.Parser.ee with
            | Some b' -> instr.Ir.exceptions_enabled <- b'
            | None -> ());
            Ir.append_instr b instr;
            (match ai.Parser.result with
            | Some rname ->
                if Hashtbl.mem ctx.locals rname then
                  fail "duplicate SSA name %%%s in %%%s" rname f.Ir.fname;
                Hashtbl.replace ctx.locals rname (Ir.Vreg instr)
            | None -> ());
            (instr, ai.Parser.body))
          ab.Parser.ainstrs)
      shells
  in
  (* pass 2: resolve operands *)
  List.iter (fun (instr, body) -> fill_operands ctx instr body) pending

let resolve_module (am : Parser.amodule) : Ir.modl =
  let m = Ir.mk_module ~name:am.Parser.amname ~target:am.Parser.atarget () in
  List.iter
    (fun (name, ty) -> Ir.add_typedef m name ty)
    am.Parser.atypedefs;
  let env = Ir.type_env m in
  (* symbols first *)
  List.iter
    (fun (ag : Parser.aglobal) ->
      let g =
        Ir.mk_global ~name:ag.Parser.agname ~ty:ag.Parser.agty
          ~constant:ag.Parser.agconst ()
      in
      Ir.add_global m g)
    am.Parser.aglobals;
  List.iter
    (fun (af : Parser.afunc) ->
      let f =
        Ir.mk_func ~name:af.Parser.afname ~return:af.Parser.areturn
          ~params:(List.map (fun (ty, n) -> (n, ty)) af.Parser.aparams)
          ~varargs:af.Parser.avarargs ()
      in
      Ir.add_func m f)
    am.Parser.afuncs;
  (* global initializers may reference any symbol *)
  List.iter
    (fun (ag : Parser.aglobal) ->
      match ag.Parser.aginit with
      | Some (ty, v) ->
          let g = Option.get (Ir.find_global m ag.Parser.agname) in
          g.Ir.ginit <- Some (resolve_const ty v)
      | None -> ())
    am.Parser.aglobals;
  (* function bodies *)
  let ctx = { m; env; locals = Hashtbl.create 64; blocks = Hashtbl.create 16 } in
  List.iter
    (fun (af : Parser.afunc) ->
      if not af.Parser.adeclared then
        let f = Option.get (Ir.find_func m af.Parser.afname) in
        resolve_function ctx f af)
    am.Parser.afuncs;
  m

let parse_module ?name src = resolve_module (Parser.parse_module ?name src)
