(* MiniC -> LLVA code generation.

   Follows the paper's lowering recipe (§3.1): array and structure
   indexing become getelementptr, local variables become explicit allocas
   plus loads/stores (mem2reg later rebuilds SSA), short-circuit operators
   and ?: become CFG diamonds with phis, switch becomes mbr. *)

open Mast
open Llva

exception Error of string * int

let err line fmt = Printf.ksprintf (fun s -> raise (Error (s, line))) fmt

(* ---------- environment ---------- *)

type genv = {
  m : Ir.modl;
  structs : (string, (cty * string) list) Hashtbl.t;
  enums : (string, int64) Hashtbl.t;
  global_tys : (string, cty) Hashtbl.t;
  func_sigs : (string, cty * cty list) Hashtbl.t;
  strings : (string, Ir.global) Hashtbl.t;
  mutable string_count : int;
  mutable env : Types.env;
  mutable lt : Vmem.Layout.t;
}

let struct_type_name tag = "struct." ^ tag

let rec lty (g : genv) (t : cty) : Types.t =
  match t with
  | Cvoid -> Types.Void
  | Cchar -> Types.Sbyte
  | Cuchar -> Types.Ubyte
  | Cshort -> Types.Short
  | Cushort -> Types.Ushort
  | Cint -> Types.Int
  | Cuint -> Types.Uint
  | Clong -> Types.Long
  | Culong -> Types.Ulong
  | Cfloat -> Types.Float
  | Cdouble -> Types.Double
  | Cptr Cvoid -> Types.Pointer Types.Sbyte (* void* is sbyte* *)
  | Cptr inner -> Types.Pointer (lty g inner)
  | Carr (n, e) -> Types.Array (n, lty g e)
  | Cstruct tag -> Types.Named (struct_type_name tag)
  | Cfunc (r, args) -> Types.Func (lty g r, List.map (lty g) args, false)

let is_cint = function
  | Cchar | Cuchar | Cshort | Cushort | Cint | Cuint | Clong | Culong -> true
  | _ -> false

let is_cfp = function Cfloat | Cdouble -> true | _ -> false
let is_cptr = function Cptr _ -> true | _ -> false
let is_carith t = is_cint t || is_cfp t

let rank = function
  | Cchar | Cuchar -> 1
  | Cshort | Cushort -> 2
  | Cint | Cuint -> 3
  | Clong | Culong -> 4
  | _ -> 0

(* integer promotion: the integer types narrower than int become int *)
let promote t = if is_cint t && rank t < 3 then Cint else t

let is_unsigned_cty = function
  | Cuchar | Cushort | Cuint | Culong -> true
  | _ -> false

(* usual arithmetic conversions, simplified *)
let unify_arith line a b =
  match (a, b) with
  | Cdouble, _ | _, Cdouble -> Cdouble
  | Cfloat, _ | _, Cfloat -> Cfloat
  | _ when is_cint a && is_cint b ->
      let r = max (max (rank a) (rank b)) 3 (* promote to >= int *) in
      let unsigned =
        (is_unsigned_cty a && rank a >= r)
        || (is_unsigned_cty b && rank b >= r)
        || (is_unsigned_cty a && is_unsigned_cty b)
      in
      (match (r, unsigned) with
      | 3, false -> Cint
      | 3, true -> Cuint
      | 4, false -> Clong
      | _, _ -> if r = 4 then Culong else Cint)
  | _ -> err line "cannot combine %s and %s" (cty_to_string a) (cty_to_string b)

(* ---------- function context ---------- *)

type fctx = {
  g : genv;
  f : Ir.func;
  bld : Builder.t;
  mutable scopes : (string * (Ir.value * cty)) list list;
  mutable break_targets : Ir.block list;
  mutable continue_targets : Ir.block list;
  ret_ty : cty;
  mutable terminated : bool;
  mutable block_counter : int;
}

let new_block fx name =
  fx.block_counter <- fx.block_counter + 1;
  let b = Ir.mk_block ~name:(name ^ string_of_int fx.block_counter) () in
  Ir.append_block fx.f b;
  b

let set_block fx b =
  Builder.position_at_end b fx.bld;
  fx.terminated <- false

let lookup_local fx name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with
        | Some v -> Some v
        | None -> go rest)
  in
  go fx.scopes

let add_local fx name binding =
  match fx.scopes with
  | scope :: rest -> fx.scopes <- ((name, binding) :: scope) :: rest
  | [] -> fx.scopes <- [ [ (name, binding) ] ]

(* allocas are placed in the entry block so they are static *)
let entry_alloca fx ty name =
  let entry = Ir.entry_block fx.f in
  let i = Ir.mk_instr ~name Ir.Alloca [||] (Types.Pointer (lty fx.g ty)) in
  Ir.prepend_instr entry i;
  Ir.Vreg i

(* ---------- constants and casts ---------- *)

let const_of_int g cty_ v = Ir.const_int (lty g cty_) v

(* cast an rvalue between C types *)
let gen_cast fx line (v : Ir.value) (from_t : cty) (to_t : cty) : Ir.value =
  if from_t = to_t then v
  else
    let lt_from = lty fx.g from_t and lt_to = lty fx.g to_t in
    if Types.equal lt_from lt_to then v
    else
      match (from_t, to_t) with
      | _, Cvoid -> v
      | (Carr (_, e)), Cptr e' when e = e' -> v (* decay handled earlier *)
      | _ when is_carith from_t && is_carith to_t ->
          Builder.cast fx.bld v lt_to
      | Cptr _, Cptr _ -> Builder.cast fx.bld v lt_to
      | Cptr _, _ when is_cint to_t -> Builder.cast fx.bld v lt_to
      | _, Cptr _ when is_cint from_t -> Builder.cast fx.bld v lt_to
      | _ ->
          err line "cannot cast %s to %s" (cty_to_string from_t)
            (cty_to_string to_t)

(* truthiness: scalar -> bool *)
let gen_truth fx line (v : Ir.value) (t : cty) : Ir.value =
  match t with
  | Cfloat | Cdouble -> Builder.setne fx.bld v (Ir.const_float (lty fx.g t) 0.0)
  | Cptr _ ->
      Builder.setne fx.bld v (Ir.const_null (lty fx.g t))
  | _ when is_cint t -> Builder.setne fx.bld v (const_of_int fx.g t 0L)
  | _ -> err line "%s used where a scalar is required" (cty_to_string t)

(* ---------- string literals ---------- *)

let string_global g s : Ir.global =
  match Hashtbl.find_opt g.strings s with
  | Some gl -> gl
  | None ->
      g.string_count <- g.string_count + 1;
      let gl =
        Ir.mk_global
          ~name:(Printf.sprintf "str.%d" g.string_count)
          ~ty:(Types.Array (String.length s + 1, Types.Sbyte))
          ~init:(match Ir.const_string s with Ir.Const c -> c | _ -> assert false)
          ~constant:true ()
      in
      Ir.add_global g.m gl;
      Hashtbl.replace g.strings s gl;
      gl

(* ---------- expressions ---------- *)

let field_index g line tag fname =
  match Hashtbl.find_opt g.structs tag with
  | None -> err line "unknown struct %s" tag
  | Some fields ->
      let rec go k = function
        | [] -> err line "struct %s has no field %s" tag fname
        | (fty, n) :: _ when n = fname -> (k, fty)
        | _ :: rest -> go (k + 1) rest
      in
      go 0 fields

let rec gen_expr fx (e : expr) : Ir.value * cty =
  let line = e.eline in
  match e.desc with
  | Eint v ->
      if Int64.compare v 2147483647L > 0 || Int64.compare v (-2147483648L) < 0
      then (Ir.const_int Types.Long v, Clong)
      else (Ir.const_int Types.Int v, Cint)
  | Efloat f -> (Ir.const_float Types.Double f, Cdouble)
  | Echar c -> (Ir.const_int Types.Sbyte (Int64.of_int (Char.code c)), Cchar)
  | Estr s ->
      let gl = string_global fx.g s in
      let p =
        Builder.getelementptr fx.bld (Ir.Vglobal gl)
          [ Ir.const_int Types.Long 0L; Ir.const_int Types.Long 0L ]
      in
      (p, Cptr Cchar)
  | Eident name -> (
      match Hashtbl.find_opt fx.g.enums name with
      | Some v -> (Ir.const_int Types.Int v, Cint)
      | None -> (
          match lookup_local fx name with
          | Some (ptr, (Carr (_, elem) as t)) ->
              (* array lvalue decays to pointer to first element *)
              ignore t;
              let p =
                Builder.getelementptr fx.bld ptr
                  [ Ir.const_int Types.Long 0L; Ir.const_int Types.Long 0L ]
              in
              (p, Cptr elem)
          | Some (ptr, (Cstruct _ as t)) -> (ptr, t) (* struct value = its address *)
          | Some (ptr, t) -> (Builder.load fx.bld ptr, t)
          | None -> (
              match Hashtbl.find_opt fx.g.global_tys name with
              | Some (Carr (_, elem)) ->
                  let gl = Option.get (Ir.find_global fx.g.m name) in
                  let p =
                    Builder.getelementptr fx.bld (Ir.Vglobal gl)
                      [ Ir.const_int Types.Long 0L; Ir.const_int Types.Long 0L ]
                  in
                  (p, Cptr elem)
              | Some (Cstruct _ as t) ->
                  (Ir.Vglobal (Option.get (Ir.find_global fx.g.m name)), t)
              | Some t ->
                  let gl = Option.get (Ir.find_global fx.g.m name) in
                  (Builder.load fx.bld (Ir.Vglobal gl), t)
              | None -> (
                  match Hashtbl.find_opt fx.g.func_sigs name with
                  | Some (r, args) ->
                      let f = Option.get (Ir.find_func fx.g.m name) in
                      (Ir.Vfunc f, Cptr (Cfunc (r, args)))
                  | None -> err line "unknown identifier %s" name))))
  | Ebin (Bland, a, b) -> gen_shortcircuit fx line true a b
  | Ebin (Blor, a, b) -> gen_shortcircuit fx line false a b
  | Ebin (op, a, b) -> gen_binop fx line op a b
  | Eun (Uneg, a) ->
      let v, t0 = gen_expr fx a in
      if not (is_carith t0) then
        err line "invalid operand to unary -: %s" (cty_to_string t0);
      let t = promote t0 in
      let v = gen_cast fx line v (unary_source fx a t0) t in
      if is_cfp t then
        (Builder.sub fx.bld (Ir.const_float (lty fx.g t) 0.0) v, t)
      else (Builder.sub fx.bld (const_of_int fx.g t 0L) v, t)
  | Eun (Unot, a) ->
      let v, t = gen_expr fx a in
      let b = gen_truth fx line v t in
      let nb = Builder.xor fx.bld b (Ir.const_bool true) in
      (Builder.cast fx.bld nb Types.Int, Cint)
  | Eun (Ubnot, a) ->
      let v, t0 = gen_expr fx a in
      if not (is_cint t0) then
        err line "invalid operand to ~: %s" (cty_to_string t0);
      let t = promote t0 in
      let v = gen_cast fx line v (unary_source fx a t0) t in
      (Builder.xor fx.bld v (const_of_int fx.g t (-1L)), t)
  | Eassign (lhs, rhs) ->
      let addr, lt_ = scalar_lvalue fx line lhs in
      let v, vt = gen_expr fx rhs in
      let v = gen_cast fx line v vt lt_ in
      Builder.store fx.bld v addr;
      (v, lt_)
  | Eopassign (op, lhs, rhs) ->
      let addr, lt_ = scalar_lvalue fx line lhs in
      let cur = Builder.load fx.bld addr in
      let result, rt =
        gen_binop_values fx line op (cur, lt_) (gen_expr fx rhs)
      in
      let result = gen_cast fx line result rt lt_ in
      Builder.store fx.bld result addr;
      (result, lt_)
  | Epreincr (delta, lv) ->
      let addr, lt_ = scalar_lvalue fx line lv in
      let cur = Builder.load fx.bld addr in
      let next = gen_incr fx line cur lt_ delta in
      Builder.store fx.bld next addr;
      (next, lt_)
  | Epostincr (delta, lv) ->
      let addr, lt_ = scalar_lvalue fx line lv in
      let cur = Builder.load fx.bld addr in
      let next = gen_incr fx line cur lt_ delta in
      Builder.store fx.bld next addr;
      (cur, lt_)
  | Ecall (callee, args) -> gen_call fx line callee args
  | Eindex _ | Efield _ | Earrow _ | Ederef _ -> (
      (* load through the lvalue; arrays/structs stay as addresses *)
      let addr, t = gen_lvalue fx e in
      match t with
      | Carr (_, elem) ->
          let p =
            Builder.getelementptr fx.bld addr
              [ Ir.const_int Types.Long 0L; Ir.const_int Types.Long 0L ]
          in
          (p, Cptr elem)
      | Cstruct _ -> (addr, t)
      | _ -> (Builder.load fx.bld addr, t))
  | Eaddr lv ->
      let addr, t = gen_lvalue fx lv in
      (addr, Cptr t)
  | Ecast (to_t, a) ->
      let v, from_t = gen_expr fx a in
      (gen_cast fx line v from_t to_t, to_t)
  | Esizeof t ->
      (Ir.const_int Types.Uint (Int64.of_int (Vmem.Layout.size_of fx.g.lt (lty fx.g t))),
       Cuint)
  | Econd (c, a, b) ->
      let cv, ct = gen_expr fx c in
      let cb = gen_truth fx c.eline cv ct in
      let then_b = new_block fx "cond.t" in
      let else_b = new_block fx "cond.f" in
      let join = new_block fx "cond.j" in
      Builder.cond_br fx.bld cb then_b else_b;
      set_block fx then_b;
      let av, at = gen_expr fx a in
      let then_end = Builder.insertion_block fx.bld in
      set_block fx else_b;
      let bv, bt = gen_expr fx b in
      let else_end = Builder.insertion_block fx.bld in
      (* unify *)
      let rt =
        if at = bt then at
        else if is_carith at && is_carith bt then unify_arith line at bt
        else if is_cptr at then at
        else bt
      in
      (* emit casts in the right blocks *)
      Builder.position_at_end then_end fx.bld;
      let av = gen_cast fx line av at rt in
      Builder.br fx.bld join;
      Builder.position_at_end else_end fx.bld;
      let bv = gen_cast fx line bv bt rt in
      Builder.br fx.bld join;
      set_block fx join;
      if rt = Cvoid then (Ir.Vundef Types.Void, Cvoid)
      else
        let phi =
          Builder.phi_at_front fx.bld (lty fx.g rt)
            [ (av, then_end); (bv, else_end) ]
        in
        (phi, rt)

(* type of an expression without emitting code twice: cheap re-derivation
   for the unary minus path (gen_expr already emitted the value) *)
and gen_expr_ty fx (e : expr) : Ir.value * cty =
  ignore fx;
  match e.desc with
  | Eint v ->
      if Int64.compare v 2147483647L > 0 then (Ir.Vundef Types.Long, Clong)
      else (Ir.Vundef Types.Int, Cint)
  | Efloat _ -> (Ir.Vundef Types.Double, Cdouble)
  | Echar _ -> (Ir.Vundef Types.Sbyte, Cchar)
  | _ -> (Ir.Vundef Types.Int, Cint)

(* The type the operand [a] of a unary - or ~, of type [t0], is cast
   from. An operand narrower than int is promoted from its own type. Any
   other keeps the type [gen_expr_ty] guesses, as it always has: where
   the guess is wrong the cast is a no-op, and existing programs keep
   their code. *)
and unary_source fx a t0 =
  if promote t0 <> t0 then t0 else snd (gen_expr_ty fx a)

and gen_incr fx line (cur : Ir.value) (t : cty) delta : Ir.value =
  match t with
  | Cptr elem ->
      ignore elem;
      Builder.getelementptr fx.bld cur
        [ Ir.const_int Types.Long (Int64.of_int delta) ]
  | _ when is_cfp t ->
      Builder.add fx.bld cur (Ir.const_float (lty fx.g t) (float_of_int delta))
  | _ when is_cint t ->
      Builder.add fx.bld cur (const_of_int fx.g t (Int64.of_int delta))
  | _ -> err line "cannot increment %s" (cty_to_string t)

and gen_shortcircuit fx _line is_and a b : Ir.value * cty =
  let av, at = gen_expr fx a in
  let ab = gen_truth fx a.eline av at in
  let a_end = Builder.insertion_block fx.bld in
  let rhs_b = new_block fx (if is_and then "and.rhs" else "or.rhs") in
  let join = new_block fx (if is_and then "and.j" else "or.j") in
  if is_and then Builder.cond_br fx.bld ab rhs_b join
  else Builder.cond_br fx.bld ab join rhs_b;
  set_block fx rhs_b;
  let bv, bt = gen_expr fx b in
  let bb = gen_truth fx b.eline bv bt in
  let rhs_end = Builder.insertion_block fx.bld in
  Builder.br fx.bld join;
  set_block fx join;
  let phi =
    Builder.phi_at_front fx.bld Types.Bool
      [ (Ir.const_bool (not is_and), a_end); (bb, rhs_end) ]
  in
  (Builder.cast fx.bld phi Types.Int, Cint)

and gen_binop fx line op a b : Ir.value * cty =
  gen_binop_values fx line op (gen_expr fx a) (gen_expr fx b)

and gen_binop_values fx line op ((av, at) : Ir.value * cty)
    ((bv, bt) : Ir.value * cty) : Ir.value * cty =
  let arith_op ir_op =
    match (at, bt) with
    (* pointer arithmetic *)
    | Cptr elem, _ when is_cint bt && (op = Badd || op = Bsub) ->
        ignore elem;
        let idx = gen_cast fx line bv bt Clong in
        let idx =
          if op = Bsub then Builder.sub fx.bld (Ir.const_int Types.Long 0L) idx
          else idx
        in
        (Builder.getelementptr fx.bld av [ idx ], at)
    | _, Cptr _ when is_cint at && op = Badd ->
        let idx = gen_cast fx line av at Clong in
        (Builder.getelementptr fx.bld bv [ idx ], bt)
    | Cptr elem, Cptr _ when op = Bsub ->
        (* pointer difference in elements *)
        let ai = Builder.cast fx.bld av Types.Long in
        let bi = Builder.cast fx.bld bv Types.Long in
        let diff = Builder.sub fx.bld ai bi in
        let esz = Vmem.Layout.size_of fx.g.lt (lty fx.g elem) in
        let d =
          if esz = 1 then diff
          else Builder.div fx.bld diff (Ir.const_int Types.Long (Int64.of_int esz))
        in
        (Builder.cast fx.bld d Types.Long, Clong)
    | _ when is_carith at && is_carith bt ->
        let rt = unify_arith line at bt in
        let a' = gen_cast fx line av at rt in
        let b' = gen_cast fx line bv bt rt in
        (Builder.binop fx.bld ir_op a' b', rt)
    | _ ->
        err line "invalid operands to arithmetic: %s, %s" (cty_to_string at)
          (cty_to_string bt)
  in
  let int_only_op ir_op =
    if is_cint at && is_cint bt then begin
      let rt = unify_arith line at bt in
      let a' = gen_cast fx line av at rt in
      let b' = gen_cast fx line bv bt rt in
      (Builder.binop fx.bld ir_op a' b', rt)
    end
    else err line "bitwise operator requires integers"
  in
  let shift_op ir_op =
    if is_cint at && is_cint bt then begin
      let rt = if rank at < 3 then Cint else at in
      let a' = gen_cast fx line av at rt in
      let amt = gen_cast fx line bv bt Cuchar in
      (Builder.binop fx.bld ir_op a' amt, rt)
    end
    else err line "shift requires integers"
  in
  let cmp_op cmp =
    let a', b' =
      if is_cptr at || is_cptr bt then begin
        (* compare as pointers; allow int 0 (NULL) on either side *)
        let pt = if is_cptr at then at else bt in
        ( gen_cast fx line av at pt,
          gen_cast fx line bv bt pt )
      end
      else if is_carith at && is_carith bt then begin
        let rt = unify_arith line at bt in
        (gen_cast fx line av at rt, gen_cast fx line bv bt rt)
      end
      else err line "invalid comparison operands"
    in
    let b = Builder.setcc fx.bld cmp a' b' in
    (Builder.cast fx.bld b Types.Int, Cint)
  in
  match op with
  | Badd -> arith_op Ir.Add
  | Bsub -> arith_op Ir.Sub
  | Bmul -> arith_op Ir.Mul
  | Bdiv -> arith_op Ir.Div
  | Bmod -> int_only_op Ir.Rem
  | Band -> int_only_op Ir.And
  | Bor -> int_only_op Ir.Or
  | Bxor -> int_only_op Ir.Xor
  | Bshl -> shift_op Ir.Shl
  | Bshr -> shift_op Ir.Shr
  | Beq -> cmp_op Ir.Eq
  | Bne -> cmp_op Ir.Ne
  | Blt -> cmp_op Ir.Lt
  | Bgt -> cmp_op Ir.Gt
  | Ble -> cmp_op Ir.Le
  | Bge -> cmp_op Ir.Ge
  | Bland | Blor -> err line "internal: short-circuit handled elsewhere"

and gen_call fx line callee args : Ir.value * cty =
  let callee_v, ret_t, param_ts =
    match callee.desc with
    | Eident name when Hashtbl.mem fx.g.func_sigs name ->
        let r, ps = Hashtbl.find fx.g.func_sigs name in
        (Ir.Vfunc (Option.get (Ir.find_func fx.g.m name)), r, ps)
    | _ -> (
        let v, t = gen_expr fx callee in
        match t with
        | Cptr (Cfunc (r, ps)) -> (v, r, ps)
        | _ -> err line "called object is not a function")
  in
  if List.length args <> List.length param_ts then
    err line "wrong number of arguments (%d vs %d)" (List.length args)
      (List.length param_ts);
  let arg_vs =
    List.map2
      (fun a pt ->
        let v, t = gen_expr fx a in
        gen_cast fx line v t pt)
      args param_ts
  in
  let result = Builder.call fx.bld callee_v arg_vs in
  (result, ret_t)

(* an lvalue that assignment and increment can load and store: an
   arithmetic type or a pointer, not an array or a structure *)
and scalar_lvalue fx line (e : expr) : Ir.value * cty =
  let addr, t = gen_lvalue fx e in
  if not (is_carith t || is_cptr t) then
    err line "cannot assign to a value of type %s" (cty_to_string t);
  (addr, t)

(* lvalue: returns the ADDRESS and the C type of the object *)
and gen_lvalue fx (e : expr) : Ir.value * cty =
  let line = e.eline in
  match e.desc with
  | Eident name -> (
      match lookup_local fx name with
      | Some (ptr, t) -> (ptr, t)
      | None -> (
          match Hashtbl.find_opt fx.g.global_tys name with
          | Some t -> (Ir.Vglobal (Option.get (Ir.find_global fx.g.m name)), t)
          | None -> err line "unknown identifier %s" name))
  | Ederef p -> (
      let v, t = gen_expr fx p in
      match t with
      | Cptr inner -> (v, inner)
      | _ -> err line "dereference of non-pointer %s" (cty_to_string t))
  | Eindex (base, idx) -> (
      let iv, it = gen_expr fx idx in
      let idx64 = gen_cast fx line iv it Clong in
      (* if base is an array lvalue, index in place; if pointer, index
         through the pointer value *)
      match base.desc with
      | _ -> (
          let bv, bt = gen_expr fx base in
          match bt with
          | Cptr elem ->
              (Builder.getelementptr fx.bld bv [ idx64 ], elem)
          | _ -> err line "indexing non-pointer %s" (cty_to_string bt)))
  | Efield (base, fname) -> (
      let addr, t = gen_lvalue fx base in
      match t with
      | Cstruct tag ->
          let k, fty = field_index fx.g line tag fname in
          ( Builder.getelementptr fx.bld addr
              [
                Ir.const_int Types.Long 0L;
                Ir.const_int Types.Uint (Int64.of_int k);
              ],
            fty )
      | _ -> err line "field access on non-struct %s" (cty_to_string t))
  | Earrow (base, fname) -> (
      let v, t = gen_expr fx base in
      match t with
      | Cptr (Cstruct tag) ->
          let k, fty = field_index fx.g line tag fname in
          ( Builder.getelementptr fx.bld v
              [
                Ir.const_int Types.Long 0L;
                Ir.const_int Types.Uint (Int64.of_int k);
              ],
            fty )
      | _ -> err line "-> on non-struct-pointer %s" (cty_to_string t))
  | Ecast (Cptr _ as pt, inner) ->
      (* a cast used in lvalue position, e.g. assigning through a
         pointer cast *)
      let v, t = gen_expr fx inner in
      let v = gen_cast fx line v t pt in
      (match pt with Cptr i -> (v, i) | _ -> assert false)
  | _ -> err line "expression is not an lvalue"

(* ---------- statements ---------- *)

(* A loop's step or condition block that nothing branches to, because
   the body always leaves and never continues. It ends in [unwind]
   instead of going round: a back edge from a block no path reaches
   would leave the loop's header dominated by nothing before it. *)
let unreachable_latch (b : Ir.block) = b.Ir.buses = []

(* Continues at [b], where code after a loop or a switch goes. A [b]
   that nothing branches to (a loop with neither a condition nor a break,
   a switch whose every case leaves) ends in [unwind], and what follows is
   dropped as unreachable, like the code after a [return]. *)
let continue_at fx (b : Ir.block) =
  set_block fx b;
  if b.Ir.buses = [] then begin
    Builder.unwind fx.bld;
    fx.terminated <- true
  end

let rec gen_stmt fx (s : stmt) : unit =
  if fx.terminated then () (* unreachable code is dropped *)
  else
    match s.sdesc with
    | Sexpr e -> ignore (gen_expr fx e)
    | Sdecl (ty, name, init) ->
        let slot = entry_alloca fx ty name in
        add_local fx name (slot, ty);
        (match init with
        | Some e ->
            let v, t = gen_expr fx e in
            let v = gen_cast fx s.sline v t ty in
            Builder.store fx.bld v slot
        | None -> ())
    | Sblock stmts ->
        fx.scopes <- [] :: fx.scopes;
        List.iter (gen_stmt fx) stmts;
        fx.scopes <- List.tl fx.scopes
    | Sseq stmts -> List.iter (gen_stmt fx) stmts
    | Sif (c, then_s, else_s) -> (
        let cv, ct = gen_expr fx c in
        let cb = gen_truth fx c.eline cv ct in
        let then_b = new_block fx "if.t" in
        let join = new_block fx "if.j" in
        match else_s with
        | None ->
            Builder.cond_br fx.bld cb then_b join;
            set_block fx then_b;
            gen_stmt fx then_s;
            if not fx.terminated then Builder.br fx.bld join;
            set_block fx join
        | Some es ->
            let else_b = new_block fx "if.f" in
            Builder.cond_br fx.bld cb then_b else_b;
            set_block fx then_b;
            gen_stmt fx then_s;
            let t_term = fx.terminated in
            if not t_term then Builder.br fx.bld join;
            set_block fx else_b;
            gen_stmt fx es;
            let e_term = fx.terminated in
            if not e_term then Builder.br fx.bld join;
            if t_term && e_term then begin
              (* both sides terminated: the join block is unreachable;
                 emit an unreachable terminator to keep it well-formed *)
              set_block fx join;
              Builder.unwind fx.bld;
              fx.terminated <- true
            end
            else set_block fx join)
    | Swhile (c, body) ->
        let header = new_block fx "while.h" in
        let body_b = new_block fx "while.b" in
        let exit_b = new_block fx "while.e" in
        Builder.br fx.bld header;
        set_block fx header;
        let cv, ct = gen_expr fx c in
        let cb = gen_truth fx c.eline cv ct in
        Builder.cond_br fx.bld cb body_b exit_b;
        fx.break_targets <- exit_b :: fx.break_targets;
        fx.continue_targets <- header :: fx.continue_targets;
        set_block fx body_b;
        gen_stmt fx body;
        if not fx.terminated then Builder.br fx.bld header;
        fx.break_targets <- List.tl fx.break_targets;
        fx.continue_targets <- List.tl fx.continue_targets;
        continue_at fx exit_b
    | Sdo (body, c) ->
        let body_b = new_block fx "do.b" in
        let cond_b = new_block fx "do.c" in
        let exit_b = new_block fx "do.e" in
        Builder.br fx.bld body_b;
        fx.break_targets <- exit_b :: fx.break_targets;
        fx.continue_targets <- cond_b :: fx.continue_targets;
        set_block fx body_b;
        gen_stmt fx body;
        if not fx.terminated then Builder.br fx.bld cond_b;
        set_block fx cond_b;
        if unreachable_latch cond_b then Builder.unwind fx.bld
        else begin
          let cv, ct = gen_expr fx c in
          let cb = gen_truth fx c.eline cv ct in
          Builder.cond_br fx.bld cb body_b exit_b
        end;
        fx.break_targets <- List.tl fx.break_targets;
        fx.continue_targets <- List.tl fx.continue_targets;
        continue_at fx exit_b
    | Sfor (init, cond, step, body) ->
        fx.scopes <- [] :: fx.scopes;
        (match init with Some s -> gen_stmt fx s | None -> ());
        let header = new_block fx "for.h" in
        let body_b = new_block fx "for.b" in
        let step_b = new_block fx "for.s" in
        let exit_b = new_block fx "for.e" in
        Builder.br fx.bld header;
        set_block fx header;
        (match cond with
        | Some c ->
            let cv, ct = gen_expr fx c in
            let cb = gen_truth fx c.eline cv ct in
            Builder.cond_br fx.bld cb body_b exit_b
        | None -> Builder.br fx.bld body_b);
        fx.break_targets <- exit_b :: fx.break_targets;
        fx.continue_targets <- step_b :: fx.continue_targets;
        set_block fx body_b;
        gen_stmt fx body;
        if not fx.terminated then Builder.br fx.bld step_b;
        set_block fx step_b;
        if unreachable_latch step_b then Builder.unwind fx.bld
        else begin
          (match step with Some e -> ignore (gen_expr fx e) | None -> ());
          Builder.br fx.bld header
        end;
        fx.break_targets <- List.tl fx.break_targets;
        fx.continue_targets <- List.tl fx.continue_targets;
        continue_at fx exit_b;
        fx.scopes <- List.tl fx.scopes
    | Sreturn e ->
        (match (e, fx.ret_ty) with
        | None, Cvoid -> Builder.ret fx.bld None
        | None, rt ->
            err s.sline "return without a value in a function returning %s"
              (cty_to_string rt)
        | Some _, Cvoid -> err s.sline "return with a value in a void function"
        | Some e, rt ->
            let v, t = gen_expr fx e in
            let v = gen_cast fx s.sline v t rt in
            Builder.ret fx.bld (Some v));
        fx.terminated <- true
    | Sbreak -> (
        match fx.break_targets with
        | b :: _ ->
            Builder.br fx.bld b;
            fx.terminated <- true
        | [] -> err s.sline "break outside loop/switch")
    | Scontinue -> (
        match fx.continue_targets with
        | b :: _ ->
            Builder.br fx.bld b;
            fx.terminated <- true
        | [] -> err s.sline "continue outside loop")
    | Sswitch (sel, cases) ->
        let sv, st_ = gen_expr fx sel in
        let sel_t = if is_cint st_ then st_ else Cint in
        let sv = gen_cast fx s.sline sv st_ sel_t in
        let end_b = new_block fx "sw.end" in
        (* one block per case group, in order; fallthrough chains *)
        let case_blocks =
          List.map (fun _ -> new_block fx "sw.case") cases
        in
        let default_target =
          let rec find cs bs =
            match (cs, bs) with
            | (None, _) :: _, b :: _ -> Some b
            | _ :: cs, _ :: bs -> find cs bs
            | _ -> None
          in
          find cases case_blocks
        in
        let mbr_cases =
          List.filter_map
            (fun ((tag, _), b) ->
              match tag with Some v -> Some (v, b) | None -> None)
            (List.combine cases case_blocks)
        in
        Builder.mbr fx.bld sv
          ~default:(match default_target with Some b -> b | None -> end_b)
          mbr_cases;
        fx.break_targets <- end_b :: fx.break_targets;
        let rec emit_cases cs bs =
          match (cs, bs) with
          | [], [] -> ()
          | (_, body) :: rest_c, b :: rest_b ->
              set_block fx b;
              List.iter (gen_stmt fx) body;
              if not fx.terminated then
                (* fallthrough to the next case, or to the end *)
                Builder.br fx.bld
                  (match rest_b with nb :: _ -> nb | [] -> end_b);
              emit_cases rest_c rest_b
          | _ -> assert false
        in
        emit_cases cases case_blocks;
        fx.break_targets <- List.tl fx.break_targets;
        continue_at fx end_b

(* ---------- global initializers (constant expressions) ---------- *)

let rec const_eval g (e : expr) : Ir.const =
  match e.desc with
  | Eint v -> { Ir.cty = Types.Int; ckind = Ir.Cint v }
  | Echar c ->
      { Ir.cty = Types.Sbyte; ckind = Ir.Cint (Int64.of_int (Char.code c)) }
  | Efloat f -> { Ir.cty = Types.Double; ckind = Ir.Cfloat f }
  | Eun (Uneg, inner) -> (
      match const_eval g inner with
      | { Ir.ckind = Ir.Cint v; cty } -> { Ir.cty; ckind = Ir.Cint (Int64.neg v) }
      | { Ir.ckind = Ir.Cfloat f; cty } -> { Ir.cty; ckind = Ir.Cfloat (-.f) }
      | _ -> err e.eline "bad constant initializer")
  | Eident name -> (
      match Hashtbl.find_opt g.enums name with
      | Some v -> { Ir.cty = Types.Int; ckind = Ir.Cint v }
      | None -> (
          match Hashtbl.find_opt g.func_sigs name with
          | Some _ ->
              { Ir.cty = Types.Pointer Types.Sbyte; ckind = Ir.Cglobal_ref name }
          | None -> err e.eline "non-constant initializer %s" name))
  | Estr s ->
      let gl = string_global g s in
      { Ir.cty = Types.Pointer Types.Sbyte; ckind = Ir.Cglobal_ref gl.Ir.gname }
  | Esizeof t ->
      {
        Ir.cty = Types.Uint;
        ckind = Ir.Cint (Int64.of_int (Vmem.Layout.size_of g.lt (lty g t)));
      }
  | Ebin (op, a, b) -> (
      let ca = const_eval g a and cb = const_eval g b in
      match (ca.Ir.ckind, cb.Ir.ckind) with
      | Ir.Cint x, Ir.Cint y ->
          let v =
            match op with
            | Badd -> Int64.add x y
            | Bsub -> Int64.sub x y
            | Bmul -> Int64.mul x y
            | Bdiv ->
                if Int64.equal y 0L then
                  err e.eline "division by zero in a constant expression";
                Int64.div x y
            | Bshl -> Int64.shift_left x (Int64.to_int y)
            | Bor -> Int64.logor x y
            | _ -> err e.eline "unsupported constant operator"
          in
          { Ir.cty = ca.Ir.cty; ckind = Ir.Cint v }
      | _ -> err e.eline "bad constant initializer")
  | _ -> err e.eline "initializer is not a constant expression"

(* retype an evaluated constant to the declared type *)
let retype_const (want : Types.t) (c : Ir.const) : Ir.const =
  match (want, c.Ir.ckind) with
  | t, Ir.Cint v when Types.is_integer t || Types.equal t Types.Bool ->
      { Ir.cty = t; ckind = Ir.Cint (Ir.normalize_int t v) }
  | t, Ir.Cint v when Types.is_fp t ->
      { Ir.cty = t; ckind = Ir.Cfloat (Int64.to_float v) }
  | t, Ir.Cfloat f when Types.is_fp t -> { Ir.cty = t; ckind = Ir.Cfloat f }
  | (Types.Pointer _ as t), Ir.Cint 0L -> { Ir.cty = t; ckind = Ir.Cnull }
  | (Types.Pointer _ as t), Ir.Cglobal_ref n ->
      { Ir.cty = t; ckind = Ir.Cglobal_ref n }
  | t, Ir.Czero -> { Ir.cty = t; ckind = Ir.Czero }
  | (Types.Array _ as t), Ir.Carray elems -> { Ir.cty = t; ckind = Ir.Carray elems }
  | t, _ -> err 0 "initializer type mismatch for %s" (Types.to_string t)

let rec const_init g (ty : cty) (i : init) : Ir.const =
  let want = lty g ty in
  match (i, ty) with
  | Iexpr { desc = Estr s; _ }, Carr (n, Cchar) ->
      ignore n;
      { Ir.cty = want; ckind = Ir.Cstring s }
  | Iexpr e, _ -> retype_const want (const_eval g e)
  | Ilist elems, Carr (_, ety) ->
      { Ir.cty = want; ckind = Ir.Carray (List.map (const_init g ety) elems) }
  | Ilist elems, Cstruct tag ->
      let fields =
        match Hashtbl.find_opt g.structs tag with
        | Some fs -> fs
        | None -> err 0 "unknown struct %s" tag
      in
      let consts =
        List.map2 (fun (fty, _) e -> const_init g fty e)
          (List.filteri (fun k _ -> k < List.length elems) fields)
          elems
      in
      { Ir.cty = want; ckind = Ir.Cstruct consts }
  | Ilist _, _ -> err 0 "brace initializer for non-aggregate"

(* ---------- top level ---------- *)

let builtin_sigs =
  [
    ("print_int", (Cvoid, [ Cint ]));
    ("print_long", (Cvoid, [ Clong ]));
    ("print_char", (Cvoid, [ Cint ]));
    ("print_float", (Cvoid, [ Cdouble ]));
    ("print_str", (Cvoid, [ Cptr Cchar ]));
    ("print_nl", (Cvoid, []));
    ("exit", (Cvoid, [ Cint ]));
    ("abort", (Cvoid, []));
    ("malloc", (Cptr Cvoid, [ Cuint ]));
    ("free", (Cvoid, [ Cptr Cvoid ]));
    ("memcpy", (Cptr Cvoid, [ Cptr Cvoid; Cptr Cvoid; Cuint ]));
    ("memset", (Cptr Cvoid, [ Cptr Cvoid; Cint; Cuint ]));
    ("strlen", (Cuint, [ Cptr Cchar ]));
  ]

let compile ?(name = "minic") ?(target = Target.default) (src : string) :
    Ir.modl =
  let prog = Mparser.parse src in
  let m = Ir.mk_module ~name ~target () in
  let g =
    {
      m;
      structs = Hashtbl.create 16;
      enums = Hashtbl.create 16;
      global_tys = Hashtbl.create 32;
      func_sigs = Hashtbl.create 32;
      strings = Hashtbl.create 16;
      string_count = 0;
      env = Types.empty_env ();
      lt = Vmem.Layout.create target;
    }
  in
  (* pass 1: struct types, enums, typedefs into the module *)
  List.iter
    (fun d ->
      match d with
      | Dstruct (tag, fields) ->
          Hashtbl.replace g.structs tag fields;
          Ir.add_typedef m (struct_type_name tag)
            (Types.Struct (List.map (fun (fty, _) -> lty g fty) fields))
      | Denum consts ->
          List.iter (fun (n, v) -> Hashtbl.replace g.enums n v) consts
      | _ -> ())
    prog;
  g.env <- Ir.type_env m;
  g.lt <- Vmem.Layout.for_module m;
  List.iter
    (function
      | Dstruct (tag, _) -> (
          match Vmem.Layout.size_of g.lt (lty g (Cstruct tag)) with
          | _ -> ()
          | exception Vmem.Layout.Self_containing _ ->
              err 0 "struct %s contains itself" tag)
      | _ -> ())
    prog;
  (* pass 2: function signatures (builtins + user), global types *)
  List.iter
    (fun (bname, sig_) -> Hashtbl.replace g.func_sigs bname sig_)
    builtin_sigs;
  List.iter
    (fun d ->
      match d with
      | Dfunc (ret, fname, params, _) ->
          Hashtbl.replace g.func_sigs fname (ret, List.map fst params)
      | Dglobal (ty, gname, _) -> Hashtbl.replace g.global_tys gname ty
      | _ -> ())
    prog;
  (* create IR declarations for builtins *)
  List.iter
    (fun (bname, (ret, params)) ->
      let f =
        Ir.mk_func ~name:bname ~return:(lty g ret)
          ~params:(List.mapi (fun k t -> (Printf.sprintf "a%d" k, lty g t)) params)
          ()
      in
      Ir.add_func m f)
    builtin_sigs;
  (* create IR shells for user functions *)
  List.iter
    (fun d ->
      match d with
      | Dfunc (ret, fname, params, _) when Ir.find_func m fname = None ->
          let f =
            Ir.mk_func ~name:fname ~return:(lty g ret)
              ~params:(List.map (fun (t, n) -> (n, lty g t)) params)
              ()
          in
          Ir.add_func m f
      | _ -> ())
    prog;
  (* globals *)
  List.iter
    (fun d ->
      match d with
      | Dglobal (ty, gname, init) ->
          let want = lty g ty in
          let cinit =
            match init with
            | None -> { Ir.cty = want; ckind = Ir.Czero }
            | Some i -> const_init g ty i
          in
          let gl = Ir.mk_global ~name:gname ~ty:want ~init:cinit () in
          Ir.add_global m gl
      | _ -> ())
    prog;
  (* pass 3: function bodies *)
  List.iter
    (fun d ->
      match d with
      | Dfunc (_, _, _, []) -> () (* declaration only *)
      | Dfunc (ret, fname, params, body) ->
          let f = Option.get (Ir.find_func m fname) in
          let entry = Ir.mk_block ~name:"entry" () in
          Ir.append_block f entry;
          let bld = Builder.create m in
          Builder.position_at_end entry bld;
          let fx =
            {
              g;
              f;
              bld;
              scopes = [ [] ];
              break_targets = [];
              continue_targets = [];
              ret_ty = ret;
              terminated = false;
              block_counter = 0;
            }
          in
          (* spill parameters into allocas so they are mutable lvalues *)
          List.iteri
            (fun k (pty, pname) ->
              let slot = entry_alloca fx pty pname in
              let arg = Ir.Varg (List.nth f.Ir.fargs k) in
              Builder.store fx.bld arg slot;
              add_local fx pname (slot, pty))
            params;
          List.iter (gen_stmt fx) body;
          if not fx.terminated then begin
            match ret with
            | Cvoid -> Builder.ret fx.bld None
            | _ when fname = "main" ->
                Builder.ret fx.bld (Some (Ir.const_int (lty g ret) 0L))
            | t when is_cfp t ->
                Builder.ret fx.bld (Some (Ir.const_float (lty g t) 0.0))
            | Cptr _ -> Builder.ret fx.bld (Some (Ir.const_null (lty g ret)))
            | t -> Builder.ret fx.bld (Some (Ir.const_int (lty g t) 0L))
          end
      | _ -> ())
    prog;
  m

(* compile + verify + optionally optimize: the standard pipeline. A module
   the optimizer leaves invalid raises [Verify.Invalid] with the
   verifier's messages so drivers can report them and exit non-zero. *)
let compile_and_verify ?name ?target ?(optimize = 0) src : Ir.modl =
  let m = compile ?name ?target src in
  (match Verify.verify_module m with
  | [] -> ()
  | errs ->
      failwith
        ("minic produced invalid LLVA: " ^ String.concat "; " errs));
  if optimize > 0 then begin
    ignore (Transform.Passmgr.optimize ~level:optimize m);
    match Verify.verify_module m with
    | [] -> ()
    | errs -> raise (Verify.Invalid errs)
  end;
  m
