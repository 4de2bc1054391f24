(* X86-lite instruction selection.

   One LLVA instruction expands to a handful of machine instructions; per
   the paper the X86 back-end "performs virtually no optimization and very
   simple register allocation resulting in significant spill code", which
   here is the default [Spill_everything] allocator (every SSA value
   lives in a stack slot; AX/CX/DX are scratch). [~alloc:Linear_scan]
   keeps hot values in BX/SI/DI for the ablation benchmarks.

   Frame layout (BP-based):
     [BP+16+8k]  argument k (pushed by the caller, 8 bytes each)
     [BP+8]      return address
     [BP]        saved BP
     [BP-8(k+1)] spill slot k (value slots, then phi transfer slots)
     below       static alloca area, callee-saved save area, then
                 dynamic allocas (SP)

   This module is X86-lite's half of instruction selection: lowering
   (the epilogue is part of [ret]), the prologue with argument homing,
   and the emit-fusion rule. [Codegen.Select.Make], applied to them and
   to the branch and frame-slot hooks below, lays out the frame, walks
   the blocks, resolves labels and adds the branch clean-up, learned
   peephole pass and code metrics of [Codegen.Peephole.Make];
   [Superopt.Backend.X86] is this back-end as the rest of the system
   sees it. *)

open Llva
open X86
open Codegen.Select

type cfunc = instr Codegen.Native.cfunc
type cmodule = instr Codegen.Native.cmodule

(* Emit with a tiny peephole over the instruction being appended and the
   newest buffered one (no label may intervene):
     mov [slot], r  ;  mov r, [slot]    drop the reload
     mov [slot], r  ;  mov r2, [slot]   forward the register: mov r2, r
     mov r, r                           drop the self-move
   These fire even with an empty learned rewrite table, giving the
   offline superoptimizer ([lib/superopt]) a clean baseline. *)
let emit ctx i =
  match (i, ctx.buf) with
  | Mov (R r, R r'), _ when r = r' -> ()
  | Mov (R r, M m), Mov (M m', R r') :: _ when m = m' && fused ctx ->
      if r <> r' then push ctx (Mov (R r, R r'))
  | _ -> push ctx i

let slot_disp k = -8 * (k + 1)
let slot_mem _ctx k = { base = bp; disp = slot_disp k }
let transfer_mem ctx t = slot_mem ctx (ctx.n_value_slots + t)

(* location of an SSA value id *)
let loc_of ctx vid =
  match Codegen.Regalloc.location_opt ctx.assignment vid with
  | Some (Codegen.Regalloc.Reg r) -> R r
  | Some (Codegen.Regalloc.Slot s) -> M (slot_mem ctx s)
  | None -> I 0L (* dead value: never read *)

(* [Codegen.Select.scalar_const_bits] with this module's boxed 0 and 1:
   the marshaled code shares them with the immediates below ([I 0L]),
   and the cached bytes record that sharing *)
let scalar_const_bits ctx (c : Ir.const) =
  match c.Ir.ckind with
  | Ir.Cbool true -> 1L
  | Ir.Cbool false | Ir.Cnull | Ir.Czero -> 0L
  | _ -> scalar_const_bits ctx c

(* A source operand usable directly in a register-memory instruction:
   constants become immediates, allocated values their home location. *)
let src_operand ctx (v : Ir.value) : operand =
  match v with
  | Ir.Const c -> I (scalar_const_bits ctx c)
  | Ir.Vundef _ -> I 0L
  | Ir.Vglobal g -> I (symbol_addr ctx g.Ir.gname)
  | Ir.Vfunc f -> I (symbol_addr ctx f.Ir.fname)
  | Ir.Vreg i -> loc_of ctx i.Ir.iid
  | Ir.Varg a -> loc_of ctx a.Ir.aid
  | Ir.Vblock _ -> invalid_arg "x86lite: label operand in value context"

(* Bring an integer-class value into the given scratch register. *)
let load_int ctx (v : Ir.value) (r : reg) = emit ctx (Mov (R r, src_operand ctx v))

(* Bring a float-class value into the given float scratch register. *)
let load_float ctx (v : Ir.value) (f : freg) =
  match v with
  | Ir.Const { ckind = Ir.Cfloat x; Ir.cty } ->
      emit ctx (Fconst (f, Eval.round_float cty x))
  | Ir.Const { ckind = Ir.Czero; _ } | Ir.Vundef _ -> emit ctx (Fconst (f, 0.0))
  | Ir.Vreg _ | Ir.Varg _ -> (
      match home ctx v with
      | Some (Codegen.Regalloc.Reg r) -> emit ctx (Fmov (f, r))
      | Some (Codegen.Regalloc.Slot s) ->
          emit ctx (Fload (f, slot_mem ctx s, false))
      | None -> emit ctx (Fconst (f, 0.0)))
  | _ -> invalid_arg "x86lite: bad float operand"

(* Store scratch register into a value's home location. *)
let store_int ctx vid (r : reg) =
  match loc_of ctx vid with
  | R d -> if d <> r then emit ctx (Mov (R d, R r))
  | M m -> emit ctx (Mov (M m, R r))
  | I _ -> () (* dead *)

let store_float ctx vid (f : freg) =
  match Codegen.Regalloc.location_opt ctx.assignment vid with
  | Some (Codegen.Regalloc.Reg d) -> if d <> f then emit ctx (Fmov (d, f))
  | Some (Codegen.Regalloc.Slot s) ->
      emit ctx (Fstore (slot_mem ctx s, f, false))
  | None -> ()

(* move a value (either class) into a phi transfer slot *)
let copy_to_transfer ctx (c : Codegen.Phiplan.edge_copy) =
  let slot = transfer_mem ctx c.Codegen.Phiplan.transfer_slot in
  if is_float_ty ctx c.Codegen.Phiplan.phi.Ir.ity then begin
    load_float ctx c.Codegen.Phiplan.src 0;
    emit ctx (Fstore (slot, 0, false))
  end
  else begin
    load_int ctx c.Codegen.Phiplan.src ax;
    emit ctx (Mov (M slot, R ax))
  end

let copy_from_transfer ctx (slot_idx, (phi : Ir.instr)) =
  let slot = transfer_mem ctx slot_idx in
  if is_float_ty ctx phi.Ir.ity then begin
    emit ctx (Fload (0, slot, false));
    store_float ctx phi.Ir.iid 0
  end
  else begin
    emit ctx (Mov (R ax, M slot));
    store_int ctx phi.Ir.iid ax
  end

(* ---------- calls ---------- *)

let lower_call ctx (i : Ir.instr) ~except =
  let callee = Ir.call_callee i in
  let args = Ir.call_args i in
  let n = List.length args in
  if n > 0 then emit ctx (AddSp (-8 * n));
  List.iteri
    (fun k arg ->
      if is_float_ty ctx (Ir.type_of_value arg) then begin
        load_float ctx arg 0;
        emit ctx (Fstore ({ base = sp; disp = 8 * k }, 0, false))
      end
      else begin
        load_int ctx arg ax;
        emit ctx (Mov (M { base = sp; disp = 8 * k }, R ax))
      end)
    args;
  (match (callee, except) with
  | Ir.Vfunc f, None -> emit ctx (CallSym f.Ir.fname)
  | Ir.Vfunc f, Some lbl -> emit ctx (CallSymI (f.Ir.fname, lbl))
  | _, None ->
      load_int ctx callee cx;
      emit ctx (CallInd (R cx))
  | _, Some lbl ->
      load_int ctx callee cx;
      emit ctx (CallIndI (R cx, lbl)));
  if n > 0 then emit ctx (AddSp (8 * n));
  (* the result arrives in AX / F0 *)
  if not (Types.equal i.Ir.ity Types.Void) then
    if is_float_ty ctx i.Ir.ity then store_float ctx i.Ir.iid 0
    else store_int ctx i.Ir.iid ax

(* ---------- per-instruction selection ---------- *)

let lower_instr ctx (i : Ir.instr) =
  match i.Ir.op with
  | Ir.Phi -> () (* handled by the transfer-slot copies *)
  | Ir.Binop op -> (
      let ty = i.Ir.ity in
      if is_float_ty ctx ty then begin
        let fop = fop_of ctx op in
        load_float ctx i.Ir.operands.(0) 0;
        load_float ctx i.Ir.operands.(1) 1;
        emit ctx (Falu (fop, is_single ctx ty, 0, 1));
        store_float ctx i.Ir.iid 0
      end
      else begin
        let w = width_of ctx ty and s = signed_of ctx ty in
        load_int ctx i.Ir.operands.(0) ax;
        match op with
        | Ir.Add | Ir.Sub | Ir.Mul | Ir.And | Ir.Or | Ir.Xor ->
            let aop =
              match op with
              | Ir.Add -> Add
              | Ir.Sub -> Sub
              | Ir.Mul -> Imul
              | Ir.And -> And
              | Ir.Or -> Or
              | Ir.Xor -> Xor
              | _ -> assert false
            in
            emit ctx (Alu (aop, w, s, R ax, src_operand ctx i.Ir.operands.(1)));
            store_int ctx i.Ir.iid ax
        | Ir.Div | Ir.Rem ->
            let src = src_operand ctx i.Ir.operands.(1) in
            let src = match src with I _ | R _ -> src | M _ -> (load_int ctx i.Ir.operands.(1) dx; R dx) in
            let mk = if op = Ir.Div then Div (w, s, R ax, src) else Rem (w, s, R ax, src) in
            if i.Ir.exceptions_enabled then emit ctx mk
            else begin
              (* ExceptionsEnabled=false: a non-trapping division; guard
                 against zero and produce 0 (the translator's encoding of
                 an ignored exception, §3.3) *)
              let skip = fresh_label ctx and done_ = fresh_label ctx in
              emit ctx (Cmp (w, s, src, I 0L));
              emit ctx (Jcc (Eq, skip));
              emit ctx mk;
              emit ctx (Jmp done_);
              place_label ctx skip;
              emit ctx (Mov (R ax, I 0L));
              place_label ctx done_
            end;
            store_int ctx i.Ir.iid ax
        | Ir.Shl | Ir.Shr ->
            let count =
              match src_operand ctx i.Ir.operands.(1) with
              | I c -> I c
              | _ ->
                  load_int ctx i.Ir.operands.(1) cx;
                  R cx
            in
            emit ctx (Shift (op = Ir.Shl, w, s, R ax, count));
            store_int ctx i.Ir.iid ax
      end)
  | Ir.Setcc c ->
      let opty = Types.resolve ctx.env (Ir.type_of_value i.Ir.operands.(0)) in
      if Types.is_fp opty then begin
        load_float ctx i.Ir.operands.(0) 0;
        load_float ctx i.Ir.operands.(1) 1;
        emit ctx (Fcmp (0, 1));
        emit ctx (Setcc (Codegen.Native.cc_of_cmp true c, ax));
        store_int ctx i.Ir.iid ax
      end
      else begin
        let w = width_of ctx opty in
        let s = signed_of ctx opty in
        load_int ctx i.Ir.operands.(0) ax;
        emit ctx (Cmp (w, s, R ax, src_operand ctx i.Ir.operands.(1)));
        emit ctx (Setcc (Codegen.Native.cc_of_cmp s c, ax));
        store_int ctx i.Ir.iid ax
      end
  | Ir.Load ->
      let elem = Types.resolve ctx.env i.Ir.ity in
      load_int ctx i.Ir.operands.(0) cx;
      let guard_end =
        if i.Ir.exceptions_enabled then None
        else begin
          (* non-trapping load: null pointer yields 0 *)
          let skip = fresh_label ctx and done_ = fresh_label ctx in
          emit ctx (Cmp (W64, false, R cx, I 0L));
          emit ctx (Jcc (Eq, skip));
          Some (skip, done_)
        end
      in
      if Types.is_fp elem then
        emit ctx (Fload (0, { base = cx; disp = 0 }, is_single ctx elem))
      else
        emit ctx
          (Mload (ax, { base = cx; disp = 0 }, width_of ctx elem,
                  signed_of ctx elem));
      (match guard_end with
      | Some (skip, done_) ->
          emit ctx (Jmp done_);
          place_label ctx skip;
          if Types.is_fp elem then emit ctx (Fconst (0, 0.0))
          else emit ctx (Mov (R ax, I 0L));
          place_label ctx done_
      | None -> ());
      if Types.is_fp elem then store_float ctx i.Ir.iid 0
      else store_int ctx i.Ir.iid ax
  | Ir.Store ->
      let vty = Types.resolve ctx.env (Ir.type_of_value i.Ir.operands.(0)) in
      load_int ctx i.Ir.operands.(1) cx;
      let skip_store =
        if i.Ir.exceptions_enabled then None
        else begin
          let skip = fresh_label ctx in
          emit ctx (Cmp (W64, false, R cx, I 0L));
          emit ctx (Jcc (Eq, skip));
          Some skip
        end
      in
      if Types.is_fp vty then begin
        load_float ctx i.Ir.operands.(0) 0;
        emit ctx (Fstore ({ base = cx; disp = 0 }, 0, is_single ctx vty))
      end
      else begin
        load_int ctx i.Ir.operands.(0) ax;
        emit ctx (Mstore ({ base = cx; disp = 0 }, ax, width_of ctx vty))
      end;
      (match skip_store with
      | Some skip -> place_label ctx skip
      | None -> ())
  | Ir.Getelementptr ->
      load_int ctx i.Ir.operands.(0) ax;
      let disp =
        gep_offset ctx i ~scale:(fun op sz ->
            load_int ctx op dx;
            if sz <> 1 then
              emit ctx (Alu (Imul, W64, true, R dx, I (Int64.of_int sz)));
            emit ctx (Alu (Add, W64, true, R ax, R dx)))
      in
      if disp <> 0 then emit ctx (Alu (Add, W64, true, R ax, I (Int64.of_int disp)));
      if ctx.m.Ir.target.Target.ptr_size = 4 then emit ctx (Ext (ax, W32, false));
      store_int ctx i.Ir.iid ax
  | Ir.Alloca -> (
      match alloca_offset ctx i with
      | Some off ->
          emit ctx (Lea (ax, { base = bp; disp = -off }));
          store_int ctx i.Ir.iid ax
      | None ->
          (* dynamic alloca: size = count * sizeof(elem), 8-aligned *)
          let elem = Types.pointee ctx.env i.Ir.ity in
          let sz = Vmem.Layout.size_of ctx.lt elem in
          load_int ctx i.Ir.operands.(0) ax;
          if sz <> 1 then emit ctx (Alu (Imul, W64, true, R ax, I (Int64.of_int sz)));
          emit ctx (Alu (Add, W64, true, R ax, I 7L));
          emit ctx (Alu (And, W64, true, R ax, I (-8L)));
          emit ctx (SubSpDyn (dx, ax));
          store_int ctx i.Ir.iid dx)
  | Ir.Cast ->
      let src_ty = Types.resolve ctx.env (Ir.type_of_value i.Ir.operands.(0)) in
      let dst_ty = Types.resolve ctx.env i.Ir.ity in
      if Types.is_fp dst_ty then
        if Types.is_fp src_ty then begin
          load_float ctx i.Ir.operands.(0) 0;
          if is_single ctx dst_ty then emit ctx (Fround 0);
          store_float ctx i.Ir.iid 0
        end
        else begin
          load_int ctx i.Ir.operands.(0) ax;
          emit ctx (Cvtif (0, ax, Types.is_signed src_ty));
          if is_single ctx dst_ty then emit ctx (Fround 0);
          store_float ctx i.Ir.iid 0
        end
      else if Types.is_fp src_ty then begin
        load_float ctx i.Ir.operands.(0) 0;
        let w = width_of ctx dst_ty and s = signed_of ctx dst_ty in
        emit ctx (Cvtfi (ax, 0, w, s));
        store_int ctx i.Ir.iid ax
      end
      else begin
        load_int ctx i.Ir.operands.(0) ax;
        (match dst_ty with
        | Types.Bool ->
            emit ctx (Cmp (W64, false, R ax, I 0L));
            emit ctx (Setcc (Ne, ax))
        | Types.Pointer _ ->
            if ctx.m.Ir.target.Target.ptr_size = 4 then
              emit ctx (Ext (ax, W32, false))
        | t when Types.is_integer t ->
            emit ctx (Ext (ax, width_of ctx t, Types.is_signed t))
        | _ -> ());
        store_int ctx i.Ir.iid ax
      end
  | Ir.Call -> lower_call ctx i ~except:None
  | Ir.Invoke ->
      let except = label_of ctx (Ir.block_of_value i.Ir.operands.(2)) in
      let normal = label_of ctx (Ir.block_of_value i.Ir.operands.(1)) in
      lower_call ctx i ~except:(Some except);
      emit ctx (Jmp normal)
  | Ir.Unwind -> emit ctx Unwind
  | Ir.Ret ->
      if Array.length i.Ir.operands = 1 then begin
        let v = i.Ir.operands.(0) in
        if is_float_ty ctx (Ir.type_of_value v) then begin
          load_float ctx v 0;
          emit ctx (Fpushret 0)
        end
        else load_int ctx v ax
      end;
      (* epilogue: restore callee-saved registers, tear down the frame *)
      List.iter (fun (r, m) -> emit ctx (Mov (R r, M m))) ctx.saved_int;
      List.iter (fun (fr, m) -> emit ctx (Fload (fr, m, false))) ctx.saved_float;
      emit ctx (Mov (R sp, R bp));
      emit ctx (Pop bp);
      emit ctx Ret
  | Ir.Br ->
      if Array.length i.Ir.operands = 1 then
        emit ctx (Jmp (label_of ctx (Ir.block_of_value i.Ir.operands.(0))))
      else begin
        emit ctx (Cmp (W8, false, src_operand ctx i.Ir.operands.(0), I 0L));
        emit ctx (Jcc (Ne, label_of ctx (Ir.block_of_value i.Ir.operands.(1))));
        emit ctx (Jmp (label_of ctx (Ir.block_of_value i.Ir.operands.(2))))
      end
  | Ir.Mbr ->
      let w = width_of ctx (Ir.type_of_value i.Ir.operands.(0)) in
      let s = signed_of ctx (Ir.type_of_value i.Ir.operands.(0)) in
      load_int ctx i.Ir.operands.(0) ax;
      List.iter
        (fun (c, b) ->
          emit ctx (Cmp (w, s, R ax, I c));
          emit ctx (Jcc (Eq, label_of ctx b)))
        (Ir.mbr_cases i);
      emit ctx (Jmp (label_of ctx (Ir.block_of_value i.Ir.operands.(1))))

(* ---------- prologue ---------- *)

let prologue ctx (f : Ir.func) =
  emit ctx (Push (R bp));
  emit ctx (Mov (R bp, R sp));
  if ctx.total_frame > 0 then emit ctx (AddSp (-ctx.total_frame));
  List.iter (fun (r, m) -> emit ctx (Mov (M m, R r))) ctx.saved_int;
  List.iter (fun (fr, m) -> emit ctx (Fstore (m, fr, false))) ctx.saved_float;
  (* spill incoming arguments to their home locations *)
  List.iteri
    (fun k (a : Ir.arg) ->
      let src = { base = bp; disp = 16 + (8 * k) } in
      if is_float_ty ctx a.Ir.aty then begin
        emit ctx (Fload (0, src, false));
        store_float ctx a.Ir.aid 0
      end
      else begin
        emit ctx (Mov (R ax, M src));
        store_int ctx a.Ir.aid ax
      end)
    f.Ir.fargs

(* ---------- the shared frame, branch clean-up and peephole pass ---------- *)

include Codegen.Select.Make (struct
  type nonrec instr = instr
  type slot = mem

  let name = "x86lite"
  let default_alloc = Codegen.Regalloc.Spill_everything
  let allocatable_int = allocatable_int
  let allocatable_float = allocatable_float
  let slot_base = 0
  let slot_disp = slot_disp
  let save_slot disp = { base = bp; disp }
  let trap msg = Trap msg
  let prologue = prologue
  let copy_from_transfer = copy_from_transfer
  let copy_to_transfer = copy_to_transfer
  let lower_instr = lower_instr

  let cycles_of = cycles_of
  let size_of = size_of
  let to_string = to_string
  let jump_target = function Jmp l -> Some l | _ -> None

  let branch_target = function
    | Jmp l | Jcc (_, l) | CallSymI (_, l) | CallIndI (_, l) -> Some l
    | _ -> None

  let retarget f = function
    | Jmp l -> Jmp (f l)
    | Jcc (cc, l) -> Jcc (cc, f l)
    | CallSymI (s, l) -> CallSymI (s, f l)
    | CallIndI (o, l) -> CallIndI (o, f l)
    | other -> other

  let invert ~fallthrough i next =
    match (i, next) with
    | Jcc (cc, a), Jmp b when a = fallthrough ->
        Some (Jcc (Codegen.Native.negate_cc cc, b), Jmp a)
    | _ -> None

  (* BP-based slots only; SP and BP never appear as data *)
  let canon_instr ~slot i =
    let op = function
      | M { base; disp } when base = bp -> M { base = bp; disp = slot disp }
      | M _ -> raise Codegen.Peephole.Not_canon
      | R r when r = sp || r = bp -> raise Codegen.Peephole.Not_canon
      | o -> o
    in
    match i with
    | Mov (a, b) -> Mov (op a, op b)
    | Alu (o, w, s, a, b) -> Alu (o, w, s, op a, op b)
    | Shift (l, w, s, a, b) -> Shift (l, w, s, op a, op b)
    | Cmp (w, s, a, b) -> Cmp (w, s, op a, op b)
    | (Ext (r, _, _) | Setcc (_, r)) when r = sp || r = bp ->
        raise Codegen.Peephole.Not_canon
    | Ext _ | Setcc _ -> i
    | _ -> raise Codegen.Peephole.Not_canon

  let map_slots f i =
    let op = function M m -> M { m with disp = f m.disp } | o -> o in
    match i with
    | Mov (a, b) -> Mov (op a, op b)
    | Alu (o, w, s, a, b) -> Alu (o, w, s, op a, op b)
    | Shift (l, w, s, a, b) -> Shift (l, w, s, op a, op b)
    | Cmp (w, s, a, b) -> Cmp (w, s, op a, op b)
    | i -> i
end)
