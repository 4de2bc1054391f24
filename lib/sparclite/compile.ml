(* SPARC-lite instruction selection, with linear-scan register
   allocation by default (the paper's "higher quality" back-end). Being
   a load/store RISC, all operations are register-register; large
   constants are synthesized with sethi+add sequences, which together
   with two-instruction compare+branch forms is why the LLVA -> SPARC
   expansion ratio exceeds the X86 one in Table 2.

   Frame layout (FP = SP at entry):
     [FP + 8(k-6)]  incoming stack argument k (k >= 6)
     [FP - 8]       saved FP
     [FP - 16]      saved LR
     [FP - 24 - 8k] spill slot k (value slots, then phi transfer slots)
     below          static allocas, callee-saved register save area

   This module is SPARC-lite's half of instruction selection: lowering
   (the epilogue is part of [ret]), the prologue with argument homing,
   and the emit-fusion rule. [Codegen.Select.Make], applied to them and
   to the branch and frame-slot hooks below, lays out the frame, walks
   the blocks, resolves labels and adds the branch clean-up, learned
   peephole pass and code metrics of [Codegen.Peephole.Make];
   [Superopt.Backend.Sparc] is this back-end as the rest of the system
   sees it. *)

open Llva
open Sparc
open Codegen.Select

type cfunc = instr Codegen.Native.cfunc
type cmodule = instr Codegen.Native.cmodule

(* Emit with a tiny peephole (mirroring the X86-lite emitter): a reload
   of the frame slot just stored becomes a register move (or disappears
   entirely when the registers agree), and "or rd, rs, 0" self-moves
   vanish. A label fences fusion. These fire even with an empty learned
   rewrite table, giving the offline superoptimizer (lib/superopt) a
   clean baseline. *)
let emit ctx i =
  match (i, ctx.buf) with
  | Alu3 (Or, W64, true, rd, rs, Imm 0), _ when rd = rs -> ()
  | Ld (W64, _, rd, b, d), St (W64, rs, b', d') :: _
    when b = b' && d = d' && fused ctx ->
      if rd <> rs then push ctx (Alu3 (Or, W64, true, rd, rs, Imm 0))
  | _ -> push ctx i

let slot_disp k = -24 - (8 * k)
(* Synthesize an arbitrary 64-bit constant into [rd] with real RISC
   sequences: 1 instruction for imm13, 2 for 32-bit, up to 6 for 64. *)
let emit_const ctx rd (v : int64) =
  if fits_imm13 v then emit ctx (Alu3 (Or, W64, true, rd, zero, Imm (Int64.to_int v)))
  else if Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0
  then begin
    let lo = Int64.to_int (Int64.logand v 0xFFFL) in
    let hi = Int64.sub v (Int64.of_int lo) in
    emit ctx (Sethi (rd, hi));
    if lo <> 0 then emit ctx (Alu3 (Add, W64, true, rd, rd, Imm lo))
  end
  else begin
    let upper = Int64.shift_right v 32 in
    let lower = Int64.logand v 0xFFFFFFFFL in
    let lo_u = Int64.to_int (Int64.logand upper 0xFFFL) in
    emit ctx (Sethi (rd, Int64.sub upper (Int64.of_int lo_u)));
    if lo_u <> 0 then emit ctx (Alu3 (Add, W64, true, rd, rd, Imm lo_u));
    emit ctx (Alu3 (Sll, W64, false, rd, rd, Imm 32));
    let lo_l = Int64.to_int (Int64.logand lower 0xFFFL) in
    emit ctx (Sethi (t4, Int64.sub lower (Int64.of_int lo_l)));
    if lo_l <> 0 then emit ctx (Alu3 (Add, W64, true, t4, t4, Imm lo_l));
    emit ctx (Alu3 (Add, W64, true, rd, rd, Rs t4))
  end

(* Symbol addresses use the SPARC V9 medium-code-model sequence
   (sethi %h44 / or %m44 / sllx 12 / or %l44): native code cannot assume
   link addresses fit small immediates, so every global or function
   address costs four instructions -- a real contributor to the RISC
   expansion ratio in the paper's Table 2. *)
let emit_symbol_addr ctx rd (addr : int64) =
  let v = Int64.shift_right_logical addr 12 in
  let low10 = Int64.to_int (Int64.logand v 0x3FFL) in
  emit ctx (Sethi (rd, Int64.sub v (Int64.of_int low10)));
  emit ctx (Alu3 (Add, W64, true, rd, rd, Imm low10));
  emit ctx (Alu3 (Sll, W64, false, rd, rd, Imm 12));
  emit ctx (Alu3 (Add, W64, true, rd, rd, Imm (Int64.to_int (Int64.logand addr 0xFFFL))))

(* Bring a value into a register; prefers its home register. *)
let reg_of ctx (v : Ir.value) ~(scratch : reg) : reg =
  match v with
  | Ir.Const ({ Ir.ckind = Ir.Cglobal_ref _; _ } as c) ->
      emit_symbol_addr ctx scratch (scalar_const_bits ctx c);
      scratch
  | Ir.Const c ->
      let bits = scalar_const_bits ctx c in
      if Int64.equal bits 0L then zero
      else begin
        emit_const ctx scratch bits;
        scratch
      end
  | Ir.Vundef _ -> zero
  | Ir.Vglobal g ->
      emit_symbol_addr ctx scratch (symbol_addr ctx g.Ir.gname);
      scratch
  | Ir.Vfunc f ->
      emit_symbol_addr ctx scratch (symbol_addr ctx f.Ir.fname);
      scratch
  | Ir.Vreg _ | Ir.Varg _ -> (
      match home ctx v with
      | Some (Codegen.Regalloc.Reg r) -> r
      | Some (Codegen.Regalloc.Slot s) ->
          emit ctx (Ld (W64, false, scratch, fp, slot_disp s));
          scratch
      | None -> zero)
  | Ir.Vblock _ -> invalid_arg "sparclite: label operand in value context"

(* Second ALU operand: a small immediate or a register. *)
let operand_of ctx (v : Ir.value) ~(scratch : reg) : operand =
  match v with
  | Ir.Const c ->
      let bits = scalar_const_bits ctx c in
      if fits_imm13 bits then Imm (Int64.to_int bits)
      else Rs (reg_of ctx v ~scratch)
  | Ir.Vundef _ -> Imm 0
  | _ -> Rs (reg_of ctx v ~scratch)

(* Destination register for a value of either class: its home register,
   or a scratch that the caller must then [finish] (or [ffinish]) to
   spill. *)
let dst_of ctx vid ~scratch =
  match Codegen.Regalloc.location_opt ctx.assignment vid with
  | Some (Codegen.Regalloc.Reg r) -> (r, None)
  | Some (Codegen.Regalloc.Slot s) -> (scratch, Some s)
  | None -> (scratch, None)

let finish ctx (rd, spill) =
  match spill with
  | Some s -> emit ctx (St (W64, rd, fp, slot_disp s))
  | None -> ()

(* float helpers; floats live in float registers or 8-byte slots *)
let freg_of ctx (v : Ir.value) ~(scratch : freg) : freg =
  match v with
  | Ir.Const { ckind = Ir.Cfloat x; Ir.cty } ->
      emit ctx (Fconst (scratch, Eval.round_float cty x));
      scratch
  | Ir.Const { ckind = Ir.Czero; _ } | Ir.Vundef _ ->
      emit ctx (Fconst (scratch, 0.0));
      scratch
  | Ir.Vreg _ | Ir.Varg _ -> (
      match home ctx v with
      | Some (Codegen.Regalloc.Reg r) -> r
      | Some (Codegen.Regalloc.Slot s) ->
          emit ctx (Fld (false, scratch, fp, slot_disp s));
          scratch
      | None ->
          emit ctx (Fconst (scratch, 0.0));
          scratch)
  | _ -> invalid_arg "sparclite: bad float operand"

let ffinish ctx (fd, spill) =
  match spill with
  | Some s -> emit ctx (Fst (false, fd, fp, slot_disp s))
  | None -> ()

(* phi transfer slots live after the value slots *)
let transfer_disp ctx t = slot_disp (ctx.n_value_slots + t)

let copy_to_transfer ctx (c : Codegen.Phiplan.edge_copy) =
  if is_float_ty ctx c.Codegen.Phiplan.phi.Ir.ity then begin
    let f = freg_of ctx c.Codegen.Phiplan.src ~scratch:0 in
    emit ctx (Fst (false, f, fp, transfer_disp ctx c.Codegen.Phiplan.transfer_slot))
  end
  else begin
    let r = reg_of ctx c.Codegen.Phiplan.src ~scratch:t1 in
    emit ctx (St (W64, r, fp, transfer_disp ctx c.Codegen.Phiplan.transfer_slot))
  end

let copy_from_transfer ctx (slot_idx, (phi : Ir.instr)) =
  if is_float_ty ctx phi.Ir.ity then begin
    let fd, spill = dst_of ctx phi.Ir.iid ~scratch:0 in
    emit ctx (Fld (false, fd, fp, transfer_disp ctx slot_idx));
    ffinish ctx (fd, spill)
  end
  else begin
    let rd, spill = dst_of ctx phi.Ir.iid ~scratch:t1 in
    emit ctx (Ld (W64, false, rd, fp, transfer_disp ctx slot_idx));
    finish ctx (rd, spill)
  end

(* ---------- calls ---------- *)

let lower_call ctx (i : Ir.instr) ~except =
  let callee = Ir.call_callee i in
  let args = Ir.call_args i in
  let n = List.length args in
  let extra = max 0 (n - n_arg_regs) in
  if extra > 0 then emit ctx (AddSp (-8 * extra));
  (* stack arguments first (they may use scratch freely) *)
  List.iteri
    (fun k arg ->
      if k >= n_arg_regs then begin
        let j = k - n_arg_regs in
        if is_float_ty ctx (Ir.type_of_value arg) then begin
          let f = freg_of ctx arg ~scratch:0 in
          emit ctx (Mvfi (t1, f));
          emit ctx (St (W64, t1, sp, 8 * j))
        end
        else begin
          let r = reg_of ctx arg ~scratch:t1 in
          emit ctx (St (W64, r, sp, 8 * j))
        end
      end)
    args;
  (* then register arguments r8..r13, floats as raw bits *)
  List.iteri
    (fun k arg ->
      if k < n_arg_regs then
        if is_float_ty ctx (Ir.type_of_value arg) then begin
          let f = freg_of ctx arg ~scratch:0 in
          emit ctx (Mvfi (arg_reg k, f))
        end
        else
          let r = reg_of ctx arg ~scratch:t1 in
          if r <> arg_reg k then
            emit ctx (Alu3 (Or, W64, true, arg_reg k, r, Imm 0))
          else ())
    args;
  (match (callee, except) with
  | Ir.Vfunc f, None -> emit ctx (CallSym f.Ir.fname)
  | Ir.Vfunc f, Some lbl -> emit ctx (CallSymI (f.Ir.fname, lbl))
  | _, None ->
      let r = reg_of ctx callee ~scratch:t1 in
      emit ctx (CallInd r)
  | _, Some lbl ->
      let r = reg_of ctx callee ~scratch:t1 in
      emit ctx (CallIndI (r, lbl)));
  if extra > 0 then emit ctx (AddSp (8 * extra));
  if not (Types.equal i.Ir.ity Types.Void) then
    if is_float_ty ctx i.Ir.ity then begin
      let fd, spill = dst_of ctx i.Ir.iid ~scratch:0 in
      if fd <> 0 then emit ctx (Fmovs (fd, 0));
      ffinish ctx (fd, spill)
    end
    else begin
      let rd, spill = dst_of ctx i.Ir.iid ~scratch:t1 in
      if rd <> ret then emit ctx (Alu3 (Or, W64, true, rd, ret, Imm 0));
      finish ctx (rd, spill)
    end

(* ---------- instruction selection ---------- *)

let lower_instr ctx (i : Ir.instr) =
  match i.Ir.op with
  | Ir.Phi -> ()
  | Ir.Binop op ->
      let ty = i.Ir.ity in
      if is_float_ty ctx ty then begin
        let fop = fop_of ctx op in
        let fa = freg_of ctx i.Ir.operands.(0) ~scratch:0 in
        let fb = freg_of ctx i.Ir.operands.(1) ~scratch:1 in
        let fd, spill = dst_of ctx i.Ir.iid ~scratch:2 in
        emit ctx (Falu (fop, is_single ctx ty, fd, fa, fb));
        ffinish ctx (fd, spill)
      end
      else begin
        let w = width_of ctx ty and s = signed_of ctx ty in
        let aop =
          match op with
          | Ir.Add -> Add
          | Ir.Sub -> Sub
          | Ir.Mul -> Mul
          | Ir.Div -> Div
          | Ir.Rem -> Rem
          | Ir.And -> And
          | Ir.Or -> Or
          | Ir.Xor -> Xor
          | Ir.Shl -> Sll
          | Ir.Shr -> if s then Sra else Srl
        in
        let rs1 = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
        let o2 = operand_of ctx i.Ir.operands.(1) ~scratch:t2 in
        let rd, spill = dst_of ctx i.Ir.iid ~scratch:t3 in
        (match op with
        | Ir.Div | Ir.Rem when not i.Ir.exceptions_enabled ->
            (* non-trapping division: zero divisor yields 0 *)
            let skip = fresh_label ctx and done_ = fresh_label ctx in
            (match o2 with
            | Rs r -> emit ctx (Cmp (w, s, r, Imm 0))
            | Imm v ->
                emit_const ctx t4 (Int64.of_int v);
                emit ctx (Cmp (w, s, t4, Imm 0)));
            emit ctx (Bcc (Eq, skip));
            emit ctx (Alu3 (aop, w, s, rd, rs1, o2));
            emit ctx (Ba done_);
            place_label ctx skip;
            emit ctx (Alu3 (Or, W64, true, rd, zero, Imm 0));
            place_label ctx done_
        | _ -> emit ctx (Alu3 (aop, w, s, rd, rs1, o2)));
        finish ctx (rd, spill)
      end
  | Ir.Setcc c ->
      let opty = Types.resolve ctx.env (Ir.type_of_value i.Ir.operands.(0)) in
      if Types.is_fp opty then begin
        let fa = freg_of ctx i.Ir.operands.(0) ~scratch:0 in
        let fb = freg_of ctx i.Ir.operands.(1) ~scratch:1 in
        emit ctx (Fcmp (fa, fb));
        let rd, spill = dst_of ctx i.Ir.iid ~scratch:t1 in
        emit ctx (Movcc (Codegen.Native.cc_of_cmp true c, rd));
        finish ctx (rd, spill)
      end
      else begin
        let w = width_of ctx opty and s = signed_of ctx opty in
        let rs1 = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
        let o2 = operand_of ctx i.Ir.operands.(1) ~scratch:t2 in
        emit ctx (Cmp (w, s, rs1, o2));
        let rd, spill = dst_of ctx i.Ir.iid ~scratch:t1 in
        emit ctx (Movcc (Codegen.Native.cc_of_cmp s c, rd));
        finish ctx (rd, spill)
      end
  | Ir.Load ->
      let elem = Types.resolve ctx.env i.Ir.ity in
      let base = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
      let guard =
        if i.Ir.exceptions_enabled then None
        else begin
          let skip = fresh_label ctx and done_ = fresh_label ctx in
          emit ctx (Cmp (W64, false, base, Imm 0));
          emit ctx (Bcc (Eq, skip));
          Some (skip, done_)
        end
      in
      if Types.is_fp elem then begin
        let fd, spill = dst_of ctx i.Ir.iid ~scratch:0 in
        emit ctx (Fld (is_single ctx elem, fd, base, 0));
        (match guard with
        | Some (skip, done_) ->
            emit ctx (Ba done_);
            place_label ctx skip;
            emit ctx (Fconst (fd, 0.0));
            place_label ctx done_
        | None -> ());
        ffinish ctx (fd, spill)
      end
      else begin
        let rd, spill = dst_of ctx i.Ir.iid ~scratch:t2 in
        emit ctx (Ld (width_of ctx elem, signed_of ctx elem, rd, base, 0));
        (match guard with
        | Some (skip, done_) ->
            emit ctx (Ba done_);
            place_label ctx skip;
            emit ctx (Alu3 (Or, W64, true, rd, zero, Imm 0));
            place_label ctx done_
        | None -> ());
        finish ctx (rd, spill)
      end
  | Ir.Store ->
      let vty = Types.resolve ctx.env (Ir.type_of_value i.Ir.operands.(0)) in
      let base = reg_of ctx i.Ir.operands.(1) ~scratch:t1 in
      let skip =
        if i.Ir.exceptions_enabled then None
        else begin
          let skip = fresh_label ctx in
          emit ctx (Cmp (W64, false, base, Imm 0));
          emit ctx (Bcc (Eq, skip));
          Some skip
        end
      in
      if Types.is_fp vty then begin
        let f = freg_of ctx i.Ir.operands.(0) ~scratch:0 in
        emit ctx (Fst (is_single ctx vty, f, base, 0))
      end
      else begin
        let r = reg_of ctx i.Ir.operands.(0) ~scratch:t2 in
        emit ctx (St (width_of ctx vty, r, base, 0))
      end;
      (match skip with Some l -> place_label ctx l | None -> ())
  | Ir.Getelementptr ->
      let base = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
      (* accumulate into t1 *)
      if base <> t1 then emit ctx (Alu3 (Or, W64, true, t1, base, Imm 0));
      let scale op sz =
        let idx = reg_of ctx op ~scratch:t2 in
        if sz = 1 then emit ctx (Alu3 (Add, W64, true, t1, t1, Rs idx))
        else begin
          let rec log2 v k =
            if v = 1 then Some k
            else if v land 1 = 1 then None
            else log2 (v / 2) (k + 1)
          in
          (match log2 sz 0 with
          | Some sh -> emit ctx (Alu3 (Sll, W64, false, t3, idx, Imm sh))
          | None ->
              emit_const ctx t4 (Int64.of_int sz);
              emit ctx (Alu3 (Mul, W64, true, t3, idx, Rs t4)));
          emit ctx (Alu3 (Add, W64, true, t1, t1, Rs t3))
        end
      in
      let disp = gep_offset ctx i ~scale in
      if disp <> 0 then
        if fits_imm13 (Int64.of_int disp) then
          emit ctx (Alu3 (Add, W64, true, t1, t1, Imm disp))
        else begin
          emit_const ctx t4 (Int64.of_int disp);
          emit ctx (Alu3 (Add, W64, true, t1, t1, Rs t4))
        end;
      if ctx.m.Ir.target.Target.ptr_size = 4 then
        emit ctx (Alu3 (Add, W32, false, t1, t1, Imm 0));
      let rd, spill = dst_of ctx i.Ir.iid ~scratch:t1 in
      if rd <> t1 then emit ctx (Alu3 (Or, W64, true, rd, t1, Imm 0));
      finish ctx (rd, spill)
  | Ir.Alloca -> (
      match alloca_offset ctx i with
      | Some off ->
          let rd, spill = dst_of ctx i.Ir.iid ~scratch:t1 in
          emit ctx (Alu3 (Add, W64, true, rd, fp, Imm (-off)));
          finish ctx (rd, spill)
      | None ->
          let elem = Types.pointee ctx.env i.Ir.ity in
          let sz = Vmem.Layout.size_of ctx.lt elem in
          let cnt = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
          if sz = 1 then emit ctx (Alu3 (Or, W64, true, t2, cnt, Imm 0))
          else begin
            emit_const ctx t4 (Int64.of_int sz);
            emit ctx (Alu3 (Mul, W64, true, t2, cnt, Rs t4))
          end;
          emit ctx (Alu3 (Add, W64, true, t2, t2, Imm 7));
          emit ctx (Alu3 (And, W64, true, t2, t2, Imm (-8)));
          let rd, spill = dst_of ctx i.Ir.iid ~scratch:t3 in
          emit ctx (SubSpDyn (rd, t2));
          finish ctx (rd, spill))
  | Ir.Cast ->
      let src_ty = Types.resolve ctx.env (Ir.type_of_value i.Ir.operands.(0)) in
      let dst_ty = Types.resolve ctx.env i.Ir.ity in
      if Types.is_fp dst_ty then
        if Types.is_fp src_ty then begin
          let fs = freg_of ctx i.Ir.operands.(0) ~scratch:0 in
          let fd, spill = dst_of ctx i.Ir.iid ~scratch:1 in
          if fd <> fs then emit ctx (Fmovs (fd, fs));
          if is_single ctx dst_ty then emit ctx (Fround fd);
          ffinish ctx (fd, spill)
        end
        else begin
          let r = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
          let fd, spill = dst_of ctx i.Ir.iid ~scratch:0 in
          emit ctx (Cvtif (fd, r, Types.is_signed src_ty));
          if is_single ctx dst_ty then emit ctx (Fround fd);
          ffinish ctx (fd, spill)
        end
      else if Types.is_fp src_ty then begin
        let f = freg_of ctx i.Ir.operands.(0) ~scratch:0 in
        let rd, spill = dst_of ctx i.Ir.iid ~scratch:t1 in
        emit ctx (Cvtfi (rd, f, width_of ctx dst_ty, signed_of ctx dst_ty));
        finish ctx (rd, spill)
      end
      else begin
        let r = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
        let rd, spill = dst_of ctx i.Ir.iid ~scratch:t2 in
        (match dst_ty with
        | Types.Bool ->
            emit ctx (Cmp (W64, false, r, Imm 0));
            emit ctx (Movcc (Ne, rd))
        | Types.Pointer _ ->
            if ctx.m.Ir.target.Target.ptr_size = 4 then
              emit ctx (Alu3 (Add, W32, false, rd, r, Imm 0))
            else if rd <> r then emit ctx (Alu3 (Or, W64, true, rd, r, Imm 0))
            else ()
        | t when Types.is_integer t ->
            emit ctx (Alu3 (Add, width_of ctx t, Types.is_signed t, rd, r, Imm 0))
        | _ -> if rd <> r then emit ctx (Alu3 (Or, W64, true, rd, r, Imm 0)));
        finish ctx (rd, spill)
      end
  | Ir.Call -> lower_call ctx i ~except:None
  | Ir.Invoke ->
      let except = label_of ctx (Ir.block_of_value i.Ir.operands.(2)) in
      let normal = label_of ctx (Ir.block_of_value i.Ir.operands.(1)) in
      lower_call ctx i ~except:(Some except);
      emit ctx (Ba normal)
  | Ir.Unwind -> emit ctx UnwindS
  | Ir.Ret ->
      if Array.length i.Ir.operands = 1 then begin
        let v = i.Ir.operands.(0) in
        if is_float_ty ctx (Ir.type_of_value v) then begin
          let f = freg_of ctx v ~scratch:0 in
          if f <> 0 then emit ctx (Fmovs (0, f))
        end
        else begin
          let r = reg_of ctx v ~scratch:t1 in
          if r <> ret then emit ctx (Alu3 (Or, W64, true, ret, r, Imm 0))
        end
      end;
      (* epilogue: restore callee-saved, then lr/fp/sp *)
      List.iter
        (fun (r, d) -> emit ctx (Ld (W64, false, r, fp, d)))
        ctx.saved_int;
      List.iter
        (fun (f, d) -> emit ctx (Fld (false, f, fp, d)))
        ctx.saved_float;
      emit ctx (Ld (W64, false, lr, fp, -16));
      emit ctx (Ld (W64, false, t4, fp, -8));
      emit ctx (Alu3 (Or, W64, true, sp, fp, Imm 0));
      emit ctx (Alu3 (Or, W64, true, fp, t4, Imm 0));
      emit ctx RetS
  | Ir.Br ->
      if Array.length i.Ir.operands = 1 then
        emit ctx (Ba (label_of ctx (Ir.block_of_value i.Ir.operands.(0))))
      else begin
        let c = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
        emit ctx (Cmp (W8, false, c, Imm 0));
        emit ctx (Bcc (Ne, label_of ctx (Ir.block_of_value i.Ir.operands.(1))));
        emit ctx (Ba (label_of ctx (Ir.block_of_value i.Ir.operands.(2))))
      end
  | Ir.Mbr ->
      let w = width_of ctx (Ir.type_of_value i.Ir.operands.(0)) in
      let s = signed_of ctx (Ir.type_of_value i.Ir.operands.(0)) in
      let sel = reg_of ctx i.Ir.operands.(0) ~scratch:t1 in
      List.iter
        (fun (c, b) ->
          if fits_imm13 c then emit ctx (Cmp (w, s, sel, Imm (Int64.to_int c)))
          else begin
            emit_const ctx t4 c;
            emit ctx (Cmp (w, s, sel, Rs t4))
          end;
          emit ctx (Bcc (Eq, label_of ctx b)))
        (Ir.mbr_cases i);
      emit ctx (Ba (label_of ctx (Ir.block_of_value i.Ir.operands.(1))))

(* ---------- prologue ---------- *)

(* save fp and lr relative to the entry sp, establish the frame, then
   move incoming arguments to their homes *)
let prologue ctx (f : Ir.func) =
  emit ctx (St (W64, fp, sp, -8));
  emit ctx (St (W64, lr, sp, -16));
  emit ctx (Alu3 (Or, W64, true, fp, sp, Imm 0));
  emit ctx (AddSp (-ctx.total_frame));
  List.iter (fun (r, d) -> emit ctx (St (W64, r, fp, d))) ctx.saved_int;
  List.iter (fun (fr, d) -> emit ctx (Fst (false, fr, fp, d))) ctx.saved_float;
  List.iteri
    (fun k (a : Ir.arg) ->
      let fetch_int rd =
        if k < n_arg_regs then
          (if rd <> arg_reg k then
             emit ctx (Alu3 (Or, W64, true, rd, arg_reg k, Imm 0)))
        else emit ctx (Ld (W64, false, rd, fp, 8 * (k - n_arg_regs)))
      in
      if is_float_ty ctx a.Ir.aty then begin
        if k < n_arg_regs then emit ctx (Mvif (0, arg_reg k))
        else begin
          emit ctx (Ld (W64, false, t1, fp, 8 * (k - n_arg_regs)));
          emit ctx (Mvif (0, t1))
        end;
        let fd, spill = dst_of ctx a.Ir.aid ~scratch:0 in
        if fd <> 0 then emit ctx (Fmovs (fd, 0));
        ffinish ctx (fd, spill)
      end
      else begin
        let rd, spill = dst_of ctx a.Ir.aid ~scratch:t1 in
        fetch_int rd;
        finish ctx (rd, spill)
      end)
    f.Ir.fargs

(* ---------- the shared frame, branch clean-up and peephole pass ---------- *)

include Codegen.Select.Make (struct
  type nonrec instr = instr
  type slot = int

  let name = "sparclite"
  let default_alloc = Codegen.Regalloc.Linear_scan
  let allocatable_int = allocatable_int
  let allocatable_float = allocatable_float
  let slot_base = 24
  let slot_disp = slot_disp
  let save_slot disp = disp
  let trap msg = TrapS msg
  let prologue = prologue
  let copy_from_transfer = copy_from_transfer
  let copy_to_transfer = copy_to_transfer
  let lower_instr = lower_instr

  let cycles_of = cycles_of
  let size_of = size_of
  let to_string = to_string
  let jump_target = function Ba l -> Some l | _ -> None

  let branch_target = function
    | Ba l | Bcc (_, l) | CallSymI (_, l) | CallIndI (_, l) -> Some l
    | _ -> None

  let retarget f = function
    | Ba l -> Ba (f l)
    | Bcc (cc, l) -> Bcc (cc, f l)
    | CallSymI (s, l) -> CallSymI (s, f l)
    | CallIndI (r, l) -> CallIndI (r, f l)
    | other -> other

  let invert ~fallthrough i next =
    match (i, next) with
    | Bcc (cc, a), Ba b when a = fallthrough ->
        Some (Bcc (Codegen.Native.negate_cc cc, b), Ba a)
    | _ -> None

  (* FP-based full-word slots only; SP, FP and LR never appear as data,
     and traps and control flow stay concrete *)
  let canon_instr ~slot i =
    let rok r =
      if r = sp || r = fp || r = lr then raise Codegen.Peephole.Not_canon
      else r
    in
    let ook = function Rs r -> Rs (rok r) | Imm v -> Imm v in
    match i with
    | Alu3 ((Div | Rem), _, _, _, _, _) -> raise Codegen.Peephole.Not_canon
    | Alu3 (op, w, s, rd, rs1, o) -> Alu3 (op, w, s, rok rd, rok rs1, ook o)
    | Sethi (rd, v) -> Sethi (rok rd, v)
    | Ld (W64, s, rd, b, d) when b = fp -> Ld (W64, s, rok rd, fp, slot d)
    | St (W64, rs, b, d) when b = fp -> St (W64, rok rs, fp, slot d)
    | Cmp (w, s, r, o) -> Cmp (w, s, rok r, ook o)
    | Movcc (cc, rd) -> Movcc (cc, rok rd)
    | _ -> raise Codegen.Peephole.Not_canon

  let map_slots f = function
    | Ld (w, s, rd, b, d) -> Ld (w, s, rd, b, f d)
    | St (w, rs, b, d) -> St (w, rs, b, f d)
    | i -> i
end)
