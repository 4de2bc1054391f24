(* Cycle-counting simulator for SPARC-lite native code: the I-ISA's
   half of [Codegen.Machine]. The machine runs it (state, calls, traps,
   the run loop; see there for the threaded form and its fuel
   accounting); this module supplies what runs per guest instruction,
   which must be inlined into the closures and so cannot live in
   another module.

   [exec] is the semantics of every SPARC-lite instruction.
   [decode_instr] turns the hot shapes into closures with their
   operands, ALU op, width and displacement already resolved, each doing
   its work and tail-calling its successor's closure; every other
   instruction (division among them, which can trap) runs through
   [exec], and the closures are tested against it. A closure that can
   raise stores its successor pc first, so the loop can refund the rest
   of its run.

   Runs allocate nothing: the 32 integer registers (r0 reads as zero and
   ignores writes) and the two flag operands live unboxed in the
   machine's [Bytes.t], width normalization is inline shifts and masks,
   and in-page memory accesses go straight to the backing page through
   [Vmem.Memory]'s page TLB. The specialized closures access registers
   unchecked, so only instructions whose registers all exist
   ([regs_ok]) get one.

   [machine] is the I-ISA record: these two functions, the register
   counts, and the calling convention (arguments in r8..r13, the result
   in r8, a symbolic link register, no stack traffic for a call). *)

open Sparc
open Codegen.Machine

(* The condition flags as a value, for the superoptimizer oracle and the
   tests ([flags] / [set_flags]); the simulator keeps them unboxed. *)
type flags = Fnone | Fint of int64 * int64 | Ffloat of float * float

(* Register file layout: integer register r at byte 8*r (r0 reads as
   zero), then the two flag operands (for a float compare, their IEEE
   bits). *)
let nregs = 32
let flag_a = 8 * nregs
let flag_b = flag_a + 8

(* [flag_kind]: what the flag operands hold *)
let kind_none = 0
let kind_int = 1
let kind_float = 2

(* ---------- registers and flags ---------- *)

let[@inline] reg st r = Bytes.get_int64_ne st.regs (r lsl 3)
let[@inline] set_reg st r v = Bytes.set_int64_ne st.regs (r lsl 3) v
let[@inline] rreg st r = if r = 0 then 0L else reg st r
let[@inline] wreg st r v = if r <> 0 then set_reg st r v

(* Unchecked access to bytes, for offsets known to be in range. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap16 : int -> int = "%bswap16"

(* Unchecked register access, for the decoded closures only: they are
   built only for instructions whose registers all exist ([regs_ok]). *)
let[@inline] urreg st r = if r = 0 then 0L else get64u st.regs (r lsl 3)
let[@inline] uwreg st r v = if r <> 0 then set64u st.regs (r lsl 3) v

let[@inline] set_flag_words st a b =
  set64u st.regs flag_a a;
  set64u st.regs flag_b b

let flags st =
  let a = Bytes.get_int64_ne st.regs flag_a
  and b = Bytes.get_int64_ne st.regs flag_b in
  match st.flag_kind with
  | 1 -> Fint (a, b)
  | 2 -> Ffloat (Int64.float_of_bits a, Int64.float_of_bits b)
  | _ -> Fnone

let set_flags st = function
  | Fnone ->
      st.flag_kind <- kind_none;
      set_flag_words st 0L 0L
  | Fint (a, b) ->
      st.flag_kind <- kind_int;
      set_flag_words st a b
  | Ffloat (a, b) ->
      st.flag_kind <- kind_float;
      set_flag_words st (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---------- width/sign helpers ----------

   Exactly [Ir.normalize_int] and the integer cases of [Eval.int_binop]
   at the type a (width, signedness) pair denotes, inlined. *)

let[@inline] norm w s v =
  match w with
  | W64 -> v
  | W32 ->
      if s then Int64.shift_right (Int64.shift_left v 32) 32
      else Int64.logand v 0xFFFF_FFFFL
  | W16 ->
      if s then Int64.shift_right (Int64.shift_left v 48) 48
      else Int64.logand v 0xFFFFL
  | W8 ->
      if s then Int64.shift_right (Int64.shift_left v 56) 56
      else Int64.logand v 0xFFL

let[@inline] bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

(* the unsigned bits of [v] within the width *)
let[@inline] zext w v = norm w false v

(* shift counts are unsigned and reduced modulo the width, which is a
   power of two: the low bits of the count *)
let[@inline] shift left w s a b =
  let sh = Int64.to_int b land (bits w - 1) in
  if left then norm w s (Int64.shift_left a sh)
  else if s then norm w s (Int64.shift_right a sh)
  else norm w s (Int64.shift_right_logical (zext w a) sh)

(* the one signed quotient that overflows *)
let[@inline] div_overflows w a b =
  Int64.equal b (-1L)
  && Int64.equal a (Int64.neg (Int64.shift_left 1L (bits w - 1)))

(* division and remainder once the divisor is known to be nonzero and
   the signed case known not to overflow *)
let divrem is_div w s a b =
  if s then norm w s (if is_div then Int64.div a b else Int64.rem a b)
  else
    let a = zext w a and b = zext w b in
    norm w s
      (if is_div then Int64.unsigned_div a b else Int64.unsigned_rem a b)

let[@inline] round_single x = Int32.float_of_bits (Int32.bits_of_float x)

(* [fresh v] is [v], rebuilt. ocamlopt keeps an int64 [let] unboxed only
   if every arm of its defining match computes a new value; one arm that
   passes on an existing box (an immediate operand, a slow-path result)
   would box all the others. *)
let[@inline] fresh v = Int64.add v 0L

(* ---------- memory ----------

   In-page accesses read or write the backing page directly, unchecked:
   the offset test keeps them inside the page. Accesses that straddle a
   page go through [Vmem.Memory]'s byte loops. [page] is
   [Vmem.Memory.page_of] with the fault check and the TLB hit inline, so
   the address is never boxed. The geometry is spelled out as constants
   so that it folds into the code. *)

let page_bits = 12
let page_mask = 4095
let tlb_mask = 63

let () =
  if
    Vmem.Memory.page_bits <> page_bits
    || Vmem.Memory.page_size <> page_mask + 1
    || Vmem.Memory.tlb_size <> tlb_mask + 1
  then failwith "sparclite sim: page geometry differs from Vmem.Memory"

(* native order is the target's order *)
let[@inline] same_order st = st.big_endian = Sys.big_endian

let[@inline] page st addr =
  if addr < 0x1000L then raise (Vmem.Memory.Fault addr);
  let idx = Int64.to_int addr lsr page_bits in
  let c = Array.unsafe_get st.mem.Vmem.Memory.tlb (idx land tlb_mask) in
  if c.Vmem.Memory.idx = idx then c.Vmem.Memory.page
  else Vmem.Memory.page_at st.mem idx

let[@inline] load st addr w =
  let off = Int64.to_int addr land page_mask in
  match w with
  | W64 ->
      if off <= page_mask - 7 then
        let v = get64u (page st addr) off in
        if same_order st then v else bswap64 v
      else fresh (Vmem.Memory.read_uint st.mem addr 8)
  | W32 ->
      if off <= page_mask - 3 then
        let v = get32u (page st addr) off in
        Int64.logand
          (Int64.of_int32 (if same_order st then v else bswap32 v))
          0xFFFF_FFFFL
      else fresh (Vmem.Memory.read_uint st.mem addr 4)
  | W16 ->
      if off <= page_mask - 1 then
        let v = get16u (page st addr) off in
        Int64.of_int (if same_order st then v else bswap16 v)
      else fresh (Vmem.Memory.read_uint st.mem addr 2)
  | W8 -> Int64.of_int (Char.code (Bytes.unsafe_get (page st addr) off))

let[@inline] store st addr w v =
  let off = Int64.to_int addr land page_mask in
  match w with
  | W64 ->
      if off <= page_mask - 7 then
        set64u (page st addr) off (if same_order st then v else bswap64 v)
      else Vmem.Memory.write_uint st.mem addr 8 v
  | W32 ->
      if off <= page_mask - 3 then
        let v = Int64.to_int32 v in
        set32u (page st addr) off (if same_order st then v else bswap32 v)
      else Vmem.Memory.write_uint st.mem addr 4 v
  | W16 ->
      if off <= page_mask - 1 then
        let v = Int64.to_int v land 0xFFFF in
        set16u (page st addr) off (if same_order st then v else bswap16 v)
      else Vmem.Memory.write_uint st.mem addr 2 v
  | W8 ->
      Bytes.unsafe_set (page st addr) off
        (Char.unsafe_chr (Int64.to_int v land 0xFF))

(* ---------- operand access ---------- *)

let[@inline] read_operand st = function
  | Rs r -> rreg st r
  | Imm v -> Int64.of_int v

let cc_holds st cc =
  let a = Bytes.get_int64_ne st.regs flag_a
  and b = Bytes.get_int64_ne st.regs flag_b in
  let k = st.flag_kind in
  if k = kind_int then
    (* unsigned order: flip the sign bits, then compare signed *)
    let ua = Int64.sub a Int64.min_int and ub = Int64.sub b Int64.min_int in
    match cc with
    | Eq -> Int64.equal a b
    | Ne -> not (Int64.equal a b)
    | Lt -> a < b
    | Gt -> a > b
    | Le -> a <= b
    | Ge -> a >= b
    | Ltu -> ua < ub
    | Gtu -> ua > ub
    | Leu -> ua <= ub
    | Geu -> ua >= ub
  else if k = kind_float then
    let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
    (* IEEE-754 unordered: NaN makes every relation except Ne false *)
    if Float.is_nan x || Float.is_nan y then cc = Ne
    else
      match cc with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt | Ltu -> x < y
      | Gt | Gtu -> x > y
      | Le | Leu -> x <= y
      | Ge | Geu -> x >= y
  else invalid_arg "sparclite sim: branch without flags"

(* [cc_holds] on integer flags, with [cc] resolved by [cc_parts] *)
let[@inline] int_cc st flip lt eq gt =
  let a = Int64.logxor (get64u st.regs flag_a) flip
  and b = Int64.logxor (get64u st.regs flag_b) flip in
  if a < b then lt else if Int64.equal a b then eq else gt

(* ---------- the instruction set ---------- *)

(* Does [i] end a run? Branches, calls, returns, unwinds and traps set
   [pc] themselves; every other instruction falls through. *)
let ends_run = function
  | Bcc _ | Ba _ | CallSym _ | CallSymI _ | CallInd _ | CallIndI _ | RetS
  | UnwindS | TrapS _ ->
      true
  | _ -> false

(* Do all of [i]'s integer registers exist? [decode_instr] specializes
   only such instructions; the rest run through [exec], which checks. *)
let regs_ok i =
  let ok r = r >= 0 && r < nregs in
  let opnd_ok = function Rs r -> ok r | Imm _ -> true in
  match i with
  | Alu3 (_, _, _, rd, rs1, o) -> ok rd && ok rs1 && opnd_ok o
  | Cmp (_, _, r, o) -> ok r && opnd_ok o
  | Sethi (r, _) | Movcc (_, r) -> ok r
  | Ld (_, _, a, b, _) | St (_, a, b, _) -> ok a && ok b
  | _ -> true

(* The calling convention: arguments and the integer result in
   registers; a call writes the link register, whose value is symbolic
   here, and a return reads nothing back. *)
let set_args st args = List.iteri (fun k v -> wreg st (arg_reg k) v) args
let push_ret st = wreg st lr 0L
let pop_ret (_ : instr state) = ()

(* One instruction, with [pc] already past it: the semantics of every
   SPARC-lite instruction, which the closures of [decode_instr]
   specialize. *)
let exec st i =
  let next = st.pc in
  match i with
  | Alu3 (op, w, s, rd, rs1, o) -> (
      let a = rreg st rs1 and b = read_operand st o in
      match op with
      | Add -> wreg st rd (norm w s (Int64.add a b))
      | Sub -> wreg st rd (norm w s (Int64.sub a b))
      | Mul -> wreg st rd (norm w s (Int64.mul a b))
      | And -> wreg st rd (norm w s (Int64.logand a b))
      | Or -> wreg st rd (norm w s (Int64.logor a b))
      | Xor -> wreg st rd (norm w s (Int64.logxor a b))
      | Div | Rem ->
          if Int64.equal b 0L then deliver_trap st Division_by_zero
          else if s && div_overflows w a b then deliver_trap st Overflow
          else wreg st rd (divrem (op = Div) w s a b)
      | Sll -> wreg st rd (shift true w s a b)
      | Srl -> wreg st rd (shift false w false a b)
      | Sra -> wreg st rd (shift false w s a b))
  | Sethi (rd, v) -> wreg st rd v
  | Ld (w, s, rd, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      try wreg st rd (norm w s (load st addr w))
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | St (w, rsrc, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      try store st addr w (rreg st rsrc)
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Cmp (w, s, r, o) ->
      let y = norm w s (read_operand st o) in
      let x = norm w s (rreg st r) in
      set_flag_words st x y;
      st.flag_kind <- kind_int
  | Movcc (cc, rd) -> wreg st rd (if cc_holds st cc then 1L else 0L)
  | Bcc (cc, l) -> if cc_holds st cc then st.pc <- l
  | Ba l -> st.pc <- l
  | CallSym name ->
      do_call st name ~except:(-1) ~ret_pc:next
  | CallSymI (name, l) ->
      do_call st name ~except:l ~ret_pc:next
  | CallInd r ->
      let name = addr_to_name st (rreg st r) in
      do_call st name ~except:(-1) ~ret_pc:next
  | CallIndI (r, l) ->
      let name = addr_to_name st (rreg st r) in
      do_call st name ~except:l ~ret_pc:next
  | RetS -> return_to_caller st
  | UnwindS -> unwind st
  | AddSp n -> wreg st sp (Int64.add (rreg st sp) (Int64.of_int n))
  | SubSpDyn (rd, rs) ->
      wreg st sp (Int64.sub (rreg st sp) (rreg st rs));
      wreg st rd (rreg st sp)
  | Falu (op, single, fd, fa, fb) ->
      let x = st.fregs.(fa) and y = st.fregs.(fb) in
      let r =
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y
        | Frem -> Float.rem x y
      in
      st.fregs.(fd) <- (if single then round_single r else r)
  | Fmovs (fd, fs) -> st.fregs.(fd) <- st.fregs.(fs)
  | Fconst (fd, v) -> st.fregs.(fd) <- v
  | Fld (single, fd, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      try
        st.fregs.(fd) <-
          (if single then Int32.float_of_bits (Int64.to_int32 (load st addr W32))
           else Int64.float_of_bits (load st addr W64))
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fst (single, fs, rs, d) -> (
      let addr = Int64.add (rreg st rs) (Int64.of_int d) in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      let v = st.fregs.(fs) in
      try
        if single then
          store st addr W32 (Int64.of_int32 (Int32.bits_of_float v))
        else store st addr W64 (Int64.bits_of_float v)
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fcmp (a, b) ->
      set_flag_words st
        (Int64.bits_of_float st.fregs.(a))
        (Int64.bits_of_float st.fregs.(b));
      st.flag_kind <- kind_float
  | Cvtif (fd, r, signed) ->
      let v = rreg st r in
      st.fregs.(fd) <-
        (if signed then Int64.to_float v
         else if Int64.compare v 0L >= 0 then Int64.to_float v
         else Int64.to_float v +. 18446744073709551616.0)
  | Cvtfi (rd, f, w, s) ->
      let x = st.fregs.(f) in
      let x = if Float.is_nan x then 0.0 else x in
      wreg st rd (norm w s (Int64.of_float x))
  | Fround f -> st.fregs.(f) <- round_single st.fregs.(f)
  | Mvfi (rd, f) -> wreg st rd (Int64.bits_of_float st.fregs.(f))
  | Mvif (fd, r) -> st.fregs.(fd) <- Int64.float_of_bits (rreg st r)
  | TrapS msg -> invalid_arg ("sparclite sim: trap " ^ msg)

(* [i] through [exec], as the closure of [decode_instr] *)
let via_exec succ i next =
  if ends_run i then fun st ->
    st.pc <- succ;
    exec st i
  else fun st ->
    st.pc <- succ;
    exec st i;
    next st

(* The closure that executes [i], the instruction at [pc], and then
   continues with [next] unless [i] ends a run: [exec st i] with
   everything that does not depend on the state resolved now. A closure
   that can raise stores [pc + 1] first, as [exec] expects, so the loop
   knows where its run stopped. Each arm must agree with [exec] on
   registers, flags, memory, [pc] and raised exceptions (QCheck
   properties in the test suite hold them to it, one instruction at a
   time and over whole runs). *)
let decode_instr pc (i : instr) (next : instr op) : instr op =
  let succ = pc + 1 in
  match i with
  | _ when not (regs_ok i) -> via_exec succ i next
  | Alu3 (op, w, s, rd, rs1, Rs r) -> (
      match op with
      | Add ->
          fun st ->
            uwreg st rd (norm w s (Int64.add (urreg st rs1) (urreg st r)));
            next st
      | Mul ->
          fun st ->
            uwreg st rd (norm w s (Int64.mul (urreg st rs1) (urreg st r)));
            next st
      | And ->
          fun st ->
            uwreg st rd (norm w s (Int64.logand (urreg st rs1) (urreg st r)));
            next st
      | Or ->
          fun st ->
            uwreg st rd (norm w s (Int64.logor (urreg st rs1) (urreg st r)));
            next st
      | Xor ->
          fun st ->
            uwreg st rd (norm w s (Int64.logxor (urreg st rs1) (urreg st r)));
            next st
      | Sll ->
          fun st ->
            uwreg st rd (shift true w s (urreg st rs1) (urreg st r));
            next st
      | Srl ->
          fun st ->
            uwreg st rd (shift false w false (urreg st rs1) (urreg st r));
            next st
      | Sub | Sra | Div | Rem -> via_exec succ i next)
  | Alu3 (op, w, s, rd, rs1, Imm v) -> (
      let v = Int64.of_int v in
      match op with
      | Add ->
          fun st ->
            uwreg st rd (norm w s (Int64.add (urreg st rs1) v));
            next st
      | Sub ->
          fun st ->
            uwreg st rd (norm w s (Int64.sub (urreg st rs1) v));
            next st
      | And ->
          fun st ->
            uwreg st rd (norm w s (Int64.logand (urreg st rs1) v));
            next st
      | Or ->
          fun st ->
            uwreg st rd (norm w s (Int64.logor (urreg st rs1) v));
            next st
      | Xor ->
          fun st ->
            uwreg st rd (norm w s (Int64.logxor (urreg st rs1) v));
            next st
      | Sll ->
          fun st ->
            uwreg st rd (shift true w s (urreg st rs1) v);
            next st
      | Srl ->
          fun st ->
            uwreg st rd (shift false w false (urreg st rs1) v);
            next st
      | Mul | Sra | Div | Rem -> via_exec succ i next)
  | Sethi (rd, v) -> fun st -> uwreg st rd v; next st
  | Ld (w, s, rd, rs, d) ->
      fun st ->
        st.pc <- succ;
        let addr = Int64.add (urreg st rs) (Int64.of_int d) in
        if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
        (try uwreg st rd (norm w s (load st addr w))
         with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a));
        next st
  | St (w, rsrc, rs, d) ->
      fun st ->
        st.pc <- succ;
        let addr = Int64.add (urreg st rs) (Int64.of_int d) in
        if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
        (try store st addr w (urreg st rsrc)
         with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a));
        next st
  | Cmp (w, s, r, Imm v) ->
      let y = norm w s (Int64.of_int v) in
      fun st ->
        set_flag_words st (norm w s (urreg st r)) y;
        st.flag_kind <- kind_int;
        next st
  | Cmp (w, s, r, Rs b) ->
      fun st ->
        set_flag_words st (norm w s (urreg st r)) (norm w s (urreg st b));
        st.flag_kind <- kind_int;
        next st
  | Movcc (cc, rd) ->
      let flip, lt, eq, gt = cc_parts cc in
      fun st ->
        if st.flag_kind = kind_int then
          uwreg st rd (if int_cc st flip lt eq gt then 1L else 0L)
        else begin
          st.pc <- succ;
          uwreg st rd (if cc_holds st cc then 1L else 0L)
        end;
        next st
  | Bcc (cc, l) ->
      let flip, lt, eq, gt = cc_parts cc in
      fun st ->
        if st.flag_kind = kind_int then
          st.pc <- (if int_cc st flip lt eq gt then l else succ)
        else begin
          st.pc <- succ;
          if cc_holds st cc then st.pc <- l
        end
  | Ba l -> fun st -> st.pc <- l
  | AddSp n ->
      fun st ->
        uwreg st sp (Int64.add (urreg st sp) (Int64.of_int n));
        next st
  | _ -> via_exec succ i next

let machine : instr isa =
  {
    name = "sparclite";
    nregs;
    nfregs = 16;
    stack_regs = (sp, fp);
    cycles_of;
    ends_run;
    decode_instr;
    exec;
    set_args;
    result = (fun st -> rreg st ret);
    read_arg = (fun st k -> rreg st (arg_reg k));
    set_ret = (fun st v -> wreg st ret v);
    push_ret;
    pop_ret;
  }
