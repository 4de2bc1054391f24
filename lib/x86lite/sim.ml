(* Cycle-counting simulator for X86-lite native code: the I-ISA's half
   of [Codegen.Machine]. The machine runs it (state, calls, traps, the
   run loop; see there for the threaded form and its fuel accounting);
   this module supplies what runs per guest instruction, which must be
   inlined into the closures and so cannot live in another module.

   [exec] is the semantics of every X86-lite instruction. [decode_instr]
   turns the hot shapes into closures with their operand kinds, ALU op,
   width, base register and displacement already resolved, each doing
   its work and tail-calling its successor's closure; every other
   instruction runs through [exec], and the closures are tested against
   it. A closure that can raise stores its successor pc first, so the
   loop can refund the rest of its run.

   Runs allocate nothing: integer registers and the two flag operands
   live unboxed in the machine's [Bytes.t], width normalization is
   inline shifts and masks, and in-page memory accesses go straight to
   the backing page through [Vmem.Memory]'s page TLB. Only calls, traps
   and page-straddling accesses leave that path. The specialized
   closures read and write the register file unchecked: an instruction
   gets one only if every register it names exists ([regs_ok]), and
   anything else runs through [exec], whose accesses are checked.
   In-page accesses are unchecked too; the offset test keeps them inside
   the page.

   [machine] is the I-ISA record: these two functions, the register
   counts, and the calling convention (arguments on the stack above a
   pushed return address, results in AX). *)

open X86
open Codegen.Machine

(* The condition flags as a value, for the superoptimizer oracle and the
   tests ([flags] / [set_flags]); the simulator keeps them unboxed. *)
type flags =
  | Fnone
  | Fint of int64 * int64 * bool (* a, b (normalized), signed compare *)
  | Ffloat of float * float

(* Register file layout: integer register r at byte 8*r, then the two
   flag operands (for a float compare, their IEEE bits). *)
let nregs = 8
let flag_a = 8 * nregs
let flag_b = flag_a + 8

(* [flag_kind]: what the flag operands hold *)
let kind_none = 0
let kind_signed = 1
let kind_unsigned = 2
let kind_float = 3

(* ---------- registers and flags ---------- *)

let[@inline] reg st r = Bytes.get_int64_ne st.regs (r lsl 3)
let[@inline] set_reg st r v = Bytes.set_int64_ne st.regs (r lsl 3) v

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
let[@inline] ureg st r = get64u st.regs (r lsl 3)
let[@inline] set_ureg st r v = set64u st.regs (r lsl 3) v

let[@inline] set_flag_words st a b =
  set64u st.regs flag_a a;
  set64u st.regs flag_b b

let flags st =
  let a = Bytes.get_int64_ne st.regs flag_a
  and b = Bytes.get_int64_ne st.regs flag_b in
  match st.flag_kind with
  | 1 -> Fint (a, b, true)
  | 2 -> Fint (a, b, false)
  | 3 -> Ffloat (Int64.float_of_bits a, Int64.float_of_bits b)
  | _ -> Fnone

let set_flags st = function
  | Fnone ->
      st.flag_kind <- kind_none;
      set_flag_words st 0L 0L
  | Fint (a, b, s) ->
      st.flag_kind <- (if s then kind_signed else kind_unsigned);
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
  then failwith "x86lite sim: page geometry differs from Vmem.Memory"

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

let[@inline] mem_addr st (m : mem) =
  Int64.add (reg st m.base) (Int64.of_int m.disp)

let[@inline] umem_addr st (m : mem) =
  Int64.add (ureg st m.base) (Int64.of_int m.disp)

let[@inline] read_op st = function
  | R r -> reg st r
  | I v -> fresh v
  | M m -> load st (mem_addr st m) W64

let[@inline] write_op st op v =
  match op with
  | R r -> set_reg st r v
  | M m -> store st (mem_addr st m) W64 v
  | I _ -> invalid_arg "x86lite sim: write to immediate"

let cc_holds st cc =
  let a = Bytes.get_int64_ne st.regs flag_a
  and b = Bytes.get_int64_ne st.regs flag_b in
  let k = st.flag_kind in
  if k = kind_signed || k = kind_unsigned then
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
  else invalid_arg "x86lite sim: branch without flags"

(* [cc_holds] on integer flags, with [cc] resolved by [cc_parts] *)
let[@inline] int_cc st flip lt eq gt =
  let a = Int64.logxor (get64u st.regs flag_a) flip
  and b = Int64.logxor (get64u st.regs flag_b) flip in
  if a < b then lt else if Int64.equal a b then eq else gt

let[@inline] int_flags st =
  let k = st.flag_kind in
  k = kind_signed || k = kind_unsigned

(* ---------- the instruction set ---------- *)

(* Does [i] end a run? Branches, calls, returns, unwinds and traps set
   [pc] themselves; every other instruction falls through. *)
let ends_run = function
  | Jcc _ | Jmp _ | CallSym _ | CallSymI _ | CallInd _ | CallIndI _ | Ret
  | Unwind | Trap _ ->
      true
  | _ -> false

(* Do all of [i]'s integer registers exist? [decode_instr] specializes
   only such instructions; the rest run through [exec], which checks. *)
let regs_ok i =
  let ok r = r >= 0 && r < nregs in
  let opnd_ok = function R r -> ok r | M m -> ok m.base | I _ -> true in
  match i with
  | Mov (a, b) | Alu (_, _, _, a, b) | Cmp (_, _, a, b) ->
      opnd_ok a && opnd_ok b
  | Ext (r, _, _) | Setcc (_, r) -> ok r
  | Mload (r, m, _, _) | Mstore (m, r, _) -> ok r && ok m.base
  | _ -> true

(* The calling convention: arguments in 8-byte slots above the return
   address, which a call pushes and a return pops; integer results in
   AX. *)
let push_args st args =
  let n = List.length args in
  set_reg st sp (Int64.sub (reg st sp) (Int64.of_int (8 * n)));
  List.iteri
    (fun k v -> store st (Int64.add (reg st sp) (Int64.of_int (8 * k))) W64 v)
    args

let push_ret st = set_reg st sp (Int64.sub (reg st sp) 8L)
let pop_ret st = set_reg st sp (Int64.add (reg st sp) 8L)

(* the k'th argument of a runtime call, with the return address pushed *)
let read_arg st k =
  load st (Int64.add (reg st sp) (Int64.of_int (8 + (8 * k)))) W64

(* One instruction, with [pc] already past it: the semantics of every
   X86-lite instruction, which the closures of [decode_instr] specialize. *)
let exec st i =
  let next = st.pc in
  match i with
  | Mov (dst, src) -> write_op st dst (read_op st src)
  | Alu (op, w, s, dst, src) ->
      let a = read_op st dst and b = read_op st src in
      let r =
        match op with
        | Add -> Int64.add a b
        | Sub -> Int64.sub a b
        | Imul -> Int64.mul a b
        | And -> Int64.logand a b
        | Or -> Int64.logor a b
        | Xor -> Int64.logxor a b
      in
      write_op st dst (norm w s r)
  | Div (w, s, dst, src) | Rem (w, s, dst, src) ->
      let a = read_op st dst and b = read_op st src in
      if Int64.equal b 0L then deliver_trap st Division_by_zero
      else if s && div_overflows w a b then deliver_trap st Overflow
      else
        write_op st dst
          (divrem (match i with Div _ -> true | _ -> false) w s a b)
  | Shift (left, w, s, dst, src) ->
      let a = read_op st dst and b = read_op st src in
      write_op st dst (shift left w s a b)
  | Ext (r, w, s) -> set_reg st r (norm w s (reg st r))
  | Mload (r, m, w, s) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      try set_reg st r (norm w s (load st addr w))
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Mstore (m, r, w) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      try store st addr w (reg st r)
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Cmp (w, s, a, b) ->
      let y = norm w s (read_op st b) in
      let x = norm w s (read_op st a) in
      set_flag_words st x y;
      st.flag_kind <- (if s then kind_signed else kind_unsigned)
  | Setcc (cc, r) -> set_reg st r (if cc_holds st cc then 1L else 0L)
  | Jcc (cc, l) -> if cc_holds st cc then st.pc <- l
  | Jmp l -> st.pc <- l
  | Lea (r, m) -> set_reg st r (mem_addr st m)
  | Push op ->
      set_reg st sp (Int64.sub (reg st sp) 8L);
      let v = read_op st op in
      store st (reg st sp) W64 v
  | Pop r ->
      set_reg st r (load st (reg st sp) W64);
      set_reg st sp (Int64.add (reg st sp) 8L)
  | CallSym name -> do_call st name ~except:(-1) ~ret_pc:next
  | CallSymI (name, l) ->
      do_call st name ~except:l ~ret_pc:next
  | CallInd op ->
      let name = addr_to_name st (read_op st op) in
      do_call st name ~except:(-1) ~ret_pc:next
  | CallIndI (op, l) ->
      let name = addr_to_name st (read_op st op) in
      do_call st name ~except:l ~ret_pc:next
  | Ret ->
      pop_ret st;
      return_to_caller st
  | Unwind -> unwind st
  | AddSp n -> set_reg st sp (Int64.add (reg st sp) (Int64.of_int n))
  | SubSpDyn (d, s) ->
      set_reg st sp (Int64.sub (reg st sp) (reg st s));
      set_reg st d (reg st sp)
  | Fmov (a, b) -> st.fregs.(a) <- st.fregs.(b)
  | Fconst (f, v) -> st.fregs.(f) <- v
  | Falu (op, single, a, b) ->
      let x = st.fregs.(a) and y = st.fregs.(b) in
      let r =
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y
        | Frem -> Float.rem x y
      in
      st.fregs.(a) <- (if single then round_single r else r)
  | Fload (f, m, single) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      try
        st.fregs.(f) <-
          (if single then Int32.float_of_bits (Int64.to_int32 (load st addr W32))
           else Int64.float_of_bits (load st addr W64))
      with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a))
  | Fstore (m, f, single) -> (
      let addr = mem_addr st m in
      if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
      let v = st.fregs.(f) in
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
  | Cvtif (f, r, signed) ->
      let v = reg st r in
      st.fregs.(f) <-
        (if signed then Int64.to_float v
         else if Int64.compare v 0L >= 0 then Int64.to_float v
         else Int64.to_float v +. 18446744073709551616.0)
  | Cvtfi (r, f, w, s) ->
      let x = st.fregs.(f) in
      let x = if Float.is_nan x then 0.0 else x in
      set_reg st r (norm w s (Int64.of_float x))
  | Fround f -> st.fregs.(f) <- round_single st.fregs.(f)
  | Fpushret f -> st.fregs.(0) <- st.fregs.(f)
  | Trap msg -> invalid_arg ("x86lite sim: trap " ^ msg)

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
  | Mov (R d, R s) -> fun st -> set_ureg st d (ureg st s); next st
  | Mov (R d, I v) -> fun st -> set_ureg st d v; next st
  | Mov (R d, M m) ->
      fun st ->
        st.pc <- succ;
        set_ureg st d (load st (umem_addr st m) W64);
        next st
  | Mov (M m, R s) ->
      fun st ->
        st.pc <- succ;
        store st (umem_addr st m) W64 (ureg st s);
        next st
  | Mov (M m, I v) ->
      fun st ->
        st.pc <- succ;
        store st (umem_addr st m) W64 v;
        next st
  | Alu (Add, w, s, R d, R r) ->
      fun st ->
        set_ureg st d (norm w s (Int64.add (ureg st d) (ureg st r)));
        next st
  | Alu (op, w, s, R d, I v) -> (
      match op with
      | Add ->
          fun st ->
            set_ureg st d (norm w s (Int64.add (ureg st d) v));
            next st
      | Sub ->
          fun st ->
            set_ureg st d (norm w s (Int64.sub (ureg st d) v));
            next st
      | Imul ->
          fun st ->
            set_ureg st d (norm w s (Int64.mul (ureg st d) v));
            next st
      | And ->
          fun st ->
            set_ureg st d (norm w s (Int64.logand (ureg st d) v));
            next st
      | Xor ->
          fun st ->
            set_ureg st d (norm w s (Int64.logxor (ureg st d) v));
            next st
      | Or -> via_exec succ i next)
  | Alu (op, w, s, R d, M m) -> (
      match op with
      | Add ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.add (ureg st d) b));
            next st
      | And ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.logand (ureg st d) b));
            next st
      | Or ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.logor (ureg st d) b));
            next st
      | Xor ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.logxor (ureg st d) b));
            next st
      | Sub | Imul -> via_exec succ i next)
  | Ext (r, w, s) -> fun st -> set_ureg st r (norm w s (ureg st r)); next st
  | Mload (r, m, w, s) ->
      fun st ->
        st.pc <- succ;
        let addr = umem_addr st m in
        if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
        (try set_ureg st r (norm w s (load st addr w))
         with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a));
        next st
  | Mstore (m, r, w) ->
      fun st ->
        st.pc <- succ;
        let addr = umem_addr st m in
        if Int64.equal addr 0L then deliver_trap st (Memory_fault 0L);
        (try store st addr w (ureg st r)
         with Vmem.Memory.Fault a -> deliver_trap st (Memory_fault a));
        next st
  | Cmp (w, s, R a, I v) ->
      let y = norm w s v and kind = if s then kind_signed else kind_unsigned in
      fun st ->
        set_flag_words st (norm w s (ureg st a)) y;
        st.flag_kind <- kind;
        next st
  | Cmp (w, s, M m, I v) ->
      let y = norm w s v and kind = if s then kind_signed else kind_unsigned in
      fun st ->
        st.pc <- succ;
        set_flag_words st (norm w s (load st (umem_addr st m) W64)) y;
        st.flag_kind <- kind;
        next st
  | Setcc (cc, r) ->
      let flip, lt, eq, gt = cc_parts cc in
      fun st ->
        if int_flags st then
          set_ureg st r (if int_cc st flip lt eq gt then 1L else 0L)
        else begin
          st.pc <- succ;
          set_ureg st r (if cc_holds st cc then 1L else 0L)
        end;
        next st
  | Jcc (cc, l) ->
      let flip, lt, eq, gt = cc_parts cc in
      fun st ->
        if int_flags st then
          st.pc <- (if int_cc st flip lt eq gt then l else succ)
        else begin
          st.pc <- succ;
          if cc_holds st cc then st.pc <- l
        end
  | Jmp l -> fun st -> st.pc <- l
  | AddSp n ->
      fun st ->
        set_ureg st sp (Int64.add (ureg st sp) (Int64.of_int n));
        next st
  | _ -> via_exec succ i next

let machine : instr isa =
  {
    name = "x86lite";
    nregs;
    nfregs = 8;
    stack_regs = (sp, bp);
    cycles_of;
    ends_run;
    decode_instr;
    exec;
    set_args = push_args;
    result = (fun st -> reg st ax);
    read_arg;
    set_ret = (fun st v -> set_reg st ax v);
    push_ret;
    pop_ret;
  }
