(* Cycle-counting simulator for X86-lite native code. Executes compiled
   instruction arrays against the same simulated memory, runtime and
   exception model as the LLVA interpreter, so the two can be compared
   byte-for-byte. Supports translate-on-demand through a pluggable code
   lookup, which is how the LLEE execution manager drives it.

   Each function is decoded once, on its first entry, into threaded
   straight-line runs. A run ends at a branch, call, return, unwind or
   trap instruction. Each instruction becomes one closure, with its
   operand kinds, ALU op, width, base register and displacement already
   resolved, that does its work and tail-calls its successor's closure;
   [run.(pc)] therefore executes everything from [pc] to the end of its
   run. Per pc, [count] and [cost] hold the instruction count and cycle
   sum from there to the end of the run, so the loop charges a run once
   and compares it against the fuel limit once, wherever it is entered.
   When less fuel is left than the run needs, the loop steps one
   instruction at a time through [exec] instead, counting and charging
   each before the budget check, so a budget stops at the instruction
   that exhausts it, wherever that falls in a run.

   Suffix refunds: a closure that can raise stores its successor pc
   first. The loop's one handler per run then takes back the count and
   cycles of the instructions after it, which were charged but never
   ran, and re-raises. A trap with a registered handler raises the
   private [Deliver] instead of [Trap]; the loop runs the handler
   subcall only after the refund, so the handler sees exact counts.

   Hot shapes get their own closure; every other instruction runs
   through [exec], the one semantic definition of the ISA, which the
   specialized closures are tested against. Decoded functions live in a
   [cache] keyed by name and checked by physical equality on the
   [Compile.cfunc], so SMC redirects and translate-on-demand see new
   code. Closures capture no state: one cache can serve many states over
   the same code (the certifier shares one across its vectors). They
   never reach storage: cache entries marshal the [Compile.cfunc], never
   its decoded form.

   Runs allocate nothing: integer registers and the two flag operands
   live unboxed in one [Bytes.t], the counters are native ints, width
   normalization is inline shifts and masks, and in-page memory accesses
   go straight to the backing page through [Vmem.Memory]'s page TLB.
   Only calls, traps and page-straddling accesses leave that path. The
   specialized closures read and write the register file unchecked: an
   instruction gets one only if every register it names exists
   ([regs_ok]), and anything else runs through [exec], whose accesses
   are checked. In-page accesses are unchecked too; the offset test
   keeps them inside the page. *)

open Llva
open X86

include Vmem.Guest

(* a trap for the registered handler; only the run loop catches it *)
exception Deliver of trap_kind

(* The condition flags as a value, for the superoptimizer oracle and the
   tests ([flags] / [set_flags]); the simulator keeps them unboxed. *)
type flags =
  | Fnone
  | Fint of int64 * int64 * bool (* a, b (normalized), signed compare *)
  | Ffloat of float * float

(* What a state executes: a function as threaded runs. [run.(pc)]
   executes from [pc] to the end of its run; [count.(pc)] and
   [cost.(pc)] are the instructions and cycles that takes. *)
type decoded = {
  cf : Compile.cfunc;
  run : op array;
  count : int array;
  cost : int array;
}

(* A suspended caller. An invoke also snapshots the caller's registers:
   unwinding to its handler restores them, as an unwinder restoring each
   discarded frame's callee-saved registers would. *)
and frame = {
  fr_code : decoded;
  fr_ret_pc : int;
  fr_except : int; (* invoke handler pc, or -1 *)
  fr_regs : Bytes.t; (* integer registers at the invoke; empty otherwise *)
  fr_fregs : float array;
}

and state = {
  cmod : Compile.cmodule;
  mem : Vmem.Memory.t;
  big_endian : bool;
  rt : Vmem.Runtime.t;
  regs : Bytes.t;
  fregs : float array;
  mutable flag_kind : int;
  mutable frames : frame list;
  (* native frames below the current one, counting those suspended under
     a trap-handler subcall; llva.stack.depth reads [depth + 1] *)
  mutable depth : int;
  mutable code : decoded;
  mutable pc : int;
  mutable cycles : int;
  mutable icount : int;
  limit : int; (* the instruction budget; max_int = unlimited *)
  mutable trap_handler : string option;
  mutable privileged : bool;
  redirects : (string, string) Hashtbl.t; (* SMC redirections *)
  (* pluggable translate-on-demand (LLEE): returns native code for a
     function name; default looks in the compiled module *)
  mutable lookup : state -> string -> Compile.cfunc option;
  cache : cache; (* decoded functions, see [enter] *)
}

(* an instruction, decoded and threaded to its successor; the run loop
   has already counted and charged it *)
and op = state -> unit

(* decoded functions by name, valid while [cf] is physically the code
   a lookup returns *)
and cache = (string, decoded) Hashtbl.t

let new_cache () : cache = Hashtbl.create 64

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

(* Deeper native call chains are an error, not a host stack overflow. *)
let max_depth = 50_000

let default_lookup st name = Hashtbl.find_opt st.cmod.Codegen.Native.funcs name

let create ?(fuel = -1) ?(cache = new_cache ()) (cmod : Compile.cmodule) :
    state =
  let mem = cmod.Codegen.Native.image.Vmem.Image.mem in
  let none =
    {
      Codegen.Native.cf_name = "<none>";
      code = [||];
      nargs = 0;
      frame_slots = 0;
    }
  in
  {
    cmod;
    mem;
    big_endian = mem.Vmem.Memory.target.Target.endian = Target.Big;
    rt = Vmem.Runtime.create mem;
    regs = Bytes.make (flag_b + 8) '\000';
    fregs = Array.make 8 0.0;
    flag_kind = kind_none;
    frames = [];
    depth = 0;
    code = { cf = none; run = [||]; count = [||]; cost = [||] };
    pc = 0;
    cycles = 0;
    icount = 0;
    limit = (if fuel < 0 then max_int else fuel);
    trap_handler = None;
    privileged = false;
    redirects = Hashtbl.create 4;
    lookup = default_lookup;
    cache;
  }

(* the function executing (or that was executing when a trap fired) *)
let current st = st.code.cf.Codegen.Native.cf_name

let output st = Vmem.Runtime.output st.rt

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

(* Both stack registers at the top of the stack: the launch state. *)
let init_stack st =
  set_reg st sp Vmem.Memory.stack_top;
  set_reg st bp Vmem.Memory.stack_top

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

(* A condition code over integer flags, resolved at decode time: the
   sign-bit flip that turns an unsigned order into a signed one, and
   whether it holds when a < b, a = b, a > b. [int_cc] is [cc_holds] on
   integer flags. *)
let cc_parts = function
  | Eq -> (0L, false, true, false)
  | Ne -> (0L, true, false, true)
  | Lt -> (0L, true, false, false)
  | Gt -> (0L, false, false, true)
  | Le -> (0L, true, true, false)
  | Ge -> (0L, false, true, true)
  | Ltu -> (Int64.min_int, true, false, false)
  | Gtu -> (Int64.min_int, false, false, true)
  | Leu -> (Int64.min_int, true, true, false)
  | Geu -> (Int64.min_int, false, true, true)

let[@inline] int_cc st flip lt eq gt =
  let a = Int64.logxor (get64u st.regs flag_a) flip
  and b = Int64.logxor (get64u st.regs flag_b) flip in
  if a < b then lt else if Int64.equal a b then eq else gt

let[@inline] int_flags st =
  let k = st.flag_kind in
  k = kind_signed || k = kind_unsigned

(* ---------- traps ---------- *)

(* the function a call to [name] reaches after SMC redirection *)
let redirected st name =
  if Hashtbl.length st.redirects = 0 then name
  else match Hashtbl.find_opt st.redirects name with Some r -> r | None -> name

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
  | Mload (r, m, _, _) | Mstore (m, r, _) | Lea (r, m) -> ok r && ok m.base
  | _ -> true

(* Raise a guest trap. With a handler registered, the run loop delivers
   it (see [deliver]) once the run's counts are exact. *)
let deliver_trap st kind : unit =
  if Option.is_some st.trap_handler then raise (Deliver kind)
  else raise (Trap kind)

(* Run the registered handler for [kind], once, then end the program
   with the trap. *)
let rec deliver st kind =
  (match st.trap_handler with
  | Some hname -> (
      st.trap_handler <- None;
      match st.lookup st hname with
      | Some hcf ->
          run_subcall st hcf [ Int64.of_int (trap_number kind); 0L ]
      | None -> ())
  | None -> ());
  raise (Trap kind)

(* Run a nested native call with integer arguments (used for the trap
   handler). Arguments are pushed per the calling convention; the
   interrupted function counts as one more frame below the handler. *)
and run_subcall st (cf : Compile.cfunc) (args : int64 list) =
  let n = List.length args in
  let saved_sp = reg st sp and saved_bp = reg st bp in
  let saved_frames = st.frames and saved_depth = st.depth in
  let saved_code = st.code and saved_pc = st.pc in
  set_reg st sp (Int64.sub (reg st sp) (Int64.of_int (8 * n)));
  List.iteri
    (fun k v -> store st (Int64.add (reg st sp) (Int64.of_int (8 * k))) W64 v)
    args;
  (* simulated return-address push *)
  set_reg st sp (Int64.sub (reg st sp) 8L);
  st.frames <- [];
  st.depth <- saved_depth + 1;
  enter st cf;
  run_until_empty st;
  set_reg st sp saved_sp;
  set_reg st bp saved_bp;
  st.frames <- saved_frames;
  st.depth <- saved_depth;
  st.code <- saved_code;
  st.pc <- saved_pc

(* ---------- calls ---------- *)

and addr_to_name st (addr : int64) =
  match Vmem.Image.func_at st.cmod.Codegen.Native.image addr with
  | Some f -> f.Ir.fname
  | None ->
      raise (Trap (Memory_fault addr))

(* read the k'th argument from the caller's argument area; at this point
   SP points at the simulated return address slot *)
and read_arg st k = load st (Int64.add (reg st sp) (Int64.of_int (8 + (8 * k)))) W64

and external_call st name =
  (* runtime and intrinsic functions; args are on the stack *)
  if Llva.Intrinsics.is_intrinsic name then intrinsic_call st name
  else if Vmem.Runtime.is_known name then
    match Vmem.Runtime.call_words st.rt name (read_arg st) with
    | Eval.I (_, v) -> set_reg st ax v
    | Eval.P a -> set_reg st ax a
    | Eval.B b -> set_reg st ax (if b then 1L else 0L)
    | Eval.F (_, f) -> st.fregs.(0) <- f
    | Eval.Undef _ -> ()
  else invalid_arg ("x86lite sim: undefined external " ^ name)

and intrinsic_call st name =
  match name with
  | "llva.trap.register" ->
      let addr = read_arg st 0 in
      st.trap_handler <- Some (addr_to_name st addr)
  | "llva.smc.replace" ->
      let from_n = addr_to_name st (read_arg st 0) in
      let to_n = addr_to_name st (read_arg st 1) in
      Hashtbl.replace st.redirects from_n to_n
  | "llva.stack.depth" -> set_reg st ax (Int64.of_int (st.depth + 1))
  | "llva.priv.set" -> st.privileged <- not (Int64.equal (read_arg st 0) 0L)
  | other when Llva.Intrinsics.is_privileged other ->
      if not st.privileged then begin
        deliver_trap st Privilege_violation;
        assert false
      end
  | _ -> invalid_arg ("x86lite sim: unknown intrinsic " ^ name)

and do_call st name ~except ~ret_pc =
  let name = redirected st name in
  match st.lookup st name with
  | Some cf ->
      st.frames <-
        {
          fr_code = st.code;
          fr_ret_pc = ret_pc;
          fr_except = except;
          fr_regs = (if except >= 0 then Bytes.sub st.regs 0 flag_a else Bytes.empty);
          fr_fregs = (if except >= 0 then Array.copy st.fregs else [||]);
        }
        :: st.frames;
      st.depth <- st.depth + 1;
      if st.depth > max_depth then
        invalid_arg "x86lite sim: call stack overflow";
      (* simulated return-address push *)
      set_reg st sp (Int64.sub (reg st sp) 8L);
      enter st cf
  | None ->
      (* externals execute "inline": SP unchanged around them except the
         simulated return-address push/pop *)
      set_reg st sp (Int64.sub (reg st sp) 8L);
      external_call st name;
      set_reg st sp (Int64.add (reg st sp) 8L);
      st.pc <- ret_pc

(* start executing [cf] at its first instruction, decoding it first if
   this state's cache has no current decoded form of it *)
and enter st cf =
  let code =
    match Hashtbl.find_opt st.cache cf.Codegen.Native.cf_name with
    | Some d when d.cf == cf -> d
    | _ ->
        let d = decode cf in
        Hashtbl.replace st.cache cf.Codegen.Native.cf_name d;
        d
  in
  st.code <- code;
  st.pc <- 0

(* ---------- execution ---------- *)

(* One instruction, with [pc] already past it: the semantics of every
   X86-lite instruction, which the closures of [decode_instr] specialize. *)
and exec st i =
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
  | Ret -> (
      (* pop the simulated return address *)
      set_reg st sp (Int64.add (reg st sp) 8L);
      match st.frames with
      | [] -> raise Exit (* top-level return: caught by run_until_empty *)
      | f :: rest ->
          st.frames <- rest;
          st.depth <- st.depth - 1;
          st.code <- f.fr_code;
          st.pc <- f.fr_ret_pc)
  | Unwind ->
      (* walk the frame stack to the nearest invoke handler *)
      let rec unwind frames popped =
        match frames with
        | [] -> raise Unwound
        | f :: rest -> (
            let handler = f.fr_except in
            if handler >= 0 then begin
                st.frames <- rest;
                st.depth <- st.depth - popped;
                st.code <- f.fr_code;
                st.pc <- handler;
                Bytes.blit f.fr_regs 0 st.regs 0 flag_a;
                Array.blit f.fr_fregs 0 st.fregs 0 (Array.length f.fr_fregs)
            end
            else unwind rest (popped + 1))
      in
      unwind st.frames 1
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

(* The closure that executes [i], the instruction at [pc], and then
   continues with [next] unless [i] ends a run: [exec st i] with
   everything that does not depend on the state resolved now. A closure
   that can raise stores [pc + 1] first, as [exec] expects, so the loop
   knows where its run stopped. Each arm must agree with [exec] on
   registers, flags, memory, [pc] and raised exceptions (QCheck
   properties in the test suite hold them to it, one instruction at a
   time and over whole runs). *)
and decode_instr pc (i : instr) (next : op) : op =
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
  | Alu (op, w, s, R d, R r) -> (
      match op with
      | Add ->
          fun st ->
            set_ureg st d (norm w s (Int64.add (ureg st d) (ureg st r)));
            next st
      | Sub ->
          fun st ->
            set_ureg st d (norm w s (Int64.sub (ureg st d) (ureg st r)));
            next st
      | Imul ->
          fun st ->
            set_ureg st d (norm w s (Int64.mul (ureg st d) (ureg st r)));
            next st
      | And ->
          fun st ->
            set_ureg st d (norm w s (Int64.logand (ureg st d) (ureg st r)));
            next st
      | Or ->
          fun st ->
            set_ureg st d (norm w s (Int64.logor (ureg st d) (ureg st r)));
            next st
      | Xor ->
          fun st ->
            set_ureg st d (norm w s (Int64.logxor (ureg st d) (ureg st r)));
            next st)
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
      | Or ->
          fun st ->
            set_ureg st d (norm w s (Int64.logor (ureg st d) v));
            next st
      | Xor ->
          fun st ->
            set_ureg st d (norm w s (Int64.logxor (ureg st d) v));
            next st)
  | Alu (op, w, s, R d, M m) -> (
      match op with
      | Add ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.add (ureg st d) b));
            next st
      | Sub ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.sub (ureg st d) b));
            next st
      | Imul ->
          fun st ->
            st.pc <- succ;
            let b = load st (umem_addr st m) W64 in
            set_ureg st d (norm w s (Int64.mul (ureg st d) b));
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
            next st)
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
  | Cmp (w, s, R a, R b) ->
      let kind = if s then kind_signed else kind_unsigned in
      fun st ->
        set_flag_words st (norm w s (ureg st a)) (norm w s (ureg st b));
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
  | Lea (r, m) -> fun st -> set_ureg st r (umem_addr st m); next st
  | AddSp n ->
      fun st ->
        set_ureg st sp (Int64.add (ureg st sp) (Int64.of_int n));
        next st
  | CallSym name ->
      fun st ->
        st.pc <- succ;
        do_call st name ~except:(-1) ~ret_pc:succ
  | _ -> via_exec succ i next

(* [i] through [exec], as the closure of [decode_instr] *)
and via_exec succ i next =
  if ends_run i then fun st ->
    st.pc <- succ;
    exec st i
  else fun st ->
    st.pc <- succ;
    exec st i;
    next st

(* Thread [cf]'s code into runs, from the last instruction back. A run
   that reaches the end of the code without a terminator leaves [pc]
   past it, where the loop's next bounds check fails. *)
and decode (cf : Compile.cfunc) : decoded =
  let code = cf.Codegen.Native.code in
  let n = Array.length code in
  let fall_off st = st.pc <- n in
  let run = Array.make n fall_off in
  let count = Array.make n 0 and cost = Array.make n 0 in
  for k = n - 1 downto 0 do
    let i = code.(k) in
    let last = k = n - 1 || ends_run i in
    run.(k) <- decode_instr k i (if k = n - 1 then fall_off else run.(k + 1));
    count.(k) <- (if last then 1 else 1 + count.(k + 1));
    cost.(k) <- (cycles_of i + if last then 0 else cost.(k + 1))
  done;
  { cf; run; count; cost }

(* The loop's one step: the whole run at [pc] when the fuel covers it,
   charged up front, else one instruction through [step]. *)
and dispatch st =
  let code = st.code and pc = st.pc in
  let icount = st.icount + code.count.(pc) in
  if icount <= st.limit then begin
    st.icount <- icount;
    st.cycles <- st.cycles + Array.unsafe_get code.cost pc;
    try (Array.unsafe_get code.run pc) st with e -> abort_run st code pc e
  end
  else step st

(* A run entered at [pc] stopped early: the instruction before [st.pc]
   raised [e]. Refund the instructions after it, which were charged but
   never ran, then deliver a trap to the handler or pass [e] on. *)
and abort_run st code pc e =
  let k = st.pc in
  if st.code == code && k > pc && k < pc + code.count.(pc) then begin
    st.icount <- st.icount - code.count.(k);
    st.cycles <- st.cycles - code.cost.(k)
  end;
  match e with Deliver kind -> deliver st kind | e -> raise e

(* One instruction through [exec]. Counting and charging it precede the
   budget check, so the instruction that exhausts the fuel is counted
   but not executed. *)
and step st =
  let pc = st.pc in
  let i = st.code.cf.Codegen.Native.code.(pc) in
  let n = st.icount + 1 in
  st.icount <- n;
  st.cycles <- st.cycles + cycles_of i;
  if n > st.limit then raise Out_of_fuel;
  st.pc <- pc + 1;
  try exec st i with Deliver kind -> deliver st kind

(* Run until the function entered last returns. *)
and run_until_empty st =
  try
    while true do
      dispatch st
    done
  with Exit -> ()

(* ---------- entry points ---------- *)

let call_function st name (int_args : int64 list) : int64 =
  match st.lookup st (redirected st name) with
  | None -> invalid_arg ("x86lite sim: cannot start in external " ^ name)
  | Some cf ->
      let n = List.length int_args in
      set_reg st sp (Int64.sub (reg st sp) (Int64.of_int (8 * n)));
      List.iteri
        (fun k v -> store st (Int64.add (reg st sp) (Int64.of_int (8 * k))) W64 v)
        int_args;
      set_reg st sp (Int64.sub (reg st sp) 8L);
      st.frames <- [];
      st.depth <- 0;
      enter st cf;
      run_until_empty st;
      reg st ax

let run_main ?fuel (cmod : Compile.cmodule) =
  let st = create ?fuel cmod in
  init_stack st;
  let code =
    match call_function st "main" [] with
    | v -> Int64.to_int (Ir.normalize_int Types.Int v)
    | exception Vmem.Runtime.Exit_called c -> c
  in
  (code, st)
