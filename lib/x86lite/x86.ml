(* X86-lite: a two-address CISC I-ISA standing in for Intel IA-32 in the
   paper's evaluation. 8 integer registers, 8 floating registers,
   register-memory operations with [base+disp] addressing, variable-length
   instruction encodings (1-10 bytes), condition codes.

   Values in integer registers are kept in the canonical normalized form
   of their defining LLVA type (see [Llva.Eval]); width-tagged operations
   renormalize after every computation, exactly as 8/16/32-bit operand
   sizes behave on a real CISC. *)

type reg = int (* 0=AX 1=CX 2=DX 3=BX 4=SP 5=BP 6=SI 7=DI *)
type freg = int (* F0 .. F7 *)

let ax = 0
let cx = 1
let dx = 2
let bx = 3
let sp = 4
let bp = 5
let si = 6
let di = 7

let reg_name = function
  | 0 -> "ax"
  | 1 -> "cx"
  | 2 -> "dx"
  | 3 -> "bx"
  | 4 -> "sp"
  | 5 -> "bp"
  | 6 -> "si"
  | 7 -> "di"
  | r -> Printf.sprintf "r?%d" r

(* Allocatable by a smarter allocator: BX, SI, DI (AX/CX/DX are scratch /
   return registers; SP/BP are the stack). The paper's X86 back-end uses
   the spill-everything allocator anyway. *)
let allocatable_int = [ 3; 6; 7 ]
let allocatable_float = [ 4; 5; 6; 7 ] (* F4..F7; F0..F3 scratch *)

type width = Codegen.Native.width = W8 | W16 | W32 | W64

type mem = { base : reg; disp : int }

type operand = R of reg | I of int64 | M of mem

type alu = Add | Sub | Imul | And | Or | Xor

type cc = Codegen.Native.cc =
  | Eq | Ne | Lt | Gt | Le | Ge | Ltu | Gtu | Leu | Geu

type fop = Codegen.Native.fop = Fadd | Fsub | Fmul | Fdiv | Frem

type instr =
  | Mov of operand * operand (* dst <- src; not mem,mem *)
  | Alu of alu * width * bool * operand * operand (* dst <- dst op src *)
  | Div of width * bool * operand * operand (* dst <- dst / src; traps on 0 *)
  | Rem of width * bool * operand * operand
  | Shift of bool * width * bool * operand * operand
    (* left?, width, signed, dst, count *)
  | Ext of reg * width * bool (* normalize reg to width, signed *)
  | Mload of reg * mem * width * bool (* sized load, sign/zero extends *)
  | Mstore of mem * reg * width (* sized store *)
  | Cmp of width * bool * operand * operand (* sets flags *)
  | Setcc of cc * reg
  | Jcc of cc * int (* block index *)
  | Jmp of int
  | Lea of reg * mem
  | Push of operand
  | Pop of reg
  | CallSym of string
  | CallInd of operand
  (* invoke forms carry the except-block index for the unwinder *)
  | CallSymI of string * int
  | CallIndI of operand * int
  | Ret
  | Unwind
  | AddSp of int (* stack adjustment (caller cleanup / frame) *)
  | SubSpDyn of reg * reg (* dst_reg <- (sp -= src_reg), for dynamic alloca *)
  (* floating point; float registers hold doubles, Fsingle rounds *)
  | Fmov of freg * freg
  | Fconst of freg * float
  | Falu of fop * bool * freg * freg (* single-precision?, dst op= src *)
  | Fload of freg * mem * bool (* single-precision? *)
  | Fstore of mem * freg * bool
  | Fcmp of freg * freg (* sets flags (signed cc apply) *)
  | Cvtif of freg * reg * bool (* int reg (signed?) -> float *)
  | Cvtfi of reg * freg * width * bool (* float -> int, normalized *)
  | Fround of freg (* round to single precision *)
  | Fpushret of freg (* move into F0 return reg: encoded as fmov *)
  | Trap of string (* unreachable marker *)

(* ---------- encoded size in bytes (for the Table 2 native-size column) *)

let imm_size (v : int64) =
  if Int64.compare v (-128L) >= 0 && Int64.compare v 127L <= 0 then 1
  else if Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0
  then 4
  else 8

let disp_size d = if d >= -128 && d <= 127 then 1 else 4

let operand_extra = function
  | R _ -> 0
  | I v -> imm_size v
  | M m -> disp_size m.disp

let size_of = function
  | Mov (a, b) -> 2 + operand_extra a + operand_extra b
  | Alu (_, _, _, a, b) -> 2 + operand_extra a + operand_extra b
  | Div (_, _, a, b) | Rem (_, _, a, b) -> 3 + operand_extra a + operand_extra b
  | Shift (_, _, _, a, b) -> 2 + operand_extra a + operand_extra b
  | Ext (_, _, _) -> 3
  | Mload (_, m, _, _) -> 3 + disp_size m.disp
  | Mstore (m, _, _) -> 3 + disp_size m.disp
  | Cmp (_, _, a, b) -> 2 + operand_extra a + operand_extra b
  | Setcc _ -> 3
  | Jcc _ -> 2 (* short branches; long form would be 6 *)
  | Jmp _ -> 2
  | Lea (_, m) -> 2 + disp_size m.disp
  | Push a -> 1 + operand_extra a
  | Pop _ -> 1
  | CallSym _ | CallSymI _ -> 5
  | CallInd a | CallIndI (a, _) -> 2 + operand_extra a
  | Ret -> 1
  | Unwind -> 2
  | AddSp _ -> 4
  | SubSpDyn _ -> 3
  | Fmov _ -> 3
  | Fconst _ -> 10 (* load of a 64-bit literal *)
  | Falu _ -> 3
  | Fload (_, m, _) | Fstore (m, _, _) -> 3 + disp_size m.disp
  | Fcmp _ -> 3
  | Cvtif _ | Cvtfi _ -> 4
  | Fround _ -> 3
  | Fpushret _ -> 3
  | Trap _ -> 2

(* ---------- cycle model ----------

   Latency model used by the simulator, the bench suite, and the
   superoptimizer's search ranking (lib/superopt). Every constructor
   must carry an explicit cost — no catch-all default — so a new
   instruction cannot silently ride on a stale estimate; the test suite
   asserts a positive cost for one exemplar of every constructor.
   Memory operands add [mem_cost] for the address generation + access. *)

let mem_cost = function M _ -> 2 | _ -> 0

let cycles_of = function
  | Mov (a, b) -> 1 + mem_cost a + mem_cost b
  | Alu (Imul, _, _, a, b) -> 3 + mem_cost a + mem_cost b
  | Alu (_, _, _, a, b) -> 1 + mem_cost a + mem_cost b
  | Div (_, _, a, b) | Rem (_, _, a, b) -> 20 + mem_cost a + mem_cost b
  | Shift (_, _, _, a, b) -> 1 + mem_cost a + mem_cost b
  | Ext _ -> 1
  | Mload _ -> 3
  | Mstore _ -> 3
  | Cmp (_, _, a, b) -> 1 + mem_cost a + mem_cost b
  | Setcc _ -> 1
  | Jcc _ -> 2
  | Jmp _ -> 1
  | Lea _ -> 1
  | Push _ -> 2
  | Pop _ -> 2
  | CallSym _ | CallInd _ | CallSymI _ | CallIndI _ -> 4
  | Ret -> 3
  | Unwind -> 4
  | AddSp _ -> 1
  | SubSpDyn _ -> 2
  | Fmov _ -> 1
  | Fconst _ -> 2
  | Falu (Fdiv, _, _, _) -> 15
  (* Frem used to hide under the generic 3-cycle arm; it is a library
     call on real hardware and costs at least a divide. *)
  | Falu (Frem, _, _, _) -> 20
  | Falu ((Fadd | Fsub | Fmul), _, _, _) -> 3
  | Fload _ | Fstore _ -> 2
  | Fcmp _ -> 2
  | Cvtif _ | Cvtfi _ -> 4
  | Fround _ -> 2
  | Fpushret _ -> 1
  | Trap _ -> 1

(* ---------- printing (debugging / disassembly) ---------- *)

let operand_str = function
  | R r -> "%" ^ reg_name r
  | I v -> Printf.sprintf "$%Ld" v
  | M m -> Printf.sprintf "%d(%%%s)" m.disp (reg_name m.base)

let cc_str = function
  | Eq -> "e"
  | Ne -> "ne"
  | Lt -> "l"
  | Gt -> "g"
  | Le -> "le"
  | Ge -> "ge"
  | Ltu -> "b"
  | Gtu -> "a"
  | Leu -> "be"
  | Geu -> "ae"

let alu_str = function
  | Add -> "add"
  | Sub -> "sub"
  | Imul -> "imul"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let width_suffix = function W8 -> "b" | W16 -> "w" | W32 -> "l" | W64 -> "q"

let to_string = function
  | Mov (a, b) -> Printf.sprintf "mov %s, %s" (operand_str a) (operand_str b)
  | Alu (op, w, _, a, b) ->
      Printf.sprintf "%s%s %s, %s" (alu_str op) (width_suffix w)
        (operand_str a) (operand_str b)
  | Div (w, s, a, b) ->
      Printf.sprintf "%sdiv%s %s, %s"
        (if s then "i" else "")
        (width_suffix w) (operand_str a) (operand_str b)
  | Rem (w, s, a, b) ->
      Printf.sprintf "%srem%s %s, %s"
        (if s then "i" else "")
        (width_suffix w) (operand_str a) (operand_str b)
  | Shift (left, w, s, a, b) ->
      Printf.sprintf "%s%s %s, %s"
        (if left then "shl" else if s then "sar" else "shr")
        (width_suffix w) (operand_str a) (operand_str b)
  | Ext (r, w, s) ->
      Printf.sprintf "%s%s %%%s"
        (if s then "movsx" else "movzx")
        (width_suffix w) (reg_name r)
  | Mload (r, m, w, s) ->
      Printf.sprintf "mov%s%s %%%s, %d(%%%s)"
        (if s then "sx" else "zx")
        (width_suffix w) (reg_name r) m.disp (reg_name m.base)
  | Mstore (m, r, w) ->
      Printf.sprintf "mov%s %d(%%%s), %%%s" (width_suffix w) m.disp
        (reg_name m.base) (reg_name r)
  | Cmp (w, _, a, b) ->
      Printf.sprintf "cmp%s %s, %s" (width_suffix w) (operand_str a)
        (operand_str b)
  | Setcc (cc, r) -> Printf.sprintf "set%s %%%s" (cc_str cc) (reg_name r)
  | Jcc (cc, l) -> Printf.sprintf "j%s .L%d" (cc_str cc) l
  | Jmp l -> Printf.sprintf "jmp .L%d" l
  | Lea (r, m) ->
      Printf.sprintf "lea %%%s, %d(%%%s)" (reg_name r) m.disp (reg_name m.base)
  | Push a -> "push " ^ operand_str a
  | Pop r -> "pop %" ^ reg_name r
  | CallSym s -> "call " ^ s
  | CallInd a -> "call *" ^ operand_str a
  | CallSymI (s, l) -> Printf.sprintf "call %s (except .L%d)" s l
  | CallIndI (a, l) -> Printf.sprintf "call *%s (except .L%d)" (operand_str a) l
  | Ret -> "ret"
  | Unwind -> "unwind"
  | AddSp n -> Printf.sprintf "add %%sp, $%d" n
  | SubSpDyn (d, s) ->
      Printf.sprintf "subspdyn %%%s, %%%s" (reg_name d) (reg_name s)
  | Fmov (a, b) -> Printf.sprintf "fmov %%f%d, %%f%d" a b
  | Fconst (f, v) -> Printf.sprintf "fconst %%f%d, %g" f v
  | Falu (op, single, a, b) ->
      Printf.sprintf "f%s%s %%f%d, %%f%d"
        (match op with
        | Fadd -> "add"
        | Fsub -> "sub"
        | Fmul -> "mul"
        | Fdiv -> "div"
        | Frem -> "rem")
        (if single then "s" else "d")
        a b
  | Fload (f, m, single) ->
      Printf.sprintf "fld%s %%f%d, %d(%%%s)"
        (if single then "s" else "d")
        f m.disp (reg_name m.base)
  | Fstore (m, f, single) ->
      Printf.sprintf "fst%s %d(%%%s), %%f%d"
        (if single then "s" else "d")
        m.disp (reg_name m.base) f
  | Fcmp (a, b) -> Printf.sprintf "fcmp %%f%d, %%f%d" a b
  | Cvtif (f, r, _) -> Printf.sprintf "cvtif %%f%d, %%%s" f (reg_name r)
  | Cvtfi (r, f, _, _) -> Printf.sprintf "cvtfi %%%s, %%f%d" (reg_name r) f
  | Fround f -> Printf.sprintf "frnds %%f%d" f
  | Fpushret f -> Printf.sprintf "fret %%f%d" f
  | Trap s -> "trap " ^ s
