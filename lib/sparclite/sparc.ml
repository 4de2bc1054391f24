(* SPARC-lite: a three-address RISC I-ISA standing in for SPARC V9 in the
   paper's evaluation. 32 integer registers (r0 hardwired to zero), 16
   floating registers, load/store architecture with 13-bit immediates
   (larger constants are built with sethi+add sequences, as on real
   SPARC), fixed 4-byte instruction encodings, condition codes with a
   V9-style conditional set. *)

type reg = int (* 0..31 *)
type freg = int (* 0..15 *)

let zero = 0
let t1 = 1 (* integer scratch *)
let t2 = 2
let t3 = 3
let sp = 14
let lr = 15
let fp = 30
let t4 = 31 (* second scratch for constant synthesis *)

(* argument / return registers *)
let arg_reg k = 8 + k (* r8..r13; r8 is also the return register *)
let n_arg_regs = 6
let ret = 8

(* float scratch f0..f3; f0 is the float return register *)
let allocatable_int = [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28; 29; 4; 5; 6; 7 ]
let allocatable_float = [ 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]

let reg_name r =
  match r with
  | 0 -> "%g0"
  | 14 -> "%sp"
  | 15 -> "%lr"
  | 30 -> "%fp"
  | r -> Printf.sprintf "%%r%d" r

type width = Codegen.Native.width = W8 | W16 | W32 | W64

type operand = Rs of reg | Imm of int (* fits 13 signed bits *)

let fits_imm13 (v : int64) =
  Int64.compare v (-4096L) >= 0 && Int64.compare v 4095L <= 0

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra

type cc = Codegen.Native.cc =
  | Eq | Ne | Lt | Gt | Le | Ge | Ltu | Gtu | Leu | Geu

type fop = Codegen.Native.fop = Fadd | Fsub | Fmul | Fdiv | Frem

type instr =
  | Alu3 of alu * width * bool * reg * reg * operand
    (* rd := rs1 op rs2/imm, normalized at width *)
  | Sethi of reg * int64 (* rd := literal (upper bits of a constant) *)
  | Ld of width * bool * reg * reg * int (* rd := mem[rs + disp] *)
  | St of width * reg * reg * int (* mem[rs + disp] := rsrc *)
  | Cmp of width * bool * reg * operand (* subcc: set flags *)
  | Movcc of cc * reg (* rd := flags cc ? 1 : 0 (V9 conditional move) *)
  | Bcc of cc * int
  | Ba of int
  | CallSym of string
  | CallInd of reg
  | CallSymI of string * int (* invoke form: except label *)
  | CallIndI of reg * int
  | RetS
  | UnwindS
  | AddSp of int
  | SubSpDyn of reg * reg (* rd := (sp -= rs) *)
  | Falu of fop * bool * freg * freg * freg (* single?, fd := fa op fb *)
  | Fmovs of freg * freg
  | Fconst of freg * float (* macro: expands to a constant-pool load; 1 instr *)
  | Fld of bool * freg * reg * int
  | Fst of bool * freg * reg * int
  | Fcmp of freg * freg
  | Cvtif of freg * reg * bool
  | Cvtfi of reg * freg * width * bool
  | Fround of freg
  | Mvfi of reg * freg (* raw bit move float->int *)
  | Mvif of freg * reg
  | TrapS of string

(* every SPARC-lite instruction is one 4-byte word *)
let size_of (_ : instr) = 4

(* Latency model used by the simulator, the bench suite, and the
   superoptimizer's search ranking (lib/superopt). Every constructor
   must carry an explicit cost — no catch-all default — so a new
   instruction cannot silently ride on a stale estimate; the test suite
   asserts a positive cost for one exemplar of every constructor. *)
let cycles_of = function
  | Alu3 (Mul, _, _, _, _, _) -> 3
  | Alu3 ((Div | Rem), _, _, _, _, _) -> 20
  | Alu3 _ -> 1
  | Sethi _ -> 1
  | Ld _ | St _ | Fld _ | Fst _ -> 3
  | Cmp _ -> 1
  | Movcc _ -> 1
  | Bcc _ -> 2
  | Ba _ -> 1
  | CallSym _ | CallInd _ | CallSymI _ | CallIndI _ -> 3
  | RetS -> 3
  | UnwindS -> 4
  | AddSp _ -> 1
  | SubSpDyn _ -> 2
  | Falu (Fdiv, _, _, _, _) -> 15
  (* Frem used to hide under the generic 3-cycle arm; it is a library
     call on real hardware and costs at least a divide. *)
  | Falu (Frem, _, _, _, _) -> 20
  | Falu ((Fadd | Fsub | Fmul), _, _, _, _) -> 3
  | Fmovs _ -> 1
  | Fconst _ -> 3
  | Fcmp _ -> 2
  | Cvtif _ | Cvtfi _ -> 4
  | Fround _ -> 2
  | Mvfi _ | Mvif _ -> 2
  | TrapS _ -> 1

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mulx"
  | Div -> "sdivx"
  | Rem -> "srem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sllx"
  | Srl -> "srlx"
  | Sra -> "srax"

let cc_name = function
  | Eq -> "e"
  | Ne -> "ne"
  | Lt -> "l"
  | Gt -> "g"
  | Le -> "le"
  | Ge -> "ge"
  | Ltu -> "lu"
  | Gtu -> "gu"
  | Leu -> "leu"
  | Geu -> "geu"

let operand_str = function Rs r -> reg_name r | Imm v -> string_of_int v

let to_string = function
  | Alu3 (op, _, _, rd, rs1, o) ->
      Printf.sprintf "%s %s, %s, %s" (alu_name op) (reg_name rs1)
        (operand_str o) (reg_name rd)
  | Sethi (rd, v) -> Printf.sprintf "sethi %%hi(%Ld), %s" v (reg_name rd)
  | Ld (_, _, rd, rs, d) ->
      Printf.sprintf "ld [%s%+d], %s" (reg_name rs) d (reg_name rd)
  | St (_, rsrc, rs, d) ->
      Printf.sprintf "st %s, [%s%+d]" (reg_name rsrc) (reg_name rs) d
  | Cmp (_, _, r, o) -> Printf.sprintf "cmp %s, %s" (reg_name r) (operand_str o)
  | Movcc (cc, rd) -> Printf.sprintf "mov%s 1, %s" (cc_name cc) (reg_name rd)
  | Bcc (cc, l) -> Printf.sprintf "b%s .L%d" (cc_name cc) l
  | Ba l -> Printf.sprintf "ba .L%d" l
  | CallSym s -> "call " ^ s
  | CallInd r -> "call " ^ reg_name r
  | CallSymI (s, l) -> Printf.sprintf "call %s (except .L%d)" s l
  | CallIndI (r, l) -> Printf.sprintf "call %s (except .L%d)" (reg_name r) l
  | RetS -> "ret"
  | UnwindS -> "unwind"
  | AddSp n -> Printf.sprintf "add %%sp, %d, %%sp" n
  | SubSpDyn (rd, rs) ->
      Printf.sprintf "sub %%sp, %s, %%sp ! %s := %%sp" (reg_name rs) (reg_name rd)
  | Falu (op, single, fd, fa, fb) ->
      Printf.sprintf "f%s%s %%f%d, %%f%d, %%f%d"
        (match op with
        | Fadd -> "add"
        | Fsub -> "sub"
        | Fmul -> "mul"
        | Fdiv -> "div"
        | Frem -> "rem")
        (if single then "s" else "d")
        fa fb fd
  | Fmovs (fd, fs) -> Printf.sprintf "fmovd %%f%d, %%f%d" fs fd
  | Fconst (fd, v) -> Printf.sprintf "fld [const %g], %%f%d" v fd
  | Fld (_, fd, rs, d) ->
      Printf.sprintf "fld [%s%+d], %%f%d" (reg_name rs) d fd
  | Fst (_, fs, rs, d) ->
      Printf.sprintf "fst %%f%d, [%s%+d]" fs (reg_name rs) d
  | Fcmp (a, b) -> Printf.sprintf "fcmpd %%f%d, %%f%d" a b
  | Cvtif (fd, r, _) -> Printf.sprintf "fitod %s, %%f%d" (reg_name r) fd
  | Cvtfi (rd, f, _, _) -> Printf.sprintf "fdtoi %%f%d, %s" f (reg_name rd)
  | Fround f -> Printf.sprintf "fdtos %%f%d" f
  | Mvfi (rd, f) -> Printf.sprintf "movdtox %%f%d, %s" f (reg_name rd)
  | Mvif (fd, r) -> Printf.sprintf "movxtod %s, %%f%d" (reg_name r) fd
  | TrapS s -> "trap " ^ s
