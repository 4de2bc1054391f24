(* The decoded simulators. [Sim.decode_instr] specializes each
   instruction into a closure; [Sim.exec] is the one semantic definition
   of the ISA. For random instructions of every constructor and operand
   shape, run on random register files, flags and memory (null,
   unmapped and page-straddling addresses, zero and overflowing
   divisors, with and without a caller frame and a trap handler), the
   closure and [exec] must leave the same registers, flags, memory, pc,
   frames, output and raised exception. *)

(* A callee with an invoke frame to return or unwind to, a trap handler
   that prints, and a main to start in. *)
let src =
  {|
declare void %print_int(int)

int %f(int %x) {
entry:
  %y = add int %x, 1
  ret int %y
}

void %handler(uint %num, sbyte* %info) {
entry:
  %n = cast uint %num to int
  call void %print_int(int %n)
  ret void
}

int %main() {
entry:
  %r = call int %f(int 1)
  ret int %r
}
|}

let m = Gen.parse src
let image () = Vmem.Image.load m
let fn_addr name = Option.get (Vmem.Image.symbol_address (image ()) name)

(* ---------- the machine state, as data ---------- *)

type scene = {
  ints : int64 array;
  floats : float array;
  kind : int;
  fa : int64;
  fb : int64;
  words : (int64 * int64) list; (* u64 memory contents *)
  in_callee : bool; (* running in %f, entered by an invoke *)
  handler : bool; (* %handler registered for traps *)
  privileged : bool;
}

let page = Int64.of_int Vmem.Memory.page_size

(* addresses worth hitting: null, the null page, just below a page end
   (so wide accesses straddle), a page start, the stack, negative *)
let addresses =
  let frame = Int64.sub Vmem.Memory.stack_top 8192L in
  [
    0L; 8L; 0xFF8L; 0x1000L; Int64.sub (Int64.mul 0x2001L page) 1L;
    Int64.sub (Int64.mul 0x2001L page) 3L; Int64.sub (Int64.mul 0x2001L page) 6L;
    Int64.mul 0x2001L page; frame; Int64.add frame 5L; -8L; Int64.min_int;
    Vmem.Memory.globals_base;
  ]

let values =
  [
    0L; 1L; 2L; -1L; -2L; 7L; 31L; 63L; 64L; 0x7FL; 0x80L; 0xFFL; 0x7FFFL;
    0x8000L; 0xFFFF_FFFFL; 0x8000_0000L; Int64.max_int; Int64.min_int;
    -128L; -32768L; 0x7FFF_FFFFL;
  ]

let gen_scene ~nregs ~nfregs ~kinds : scene QCheck.Gen.t =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (4, oneofl values);
        (4, oneofl addresses);
        (1, oneofl [ fn_addr "f"; fn_addr "handler" ]);
        (2, ui64);
      ]
  in
  let fvalue =
    frequency
      [
        ( 3,
          oneofl
            [ 0.0; -0.0; 1.5; -2.25; 1e300; nan; infinity; neg_infinity; 3e9; -9.3e18 ]
        );
        (2, float);
      ]
  in
  let word =
    let* a = oneofl addresses in
    let* k = int_range (-2) 1 in
    let* v = oneof [ oneofl values; ui64 ] in
    let a = Int64.add (Int64.logand a (-8L)) (Int64.of_int (8 * k)) in
    return (a, v)
  in
  let* ints = array_repeat nregs value in
  let* floats = array_repeat nfregs fvalue in
  let* kind = int_bound (kinds - 1) in
  let* fa = oneof [ value; map Int64.bits_of_float fvalue ] in
  let* fb = oneof [ value; map Int64.bits_of_float fvalue ] in
  let* words = list_size (int_bound 8) word in
  let* in_callee = bool in
  let* handler = bool in
  let* privileged = bool in
  return { ints; floats; kind; fa; fb; words; in_callee; handler; privileged }

(* mapped, non-null words only: the test writes memory directly *)
let write_words mem words =
  List.iter
    (fun (a, v) ->
      if Int64.compare a 0x1000L >= 0 && Int64.compare a 0x1_0000_0000L < 0 then
        Vmem.Memory.write_u64 mem a v)
    words

let pages (mem : Vmem.Memory.t) =
  Hashtbl.fold
    (fun idx p acc -> (idx, Bytes.to_string p) :: acc)
    mem.Vmem.Memory.pages []
  |> List.sort compare

let outcome f = match f () with () -> "returned" | exception e -> Printexc.to_string e

let names =
  [
    "f"; "handler"; "print_int"; "print_float"; "free"; "strlen"; "nosuch";
    "llva.stack.depth"; "llva.priv.set"; "llva.trap.register"; "llva.io.in";
  ]

let scene_str s =
  Printf.sprintf "regs [%s] fregs [%s] kind %d flags %Ld %Ld words [%s]%s%s%s"
    (String.concat "; " (Array.to_list (Array.map Int64.to_string s.ints)))
    (String.concat "; " (Array.to_list (Array.map string_of_float s.floats)))
    s.kind s.fa s.fb
    (String.concat "; "
       (List.map (fun (a, v) -> Printf.sprintf "%Lx=%Ld" a v) s.words))
    (if s.in_callee then " in-callee" else "")
    (if s.handler then " handler" else "")
    (if s.privileged then " privileged" else "")

(* ---------- x86lite ---------- *)

module X = struct
  open X86lite
  open X86lite.X86

  let cm = Compile.compile_module m

  let gen_instr : instr QCheck.Gen.t =
    let open QCheck.Gen in
    let reg = int_bound 7 and freg = int_bound 7 in
    let imm = oneof [ oneofl values; oneofl addresses; ui64 ] in
    let mem =
      map2 (fun base disp -> { base; disp }) reg
        (oneofl [ -16; -8; -1; 0; 1; 3; 8; 4095 ])
    in
    let opnd =
      frequency
        [
          (3, map (fun r -> R r) reg); (2, map (fun v -> I v) imm);
          (3, map (fun m -> M m) mem);
        ]
    in
    let width = oneofl [ W8; W16; W32; W64 ] in
    let cc = oneofl [ Eq; Ne; Lt; Gt; Le; Ge; Ltu; Gtu; Leu; Geu ] in
    let label = int_bound 5 in
    oneof
      [
        map2 (fun a b -> Mov (a, b)) opnd opnd;
        (let* op = oneofl [ Add; Sub; Imul; And; Or; Xor ] in
         let* w = width and* s = bool and* a = opnd and* b = opnd in
         return (Alu (op, w, s, a, b)));
        (let* div = bool and* w = width and* s = bool in
         let* a = opnd and* b = opnd in
         return (if div then Div (w, s, a, b) else Rem (w, s, a, b)));
        (let* l = bool and* w = width and* s = bool in
         let* a = opnd and* b = opnd in
         return (Shift (l, w, s, a, b)));
        map3 (fun r w s -> Ext (r, w, s)) reg width bool;
        (let* r = reg and* m = mem and* w = width and* s = bool in
         return (Mload (r, m, w, s)));
        map3 (fun m r w -> Mstore (m, r, w)) mem reg width;
        (let* w = width and* s = bool and* a = opnd and* b = opnd in
         return (Cmp (w, s, a, b)));
        map2 (fun c r -> Setcc (c, r)) cc reg;
        map2 (fun c l -> Jcc (c, l)) cc label;
        map (fun l -> Jmp l) label;
        map2 (fun r m -> Lea (r, m)) reg mem;
        map (fun o -> Push o) opnd;
        map (fun r -> Pop r) reg;
        map (fun n -> CallSym n) (oneofl names);
        map (fun o -> CallInd o) opnd;
        map2 (fun n l -> CallSymI (n, l)) (oneofl names) label;
        map2 (fun o l -> CallIndI (o, l)) opnd label;
        return Ret;
        return Unwind;
        map (fun n -> AddSp n) (oneofl [ -16; -8; 0; 8; 24 ]);
        map2 (fun d s -> SubSpDyn (d, s)) reg reg;
        map2 (fun a b -> Fmov (a, b)) freg freg;
        map2 (fun f v -> Fconst (f, v)) freg float;
        (let* op = oneofl [ Fadd; Fsub; Fmul; Fdiv; Frem ] in
         let* s = bool and* a = freg and* b = freg in
         return (Falu (op, s, a, b)));
        map3 (fun f m s -> Fload (f, m, s)) freg mem bool;
        map3 (fun m f s -> Fstore (m, f, s)) mem freg bool;
        map2 (fun a b -> Fcmp (a, b)) freg freg;
        map3 (fun f r s -> Cvtif (f, r, s)) freg reg bool;
        (let* r = reg and* f = freg and* w = width and* s = bool in
         return (Cvtfi (r, f, w, s)));
        map (fun f -> Fround f) freg;
        map (fun f -> Fpushret f) freg;
        return (Trap "unreachable");
      ]

  (* a state in [s], about to run the instruction at pc 1 of main or f *)
  let setup s =
    let st = Sim.create { cm with Compile.image = image () } in
    Sim.enter st (Hashtbl.find cm.Compile.funcs "main");
    if s.in_callee then Sim.do_call st "f" ~except:3 ~ret_pc:2;
    Array.iteri (fun r v -> Sim.set_reg st r v) s.ints;
    Array.blit s.floats 0 st.Sim.fregs 0 (Array.length s.floats);
    st.Sim.flag_kind <- s.kind;
    Sim.set_flag_words st s.fa s.fb;
    write_words st.Sim.mem s.words;
    if s.handler then st.Sim.trap_handler <- Some "handler";
    st.Sim.privileged <- s.privileged;
    st.Sim.pc <- 2;
    st

  let observe st result =
    ( result,
      Bytes.to_string st.Sim.regs,
      Array.map Int64.bits_of_float st.Sim.fregs,
      st.Sim.flag_kind,
      ( st.Sim.pc,
        Sim.current st,
        List.length st.Sim.frames,
        st.Sim.depth,
        st.Sim.icount,
        st.Sim.cycles ),
      ( Sim.output st,
        st.Sim.trap_handler,
        st.Sim.privileged,
        st.Sim.mem.Vmem.Memory.brk,
        pages st.Sim.mem ) )

  let prop =
    QCheck.Test.make ~name:"x86lite decoded closures agree with exec" ~count:10_000
      (QCheck.make
         ~print:(fun (i, s) -> to_string i ^ " on " ^ scene_str s)
         QCheck.Gen.(pair gen_instr (gen_scene ~nregs:8 ~nfregs:8 ~kinds:4)))
      (fun (i, s) ->
        let a = setup s and b = setup s in
        let op = Sim.decode_instr i in
        let ra = outcome (fun () -> op a) in
        let rb = outcome (fun () -> Sim.exec b i) in
        observe a ra = observe b rb)
end

(* ---------- sparclite ---------- *)

module S = struct
  open Sparclite
  open Sparclite.Sparc

  let cm = Compile.compile_module m

  let gen_instr : instr QCheck.Gen.t =
    let open QCheck.Gen in
    let reg = oneofl [ 0; 1; 2; 3; 8; 9; 14; 15; 16; 17; 30; 31 ] in
    let freg = int_bound 15 in
    let opnd =
      frequency
        [
          (3, map (fun r -> Rs r) reg);
          (2, map (fun v -> Imm v) (oneofl [ 0; 1; -1; 7; 63; 64; 4095; -4096 ]));
          (1, map (fun v -> Imm v) int);
        ]
    in
    let disp = oneofl [ -16; -8; -1; 0; 1; 3; 8; 4095 ] in
    let width = oneofl [ W8; W16; W32; W64 ] in
    let cc = oneofl [ Eq; Ne; Lt; Gt; Le; Ge; Ltu; Gtu; Leu; Geu ] in
    let label = int_bound 5 in
    oneof
      [
        (let* op =
           oneofl [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra ]
         in
         let* w = width and* s = bool and* rd = reg and* rs1 = reg in
         let* o = opnd in
         return (Alu3 (op, w, s, rd, rs1, o)));
        map2 (fun rd v -> Sethi (rd, v)) reg (oneof [ oneofl values; ui64 ]);
        (let* w = width and* s = bool and* rd = reg and* rs = reg in
         let* d = disp in
         return (Ld (w, s, rd, rs, d)));
        (let* w = width and* rsrc = reg and* rs = reg and* d = disp in
         return (St (w, rsrc, rs, d)));
        (let* w = width and* s = bool and* r = reg and* o = opnd in
         return (Cmp (w, s, r, o)));
        map2 (fun c r -> Movcc (c, r)) cc reg;
        map2 (fun c l -> Bcc (c, l)) cc label;
        map (fun l -> Ba l) label;
        map (fun n -> CallSym n) (oneofl names);
        map (fun r -> CallInd r) reg;
        map2 (fun n l -> CallSymI (n, l)) (oneofl names) label;
        map2 (fun r l -> CallIndI (r, l)) reg label;
        return RetS;
        return UnwindS;
        map (fun n -> AddSp n) (oneofl [ -16; -8; 0; 8; 24 ]);
        map2 (fun d s -> SubSpDyn (d, s)) reg reg;
        (let* op = oneofl [ Fadd; Fsub; Fmul; Fdiv; Frem ] in
         let* s = bool and* fd = freg and* fa = freg and* fb = freg in
         return (Falu (op, s, fd, fa, fb)));
        map2 (fun a b -> Fmovs (a, b)) freg freg;
        map2 (fun f v -> Fconst (f, v)) freg float;
        (let* s = bool and* f = freg and* rs = reg and* d = disp in
         return (Fld (s, f, rs, d)));
        (let* s = bool and* f = freg and* rs = reg and* d = disp in
         return (Fst (s, f, rs, d)));
        map2 (fun a b -> Fcmp (a, b)) freg freg;
        map3 (fun f r s -> Cvtif (f, r, s)) freg reg bool;
        (let* r = reg and* f = freg and* w = width and* s = bool in
         return (Cvtfi (r, f, w, s)));
        map (fun f -> Fround f) freg;
        map2 (fun r f -> Mvfi (r, f)) reg freg;
        map2 (fun f r -> Mvif (f, r)) freg reg;
        return (TrapS "unreachable");
      ]

  (* r0 stays zero, as every writer of the register file keeps it *)
  let setup s =
    let st = Sim.create { cm with Compile.image = image () } in
    Sim.enter st (Hashtbl.find cm.Compile.funcs "main");
    if s.in_callee then Sim.do_call st "f" ~except:3 ~ret_pc:2;
    Array.iteri (fun r v -> Sim.wreg st r v) s.ints;
    Array.blit s.floats 0 st.Sim.fregs 0 (Array.length s.floats);
    st.Sim.flag_kind <- s.kind;
    Sim.set_flag_words st s.fa s.fb;
    write_words st.Sim.mem s.words;
    if s.handler then st.Sim.trap_handler <- Some "handler";
    st.Sim.privileged <- s.privileged;
    st.Sim.pc <- 2;
    st

  let observe st result =
    ( result,
      Bytes.to_string st.Sim.regs,
      Array.map Int64.bits_of_float st.Sim.fregs,
      st.Sim.flag_kind,
      ( st.Sim.pc,
        Sim.current st,
        List.length st.Sim.frames,
        st.Sim.depth,
        st.Sim.icount,
        st.Sim.cycles ),
      ( Sim.output st,
        st.Sim.trap_handler,
        st.Sim.privileged,
        st.Sim.mem.Vmem.Memory.brk,
        pages st.Sim.mem ) )

  let prop =
    QCheck.Test.make ~name:"sparclite decoded closures agree with exec" ~count:10_000
      (QCheck.make
         ~print:(fun (i, s) -> to_string i ^ " on " ^ scene_str s)
         QCheck.Gen.(pair gen_instr (gen_scene ~nregs:32 ~nfregs:16 ~kinds:3)))
      (fun (i, s) ->
        let a = setup s and b = setup s in
        let op = Sim.decode_instr i in
        let ra = outcome (fun () -> op a) in
        let rb = outcome (fun () -> Sim.exec b i) in
        observe a ra = observe b rb)
end

let suite =
  [
    QCheck_alcotest.to_alcotest X.prop;
    QCheck_alcotest.to_alcotest S.prop;
  ]
