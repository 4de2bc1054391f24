(* The threaded simulators. Each I-ISA's [Sim.decode_instr] specializes
   each instruction into a closure that continues with its successor;
   its [Sim.exec] is the one semantic definition of the ISA. For random
   instructions of every constructor and operand shape, run on random
   register files, flags and memory (null, unmapped and page-straddling
   addresses, zero and overflowing divisors, with and without a caller
   frame and a trap handler), the closure and [exec] must leave the same
   registers, flags, memory, pc, frames, output and raised exception.

   The block properties do the same for whole runs: 2-8 straight-line
   instructions, optionally ending in a terminator and optionally with a
   load or store that faults part-way through, under a fuel budget that
   may stop inside the run. Run once through [Codegen.Machine.dispatch]
   (charged up front, refunded on a raise, the trap handler delivered
   after the refund) and once by [step]ping each instruction through
   [exec], they must also agree on the instruction and cycle counts. *)

module M = Codegen.Machine

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
    "f"; "handler"; "print_int"; "print_float"; "malloc"; "free"; "strlen";
    "nosuch";
    "llva.stack.depth"; "llva.priv.set"; "llva.trap.register"; "llva.io.in";
  ]

let halt _ = ()

(* A random run: 2-8 instructions that do not end a run, then maybe
   one that does, with the two-instruction faulting access [fault]
   spliced into the middle one time in three; and no fuel budget, or
   one that runs out somewhere inside the run. *)
let gen_block ~gen_instr ~ends_run ~fault =
  let open QCheck.Gen in
  let rec pick terminator st =
    let i = gen_instr st in
    if ends_run i = terminator then i else pick terminator st
  in
  let* n = int_range 2 8 in
  let* body = list_repeat n (pick false) in
  let* last = opt (pick true) in
  let* fault = opt ~ratio:0.33 fault in
  let* at = int_range 1 (n - 1) in
  let body =
    match fault with
    | None -> body
    | Some (a, b) ->
        List.filteri (fun k _ -> k < at) body
        @ [ a; b ]
        @ List.filteri (fun k _ -> k >= at) body
  in
  let code = body @ Option.to_list last in
  let* fuel = opt (int_bound (List.length code + 1)) in
  return (code, fuel)

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

let block_str to_string ((code, fuel), s) =
  String.concat "; " (List.map to_string code)
  ^ (match fuel with Some f -> Printf.sprintf " fuel %d" f | None -> "")
  ^ " on " ^ scene_str s

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
  let setup ?fuel s =
    let st =
      M.create ?fuel Sim.machine { cm with Codegen.Native.image = image () }
    in
    M.enter st (Hashtbl.find cm.Codegen.Native.funcs "main");
    if s.in_callee then M.do_call st "f" ~except:3 ~ret_pc:2;
    Array.iteri (fun r v -> Sim.set_reg st r v) s.ints;
    Array.blit s.floats 0 st.M.fregs 0 (Array.length s.floats);
    st.M.flag_kind <- s.kind;
    Sim.set_flag_words st s.fa s.fb;
    write_words st.M.mem s.words;
    if s.handler then st.M.trap_handler <- Some "handler";
    st.M.privileged <- s.privileged;
    st.M.pc <- 2;
    st

  let observe st result =
    ( result,
      Bytes.to_string st.M.regs,
      Array.map Int64.bits_of_float st.M.fregs,
      st.M.flag_kind,
      ( st.M.pc,
        M.current st,
        List.length st.M.frames,
        st.M.depth,
        st.M.icount,
        st.M.cycles ),
      ( M.output st,
        st.M.trap_handler,
        st.M.privileged,
        st.M.mem.Vmem.Memory.brk,
        pages st.M.mem ) )

  let prop =
    QCheck.Test.make ~name:"x86lite decoded closures agree with exec" ~count:10_000
      (QCheck.make
         ~print:(fun (i, s) -> to_string i ^ " on " ^ scene_str s)
         QCheck.Gen.(pair gen_instr (gen_scene ~nregs:8 ~nfregs:8 ~kinds:4)))
      (fun (i, s) ->
        let a = setup s and b = setup s in
        let op = Sim.decode_instr 1 i halt in
        let ra = outcome (fun () -> op a) in
        let rb = outcome (fun () -> Sim.exec b i) in
        observe a ra = observe b rb)

  (* point a register into the null page or below it, then load or
     store through it *)
  let fault =
    QCheck.Gen.(
      let* r = int_bound 7 and* d = int_bound 7 in
      let* a = oneofl [ 0L; 8L; -8L ] in
      let* load = bool and* w = oneofl [ W8; W32; W64 ] in
      let m = { base = r; disp = 0 } in
      return
        ( Mov (R r, I a),
          if load then Mload (d, m, w, true) else Mstore (m, d, w) ))

  (* [code] as one threaded run through [dispatch], or stepped through
     [exec], from pc 0 until all of it has run or something raised *)
  let run_block ~threaded ?fuel s code =
    let st = setup ?fuel s in
    st.M.code <-
      M.decode Sim.machine
        { Codegen.Native.cf_name = "block"; code; nargs = 0; frame_slots = 0 };
    st.M.pc <- 0;
    let len = Array.length code in
    let result =
      outcome (fun () ->
          if threaded then
            while st.M.icount < len do
              M.dispatch st
            done
          else
            for _ = 1 to len do
              M.step st
            done)
    in
    observe st result

  let block_prop =
    QCheck.Test.make ~name:"x86lite threaded runs agree with stepping exec"
      ~count:4000
      (QCheck.make ~print:(block_str to_string)
         QCheck.Gen.(
           pair
             (gen_block ~gen_instr ~ends_run:Sim.ends_run ~fault)
             (gen_scene ~nregs:8 ~nfregs:8 ~kinds:4)))
      (fun ((code, fuel), s) ->
        let code = Array.of_list code in
        run_block ~threaded:true ?fuel s code
        = run_block ~threaded:false ?fuel s code)
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
  let setup ?fuel s =
    let st =
      M.create ?fuel Sim.machine { cm with Codegen.Native.image = image () }
    in
    M.enter st (Hashtbl.find cm.Codegen.Native.funcs "main");
    if s.in_callee then M.do_call st "f" ~except:3 ~ret_pc:2;
    Array.iteri (fun r v -> Sim.wreg st r v) s.ints;
    Array.blit s.floats 0 st.M.fregs 0 (Array.length s.floats);
    st.M.flag_kind <- s.kind;
    Sim.set_flag_words st s.fa s.fb;
    write_words st.M.mem s.words;
    if s.handler then st.M.trap_handler <- Some "handler";
    st.M.privileged <- s.privileged;
    st.M.pc <- 2;
    st

  let observe st result =
    ( result,
      Bytes.to_string st.M.regs,
      Array.map Int64.bits_of_float st.M.fregs,
      st.M.flag_kind,
      ( st.M.pc,
        M.current st,
        List.length st.M.frames,
        st.M.depth,
        st.M.icount,
        st.M.cycles ),
      ( M.output st,
        st.M.trap_handler,
        st.M.privileged,
        st.M.mem.Vmem.Memory.brk,
        pages st.M.mem ) )

  let prop =
    QCheck.Test.make ~name:"sparclite decoded closures agree with exec" ~count:10_000
      (QCheck.make
         ~print:(fun (i, s) -> to_string i ^ " on " ^ scene_str s)
         QCheck.Gen.(pair gen_instr (gen_scene ~nregs:32 ~nfregs:16 ~kinds:3)))
      (fun (i, s) ->
        let a = setup s and b = setup s in
        let op = Sim.decode_instr 1 i halt in
        let ra = outcome (fun () -> op a) in
        let rb = outcome (fun () -> Sim.exec b i) in
        observe a ra = observe b rb)

  (* point a register into the null page or below it, then load or
     store through it *)
  let fault =
    QCheck.Gen.(
      let* r = oneofl [ 1; 8; 16 ] and* d = oneofl [ 2; 9; 17 ] in
      let* a = oneofl [ 0L; 8L; -8L ] in
      let* load = bool and* w = oneofl [ W8; W32; W64 ] in
      return
        (Sethi (r, a), if load then Ld (w, true, d, r, 0) else St (w, d, r, 0)))

  (* [code] as one threaded run through [dispatch], or stepped through
     [exec], from pc 0 until all of it has run or something raised *)
  let run_block ~threaded ?fuel s code =
    let st = setup ?fuel s in
    st.M.code <-
      M.decode Sim.machine
        { Codegen.Native.cf_name = "block"; code; nargs = 0; frame_slots = 0 };
    st.M.pc <- 0;
    let len = Array.length code in
    let result =
      outcome (fun () ->
          if threaded then
            while st.M.icount < len do
              M.dispatch st
            done
          else
            for _ = 1 to len do
              M.step st
            done)
    in
    observe st result

  let block_prop =
    QCheck.Test.make ~name:"sparclite threaded runs agree with stepping exec"
      ~count:4000
      (QCheck.make ~print:(block_str to_string)
         QCheck.Gen.(
           pair
             (gen_block ~gen_instr ~ends_run:Sim.ends_run ~fault)
             (gen_scene ~nregs:32 ~nfregs:16 ~kinds:3)))
      (fun ((code, fuel), s) ->
        let code = Array.of_list code in
        run_block ~threaded:true ?fuel s code
        = run_block ~threaded:false ?fuel s code)
end

(* The specialized closures access the register file unchecked, so an
   instruction naming a register that does not exist must not get one:
   it runs through [exec] and fails the same checked way. *)
let plain =
  {
    ints = [||]; floats = [||]; kind = 0; fa = 0L; fb = 0L; words = [];
    in_callee = false; handler = false; privileged = false;
  }

let test_bad_registers () =
  let check name closure reference =
    let r = outcome reference in
    Alcotest.(check string) name r (outcome closure);
    Alcotest.(check bool) (name ^ " rejected") true
      (String.starts_with ~prefix:"Invalid_argument" r)
  in
  List.iter
    (fun i ->
      let open X86lite in
      check (X86.to_string i)
        (fun () -> Sim.decode_instr 1 i halt (X.setup plain))
        (fun () -> Sim.exec (X.setup plain) i))
    X86lite.X86.
      [
        Mov (R 10, I 1L);
        Mov (R 0, M { base = 12; disp = 0 });
        Mload (0, { base = -1; disp = 0 }, W64, true);
        Lea (40, { base = 0; disp = 8 });
      ];
  List.iter
    (fun i ->
      let open Sparclite in
      check (Sparc.to_string i)
        (fun () -> Sim.decode_instr 1 i halt (S.setup plain))
        (fun () -> Sim.exec (S.setup plain) i))
    Sparclite.Sparc.
      [
        Alu3 (Add, W64, true, 40, 1, Imm 1);
        Sethi (34, 5L);
        Ld (W64, true, 1, 99, 0);
        Cmp (W64, true, 2, Rs 40);
      ]

(* In-page accesses read and write the page unchecked and swap bytes
   themselves: on every target configuration, each width must store
   what [Vmem.Memory] reads back and load what it wrote. *)
let test_byte_order () =
  let v = 0x0102_0304_0506_0708L and addr = 0x2000_0010L in
  List.iter
    (fun target ->
      let m = Llva.Ir.mk_module ~name:"order" ~target () in
      let image () = Vmem.Image.load m in
      let check sim n (mem : Vmem.Memory.t) loaded =
        let reference = (image ()).Vmem.Image.mem in
        Vmem.Memory.write_uint reference addr n v;
        let expect = Vmem.Memory.read_uint reference addr n in
        let name =
          Printf.sprintf "%s on %s, %d bytes" sim
            (Llva.Target.to_string target) n
        in
        Alcotest.(check int64) (name ^ ": store") expect
          (Vmem.Memory.read_uint mem addr n);
        Alcotest.(check int64) (name ^ ": load") expect loaded
      in
      List.iter
        (fun (n, w) ->
          let open X86lite in
          let st =
            M.create Sim.machine
              { Codegen.Native.cm = m; image = image (); funcs = Hashtbl.create 1 }
          in
          let at = { X86.base = 0; disp = 0 } in
          Sim.set_reg st 0 addr;
          Sim.set_reg st 1 v;
          Sim.exec st (X86.Mstore (at, 1, w));
          Sim.exec st (X86.Mload (2, at, w, false));
          check "x86lite" n st.M.mem (Sim.reg st 2))
        X86lite.X86.[ (1, W8); (2, W16); (4, W32); (8, W64) ];
      List.iter
        (fun (n, w) ->
          let open Sparclite in
          let st =
            M.create Sim.machine
              { Codegen.Native.cm = m; image = image (); funcs = Hashtbl.create 1 }
          in
          Sim.set_reg st 1 addr;
          Sim.set_reg st 2 v;
          Sim.exec st (Sparc.St (w, 2, 1, 0));
          Sim.exec st (Sparc.Ld (w, false, 3, 1, 0));
          check "sparclite" n st.M.mem (Sim.reg st 3))
        Sparclite.Sparc.[ (1, W8); (2, W16); (4, W32); (8, W64) ])
    Llva.Target.all

let suite =
  [
    QCheck_alcotest.to_alcotest X.prop;
    QCheck_alcotest.to_alcotest S.prop;
    QCheck_alcotest.to_alcotest X.block_prop;
    QCheck_alcotest.to_alcotest S.block_prop;
    Alcotest.test_case "closures exist only for real registers" `Quick
      test_bad_registers;
    Alcotest.test_case "in-page accesses honour the byte order" `Quick
      test_byte_order;
  ]
