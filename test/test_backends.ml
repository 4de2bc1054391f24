(* Back-end tests: both code generators run a battery of programs and a
   random differential property against the reference interpreter, with
   both register allocators and with/without the optimizer. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* exit code and output of [m] on each simulator, under either of its
   back-end's register allocators *)
let on_x86 ?alloc m =
  let cm = X86lite.Compile.compile_module ?alloc m in
  let code, st =
    Codegen.Machine.run_main ~fuel:50_000_000 X86lite.Sim.machine cm
  in
  (code, Codegen.Machine.output st)

let on_sparc ?alloc m =
  let cm = Sparclite.Compile.compile_module ?alloc m in
  let code, st =
    Codegen.Machine.run_main ~fuel:50_000_000 Sparclite.Sim.machine cm
  in
  (code, Codegen.Machine.output st)

let all_ways m =
  [
    ("interp", Gen.run_interp (Gen.clone m));
    ("x86 naive", on_x86 (Gen.clone m));
    ("x86 linear-scan", on_x86 ~alloc:Linear_scan (Gen.clone m));
    ("sparc linear-scan", on_sparc (Gen.clone m));
    ("sparc naive", on_sparc ~alloc:Spill_everything (Gen.clone m));
  ]

let check_agreement src =
  let m = Gen.parse src in
  match all_ways m with
  | [] -> ()
  | (ref_name, ref_result) :: rest ->
      List.iter
        (fun (name, result) ->
          if result <> ref_result then
            Alcotest.failf "%s disagrees with %s: (%d,%S) vs (%d,%S)" name
              ref_name (fst result) (snd result) (fst ref_result)
              (snd ref_result))
        rest

let test_basic_programs () =
  check_agreement
    {|
int %main() {
entry:
  %a = add int 20, 22
  ret int %a
}
|};
  check_agreement
    {|
declare void %print_int(int)
int %main() {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %n, %loop ]
  %acc = phi int [ 0, %entry ], [ %a2, %loop ]
  %a2 = add int %acc, %i
  %n = add int %i, 1
  %d = setge int %n, 100
  br bool %d, label %out, label %loop
out:
  call void %print_int(int %a2)
  ret int 0
}
|}

let test_widths_and_signs () =
  check_agreement
    {|
declare void %print_int(int)
int %main() {
entry:
  %a = add ubyte 200, 100
  %b = cast ubyte %a to int
  call void %print_int(int %b)
  %c = add sbyte 100, 100
  %d = cast sbyte %c to int
  call void %print_int(int %d)
  %e = div int -7, 2
  call void %print_int(int %e)
  %f = div uint 4294967295, 3
  %g = cast uint %f to int
  call void %print_int(int %g)
  %h = shr int -32, ubyte 2
  call void %print_int(int %h)
  %i2 = shr uint 4294967295, ubyte 28
  %j = cast uint %i2 to int
  call void %print_int(int %j)
  %k = rem int -7, 3
  call void %print_int(int %k)
  %l = mul short 1000, 1000
  %m2 = cast short %l to int
  call void %print_int(int %m2)
  ret int 0
}
|}

let test_comparisons () =
  check_agreement
    {|
declare void %print_int(int)
void %show(bool %b) {
entry:
  %v = cast bool %b to int
  call void %print_int(int %v)
  ret void
}
int %main() {
entry:
  %c1 = setlt int -1, 1
  call void %show(bool %c1)
  %c2 = setlt uint 4294967295, 1
  call void %show(bool %c2)
  %c3 = setge long -9000000000, 1
  call void %show(bool %c3)
  %c4 = setgt ubyte 200, 100
  call void %show(bool %c4)
  %c5 = seteq double 1.5, 1.5
  call void %show(bool %c5)
  %c6 = setlt double -2.5, 1.0
  call void %show(bool %c6)
  %c7 = setne float 1.0, 2.0
  call void %show(bool %c7)
  ret int 0
}
|}

let test_floats () =
  check_agreement
    {|
declare void %print_float(double)
int %main() {
entry:
  %a = add double 1.5, 2.25
  call void %print_float(double %a)
  %b = mul double %a, 2.0
  %c = div double %b, 3.0
  call void %print_float(double %c)
  %d = cast double %c to float
  %e = cast float %d to double
  call void %print_float(double %e)
  %f = cast double 3.99 to int
  %g = cast int %f to double
  call void %print_float(double %g)
  %h = sub float 10.5, 0.25
  %i2 = cast float %h to double
  call void %print_float(double %i2)
  %j = rem double 10.0, 3.0
  call void %print_float(double %j)
  ret int 0
}
|}

let test_memory () =
  check_agreement
    {|
%struct.node = type { int, %struct.node* }
declare sbyte* %malloc(uint)
declare void %free(sbyte*)
declare void %print_int(int)

int %main() {
entry:
  br label %build
build:
  %i = phi int [ 0, %entry ], [ %inext, %build ]
  %head = phi %struct.node* [ null, %entry ], [ %node, %build ]
  %raw = call sbyte* %malloc(uint 16)
  %node = cast sbyte* %raw to %struct.node*
  %vp = getelementptr %struct.node* %node, long 0, ubyte 0
  store int %i, int* %vp
  %np = getelementptr %struct.node* %node, long 0, ubyte 1
  store %struct.node* %head, %struct.node** %np
  %inext = add int %i, 1
  %done = setge int %inext, 10
  br bool %done, label %sum, label %build
sum:
  %cur = phi %struct.node* [ %node, %build ], [ %next, %sum ]
  %acc = phi int [ 0, %build ], [ %acc2, %sum ]
  %vp2 = getelementptr %struct.node* %cur, long 0, ubyte 0
  %v = load int* %vp2
  %acc2 = add int %acc, %v
  %np2 = getelementptr %struct.node* %cur, long 0, ubyte 1
  %next = load %struct.node** %np2
  %again = setne %struct.node* %next, null
  br bool %again, label %sum, label %out
out:
  call void %print_int(int %acc2)
  ret int %acc2
}
|}

let test_strings_and_globals () =
  check_agreement
    {|
%greeting = constant [15 x sbyte] c"hello backends\00"
%table = global [5 x int] [ int 10, int 20, int 30, int 40, int 50 ]
declare void %print_str(sbyte*)
declare void %print_int(int)
declare void %print_nl()

int %main() {
entry:
  %s = getelementptr [15 x sbyte]* %greeting, long 0, long 0
  call void %print_str(sbyte* %s)
  call void %print_nl()
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %n, %loop ]
  %acc = phi int [ 0, %entry ], [ %acc2, %loop ]
  %p = getelementptr [5 x int]* %table, long 0, int %i
  %v = load int* %p
  %acc2 = add int %acc, %v
  %n = add int %i, 1
  %d = setge int %n, 5
  br bool %d, label %out, label %loop
out:
  call void %print_int(int %acc2)
  ret int 0
}
|}

let test_function_pointers () =
  check_agreement
    {|
int %twice(int %x) {
entry:
  %r = mul int %x, 2
  ret int %r
}
int %thrice(int %x) {
entry:
  %r = mul int %x, 3
  ret int %r
}
%dispatch = global [2 x int (int)*] [ int (int)* %twice, int (int)* %thrice ]
declare void %print_int(int)

int %main() {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %n, %loop ]
  %p = getelementptr [2 x int (int)*]* %dispatch, long 0, int %i
  %fp = load int (int)** %p
  %r = call int (int)* %fp(int 7)
  call void %print_int(int %r)
  %n = add int %i, 1
  %d = setge int %n, 2
  br bool %d, label %out, label %loop
out:
  ret int 0
}
|}

let test_invoke_unwind_native () =
  check_agreement
    {|
declare void %print_int(int)

void %thrower(int %depth) {
entry:
  %done = setle int %depth, 0
  br bool %done, label %throw, label %recurse
throw:
  unwind
recurse:
  %d = sub int %depth, 1
  call void %thrower(int %d)
  ret void
}

int %main() {
entry:
  %r = invoke int %wrap(int 3) to label %ok except label %caught
ok:
  call void %print_int(int %r)
  ret int 1
caught:
  call void %print_int(int 99)
  ret int 7
}

int %wrap(int %d) {
entry:
  call void %thrower(int %d)
  ret int 0
}
|}

let test_mbr () =
  check_agreement
    {|
declare void %print_int(int)
int %classify(int %x) {
entry:
  mbr int %x, label %other [ int 1, label %one, int 2, label %two, int 9, label %nine ]
one:
  ret int 100
two:
  ret int 200
nine:
  ret int 900
other:
  ret int -1
}
int %main() {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %n, %loop ]
  %c = call int %classify(int %i)
  call void %print_int(int %c)
  %n = add int %i, 1
  %d = setgt int %n, 10
  br bool %d, label %out, label %loop
out:
  ret int 0
}
|}

let test_varargs_style_many_args () =
  (* more arguments than SPARC register slots: exercises stack passing *)
  check_agreement
    {|
declare void %print_int(int)
int %sum9(int %a, int %b, int %c, int %d, int %e, int %f, int %g, int %h, int %i) {
entry:
  %s1 = add int %a, %b
  %s2 = add int %s1, %c
  %s3 = add int %s2, %d
  %s4 = add int %s3, %e
  %s5 = add int %s4, %f
  %s6 = add int %s5, %g
  %s7 = add int %s6, %h
  %s8 = add int %s7, %i
  ret int %s8
}
int %main() {
entry:
  %r = call int %sum9(int 1, int 2, int 3, int 4, int 5, int 6, int 7, int 8, int 9)
  call void %print_int(int %r)
  ret int %r
}
|}

let test_float_args_and_returns () =
  check_agreement
    {|
declare void %print_float(double)
double %mix(double %a, int %k, double %b, double %c, double %d, double %e, double %f, double %g) {
entry:
  %s1 = add double %a, %b
  %s2 = add double %s1, %c
  %s3 = add double %s2, %d
  %s4 = add double %s3, %e
  %s5 = add double %s4, %f
  %s6 = add double %s5, %g
  %ki = cast int %k to double
  %s7 = mul double %s6, %ki
  ret double %s7
}
int %main() {
entry:
  %r = call double %mix(double 1.5, int 3, double 2.5, double 3.5, double 4.5, double 0.5, double 10.0, double 0.25)
  call void %print_float(double %r)
  ret int 0
}
|}

let test_native_traps () =
  let src = "int %main() {\nentry:\n  %x = div int 1, 0\n  ret int %x\n}" in
  let m = Gen.parse src in
  let cm = X86lite.Compile.compile_module m in
  check_bool "x86 div-by-zero traps" true
    (try
       ignore (Codegen.Machine.run_main X86lite.Sim.machine cm);
       false
     with Vmem.Guest.Trap Vmem.Guest.Division_by_zero -> true);
  let m2 = Gen.parse src in
  let cm2 = Sparclite.Compile.compile_module m2 in
  check_bool "sparc div-by-zero traps" true
    (try
       ignore (Codegen.Machine.run_main Sparclite.Sim.machine cm2);
       false
     with Vmem.Guest.Trap Vmem.Guest.Division_by_zero -> true);
  (* disabled exceptions execute through *)
  check_agreement
    {|
int %main() {
entry:
  %x = div int 1, 0 @ee(false)
  ret int 5
}
|}

let test_native_smc () =
  check_agreement
    {|
declare void %llva.smc.replace(int (int)*, int (int)*)
declare void %print_int(int)

int %orig(int %x) {
entry:
  %r = add int %x, 1
  ret int %r
}
int %patched(int %x) {
entry:
  %r = add int %x, 10
  ret int %r
}
int %main() {
entry:
  %before = call int %orig(int 0)
  call void %print_int(int %before)
  call void %llva.smc.replace(int (int)* %orig, int (int)* %patched)
  %after = call int %orig(int 0)
  call void %print_int(int %after)
  ret int 0
}
|}

let test_expansion_ratio_sanity () =
  (* a mid-sized arithmetic program should expand by a factor between 1.5
     and 6 on both targets (paper: 2.2-3.3 X86, 2.4-4.2 SPARC) *)
  let m = Gen.random_program (Random.State.make [| 42 |]) in
  let llva_n = Ir.module_instr_count m in
  let x86 = X86lite.Compile.compile_module (Gen.clone m) in
  let sparc = Sparclite.Compile.compile_module (Gen.clone m) in
  let rx = float_of_int (X86lite.Compile.module_instr_count x86) /. float_of_int llva_n in
  let rs = float_of_int (Sparclite.Compile.module_instr_count sparc) /. float_of_int llva_n in
  check_bool (Printf.sprintf "x86 ratio %.2f in range" rx) true (rx > 1.2 && rx < 8.0);
  check_bool (Printf.sprintf "sparc ratio %.2f in range" rs) true (rs > 1.2 && rs < 8.0)

let test_cycle_counting () =
  let m =
    Gen.parse
      "int %main() {\nentry:\n  %x = add int 1, 2\n  ret int %x\n}"
  in
  let cm = X86lite.Compile.compile_module m in
  let _, st = Codegen.Machine.run_main X86lite.Sim.machine cm in
  check_bool "cycles counted" true (st.Codegen.Machine.cycles > 0);
  check_bool "icount counted" true (st.Codegen.Machine.icount > 0);
  check_bool "cycles >= icount" true
    (st.Codegen.Machine.cycles >= st.Codegen.Machine.icount)

let test_code_size_nonzero () =
  let m = Gen.random_program (Random.State.make [| 7 |]) in
  let x86 = X86lite.Compile.compile_module (Gen.clone m) in
  let sparc = Sparclite.Compile.compile_module (Gen.clone m) in
  let xs = X86lite.Compile.module_code_size x86 in
  let ss = Sparclite.Compile.module_code_size sparc in
  check_bool "x86 bytes > 0" true (xs > 0);
  check_bool "sparc bytes = 4 * instrs" true
    (ss = 4 * Sparclite.Compile.module_instr_count sparc)

(* differential qcheck properties *)

let prop_backends_agree =
  QCheck.Test.make ~name:"backends agree with interpreter" ~count:60
    Gen.gen_program (fun m ->
      let reference = Gen.run_interp (Gen.clone m) in
      List.for_all
        (fun (_, r) -> r = reference)
        [
          ("x86", on_x86 (Gen.clone m));
          ("x86ls", on_x86 ~alloc:Linear_scan (Gen.clone m));
          ("sparc", on_sparc (Gen.clone m));
        ])

let prop_backends_agree_memory =
  QCheck.Test.make ~name:"backends agree on memory programs" ~count:40
    Gen.gen_memory_program (fun m ->
      let reference = Gen.run_interp (Gen.clone m) in
      List.for_all
        (fun (_, r) -> r = reference)
        [
          ("x86", on_x86 (Gen.clone m));
          ("sparc", on_sparc (Gen.clone m));
          ("sparc naive", on_sparc ~alloc:Spill_everything (Gen.clone m));
        ])

let prop_optimized_backends_agree =
  QCheck.Test.make ~name:"optimized code agrees on backends" ~count:40
    Gen.gen_program (fun m ->
      let reference = Gen.run_interp (Gen.clone m) in
      let opt = Gen.clone m in
      let _ = Transform.Passmgr.optimize ~level:2 opt in
      on_x86 (Gen.clone opt) = reference && on_sparc (Gen.clone opt) = reference)

let test_portability_native () =
  (* the same virtual object code runs on 32- and 64-bit pointer configs
     through the full native pipeline *)
  let src target =
    Printf.sprintf
      {|
target pointersize = %d
target endian = %s
%%pair = type { sbyte, int, %%pair* }
declare void %%print_int(int)
int %%main() {
entry:
  %%p = alloca %%pair
  %%f1 = getelementptr %%pair* %%p, long 0, ubyte 1
  store int 777, int* %%f1
  %%f2 = getelementptr %%pair* %%p, long 0, ubyte 2
  store %%pair* %%p, %%pair** %%f2
  %%q = load %%pair** %%f2
  %%f1b = getelementptr %%pair* %%q, long 0, ubyte 1
  %%v = load int* %%f1b
  call void %%print_int(int %%v)
  ret int %%v
}
|}
      (target.Target.ptr_size * 8)
      (match target.Target.endian with
      | Target.Little -> "little"
      | Target.Big -> "big")
  in
  List.iter
    (fun t ->
      let m = Gen.parse (src t) in
      let code, out = on_x86 m in
      check_int ("x86 on " ^ Target.to_string t) 777 code;
      check_string ("x86 out on " ^ Target.to_string t) "777" out;
      let m2 = Gen.parse (src t) in
      let code2, _ = on_sparc m2 in
      check_int ("sparc on " ^ Target.to_string t) 777 code2)
    Target.all

(* ---------- cycle/size model coverage ---------- *)

(* One exemplar per instruction constructor of each back-end. The cost
   models document a no-catch-all policy: every constructor must carry
   an explicit positive cost and encoded size, so a new instruction can
   never silently ride on a stale estimate. If a constructor is added,
   this list fails to type-check until an exemplar is added here too. *)
let x86_exemplars : X86lite.X86.instr list =
  let open X86lite.X86 in
  let m = { base = bp; disp = -8 } in
  [
    Mov (R ax, R cx);
    Alu (Add, W64, true, R ax, R cx);
    Alu (Imul, W64, true, R ax, R cx);
    Div (W64, true, R ax, R cx);
    Rem (W64, true, R ax, R cx);
    Shift (true, W64, true, R ax, I 3L);
    Ext (ax, W32, false);
    Mload (ax, m, W32, true);
    Mstore (m, ax, W32);
    Cmp (W64, true, R ax, R cx);
    Setcc (Eq, ax);
    Jcc (Eq, 0);
    Jmp 0;
    Lea (ax, m);
    Push (R ax);
    Pop ax;
    CallSym "f";
    CallInd (R ax);
    CallSymI ("f", 0);
    CallIndI (R ax, 0);
    Ret;
    Unwind;
    AddSp 8;
    SubSpDyn (ax, cx);
    Fmov (0, 1);
    Fconst (0, 1.0);
    Falu (Fadd, false, 0, 1);
    Falu (Fdiv, false, 0, 1);
    Falu (Frem, false, 0, 1);
    Fload (0, m, false);
    Fstore (m, 0, false);
    Fcmp (0, 1);
    Cvtif (0, ax, true);
    Cvtfi (ax, 0, W64, true);
    Fround 0;
    Fpushret 0;
    Trap "unreachable";
  ]

let sparc_exemplars : Sparclite.Sparc.instr list =
  let open Sparclite.Sparc in
  [
    Alu3 (Add, W64, true, 1, 2, Rs 3);
    Alu3 (Mul, W64, true, 1, 2, Rs 3);
    Alu3 (Div, W64, true, 1, 2, Rs 3);
    Alu3 (Rem, W64, true, 1, 2, Rs 3);
    Sethi (1, 4096L);
    Ld (W64, true, 1, fp, -8);
    St (W64, 1, fp, -8);
    Cmp (W64, true, 1, Rs 2);
    Movcc (Eq, 1);
    Bcc (Eq, 0);
    Ba 0;
    CallSym "f";
    CallInd 1;
    CallSymI ("f", 0);
    CallIndI (1, 0);
    RetS;
    UnwindS;
    AddSp 8;
    SubSpDyn (1, 2);
    Falu (Fadd, false, 0, 1, 2);
    Falu (Fdiv, false, 0, 1, 2);
    Falu (Frem, false, 0, 1, 2);
    Fmovs (0, 1);
    Fconst (0, 1.0);
    Fld (false, 0, fp, -8);
    Fst (false, 0, fp, -8);
    Fcmp (0, 1);
    Cvtif (0, 1, true);
    Cvtfi (1, 0, W64, true);
    Fround 0;
    Mvfi (1, 0);
    Mvif (0, 1);
    TrapS "unreachable";
  ]

let test_cost_model_explicit () =
  List.iter
    (fun i ->
      let c = X86lite.X86.cycles_of i in
      let s = X86lite.X86.size_of i in
      if c <= 0 || s <= 0 then
        Alcotest.failf "x86 %s: cycles=%d size=%d (must be positive)"
          (X86lite.X86.to_string i) c s)
    x86_exemplars;
  List.iter
    (fun i ->
      let c = Sparclite.Sparc.cycles_of i in
      let s = Sparclite.Sparc.size_of i in
      if c <= 0 || s <> 4 then
        Alcotest.failf "sparc %s: cycles=%d size=%d (must be >0 / =4)"
          (Sparclite.Sparc.to_string i) c s)
    sparc_exemplars;
  (* spot-check documented costs, including the formerly silently
     defaulted float divide/remainder *)
  let open X86lite.X86 in
  check_int "x86 fdiv" 15 (cycles_of (Falu (Fdiv, false, 0, 1)));
  check_int "x86 frem" 20 (cycles_of (Falu (Frem, false, 0, 1)));
  check_int "x86 fadd" 3 (cycles_of (Falu (Fadd, false, 0, 1)));
  check_int "x86 div" 20 (cycles_of (Div (W64, true, R ax, R cx)));
  check_int "x86 mem operand cost" 3
    (cycles_of (Mov (R ax, M { base = bp; disp = -8 })));
  let open Sparclite.Sparc in
  check_int "sparc fdiv" 15 (cycles_of (Falu (Fdiv, false, 0, 1, 2)));
  check_int "sparc frem" 20 (cycles_of (Falu (Frem, false, 0, 1, 2)));
  check_int "sparc div" 20 (cycles_of (Alu3 (Div, W64, true, 1, 2, Rs 3)))

(* ---------- selector-level redundant-move elision ---------- *)

let each_compiled_x86 m f =
  let cm = X86lite.Compile.compile_module m in
  Hashtbl.iter
    (fun _ (cf : X86lite.Compile.cfunc) ->
      Array.iter f cf.Codegen.Native.code)
    cm.Codegen.Native.funcs

let each_compiled_sparc m f =
  let cm = Sparclite.Compile.compile_module ~alloc:Spill_everything m in
  Hashtbl.iter
    (fun _ (cf : Sparclite.Compile.cfunc) ->
      Array.iter f cf.Codegen.Native.code)
    cm.Codegen.Native.funcs

let test_no_redundant_moves () =
  (* the naive selectors elide self-moves and same-slot store+reload
     pairs at emit time; compiled workloads must contain no self-move *)
  let names = [ "ptrdist-anagram"; "181.mcf" ] in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      each_compiled_x86 (Workloads.compile_optimized ~level:1 w) (function
        | X86lite.X86.Mov (X86lite.X86.R a, X86lite.X86.R b) when a = b ->
            Alcotest.failf "%s: x86 self-move survived emission" name
        | _ -> ());
      each_compiled_sparc (Workloads.compile_optimized ~level:1 w) (function
        | Sparclite.Sparc.Alu3
            (Sparclite.Sparc.Or, Sparclite.Sparc.W64, true, rd, rs,
             Sparclite.Sparc.Imm 0)
          when rd = rs ->
            Alcotest.failf "%s: sparc self-move survived emission" name
        | _ -> ()))
    names

(* ---------- peephole rule application ---------- *)

let test_apply_rules_x86 () =
  let open X86lite.X86 in
  (* strength reduction: imul-by-8 -> shl-by-3 (a rule shape the
     superoptimizer discovers; here applied by hand) *)
  let rules =
    [
      ( [ Alu (Imul, W64, true, R ax, I 8L) ],
        [ Shift (true, W64, true, R ax, I 3L) ] );
      ([ Ext (cx, W64, true) ], []);
    ]
  in
  let code =
    [|
      Jcc (Eq, 3); Alu (Imul, W64, true, R ax, I 8L); Ext (cx, W64, true); Ret;
    |]
  in
  let out, rewrites, saved = X86lite.Compile.apply_rules ~rules code in
  check_int "two rewrites" 2 rewrites;
  (* imul(3) -> shl(1) saves 2; ext(1) -> nothing saves 1 *)
  check_int "three cycles saved" 3 saved;
  check_bool "rewritten code" true
    (out
    = [| Jcc (Eq, 2); Shift (true, W64, true, R ax, I 3L); Ret |]);
  (* the branch target was remapped across the deleted instruction *)
  (match out.(0) with
  | Jcc (Eq, t) -> check_int "branch target remapped" 2 t
  | _ -> Alcotest.fail "branch lost");
  (* a window containing a jump target must not be rewritten *)
  let code2 =
    [| Jmp 2; Alu (Imul, W64, true, R ax, I 8L); Ext (cx, W64, true); Ret |]
  in
  let out2, rw2, _ = X86lite.Compile.apply_rules ~rules code2 in
  (* the imul rewrites (no target inside); position 2 is a jump target,
     and single-instruction windows starting there are still legal *)
  check_int "both windows rewritten" 2 rw2;
  check_bool "exact output" true
    (out2 = [| Jmp 2; Shift (true, W64, true, R ax, I 3L); Ret |]);
  (* empty rule set: code unchanged, nothing counted *)
  let out3, rw3, sv3 = X86lite.Compile.apply_rules ~rules:[] code in
  check_bool "no rules, no change" true (out3 = code && rw3 = 0 && sv3 = 0)

let test_apply_rules_sparc () =
  let open Sparclite.Sparc in
  let rules =
    [
      ( [ Alu3 (Mul, W64, true, 1, 1, Imm 8) ],
        [ Alu3 (Sll, W64, true, 1, 1, Imm 3) ] );
    ]
  in
  let code =
    [| Alu3 (Mul, W64, true, 1, 1, Imm 8); Bcc (Eq, 0); RetS |]
  in
  let out, rewrites, saved = Sparclite.Compile.apply_rules ~rules code in
  check_int "one rewrite" 1 rewrites;
  check_int "two cycles saved" 2 saved;
  check_bool "strength-reduced" true
    (out = [| Alu3 (Sll, W64, true, 1, 1, Imm 3); Bcc (Eq, 0); RetS |]);
  (* a branch target is remapped across a deleted instruction *)
  let rules = ([ Alu3 (Add, W64, true, 2, 2, Imm 0) ], []) :: rules in
  let code =
    [|
      Bcc (Eq, 3); Alu3 (Mul, W64, true, 1, 1, Imm 8);
      Alu3 (Add, W64, true, 2, 2, Imm 0); RetS;
    |]
  in
  let out, rewrites, saved = Sparclite.Compile.apply_rules ~rules code in
  check_int "two rewrites" 2 rewrites;
  check_int "three cycles saved" 3 saved;
  check_bool "branch target remapped" true
    (out = [| Bcc (Eq, 2); Alu3 (Sll, W64, true, 1, 1, Imm 3); RetS |])

(* A 2-instruction rule never rewrites a window with a branch target
   strictly inside it, and does once nothing branches there. *)
let test_rule_window_straddles_target () =
  (let open X86lite.X86 in
   let rules =
     [
       ( [ Mov (R ax, I 1L); Alu (Add, W64, true, R ax, I 2L) ],
         [ Mov (R ax, I 3L) ] );
     ]
   in
   let body = [ Mov (R ax, I 1L); Alu (Add, W64, true, R ax, I 2L); Ret ] in
   let code = Array.of_list (Jcc (Eq, 2) :: body) in
   let out, rw, _ = X86lite.Compile.apply_rules ~rules code in
   check_bool "x86: straddled window kept" true (rw = 0 && out = code);
   let code = Array.of_list (Jcc (Eq, 3) :: body) in
   let out, rw, saved = X86lite.Compile.apply_rules ~rules code in
   check_bool "x86: window rewritten once untargeted" true
     (rw = 1 && saved = 1 && out = [| Jcc (Eq, 2); Mov (R ax, I 3L); Ret |]));
  let open Sparclite.Sparc in
  let rules =
    [
      ( [ Alu3 (Or, W64, true, 1, 0, Imm 1); Alu3 (Add, W64, true, 1, 1, Imm 2) ],
        [ Alu3 (Or, W64, true, 1, 0, Imm 3) ] );
    ]
  in
  let body =
    [ Alu3 (Or, W64, true, 1, 0, Imm 1); Alu3 (Add, W64, true, 1, 1, Imm 2); RetS ]
  in
  let code = Array.of_list (Bcc (Eq, 2) :: body) in
  let out, rw, _ = Sparclite.Compile.apply_rules ~rules code in
  check_bool "sparc: straddled window kept" true (rw = 0 && out = code);
  let code = Array.of_list (Bcc (Eq, 3) :: body) in
  let out, rw, saved = Sparclite.Compile.apply_rules ~rules code in
  check_bool "sparc: window rewritten once untargeted" true
    (rw = 1 && saved = 1
    && out = [| Bcc (Eq, 2); Alu3 (Or, W64, true, 1, 0, Imm 3); RetS |])

(* "jcc a; jmp b" with a the fall-through: the condition is inverted and
   the jump, now to the next instruction, is relaxed away. *)
let test_invert_then_relax () =
  (let open X86lite.X86 in
   let code = [| Jcc (Lt, 2); Jmp 3; Mov (R ax, I 1L); Ret |] in
   check_bool "x86: inverted and relaxed" true
     (X86lite.Compile.relax (X86lite.Compile.invert_branches code)
     = [| Jcc (Ge, 2); Mov (R ax, I 1L); Ret |]));
  let open Sparclite.Sparc in
  let code = [| Bcc (Ltu, 2); Ba 3; Alu3 (Or, W64, true, 1, 0, Imm 1); RetS |] in
  check_bool "sparc: inverted and relaxed" true
    (Sparclite.Compile.relax (Sparclite.Compile.invert_branches code)
    = [| Bcc (Geu, 2); Alu3 (Or, W64, true, 1, 0, Imm 1); RetS |])

let test_canon_window_roundtrip () =
  let open X86lite.X86 in
  (* two distinct bp slots canonicalize to the first-occurrence variables
     and the variable assignment comes back in [vars] *)
  let w =
    [
      Mov (R ax, M { base = bp; disp = -16 });
      Mov (M { base = bp; disp = -8 }, R ax);
    ]
  in
  let cw, vars = X86lite.Compile.canon_window w in
  check_int "two slot variables" 2 (Array.length vars);
  check_bool "vars recorded in order" true (vars.(0) = -16 && vars.(1) = -8);
  check_bool "canonical form is slot-independent" true
    (fst
       (X86lite.Compile.canon_window
          [
            Mov (R ax, M { base = bp; disp = -48 });
            Mov (M { base = bp; disp = -40 }, R ax);
          ])
    = cw);
  (* a non-canonicalizable window (sp-relative) is returned unchanged
     with no variables: it can never match a learned rule *)
  let w2 = [ Mov (R ax, M { base = sp; disp = 0 }) ] in
  let cw2, vars2 = X86lite.Compile.canon_window w2 in
  check_bool "sp window left concrete" true (cw2 = w2 && vars2 = [||])

(* ---------- call depth ---------- *)

let outcome_str (o : Llee.Outcome.t) = Llee.Outcome.to_string o

(* every engine's outcome and output for one module *)
let five_engines src = Gen.engine_results (Gen.parse src)

(* llva.stack.depth counts active frames with main as 1, on all five
   engines: 1 in main, 2 and 3 in nested callees, and 1 again once an
   unwind has come back to main's invoke handler *)
let test_stack_depth_all_engines () =
  let src =
    {|
declare uint %llva.stack.depth()

uint %inner() {
entry:
  %d = call uint %llva.stack.depth()
  ret uint %d
}

uint %middle() {
entry:
  %d = call uint %inner()
  ret uint %d
}

void %thrower(int %n) {
entry:
  %done = setle int %n, 0
  br bool %done, label %throw, label %recurse
throw:
  unwind
recurse:
  %m = sub int %n, 1
  call void %thrower(int %m)
  ret void
}

int %wrap() {
entry:
  call void %thrower(int 4)
  ret int 0
}

int %main() {
entry:
  %d0 = call uint %llva.stack.depth()
  %d1 = call uint %inner()
  %d2 = call uint %middle()
  %r = invoke int %wrap() to label %ok except label %caught
ok:
  ret int 99
caught:
  %d3 = call uint %llva.stack.depth()
  %a = mul uint %d0, 1000
  %b = mul uint %d1, 100
  %c = mul uint %d2, 10
  %s1 = add uint %a, %b
  %s2 = add uint %s1, %c
  %s3 = add uint %s2, %d3
  %res = cast uint %s3 to int
  ret int %res
}
|}
  in
  List.iter
    (fun (engine, o, _) ->
      check_string (engine ^ ": depths 1, 2, 3, then 1 after unwind") "exit 1231"
        (outcome_str o))
    (five_engines src)

(* Recursion past the native engines' 50,000-frame guard is a contained
   trap, not an escaping exception or a host stack overflow. *)
let test_depth_guard_contained () =
  let src =
    {|
int %rec(int %n) {
entry:
  %z = setle int %n, 0
  br bool %z, label %base, label %go
base:
  ret int 0
go:
  %m = sub int %n, 1
  %r = call int %rec(int %m)
  %s = add int %r, 1
  ret int %s
}

int %main() {
entry:
  %r = call int %rec(int 60000)
  ret int %r
}
|}
  in
  List.iter
    (fun (engine, o, _) ->
      if engine <> "interp" then
        check_bool
          (engine ^ ": call stack overflow is Invalid_operation, got "
         ^ outcome_str o)
          true
          (match o with
          | Llee.Outcome.Trapped { kind = Llee.Outcome.Invalid_operation _; _ } ->
              true
          | _ -> false))
    (five_engines src)

(* Unwinding gives the counter back: two 30,000-deep dives that each
   unwind to main stay under the 50,000 guard, and main reads depth 1
   afterwards. *)
let test_depth_after_unwind () =
  let src =
    {|
declare uint %llva.stack.depth()

void %dive(int %n) {
entry:
  %z = setle int %n, 0
  br bool %z, label %throw, label %go
throw:
  unwind
go:
  %m = sub int %n, 1
  call void %dive(int %m)
  ret void
}

int %attempt() {
entry:
  call void %dive(int 30000)
  ret int 0
}

int %main() {
entry:
  %a = invoke int %attempt() to label %bad except label %first
first:
  %b = invoke int %attempt() to label %bad except label %second
second:
  %d = call uint %llva.stack.depth()
  %r = cast uint %d to int
  %s = add int %r, 20
  ret int %s
bad:
  ret int 99
}
|}
  in
  List.iter
    (fun (engine, o, _) ->
      check_string (engine ^ ": both dives caught, depth 1") "exit 21"
        (outcome_str o))
    (five_engines src)

(* A value held in a callee-saved register across an invoke survives an
   unwind to the handler. SPARC-lite's linear-scan code used to read back
   whatever the unwound callees had left in the register. *)
let test_registers_survive_unwind () =
  check_agreement
    {|
declare void %print_int(int)

int %seven() {
entry:
  ret int 7
}

void %thrower(int %n) {
entry:
  %done = setle int %n, 0
  br bool %done, label %throw, label %recurse
throw:
  unwind
recurse:
  %m = sub int %n, 1
  %x = mul int %n, 3
  %y = add int %x, %m
  call void %print_int(int %y)
  call void %thrower(int %m)
  ret void
}

int %wrap() {
entry:
  call void %thrower(int 4)
  ret int 0
}

int %main() {
entry:
  %v = call int %seven()
  %f = cast int %v to double
  %r = invoke int %wrap() to label %ok except label %caught
ok:
  ret int 99
caught:
  %g = mul double %f, 2.0
  %w = cast double %g to int
  %s = add int %w, %v
  ret int %s
}
|}

(* [results], the runs [Gen.engine_results] made, end the same way on
   all five engines as on the interpreter: exit code, output and, for a
   trap, its kind and the function it names. Unlike [check_agreement],
   this sees programs that end in a trap. *)
let agree_with_interp ~expect results =
  let summary (o : Llee.Outcome.t) out =
    let trap =
      match o with
      | Llee.Outcome.Trapped { kind = Invalid_operation _; func; _ } ->
          (* each engine words an invalid operation its own way *)
          Printf.sprintf " invalid operation in %%%s" func
      | Llee.Outcome.Trapped { kind; func; _ } ->
          Printf.sprintf " %s in %%%s" (Vmem.Guest.trap_to_string kind) func
      | _ -> ""
    in
    Printf.sprintf "%d%s, output %S" (Llee.Outcome.exit_code o) trap out
  in
  match results with
  | [] -> ()
  | (_, o, out) :: rest ->
      let reference = summary o out in
      check_string "interp" expect reference;
      List.iter
        (fun (engine, o, out) ->
          check_string (engine ^ " agrees with interp") reference
            (summary o out))
        rest

(* the same for the program [src] *)
let check_like_interp ?(expect = "") src = agree_with_interp ~expect (five_engines src)

(* the handler programs below trap in %f, on a zero divisor loaded from
   a global so that nothing folds it *)
let trap_in_f =
  {|
declare void %llva.trap.register(void (uint, sbyte*)*)
declare uint %llva.stack.depth()
declare void %print_int(int)

%zero = global int 0

int %f(int %n) {
entry:
  %z = load int* %zero
  %q = div int %n, %z
  ret int %q
}
|}

(* A handler runs one frame below the function that trapped: inside %f
   called from main it reads depth 3. *)
let test_handler_stack_depth () =
  check_like_interp ~expect:"134 division by zero in %f, output \"3\""
    (trap_in_f
   ^ {|
void %handler(uint %num, sbyte* %info) {
entry:
  %d = call uint %llva.stack.depth()
  %n = cast uint %d to int
  call void %print_int(int %n)
  ret void
}

int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %r = call int %f(int 50)
  ret int %r
}
|})

(* A handler that registers a second handler and traps itself runs the
   second, then ends the program with its own trap. *)
let test_handler_traps_again () =
  check_like_interp ~expect:"134 division by zero in %first, output \"12\""
    (trap_in_f
   ^ {|
void %second(uint %num, sbyte* %info) {
entry:
  call void %print_int(int 2)
  ret void
}

void %first(uint %num, sbyte* %info) {
entry:
  call void %print_int(int 1)
  call void %llva.trap.register(void (uint, sbyte*)* %second)
  %z = load int* %zero
  %q = div int 7, %z
  ret void
}

int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %first)
  %r = call int %f(int 50)
  ret int %r
}
|})

let unwinding_handler =
  {|
void %handler(uint %num, sbyte* %info) {
entry:
  %n = cast uint %num to int
  call void %print_int(int %n)
  unwind
}
|}

(* A handler's unwind leaves the trapping function as an unwind in it
   would: main's invoke catches it and no trap is reported. *)
let test_handler_unwind_to_invoke () =
  check_like_interp ~expect:"42, output \"099\""
    (trap_in_f ^ unwinding_handler
   ^ {|
int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %r = invoke int %f(int 50) to label %ok except label %caught
ok:
  ret int %r
caught:
  call void %print_int(int 99)
  ret int 42
}
|})

(* With no invoke to catch it, a handler's unwind is an uncaught unwind
   in the handler, not the trap that ran it. *)
let test_handler_unwind_uncaught () =
  check_like_interp ~expect:"134 uncaught unwind in %handler, output \"0\""
    (trap_in_f ^ unwinding_handler
   ^ {|
int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %r = call int %f(int 50)
  ret int %r
}
|})

(* A whole-aggregate store passes the verifier, but no selector can
   lower it: it traps only if it runs, as the interpreter defers the
   failure of lowering it (examples/aggregate_store_*.ll). *)
let aggregate_store ~live =
  Printf.sprintf
    {|
%%pair = type { int, int }

int %%main() {
entry:
  %%p = alloca %%pair
  br bool %b, label %%store, label %%done
store:
  store %%pair zeroinitializer, %%pair* %%p
  br label %%done
done:
  ret int 7
}
|}
    live

let test_dead_aggregate_store () =
  check_like_interp ~expect:"7, output \"\"" (aggregate_store ~live:false)

let test_live_aggregate_store () =
  check_like_interp ~expect:"134 invalid operation in %main, output \"\""
    (aggregate_store ~live:true)

(* A struct index that is not a constant is refused by the verifier
   and, in object code that was never verified, by all five engines
   alike: the interpreter no longer selects the field at run time. *)
let test_register_struct_index () =
  let m = Ir.mk_module ~name:"regidx" () in
  let pair = Types.Struct [ Types.Int; Types.Int ] in
  let int k = { Ir.cty = Types.Int; ckind = Ir.Cint k } in
  let g =
    Ir.mk_global ~name:"g" ~ty:pair
      ~init:{ Ir.cty = pair; ckind = Ir.Cstruct [ int 20L; int 22L ] }
      ()
  in
  Ir.add_global m g;
  let f = Ir.mk_func ~name:"main" ~return:Types.Int ~params:[] () in
  Ir.add_func m f;
  let b = Ir.mk_block ~name:"entry" () in
  Ir.append_block f b;
  let emit op ops ty =
    let i = Ir.mk_instr op ops ty in
    Ir.append_instr b i;
    Ir.Vreg i
  in
  let uint k = Ir.const_int Types.Uint k in
  let k = emit (Ir.Binop Ir.Add) [| uint 0L; uint 1L |] Types.Uint in
  let p =
    emit Ir.Getelementptr [| Ir.Vglobal g; Ir.const_int Types.Long 0L; k |]
      (Types.Pointer Types.Int)
  in
  ignore (emit Ir.Ret [| emit Ir.Load [| p |] Types.Int |] Types.Void);
  let m = Decode.decode (Encode.encode m) in
  Alcotest.(check (list string))
    "verifier refuses the register struct index"
    [ "function %main block %bb0: getelementptr: struct index must be a constant integer" ]
    (Verify.verify_module m);
  agree_with_interp ~expect:"134 invalid operation in %main, output \"\""
    (Gen.engine_results m)

(* The flags round-trip through their unboxed form. *)
let test_flags_roundtrip () =
  let cm = X86lite.Compile.compile_module (Gen.parse "int %main() {\nentry:\n  ret int 0\n}") in
  let st = Codegen.Machine.create X86lite.Sim.machine cm in
  List.iter
    (fun fl ->
      X86lite.Sim.set_flags st fl;
      check_bool "x86 flags round-trip" true (X86lite.Sim.flags st = fl))
    X86lite.Sim.[ Fnone; Fint (-1L, Int64.min_int, true); Fint (5L, 7L, false); Ffloat (1.5, -0.0) ];
  let sm = Sparclite.Compile.compile_module (Gen.parse "int %main() {\nentry:\n  ret int 0\n}") in
  let ss = Codegen.Machine.create Sparclite.Sim.machine sm in
  List.iter
    (fun fl ->
      Sparclite.Sim.set_flags ss fl;
      check_bool "sparc flags round-trip" true (Sparclite.Sim.flags ss = fl))
    Sparclite.Sim.[ Fnone; Fint (Int64.max_int, 0L); Ffloat (infinity, 2.0) ]

(* The run loop allocates nothing: a call-free loop over loads, stores,
   arithmetic, shifts and compares costs no minor-heap words per guest
   instruction beyond the fixed set-up. Native code only: bytecode boxes
   every int64. *)
let test_step_allocation_free () =
  if Sys.backend_type = Sys.Native then begin
    let src =
      {|
int %main() {
entry:
  %buf = alloca [16 x int]
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %n, %loop ]
  %acc = phi int [ 7, %entry ], [ %a4, %loop ]
  %k = and int %i, 15
  %p = getelementptr [16 x int]* %buf, long 0, int %k
  store int %acc, int* %p
  %v = load int* %p
  %a1 = mul int %v, 31
  %a2 = shl int %a1, ubyte 3
  %a3 = xor int %a2, %i
  %a4 = shr int %a3, ubyte 1
  %n = add int %i, 1
  %d = setge int %n, 20000
  br bool %d, label %out, label %loop
out:
  ret int %a4
}
|}
    in
    let words_per_instr run =
      let w0 = Gc.minor_words () in
      let instrs = run () in
      (Gc.minor_words () -. w0) /. float_of_int instrs
    in
    let x86 =
      let cm = X86lite.Compile.compile_module (Gen.parse src) in
      words_per_instr (fun () ->
          let _, st = Codegen.Machine.run_main X86lite.Sim.machine cm in
          st.Codegen.Machine.icount)
    in
    let sparc =
      let cm = Sparclite.Compile.compile_module (Gen.parse src) in
      words_per_instr (fun () ->
          let _, st = Codegen.Machine.run_main Sparclite.Sim.machine cm in
          st.Codegen.Machine.icount)
    in
    check_bool (Printf.sprintf "x86 %.4f words/instr" x86) true (x86 < 0.02);
    check_bool (Printf.sprintf "sparc %.4f words/instr" sparc) true (sparc < 0.02)
  end

let suite =
  [
    Alcotest.test_case "basic programs" `Quick test_basic_programs;
    Alcotest.test_case "widths and signs" `Quick test_widths_and_signs;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "strings and globals" `Quick test_strings_and_globals;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "invoke/unwind native" `Quick test_invoke_unwind_native;
    Alcotest.test_case "mbr" `Quick test_mbr;
    Alcotest.test_case "many args" `Quick test_varargs_style_many_args;
    Alcotest.test_case "float args" `Quick test_float_args_and_returns;
    Alcotest.test_case "native traps" `Quick test_native_traps;
    Alcotest.test_case "native smc" `Quick test_native_smc;
    Alcotest.test_case "expansion ratio" `Quick test_expansion_ratio_sanity;
    Alcotest.test_case "cycle counting" `Quick test_cycle_counting;
    Alcotest.test_case "code size" `Quick test_code_size_nonzero;
    Alcotest.test_case "portability native" `Quick test_portability_native;
    Alcotest.test_case "cost model explicit" `Quick test_cost_model_explicit;
    Alcotest.test_case "no redundant moves" `Quick test_no_redundant_moves;
    Alcotest.test_case "apply rules x86" `Quick test_apply_rules_x86;
    Alcotest.test_case "apply rules sparc" `Quick test_apply_rules_sparc;
    Alcotest.test_case "rule window straddles target" `Quick
      test_rule_window_straddles_target;
    Alcotest.test_case "invert then relax" `Quick test_invert_then_relax;
    Alcotest.test_case "canon window roundtrip" `Quick
      test_canon_window_roundtrip;
    Alcotest.test_case "stack depth on all engines" `Quick
      test_stack_depth_all_engines;
    Alcotest.test_case "depth guard contained" `Quick test_depth_guard_contained;
    Alcotest.test_case "depth after unwind" `Quick test_depth_after_unwind;
    Alcotest.test_case "registers survive unwind" `Quick
      test_registers_survive_unwind;
    Alcotest.test_case "handler stack depth" `Quick test_handler_stack_depth;
    Alcotest.test_case "handler traps again" `Quick test_handler_traps_again;
    Alcotest.test_case "handler unwind to invoke" `Quick
      test_handler_unwind_to_invoke;
    Alcotest.test_case "handler unwind uncaught" `Quick
      test_handler_unwind_uncaught;
    Alcotest.test_case "dead aggregate store" `Quick test_dead_aggregate_store;
    Alcotest.test_case "live aggregate store" `Quick test_live_aggregate_store;
    Alcotest.test_case "register struct index (five engines)" `Quick
      test_register_struct_index;
    Alcotest.test_case "flags roundtrip" `Quick test_flags_roundtrip;
    Alcotest.test_case "step loop allocation-free" `Quick
      test_step_allocation_free;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    QCheck_alcotest.to_alcotest prop_backends_agree_memory;
    QCheck_alcotest.to_alcotest prop_optimized_backends_agree;
  ]
