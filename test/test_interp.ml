(* Interpreter tests: arithmetic semantics, memory, control flow, calls,
   exceptions (precise + ExceptionsEnabled), intrinsics, SMC. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let run_src ?fuel src =
  let m = Resolve.parse_module src in
  (match Verify.verify_module m with
  | [] -> ()
  | errs -> Alcotest.failf "verify: %s" (String.concat "; " errs));
  let st = Interp.create ?fuel m in
  let code = Interp.run_main st in
  (code, Interp.output st, st)

let exit_code src =
  let c, _, _ = run_src src in
  c

let test_arith () =
  check_int "add/mul" 23
    (exit_code
       {|
int %main() {
entry:
  %a = add int 3, 4
  %b = mul int %a, 3
  %c = add int %b, 2
  ret int %c
}
|});
  check_int "signed div truncates" (-2)
    (exit_code
       "int %main() {\nentry:\n  %x = div int -7, 3\n  ret int %x\n}");
  check_int "unsigned compare" 1
    (exit_code
       {|
int %main() {
entry:
  %c = setgt uint 4294967295, 1
  %r = cast bool %c to int
  ret int %r
}
|});
  check_int "signed compare" 0
    (exit_code
       {|
int %main() {
entry:
  %c = setgt int -1, 1
  %r = cast bool %c to int
  ret int %r
}
|});
  check_int "shr arithmetic on signed" (-4)
    (exit_code
       "int %main() {\nentry:\n  %x = shr int -16, ubyte 2\n  ret int %x\n}");
  check_int "shr logical on unsigned" 63
    (exit_code
       {|
int %main() {
entry:
  %x = shr uint 255, ubyte 2
  %r = cast uint %x to int
  ret int %r
}
|});
  check_int "ubyte wraparound" 44
    (exit_code
       {|
int %main() {
entry:
  %x = add ubyte 200, 100
  %r = cast ubyte %x to int
  ret int %r
}
|})

let test_casts () =
  check_int "double to int" 3
    (exit_code
       "int %main() {\nentry:\n  %x = cast double 3.9 to int\n  ret int %x\n}");
  check_int "negative fp to int" (-3)
    (exit_code
       "int %main() {\nentry:\n  %x = cast double -3.9 to int\n  ret int %x\n}");
  check_int "sbyte sign extends" (-1)
    (exit_code
       {|
int %main() {
entry:
  %x = cast ubyte 255 to sbyte
  %y = cast sbyte %x to int
  ret int %y
}
|});
  check_int "ubyte zero extends" 255
    (exit_code
       {|
int %main() {
entry:
  %x = cast ubyte 255 to int
  ret int %x
}
|})

let test_memory_and_gep () =
  let code, out, _ =
    run_src
      {|
%struct.QuadTree = type { double, [4 x %QT*] }
%QT = type %struct.QuadTree

int %main() {
entry:
  %node = alloca %QT
  %data = getelementptr %QT* %node, long 0, ubyte 0
  store double 41.5, double* %data
  %slot = getelementptr %QT* %node, long 0, ubyte 1, long 3
  store %QT* %node, %QT** %slot
  %same = load %QT** %slot
  %d2 = getelementptr %QT* %same, long 0, ubyte 0
  %v = load double* %d2
  %vi = cast double %v to int
  ret int %vi
}
|}
  in
  check_int "quadtree field access" 41 code;
  check_string "no output" "" out

let test_loop_and_phi () =
  (* sum 1..10 with a loop phi *)
  check_int "loop sum" 55
    (exit_code
       {|
int %main() {
entry:
  br label %loop
loop:
  %i = phi int [ 1, %entry ], [ %inext, %loop ]
  %acc = phi int [ 0, %entry ], [ %anext, %loop ]
  %anext = add int %acc, %i
  %inext = add int %i, 1
  %done = setgt int %inext, 10
  br bool %done, label %exit, label %loop
exit:
  ret int %anext
}
|})

let fib_src =
  {|
int %fib(int %n) {
entry:
  %small = setlt int %n, 2
  br bool %small, label %base, label %rec
base:
  ret int %n
rec:
  %n1 = sub int %n, 1
  %n2 = sub int %n, 2
  %f1 = call int %fib(int %n1)
  %f2 = call int %fib(int %n2)
  %s = add int %f1, %f2
  ret int %s
}

int %unused() {
entry:
  ret int 0
}

int %main() {
entry:
  %r = call int %fib(int 10)
  ret int %r
}
|}

let test_calls_and_recursion () = check_int "fib 10" 55 (exit_code fib_src)

let test_function_pointers () =
  check_int "indirect call" 12
    (exit_code
       {|
int %double_it(int %x) {
entry:
  %r = add int %x, %x
  ret int %r
}

int %main() {
entry:
  %fp = cast int (int)* %double_it to int (int)*
  %r = call int (int)* %fp(int 6)
  ret int %r
}
|})

let test_runtime_output () =
  let _, out, _ =
    run_src
      {|
%msg = constant [14 x sbyte] c"hello, world!\00"
declare void %print_str(sbyte*)
declare void %print_int(int)
declare void %print_nl()

int %main() {
entry:
  %p = getelementptr [14 x sbyte]* %msg, long 0, long 0
  call void %print_str(sbyte* %p)
  call void %print_nl()
  call void %print_int(int 42)
  ret int 0
}
|}
  in
  check_string "output" "hello, world!\n42" out

let test_malloc_free () =
  check_int "heap roundtrip" 99
    (exit_code
       {|
declare sbyte* %malloc(uint)
declare void %free(sbyte*)

int %main() {
entry:
  %raw = call sbyte* %malloc(uint 64)
  %ip = cast sbyte* %raw to int*
  %slot = getelementptr int* %ip, long 7
  store int 99, int* %slot
  %v = load int* %slot
  call void %free(sbyte* %raw)
  ret int %v
}
|})

let test_invoke_unwind () =
  check_int "unwind caught by invoke" 7
    (exit_code
       {|
void %may_throw(bool %t) {
entry:
  br bool %t, label %throw, label %ok
throw:
  unwind
ok:
  ret void
}

int %main() {
entry:
  %r = invoke int %helper(bool true) to label %normal except label %caught
normal:
  ret int %r
caught:
  ret int 7
}

int %helper(bool %t) {
entry:
  call void %may_throw(bool %t)
  ret int 1
}
|});
  (* unwind with no invoke anywhere -> Unwound *)
  let m = Resolve.parse_module "int %main() {\nentry:\n  unwind\n}" in
  let st = Interp.create m in
  check_bool "uncaught unwind" true
    (try
       ignore (Interp.run_main st);
       false
     with Interp.Unwound -> true)

let test_precise_exceptions () =
  (* enabled div-by-zero traps *)
  let m =
    Resolve.parse_module
      "int %main() {\nentry:\n  %x = div int 1, 0\n  ret int %x\n}"
  in
  let st = Interp.create m in
  check_bool "div by zero traps" true
    (try
       ignore (Interp.run_main st);
       false
     with Interp.Trap Interp.Division_by_zero -> true);
  (* disabled exceptions are ignored: result is undef, program continues *)
  check_int "disabled div-by-zero ignored" 5
    (exit_code
       {|
int %main() {
entry:
  %x = div int 1, 0 @ee(false)
  ret int 5
}
|});
  (* load through null traps *)
  let m2 =
    Resolve.parse_module
      "int %main() {\nentry:\n  %p = cast int 0 to int*\n  %x = load int* %p\n  ret int %x\n}"
  in
  let st2 = Interp.create m2 in
  check_bool "null load faults" true
    (try
       ignore (Interp.run_main st2);
       false
     with Interp.Trap (Interp.Memory_fault _) -> true)

let test_trap_handler () =
  (* a registered handler observes the trap number before termination *)
  let _, out, _ =
    try
      run_src
        {|
declare void %llva.trap.register(void (uint, sbyte*)*)
declare void %print_int(int)

void %handler(uint %num, sbyte* %info) {
entry:
  %n = cast uint %num to int
  call void %print_int(int %n)
  ret void
}

int %main() {
entry:
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %x = div int 1, 0
  ret int %x
}
|}
    with Interp.Trap k ->
      (0, (match k with Interp.Division_by_zero -> "0" | _ -> "?"), Obj.magic ())
  in
  (* trap number 0 = division by zero was printed by the handler *)
  check_string "handler saw trap 0" "0" out

let test_privileged_intrinsics () =
  let src priv =
    Printf.sprintf
      {|
declare void %%llva.priv.set(bool)
declare void %%llva.pgtable.map(uint, uint)

int %%main() {
entry:
  call void %%llva.priv.set(bool %s)
  call void %%llva.pgtable.map(uint 0, uint 0)
  ret int 0
}
|}
      (if priv then "true" else "false")
  in
  check_int "privileged ok" 0 (exit_code (src true));
  let m = Resolve.parse_module (src false) in
  let st = Interp.create m in
  check_bool "unprivileged traps" true
    (try
       ignore (Interp.run_main st);
       false
     with Interp.Trap Interp.Privilege_violation -> true)

let test_smc_replace () =
  (* §3.4: replacing a function body affects future invocations only *)
  check_int "smc future invocations" 21
    (exit_code
       {|
declare void %llva.smc.replace(int (int)*, int (int)*)

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
  call void %llva.smc.replace(int (int)* %orig, int (int)* %patched)
  %after = call int %orig(int 0)
  %both = mul int %after, 2
  %r = add int %before, %both
  ret int %r
}
|})

let test_fuel () =
  let m =
    Resolve.parse_module
      "int %main() {\nentry:\n  br label %loop\nloop:\n  br label %loop\n}"
  in
  let st = Interp.create ~fuel:1000 m in
  check_bool "infinite loop out of fuel" true
    (try
       ignore (Interp.run_main st);
       false
     with Interp.Out_of_fuel -> true)

let test_endianness_portability () =
  (* The same type-safe source behaves identically on all four target
     configurations (§3.2). *)
  let src target =
    Printf.sprintf
      {|
target pointersize = %d
target endian = %s

%%pair = type { int, int }

int %%main() {
entry:
  %%p = alloca %%pair
  %%f0 = getelementptr %%pair* %%p, long 0, ubyte 0
  %%f1 = getelementptr %%pair* %%p, long 0, ubyte 1
  store int 258, int* %%f0
  store int 513, int* %%f1
  %%a = load int* %%f0
  %%b = load int* %%f1
  %%r = add int %%a, %%b
  ret int %%r
}
|}
      (target.Target.ptr_size * 8)
      (match target.Target.endian with Target.Little -> "little" | Target.Big -> "big")
  in
  List.iter
    (fun t -> check_int ("portable on " ^ Target.to_string t) 771 (exit_code (src t)))
    Target.all

(* ---------- semantics the lowered form must preserve ---------- *)

let parse_unverified src =
  let m = Resolve.parse_module src in
  (m, Interp.create m)

let invalid_arg_of f =
  match f () with
  | _ -> "no error"
  | exception Invalid_argument msg -> msg

let test_phi_swap () =
  (* both phis read the values from before the edge: a sequential
     evaluation would give 22 *)
  check_int "simultaneous phi swap" 21
    (exit_code
       {|
int %main() {
entry:
  br label %loop
loop:
  %a = phi int [ 1, %entry ], [ %b, %loop ]
  %b = phi int [ 2, %entry ], [ %a, %loop ]
  %i = phi int [ 0, %entry ], [ %inext, %loop ]
  %inext = add int %i, 1
  %done = seteq int %inext, 2
  br bool %done, label %exit, label %loop
exit:
  %t = mul int %a, 10
  %r = add int %t, %b
  ret int %r
}
|})

let test_smc_self_replace () =
  (* %self replaces itself while active: its own frame finishes the old
     body (the add 1000), its nested call and main's next call run the
     new one *)
  let code, _, st =
    run_src
      {|
declare void %llva.smc.replace(int (int)*, int (int)*)

int %patched(int %x) {
entry:
  %r = add int %x, 100
  ret int %r
}

int %self(int %x) {
entry:
  call void %llva.smc.replace(int (int)* %self, int (int)* %patched)
  %y = call int %self(int %x)
  %r = add int %y, 1000
  ret int %r
}

int %main() {
entry:
  %a = call int %self(int 0)
  %b = call int %self(int 0)
  %t = mul int %a, 10
  %r = add int %t, %b
  ret int %r
}
|}
  in
  check_int "old body finishes, new body runs next" 11100 code;
  check_int "calls" 4 st.Interp.stats.Interp.calls

let test_disabled_exceptions_undef () =
  let src =
    {|
int %div0() {
entry:
  %x = div int 1, 0 @ee(false)
  %y = add int %x, 1
  ret int %y
}

int %nullload() {
entry:
  %p = cast long 0 to int*
  %x = load int* %p @ee(false)
  ret int %x
}

int %main() {
entry:
  ret int 0
}
|}
  in
  let m = Resolve.parse_module src in
  List.iter
    (fun f ->
      let st = Interp.create m in
      let r = Interp.run_function st f [] in
      check_bool (f ^ " yields undef") true (Eval.equal r (Eval.Undef Types.Int)))
    [ "div0"; "nullload" ]

let test_phi_errors () =
  let _, st =
    parse_unverified
      "int %main() {\nentry:\n  %p = phi int [ 1, %entry ]\n  ret int %p\n}"
  in
  check_string "phi in entry block" "Interp: phi in entry block"
    (invalid_arg_of (fun () -> Interp.run_main st));
  let _, st =
    parse_unverified
      {|
int %main() {
entry:
  br label %next
next:
  %p = phi int [ 1, %other ]
  ret int %p
other:
  br label %next
}
|}
  in
  check_string "phi missing edge" "Interp: phi %p missing edge from %entry"
    (invalid_arg_of (fun () -> Interp.run_main st))

let test_lazy_resolution_errors () =
  (* an unresolvable symbol or type is an error only when its
     instruction executes *)
  let src =
    {|
int %main() {
entry:
  br label %exit
dead:
  br label %exit
exit:
  ret int 7
}
|}
  in
  let m, st = parse_unverified src in
  let main = Option.get (Ir.find_func m "main") in
  let dead = List.nth main.Ir.fblocks 1 in
  let bad_sym = Ir.Const { Ir.cty = Types.Pointer Types.Int; ckind = Ir.Cglobal_ref "nosuch" } in
  Ir.prepend_instr dead (Ir.mk_instr Ir.Load [| bad_sym |] Types.Int);
  Ir.prepend_instr dead
    (Ir.mk_instr Ir.Cast [| Ir.const_int Types.Int 1L |] (Types.Named "nosuch_t"));
  check_int "dead block never fails" 7 (Interp.run_main st);
  let entry = Ir.entry_block main in
  Ir.prepend_instr entry (Ir.mk_instr Ir.Load [| bad_sym |] Types.Int);
  let st = Interp.create m in
  check_string "live block fails when it runs" "Interp: unresolved symbol nosuch"
    (invalid_arg_of (fun () -> Interp.run_main st))

let test_gep_pointer_mask () =
  let m =
    Resolve.parse_module
      {|
target pointersize = 32

int* %fixed() {
entry:
  %p = cast ulong 4294967292 to int*
  %q = getelementptr int* %p, long 2
  ret int* %q
}

int* %scaled(long %k) {
entry:
  %p = cast ulong 4294967292 to int*
  %q = getelementptr int* %p, long %k
  ret int* %q
}

int %main() {
entry:
  ret int 0
}
|}
  in
  let run f args = Interp.run_function (Interp.create m) f args in
  check_bool "constant index wraps at 32 bits" true
    (Eval.equal (run "fixed" []) (Eval.P 4L));
  check_bool "variable index wraps at 32 bits" true
    (Eval.equal (run "scaled" [ Eval.I (Types.Long, 3L) ]) (Eval.P 8L));
  check_bool "negative index wraps at 32 bits" true
    (Eval.equal
       (run "scaled" [ Eval.I (Types.Long, -1073741824L) ])
       (Eval.P 0xFFFFFFFCL))

let test_lowered_once () =
  let m = Resolve.parse_module fib_src in
  List.iter
    (fun run ->
      let st = Interp.create m in
      check_int (run ^ ": fib 10") 55 (Interp.run_main st);
      check_int (run ^ ": calls") 178 st.Interp.stats.Interp.calls;
      check_int (run ^ ": main and fib lowered once each") 2
        st.Interp.stats.Interp.lowered)
    [ "first state"; "fresh state" ];
  (* a recursive workload: every function is lowered at most once, however
     many times it is called *)
  let w = Option.get (Workloads.find "ptrdist-bc") in
  let m = Workloads.compile_optimized ~level:1 w in
  let st = Interp.create m in
  ignore (Interp.run_main st);
  let defined = List.length (List.filter (fun f -> not (Ir.is_declaration f)) m.Ir.funcs) in
  let s = st.Interp.stats in
  check_bool "recursion reused the lowered forms" true
    (s.Interp.lowered > 1 && s.Interp.lowered <= defined
   && s.Interp.calls > 10 * s.Interp.lowered)

(* ---------- exact counts, pinned before the lowered form ---------- *)

(* One line per workload at -O1: steps, calls, max depth and the
   nonzero entries of the per-opcode histogram. *)
let counts_line name (s : Interp.stats) =
  let ops =
    List.filter_map
      (fun op ->
        let n = s.Interp.by_opcode.(Ir.opcode_code op) in
        if n = 0 then None else Some (Printf.sprintf "%s=%d" (Ir.opcode_name op) n))
      Ir.all_opcodes
  in
  String.concat " "
    (name
    :: Printf.sprintf "steps=%d" s.Interp.steps
    :: Printf.sprintf "calls=%d" s.Interp.calls
    :: Printf.sprintf "max_depth=%d" s.Interp.max_depth
    :: ops)

let counts_report () =
  List.map
    (fun w ->
      let st = Interp.create (Workloads.compile_optimized ~level:1 w) in
      ignore (Interp.run_main st);
      counts_line w.Workloads.name st.Interp.stats)
    Workloads.all

(* Edge and block counts of [Profile.collect], with blocks named
   function:index so the report does not depend on global ids. *)
let profile_workload = "181.mcf"

let profile_report () =
  let m = Workloads.compile_optimized ~level:1 (Option.get (Workloads.find profile_workload)) in
  let names = Hashtbl.create 256 in
  List.iter
    (fun f ->
      List.iteri
        (fun k b -> Hashtbl.replace names b.Ir.blid (Printf.sprintf "%s:%d" f.Ir.fname k))
        f.Ir.fblocks)
    m.Ir.funcs;
  let p, _, _ = Llee.Profile.collect m in
  let name = Hashtbl.find names in
  let edges =
    Hashtbl.fold
      (fun (s, d) c acc -> Printf.sprintf "e %s %s %d" (name s) (name d) c :: acc)
      p.Llee.Profile.edges []
  in
  let blocks =
    Hashtbl.fold (fun b c acc -> Printf.sprintf "b %s %d" (name b) c :: acc) p.Llee.Profile.blocks []
  in
  List.sort compare edges @ List.sort compare blocks

let expected_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let check_report file actual =
  let expected = expected_lines file in
  check_int (file ^ ": line count") (List.length expected) (List.length actual);
  List.iter2 (fun e a -> check_string file e a) expected actual

let test_exact_counts () = check_report "interp_counts.expected" (counts_report ())
let test_profile_counts () = check_report "interp_profile.expected" (profile_report ())

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "casts" `Quick test_casts;
    Alcotest.test_case "memory and gep" `Quick test_memory_and_gep;
    Alcotest.test_case "loop and phi" `Quick test_loop_and_phi;
    Alcotest.test_case "calls and recursion" `Quick test_calls_and_recursion;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "runtime output" `Quick test_runtime_output;
    Alcotest.test_case "malloc/free" `Quick test_malloc_free;
    Alcotest.test_case "invoke/unwind" `Quick test_invoke_unwind;
    Alcotest.test_case "precise exceptions" `Quick test_precise_exceptions;
    Alcotest.test_case "trap handler" `Quick test_trap_handler;
    Alcotest.test_case "privileged intrinsics" `Quick test_privileged_intrinsics;
    Alcotest.test_case "smc replace" `Quick test_smc_replace;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "endianness portability" `Quick
      test_endianness_portability;
    Alcotest.test_case "phi swap" `Quick test_phi_swap;
    Alcotest.test_case "smc self replace" `Quick test_smc_self_replace;
    Alcotest.test_case "disabled exceptions yield undef" `Quick
      test_disabled_exceptions_undef;
    Alcotest.test_case "phi errors" `Quick test_phi_errors;
    Alcotest.test_case "lazy resolution errors" `Quick test_lazy_resolution_errors;
    Alcotest.test_case "gep pointer mask" `Quick test_gep_pointer_mask;
    Alcotest.test_case "lowered once per state" `Quick test_lowered_once;
    Alcotest.test_case "exact workload counts" `Quick test_exact_counts;
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
  ]
