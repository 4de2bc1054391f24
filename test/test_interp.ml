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

let test_shared_forms () =
  let m = Workloads.compile_optimized ~level:1 (Option.get (Workloads.find "181.mcf")) in
  let forms = Interp.new_forms m in
  let run () =
    let st = Interp.create ~forms m in
    let code = Interp.run_main st in
    let s = st.Interp.stats in
    ( (code, Interp.output st, s.Interp.steps, s.Interp.calls, s.Interp.max_depth,
       Array.to_list (Interp.by_opcode st)),
      s.Interp.lowered )
  in
  let first, decoded = run () in
  let second, again = run () in
  check_bool "same observations from shared forms" true (first = second);
  check_bool "the first state decoded" true (decoded > 1);
  check_int "the second state decoded nothing" 0 again;
  check_string "a form cache belongs to one module"
    "Interp.create: forms of another module"
    (invalid_arg_of (fun () -> Interp.create ~forms (Resolve.parse_module fib_src)))

let test_opcode_count () =
  check_int "all_opcodes" Ir.opcode_count (List.length Ir.all_opcodes);
  let st = Interp.create (Resolve.parse_module fib_src) in
  List.iter
    (fun op ->
      check_bool (Ir.opcode_name op ^ " has a by_opcode entry") true
        (Ir.opcode_code op < Array.length (Interp.by_opcode st)))
    Ir.all_opcodes

(* ---------- fuel at run boundaries ----------

   Runs are charged whole, so a budget must still stop exactly where
   stepping would: on a random program, any budget b below the unlimited
   step count ends out of fuel with b + 1 steps, any budget at or above
   it changes nothing, and the histogram always sums to the steps. *)

let prop_fuel_budgets =
  QCheck.Test.make ~name:"fuel budgets stop at b + 1 and change nothing past the end"
    ~count:150
    (QCheck.pair Gen.gen_full_program (QCheck.int_bound 1_000_000))
    (fun (m, r) ->
      let run fuel =
        let o, st = Llee.Outcome.run_main_interp ~fuel m in
        let s = st.Interp.stats in
        let by = Interp.by_opcode st in
        if Array.fold_left ( + ) 0 by <> s.Interp.steps then
          QCheck.Test.fail_reportf "budget %d: by_opcode sums to %d, steps %d" fuel
            (Array.fold_left ( + ) 0 by)
            s.Interp.steps;
        (Llee.Outcome.to_string o, Interp.output st, s.Interp.steps)
      in
      let exhausted = Llee.Outcome.to_string Llee.Outcome.Fuel_exhausted in
      let ((outcome, _, n) as full) = run 4_000_000 in
      QCheck.assume (outcome <> exhausted);
      let below = r mod n and above = n + (r mod 3) in
      let o, _, steps = run below in
      if o <> exhausted || steps <> below + 1 then
        QCheck.Test.fail_reportf "budget %d of %d: %s after %d steps" below n o steps;
      run above = full)

(* The phi moves of an edge, sequentialized, leave the registers as
   simultaneous assignment does. *)
let prop_phi_moves =
  QCheck.Test.make ~name:"sequentialized phi moves are simultaneous" ~count:2000
    QCheck.(list_of_size Gen.(int_range 0 8) (pair (int_bound 7) (int_bound 9)))
    (fun pairs ->
      (* distinct destinations, as phis have *)
      let pairs =
        List.fold_left
          (fun acc (d, s) -> if List.mem_assoc d acc then acc else (d, s) :: acc)
          [] pairs
      in
      let regs = Array.init 11 (fun k -> 100 + k) in
      let want = Array.copy regs in
      List.iter (fun (d, s) -> want.(d) <- regs.(s)) pairs;
      let moves = Interp.sequentialize ~scratch:(fun _ -> 10) pairs in
      let k = ref 0 in
      while !k < Array.length moves do
        regs.(moves.(!k)) <- regs.(moves.(!k + 1));
        k := !k + 2
      done;
      Array.sub regs 0 10 = Array.sub want 0 10)

(* ---------- exact counts, pinned before the lowered form ---------- *)

(* One line per workload at -O1: steps, calls, max depth and the
   nonzero entries of the per-opcode histogram. *)
let counts_line name st =
  let s = st.Interp.stats and by = Interp.by_opcode st in
  let ops =
    List.filter_map
      (fun op ->
        let n = by.(Ir.opcode_code op) in
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
      counts_line w.Workloads.name st)
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

(* ---------- fuel and trap accounting ---------- *)

(* The benchmark's short programs (under 10M x86lite instructions at -O1)
   under fixed budgets, and three trapping examples unlimited and with
   budgets that stop one step before, on and one step after the
   trapping division (step 3 of trap_div.ll, step 4 of the other two).
   A budget b stops on step b + 1. [fuel_run_boundaries] adds budgets
   that stop where a threaded run starts or ends: on the trap handler's
   unwind (step 7), on main's call in the invoke's except block and on
   the return after it (steps 8 and 9 of handler_unwind_invoke.ll), and
   in fib.ll on a call (step 6), on the callee's first instruction (7),
   on a return (49), on the call right after that return (50) and on
   the add right after the second call returns (54). *)
let fuel_short_workloads =
  [
    "ptrdist-anagram"; "183.equake"; "181.mcf"; "256.bzip2"; "164.gzip";
    "197.parser"; "188.ammp"; "186.crafty"; "255.vortex";
  ]

let fuel_trap_programs =
  [ ("trap_div.ll", [ 2; 3; 4 ]); ("handler_unwind.ll", [ 3; 4; 5 ]);
    ("handler_unwind_invoke.ll", [ 3; 4; 5 ]) ]

(* pinned after the lines above *)
let fuel_run_boundaries =
  [ ("handler_unwind.ll", [ 6 ]); ("handler_unwind_invoke.ll", [ 6; 7; 8 ]);
    ("fib.ll", [ 5; 6; 48; 49; 53 ]) ]

(* One line per run: outcome (trap kind and function included), steps,
   calls, max depth, and the output's length and MD5. *)
let fuel_line name fuel m =
  let o, st = Llee.Outcome.run_main_interp ?fuel m in
  let s = st.Interp.stats and out = Interp.output st in
  Printf.sprintf "%s fuel=%s steps=%d calls=%d max_depth=%d out=%d:%s %s" name
    (match fuel with Some f -> string_of_int f | None -> "none")
    s.Interp.steps s.Interp.calls s.Interp.max_depth (String.length out)
    (Digest.to_hex (Digest.string out))
    (Llee.Outcome.to_string o)

let fuel_report () =
  let examples budgets_of programs =
    List.concat_map
      (fun (file, budgets) ->
        let src = In_channel.with_open_text ("../examples/" ^ file) In_channel.input_all in
        let m = Resolve.parse_module ~name:file src in
        List.map (fun f -> fuel_line file f m) (budgets_of budgets))
      programs
  in
  List.concat_map
    (fun name ->
      let m = Workloads.compile_optimized ~level:1 (Option.get (Workloads.find name)) in
      List.map (fun f -> fuel_line name (Some f) m) [ 0; 1; 10_000; 1_000_000 ])
    fuel_short_workloads
  @ examples (fun b -> None :: List.map Option.some b) fuel_trap_programs
  @ examples (List.map Option.some) fuel_run_boundaries

(* ---------- specialized kinds agree with Eval ----------

   One instruction in a function of its own, run through
   [Interp.run_function], against the [Eval] (or [Memory]) call that
   defines it. Operand scalars come in every shape, also ones that do not
   match the declared type, and each operand is either an argument slot
   or a constant; loads and stores hit page-straddling addresses on all
   four target configurations. *)

type spec_op =
  | S_arith of Ir.binop
  | S_setcc of Ir.cmp
  | S_cast of Types.t
  | S_br
  | S_gep of Types.t * bool (* element type; a second index 1 into it *)
  | S_load of Types.t
  | S_store of Types.t

type spec_case = {
  target : Target.config;
  sop : spec_op;
  decl : Types.t; (* the declared type of the (first) operand *)
  ops : (Eval.scalar * bool) list; (* operand scalar, as a constant? *)
  fill : string; (* bytes around a load or store address *)
}

let int_types = Types.[ Ubyte; Sbyte; Ushort; Short; Uint; Int; Ulong; Long ]
let all_binops = Ir.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
let all_cmps = Ir.[ Eq; Ne; Lt; Gt; Le; Ge ]
let scalar_types = int_types @ Types.[ Bool; Float; Double; Pointer Int; Pointer Sbyte ]

(* heap addresses on both sides of a page boundary, in-page ones, the
   null page and a negative address *)
let gen_addr =
  let open QCheck.Gen in
  let page = Int64.of_int Vmem.Memory.page_size in
  let heap k = Int64.add Vmem.Memory.heap_base k in
  frequency
    [
      ( 4,
        let* n = int_range 1 3 and* j = int_range (-9) 9 in
        return (heap (Int64.add (Int64.mul page (Int64.of_int n)) (Int64.of_int j))) );
      (2, map (fun o -> heap (Int64.of_int o)) (int_range 16 20000));
      (1, oneofl [ 0L; 0x10L; -8L ]);
    ]

let gen_scalar ?addr () : Eval.scalar QCheck.Gen.t =
  let open QCheck.Gen in
  let bits =
    oneof
      [
        map Int64.of_int (int_range (-300) 300);
        ui64;
        oneofl [ Int64.min_int; Int64.max_int; 0xFFFF_FFFFL; 0x8000_0000L; 0x7FL; 0x80L ];
      ]
  in
  let ptr = match addr with Some a -> a | None -> bits in
  let fp = oneof [ float; oneofl [ nan; infinity; -0.0; 1.5; -3.0 ] ] in
  frequency
    [
      ( 5,
        let* t = oneofl int_types and* v = bits in
        return (Eval.I (t, Ir.normalize_int t v)) );
      (2, map (fun b -> Eval.B b) bool);
      (3, map (fun a -> Eval.P a) ptr);
      (1, map (fun a -> Eval.I (Types.Ulong, a)) ptr);
      ( 2,
        let* t = oneofl [ Types.Float; Types.Double ] and* x = fp in
        return (Eval.F (t, Eval.round_float t x)) );
      (1, map (fun t -> Eval.Undef t) (oneofl scalar_types));
    ]

let gen_spec_case =
  let open QCheck.Gen in
  let operand ?addr () = pair (gen_scalar ?addr ()) bool in
  let operands n = list_repeat n (operand ()) in
  let aggregate = function Types.Struct _ | Types.Array _ -> true | _ -> false in
  let* target = oneofl Target.all
  and* decl = oneofl scalar_types
  and* fill = string_size ~gen:char (return 32) in
  let* sop, ops =
    oneof
      [
        pair
          (map (fun o -> S_arith o) (oneofl all_binops))
          (operands 2);
        pair (map (fun c -> S_setcc c) (oneofl all_cmps)) (operands 2);
        pair (map (fun t -> S_cast t) (oneofl scalar_types)) (operands 1);
        pair (return S_br) (operands 1);
        pair
          (map2
             (fun e field -> S_gep (e, field && aggregate e))
             (oneofl Types.[ Int; Long; Sbyte; Array (4, Short); Struct [ Int; Long ] ])
             bool)
          (let* p = operand ~addr:gen_addr () and* i = operand () in
           return [ p; i ]);
        pair
          (map (fun t -> S_load t) (oneofl scalar_types))
          (list_repeat 1 (operand ~addr:gen_addr ()));
        pair
          (map (fun t -> S_store t) (oneofl scalar_types))
          (let* v = operand () and* p = operand ~addr:gen_addr () in
           return [ v; p ]);
      ]
  in
  return { target; sop; decl; ops; fill }

let spec_case_str c =
  let op =
    match c.sop with
    | S_arith o -> Ir.opcode_name (Ir.Binop o)
    | S_setcc o -> Ir.opcode_name (Ir.Setcc o)
    | S_cast t -> "cast to " ^ Types.to_string t
    | S_br -> "br"
    | S_gep (e, field) ->
        Printf.sprintf "gep %s*%s" (Types.to_string e) (if field then ", 1" else "")
    | S_load t -> "load " ^ Types.to_string t
    | S_store t -> "store " ^ Types.to_string t
  in
  let operand (s, k) = Eval.to_string s ^ if k then " (constant)" else "" in
  Printf.sprintf "%s on %s, declared %s, operands %s" op (Target.to_string c.target)
    (Types.to_string c.decl)
    (String.concat ", " (List.map operand c.ops))

(* An operand as a constant of its parameter's type [decl], when one
   denotes the scalar exactly: [Interp] reads it back as the same
   scalar. *)
let constant decl (s : Eval.scalar) =
  let c cty ckind = Some (Ir.Const { Ir.cty; ckind }) in
  match s with
  | Eval.I (t, x) -> c t (Ir.Cint x)
  | Eval.B b -> c decl (Ir.Cbool b)
  | Eval.F (t, x) -> c t (Ir.Cfloat x)
  | Eval.P 0L -> c decl Ir.Cnull
  | Eval.P _ -> None
  | Eval.Undef t -> Some (Ir.Vundef t)

(* [c]'s function %f in a fresh module, and its operand values. *)
let spec_module c =
  let m = Ir.mk_module ~target:c.target () in
  let ptr t = Types.Pointer t in
  let param_tys, ret_ty =
    match c.sop with
    | S_arith _ -> ([ c.decl; c.decl ], c.decl)
    | S_setcc _ -> ([ c.decl; c.decl ], Types.Bool)
    | S_cast t -> ([ c.decl ], t)
    | S_br -> ([ c.decl ], Types.Int)
    | S_gep (e, _) -> ([ ptr e; Types.Long ], ptr e)
    | S_load t -> ([ ptr t ], t)
    | S_store t -> ([ t; ptr t ], Types.Void)
  in
  let params = List.mapi (fun k t -> (Printf.sprintf "a%d" k, t)) param_tys in
  let f = Ir.mk_func ~name:"f" ~return:ret_ty ~params () in
  Ir.add_func m f;
  let values =
    List.map2
      (fun (a : Ir.arg) (s, as_const) ->
        match if as_const then constant a.Ir.aty s else None with
        | Some v -> v
        | None -> Ir.Varg a)
      f.Ir.fargs c.ops
  in
  let entry = Ir.mk_block ~name:"entry" () in
  Ir.append_block f entry;
  let emit b op operands ty =
    let i = Ir.mk_instr op (Array.of_list operands) ty in
    Ir.append_instr b i;
    i
  in
  let ret b v = ignore (emit b Ir.Ret (Option.to_list v) Types.Void) in
  (match (c.sop, values) with
  | S_br, [ cond ] ->
      let t = Ir.mk_block ~name:"t" () and e = Ir.mk_block ~name:"e" () in
      ignore (emit entry Ir.Br [ cond; Ir.Vblock t; Ir.Vblock e ] Types.Void);
      List.iter
        (fun (b, r) ->
          Ir.append_block f b;
          ret b (Some (Ir.const_int Types.Int r)))
        [ (t, 1L); (e, 0L) ]
  | S_store _, _ ->
      ignore (emit entry Ir.Store values Types.Void);
      ret entry None
  | _ ->
      let op, operands, ty =
        match c.sop with
        | S_arith o -> (Ir.Binop o, values, c.decl)
        | S_setcc o -> (Ir.Setcc o, values, Types.Bool)
        | S_cast t -> (Ir.Cast, values, t)
        | S_gep (e, false) -> (Ir.Getelementptr, values, ptr e)
        | S_gep (e, true) ->
            let one = Ir.const_int Types.Ubyte 1L in
            let elem = match e with Types.Struct [ _; t ] | Types.Array (_, t) -> t | t -> t in
            (Ir.Getelementptr, values @ [ one ], ptr elem)
        | S_load t -> (Ir.Load, values, t)
        | S_br | S_store _ -> assert false
      in
      let i = emit entry op operands ty in
      ret entry (Some (Ir.Vreg i)));
  (m, values)

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> Eval.equal x y
  | Error x, Error y -> ( try x = y with _ -> Printexc.to_string x = Printexc.to_string y)
  | _ -> false

(* [c]'s instruction, run by the interpreter, does what its [Eval] or
   [Memory] definition does; an enabled trap of [Eval] is the
   interpreter's [Trap] *)
let spec_agrees c =
      let m, values = spec_module c in
      let ops = List.map fst c.ops in
      let st = Interp.create m in
      (* the static type the interpreter sees: a constant's own type *)
      let ty_of k = Ir.type_of_value (List.nth values k) in
      let eval f = try Ok (f ()) with e -> Error e in
      let fault f =
        try Ok (f ())
        with Vmem.Memory.Fault a -> Error (Interp.Trap (Interp.Memory_fault a))
      in
      let masked = function Eval.P a -> Eval.P (Eval.mask_pointer c.target a) | r -> r in
      (* the same bytes around a load or store address in the
         interpreter's memory and in a reference memory *)
      let reference = Vmem.Memory.create c.target in
      let window a =
        let in_heap = Int64.compare a 0x1010L >= 0 && Int64.compare a 0x1_0000_0000_0000L < 0 in
        if in_heap then begin
          let lo = Int64.sub a 16L in
          Vmem.Memory.write_bytes st.Interp.mem lo (Bytes.of_string c.fill);
          Vmem.Memory.write_bytes reference lo (Bytes.of_string c.fill);
          Some lo
        end
        else None
      in
      let stored = ref None in
      let expected =
        match (c.sop, ops) with
        | S_arith o, [ a; b ] -> eval (fun () -> Eval.binop o a b)
        | S_setcc o, [ a; b ] -> eval (fun () -> Eval.compare_scalars (ty_of 0) o a b)
        | S_cast t, [ a ] ->
            eval (fun () -> masked (Eval.cast ~src_ty:(ty_of 0) ~dst_ty:t a))
        | S_br, [ a ] -> Ok (Eval.I (Types.Int, if Eval.to_bool a then 1L else 0L))
        | S_gep (_, field), [ p; i ] ->
            let field = if field then [ (Types.Ubyte, 1L) ] else [] in
            let idx = (ty_of 1, Eval.to_int64 i) :: field in
            eval (fun () ->
                let off, _ = Gep_ref.gep_offset st.Interp.layout (ty_of 0) idx in
                masked (Eval.P (Int64.add (Eval.to_int64 p) (Int64.of_int off))))
        | S_load t, [ p ] ->
            let a = Eval.to_int64 p in
            ignore (window a);
            fault (fun () -> Vmem.Memory.read_scalar st.Interp.mem t a)
        | S_store _, [ v; p ] ->
            let a = Eval.to_int64 p in
            stored := window a;
            fault (fun () -> Vmem.Memory.write_scalar reference (ty_of 0) a v)
            |> Result.map (fun () -> Eval.Undef Types.Void)
        | _ -> assert false
      in
      let expected =
        match expected with
        | Error Eval.Division_by_zero -> Error (Interp.Trap Interp.Division_by_zero)
        | Error Eval.Overflow -> Error (Interp.Trap Interp.Overflow)
        | e -> e
      in
      let got = try Ok (Interp.run_function st "f" ops) with e -> Error e in
      (* a gep the reference walk refuses, the interpreter refuses when it
         runs, each in its own words *)
      let expected =
        match (c.sop, expected, got) with
        | S_gep _, Error (Invalid_argument _), Error (Invalid_argument _) -> got
        | _ -> expected
      in
      let same_bytes lo =
        let bytes mem = Vmem.Memory.read_bytes mem lo 32 in
        Bytes.equal (bytes st.Interp.mem) (bytes reference)
      in
      same_outcome expected got && Option.fold ~none:true ~some:same_bytes !stored

let prop_specialized_agree =
  QCheck.Test.make ~name:"specialized kinds agree with Eval" ~count:3000
    (QCheck.make ~print:spec_case_str gen_spec_case) spec_agrees

(* The same check over fixed cases: each binop, setcc and cast at every
   integer width from bool to ulong (and pointers for setcc and casts) on boundary
   values, each second operand once a slot and once a constant; and
   loads and stores of every scalar type at addresses that straddle a
   page boundary, lie in the null page or leave it, on a little- and a
   big-endian target. *)
let spec_fill = String.init 32 (fun k -> Char.chr (((k * 37) + 11) land 0xFF))

let boundary (t : Types.t) : Eval.scalar list =
  match t with
  | Types.Bool -> [ Eval.B false; Eval.B true ]
  | Types.Pointer _ -> [ Eval.P 0L; Eval.P 0x1000L; Eval.P (-1L); Eval.P 0xFFFF_FFFFL ]
  | (Types.Float | Types.Double) as t ->
      List.map (fun x -> Eval.F (t, Eval.round_float t x)) [ 0.0; -1.5; 1e10; Float.nan ]
  | t ->
      List.map
        (fun v -> Eval.I (t, Ir.normalize_int t v))
        [ 0L; 1L; -1L; 2L; 9L; 0x7FL; 0x80L; 0xFFFFL; 0x8000_0000L; Int64.min_int; 65L ]

let spec_cases () =
  let widths = Types.Bool :: int_types in
  let case ?(target = Target.little32) sop decl ops =
    { target; sop; decl; ops; fill = spec_fill }
  in
  let pairs t =
    List.concat_map
      (fun a -> List.mapi (fun k b -> [ (a, false); (b, k mod 2 = 0) ]) (boundary t))
      (boundary t)
  in
  let arith =
    List.concat_map
      (fun o -> List.concat_map (fun t -> List.map (case (S_arith o) t) (pairs t)) widths)
      all_binops
  and setcc =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun t -> List.map (case (S_setcc c) t) (pairs t))
          (widths @ Types.[ Pointer Int ]))
      all_cmps
  and casts =
    let tys = widths @ Types.[ Pointer Int ] in
    List.concat_map
      (fun src ->
        List.concat_map
          (fun dst ->
            List.map (fun v -> case (S_cast dst) src [ (v, false) ]) (boundary src))
          tys)
      tys
  and memory =
    let page = Int64.of_int Vmem.Memory.page_size in
    let addrs =
      List.init 9 (fun k -> Int64.sub (Int64.add Vmem.Memory.heap_base page) (Int64.of_int k))
      @ [ 0L; 0x10L; 0xFF8L; 0xFFCL; 0xFFFL; -8L ]
    in
    List.concat_map
      (fun target ->
        List.concat_map
          (fun t ->
            List.concat_map
              (fun a ->
                let p = (Eval.P a, false) in
                case ~target (S_load t) t [ p ]
                :: List.map (fun v -> case ~target (S_store t) t [ (v, false); p ])
                     (match boundary t with v :: w :: _ -> [ v; w ] | l -> l))
              addrs)
          scalar_types)
      Target.[ little32; big64 ]
  in
  arith @ setcc @ casts @ memory

let test_spec_every_width () =
  List.iter
    (fun c -> if not (spec_agrees c) then Alcotest.failf "disagrees: %s" (spec_case_str c))
    (spec_cases ())

(* ---------- the register encoding ----------

   A slot of a static type holds any scalar: the one its type predicts
   as a raw payload, anything else boxed. Each scalar goes into an
   argument of [f] (of type [ty]), through a phi, into a call of [g] and
   back out of both returns, and must come back equal, with its type. *)

let roundtrip_types = scalar_types @ Types.[ Struct [ Int; Long ] ]

let roundtrip_states =
  lazy
    (List.map
       (fun ty ->
         let t = Types.to_string ty in
         let src =
           Printf.sprintf
             "%s %%g(%s %%x) {\nentry:\n  ret %s %%x\n}\n\n\
              %s %%f(%s %%a) {\nentry:\n  br label %%b\nb:\n  %%p = phi %s [ %%a, %%entry ]\n\
             \  %%r = call %s %%g(%s %%p)\n  ret %s %%r\n}\n"
             t t t t t t t t t
         in
         (ty, Interp.create (Resolve.parse_module src)))
       roundtrip_types)

let gen_roundtrip =
  let open QCheck.Gen in
  let* ty = oneofl roundtrip_types in
  let own =
    match ty with
    | t when Types.is_integer t ->
        [ map (fun v -> Eval.I (t, Ir.normalize_int t v)) ui64; return (Eval.Undef t) ]
    | t -> [ return (Eval.Undef t) ]
  in
  let* v =
    oneof
      (gen_scalar ()
      :: map (fun x -> Eval.F (Types.Float, Eval.round_float Types.Float x)) float
      :: map (fun x -> Eval.F (Types.Double, x)) float
      :: own)
  in
  return (ty, v)

let prop_lossless =
  QCheck.Test.make ~name:"every scalar reads back from a slot of every type" ~count:2000
    (QCheck.make
       ~print:(fun (ty, v) ->
         Printf.sprintf "%s in a %s slot" (Eval.to_string v) (Types.to_string ty))
       gen_roundtrip)
    (fun (ty, v) ->
      let st = List.assoc ty (Lazy.force roundtrip_states) in
      let got = Interp.run_function st "f" [ v ] in
      Eval.equal got v && Types.equal (Eval.type_of got) (Eval.type_of v))

(* Through a cast function pointer an argument arrives in a parameter
   of another type and is kept as it is; the results were recorded
   before registers were unboxed. *)
let test_cast_callee () =
  let m =
    Resolve.parse_module
      {|
int %inc(int %x) {
entry:
  %y = add int %x, 1
  ret int %y
}

int %same(int %x) {
entry:
  ret int %x
}

long %wide() {
entry:
  %fp = cast int (int)* %inc to long (long)*
  %r = call long (long)* %fp(long 5000000000)
  ret long %r
}

int %fromfloat() {
entry:
  %fp = cast int (int)* %same to int (float)*
  %r = call int (float)* %fp(float 2.5)
  ret int %r
}
|}
  in
  List.iter
    (fun (f, want, ty, steps) ->
      let st = Interp.create m in
      let v = Interp.run_function st f [] in
      check_string (f ^ " result") want (Eval.to_string v);
      check_string (f ^ " type") ty (Types.to_string (Eval.type_of v));
      check_int (f ^ " steps") steps st.Interp.stats.Interp.steps)
    [ ("wide", "5000000001", "long", 5); ("fromfloat", "2.5", "float", 4) ]

(* ---------- allocation ----------

   Registers hold unboxed payloads, so a step on integers and pointers
   allocates nothing; what is left is per call (the frame, boxed
   arguments and the result). At -O1, ptrdist-ks allocated 2.92 minor
   words per step with boxed registers and 0.31 without; its bound
   leaves room for call-path changes and fails if registers are boxed
   again. 255.vortex (2.806) and 197.parser (1.504) make 21,990 and
   52,704 calls and run every integer family; their bounds sit just
   above those values, so an instruction moved from an inline closure
   onto the generic path, which boxes its operands and result, fails
   them. *)
let max_words_per_step = [ ("ptrdist-ks", 1.0); ("255.vortex", 2.85); ("197.parser", 1.55) ]

let test_allocation () =
  List.iter
    (fun (name, bound) ->
      let m = Workloads.compile_optimized ~level:1 (Option.get (Workloads.find name)) in
      let st = Interp.create m in
      let before = Gc.minor_words () in
      ignore (Interp.run_main st);
      let words = Gc.minor_words () -. before in
      let per_step = words /. float_of_int st.Interp.stats.Interp.steps in
      check_bool
        (Printf.sprintf "%s: %.3f minor words per step, under %.2f" name per_step bound)
        true (per_step < bound))
    max_words_per_step

let test_exact_counts () = check_report "interp_counts.expected" (counts_report ())
let test_profile_counts () = check_report "interp_profile.expected" (profile_report ())
let test_fuel_counts () = check_report "interp_fuel.expected" (fuel_report ())

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
    Alcotest.test_case "forms shared across states" `Quick test_shared_forms;
    Alcotest.test_case "opcode count" `Quick test_opcode_count;
    Alcotest.test_case "exact workload counts" `Quick test_exact_counts;
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
    Alcotest.test_case "fuel and trap counts" `Quick test_fuel_counts;
    QCheck_alcotest.to_alcotest prop_specialized_agree;
    QCheck_alcotest.to_alcotest prop_fuel_budgets;
    QCheck_alcotest.to_alcotest prop_phi_moves;
    Alcotest.test_case "inline formulas agree with Eval at every width" `Quick
      test_spec_every_width;
    Alcotest.test_case "arguments through a cast function pointer" `Quick test_cast_callee;
    Alcotest.test_case "minor words per step" `Quick test_allocation;
    QCheck_alcotest.to_alcotest prop_lossless;
  ]
