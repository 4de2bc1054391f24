(* The paper's exception model (§3.3) in action:

   - invoke/unwind implement source-language exceptions by stack
     unwinding, portably, through native code;
   - the per-instruction ExceptionsEnabled attribute makes a division
     non-trapping when the language can ignore the exception;
   - a registered trap handler (an ordinary LLVA function, §3.5) observes
     a precise trap.

     dune exec examples/exceptions_unwind.exe *)

open Llva

let program =
  {|
declare void %print_str(sbyte*)
declare void %print_int(int)
declare void %print_nl()
declare void %llva.trap.register(void (uint, sbyte*)*)

%msg.caught = constant [23 x sbyte] c"caught unwound callee\0A\00"
%msg.fine = constant [16 x sbyte] c"normal return: \00"
%msg.trap = constant [20 x sbyte] c"trap handler, code \00"

; a parser-like routine that unwinds on malformed input
int %parse_digit(int %c) {
entry:
  %lo = setge int %c, 48
  br bool %lo, label %check_hi, label %bad
check_hi:
  %hi = setle int %c, 57
  br bool %hi, label %ok, label %bad
ok:
  %v = sub int %c, 48
  ret int %v
bad:
  unwind
}

void %handler(uint %num, sbyte* %info) {
entry:
  %p = getelementptr [20 x sbyte]* %msg.trap, long 0, long 0
  call void %print_str(sbyte* %p)
  %n = cast uint %num to int
  call void %print_int(int %n)
  call void %print_nl()
  ret void
}

int %main() {
entry:
  ; 1. a successful invoke
  %good = invoke int %parse_digit(int 55) to label %ok1 except label %caught
ok1:
  %p1 = getelementptr [16 x sbyte]* %msg.fine, long 0, long 0
  call void %print_str(sbyte* %p1)
  call void %print_int(int %good)
  call void %print_nl()
  ; 2. a failing invoke: the callee unwinds, we land in %caught
  %bad = invoke int %parse_digit(int 88) to label %ok2 except label %caught
ok2:
  ret int 1
caught:
  %p2 = getelementptr [23 x sbyte]* %msg.caught, long 0, long 0
  call void %print_str(sbyte* %p2)
  ; 3. non-trapping division: ExceptionsEnabled=false ignores the fault
  %safe = div int 10, 0 @ee(false)
  %z = add int %safe, 0
  ; 4. register a trap handler, then really divide by zero
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %boom = div int 1, 0
  ret int %boom
}
|}

let () =
  let m = Resolve.parse_module ~name:"exceptions" program in
  (match Verify.verify_module m with
  | [] -> ()
  | errs ->
      List.iter print_endline errs;
      exit 1);

  print_endline "--- reference interpreter ---";
  let st = Interp.create m in
  (try ignore (Interp.run_main st)
   with Interp.Trap k ->
     Printf.printf "[program terminated by trap: %s]\n" (Interp.trap_to_string k));
  print_string (Interp.output st);

  print_endline "--- x86-lite native ---";
  let cm = X86lite.Compile.compile_module (Resolve.parse_module program) in
  let sim = Codegen.Machine.create X86lite.Sim.machine cm in
  Codegen.Machine.init_stack sim;
  (try ignore (Codegen.Machine.call_function sim "main" []) with
  | Vmem.Guest.Trap Vmem.Guest.Division_by_zero ->
      print_endline "[program terminated by trap: division by zero]"
  | Vmem.Guest.Trap _ -> print_endline "[program terminated by trap]");
  print_string (Codegen.Machine.output sim);
  print_endline "(the handler output above was produced by *native* code)"
