(* MiniC front-end tests: real C programs through the full pipeline
   (compile -> verify -> interpret and both back-ends must agree), plus
   diagnostics. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let compile src = Minic.Mcodegen.compile_and_verify ~name:"test" src

(* run through interpreter; returns (exit code, output) *)
let run_c ?(fuel = 10_000_000) src =
  let m = compile src in
  let st = Interp.create ~fuel m in
  let code = Interp.run_main st in
  (code, Interp.output st)

(* run through every engine; all must agree *)
let run_everywhere ?(fuel = 10_000_000) src =
  let reference = run_c ~fuel src in
  let m1 = compile src in
  let x86 = X86lite.Compile.compile_module m1 in
  let xcode, xst =
    Codegen.Machine.run_main ~fuel:(fuel * 8) X86lite.Sim.machine x86
  in
  if (xcode, Codegen.Machine.output xst) <> reference then
    Alcotest.failf "x86 disagrees: (%d,%S) vs (%d,%S)" xcode
      (Codegen.Machine.output xst) (fst reference) (snd reference);
  let m2 = compile src in
  let sparc = Sparclite.Compile.compile_module m2 in
  let scode, sst =
    Codegen.Machine.run_main ~fuel:(fuel * 8) Sparclite.Sim.machine sparc
  in
  if (scode, Codegen.Machine.output sst) <> reference then
    Alcotest.failf "sparc disagrees: (%d,%S) vs (%d,%S)" scode
      (Codegen.Machine.output sst) (fst reference) (snd reference);
  (* optimized also agrees *)
  let m3 = Minic.Mcodegen.compile_and_verify ~optimize:2 src in
  let st = Interp.create ~fuel m3 in
  let ocode = Interp.run_main st in
  if (ocode, Interp.output st) <> reference then
    Alcotest.failf "optimized disagrees: (%d,%S) vs (%d,%S)" ocode
      (Interp.output st) (fst reference) (snd reference);
  reference

let test_hello () =
  let code, out =
    run_everywhere
      {|
int main() {
  print_str("hello, world");
  print_nl();
  return 0;
}
|}
  in
  check_int "exit" 0 code;
  check_string "output" "hello, world\n" out

let test_factorial () =
  let code, out =
    run_everywhere
      {|
int fact(int n) {
  if (n <= 1) return 1;
  return n * fact(n - 1);
}
int main() {
  print_int(fact(10));
  return fact(5);
}
|}
  in
  check_int "fact 5" 120 code;
  check_string "fact 10" "3628800" out

let test_loops_and_arrays () =
  let code, out =
    run_everywhere
      {|
int main() {
  int a[10];
  int i, sum;
  for (i = 0; i < 10; i++) a[i] = i * i;
  sum = 0;
  for (i = 0; i < 10; i++) sum += a[i];
  print_int(sum);
  return 0;
}
|}
  in
  check_int "exit" 0 code;
  check_string "sum of squares" "285" out

let test_bubble_sort () =
  let _, out =
    run_everywhere
      {|
void sort(int *a, int n) {
  int i, j, t;
  for (i = 0; i < n - 1; i++)
    for (j = 0; j < n - 1 - i; j++)
      if (a[j] > a[j+1]) { t = a[j]; a[j] = a[j+1]; a[j+1] = t; }
}
int main() {
  int data[8];
  int i;
  data[0] = 42; data[1] = 7; data[2] = 19; data[3] = 3;
  data[4] = 99; data[5] = 1; data[6] = 55; data[7] = 23;
  sort(data, 8);
  for (i = 0; i < 8; i++) { print_int(data[i]); print_char(' '); }
  return 0;
}
|}
  in
  check_string "sorted" "1 3 7 19 23 42 55 99 " out

let test_structs_and_pointers () =
  let code, out =
    run_everywhere
      {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; };

int area(struct rect *r) {
  return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
}
int main() {
  struct rect r;
  r.lo.x = 1; r.lo.y = 2;
  r.hi.x = 11; r.hi.y = 7;
  print_int(area(&r));
  return area(&r);
}
|}
  in
  check_int "area" 50 code;
  check_string "area printed" "50" out

let test_linked_list () =
  let _, out =
    run_everywhere
      {|
typedef struct Node { int value; struct Node *next; } Node;

Node *push(Node *head, int v) {
  Node *n = (Node *) malloc(sizeof(Node));
  n->value = v;
  n->next = head;
  return n;
}
int main() {
  Node *head = 0;
  int i, sum = 0;
  for (i = 1; i <= 10; i++) head = push(head, i);
  while (head) {
    sum += head->value;
    Node *dead = head;
    head = head->next;
    free((void*)dead);
  }
  print_int(sum);
  return 0;
}
|}
  in
  check_string "list sum" "55" out

let test_strings () =
  let _, out =
    run_everywhere
      {|
int my_strcmp(char *a, char *b) {
  while (*a && *a == *b) { a++; b++; }
  return (int)*a - (int)*b;
}
int main() {
  char buf[16];
  char *msg = "minic";
  int i = 0;
  while (msg[i]) { buf[i] = msg[i]; i++; }
  buf[i] = '\0';
  print_str(buf);
  print_nl();
  print_int(my_strcmp(buf, "minic"));
  print_int(my_strcmp("apple", "banana") < 0 ? -1 : 1);
  return 0;
}
|}
  in
  check_string "strings" "minic\n0-1" out

let test_switch () =
  let _, out =
    run_everywhere
      {|
int classify(int x) {
  switch (x) {
    case 0: return 100;
    case 1:
    case 2: return 200;
    case 3: {
      int t = x * 10;
      return t;
    }
    default: return -1;
  }
}
int main() {
  int i;
  for (i = 0; i < 5; i++) { print_int(classify(i)); print_char(','); }
  return 0;
}
|}
  in
  check_string "switch" "100,200,200,30,-1," out

let test_switch_fallthrough () =
  let _, out =
    run_everywhere
      {|
int main() {
  int i, acc = 0;
  for (i = 0; i < 4; i++) {
    switch (i) {
      case 0: acc += 1;  /* falls through */
      case 1: acc += 10; break;
      case 2: acc += 100; break;
      default: acc += 1000;
    }
  }
  print_int(acc);
  return 0;
}
|}
  in
  check_string "fallthrough" "1121" out

let test_function_pointers () =
  let _, out =
    run_everywhere
      {|
int twice(int x) { return 2 * x; }
int square(int x) { return x * x; }

int apply(int (*f)(int), int v) { return f(v); }

int main() {
  int (*ops[2])(int);
  int i;
  ops[0] = twice;
  ops[1] = square;
  for (i = 0; i < 2; i++) print_int(apply(ops[i], 6));
  return 0;
}
|}
  in
  check_string "fn pointers" "1236" out

let test_floats () =
  let _, out =
    run_everywhere
      {|
double poly(double x) { return 2.0 * x * x - 3.0 * x + 1.0; }

int main() {
  double sum = 0.0;
  int i;
  for (i = 0; i < 10; i++) sum += poly((double)i / 2.0);
  print_float(sum);
  print_nl();
  float f = 1.5f;
  double d = f * 2.0;
  print_float(d);
  return 0;
}
|}
  in
  check_string "floats" "85\n3" out

let test_unsigned_and_bits () =
  let _, out =
    run_everywhere
      {|
unsigned hash(unsigned x) {
  x ^= x >> 16;
  x *= 2654435761u;
  x ^= x >> 13;
  return x;
}
int main() {
  unsigned h = hash(12345);
  print_long((long)h);
  print_nl();
  unsigned char b = 200;
  b = b + 100;               /* wraps to 44 */
  print_int((int)b);
  print_nl();
  short s = 32767;
  s = s + 1;                 /* wraps negative */
  print_int((int)s);
  return 0;
}
|}
  in
  let parts = String.split_on_char '\n' out in
  check_int "three lines" 3 (List.length parts);
  check_string "uchar wrap" "44" (List.nth parts 1);
  check_string "short wrap" "-32768" (List.nth parts 2)

let test_globals () =
  let _, out =
    run_everywhere
      {|
int counter = 5;
int table[4] = {10, 20, 30, 40};
char *name = "global";
struct cfg { int a; int b; };
struct cfg conf = {7, 9};

int bump() { counter++; return counter; }

int main() {
  print_int(bump());
  print_int(bump());
  print_int(table[2]);
  print_str(name);
  print_int(conf.a + conf.b);
  return 0;
}
|}
  in
  check_string "globals" "6730global16" out

let test_enum_and_sizeof () =
  let _, out =
    run_everywhere
      {|
enum { RED, GREEN = 5, BLUE };
typedef struct Big { long a; int b; char c; } Big;

int main() {
  print_int(RED);
  print_int(GREEN);
  print_int(BLUE);
  print_nl();
  print_int((int)sizeof(int));
  print_int((int)sizeof(long));
  print_int((int)(sizeof(Big) >= 13u ? 1 : 0));
  return 0;
}
|}
  in
  check_string "enum+sizeof" "056\n481" out

let test_short_circuit () =
  let _, out =
    run_everywhere
      {|
int calls = 0;
int noisy(int v) { calls++; return v; }

int main() {
  int r1 = noisy(0) && noisy(1);   /* short-circuits: 1 call */
  int r2 = noisy(1) || noisy(1);   /* short-circuits: 1 call */
  print_int(r1); print_int(r2); print_int(calls);
  return 0;
}
|}
  in
  check_string "short circuit" "012" out

let test_ternary_and_incr () =
  let _, out =
    run_everywhere
      {|
int main() {
  int a = 5;
  int b = a++ + ++a;   /* 5 + 7 */
  int c = a > 6 ? a * 2 : a - 1;
  int arr[3];
  int *p = arr;
  arr[0] = 1; arr[1] = 2; arr[2] = 3;
  p++;
  print_int(b); print_char(' ');
  print_int(c); print_char(' ');
  print_int(*p); print_char(' ');
  print_int(*(p + 1));
  return 0;
}
|}
  in
  check_string "incr/ternary/ptr" "12 14 2 3" out

let test_2d_array () =
  let _, out =
    run_everywhere
      {|
int main() {
  int grid[4][4];
  int i, j, trace = 0;
  for (i = 0; i < 4; i++)
    for (j = 0; j < 4; j++)
      grid[i][j] = i * 4 + j;
  for (i = 0; i < 4; i++) trace += grid[i][i];
  print_int(trace);
  return 0;
}
|}
  in
  check_string "2d trace" "30" out

let test_do_while_break_continue () =
  let _, out =
    run_everywhere
      {|
int main() {
  int i = 0, acc = 0;
  do {
    i++;
    if (i % 2 == 0) continue;
    if (i > 9) break;
    acc += i;
  } while (i < 100);
  print_int(acc);
  return 0;
}
|}
  in
  check_string "do/break/continue" "25" out

let test_compile_errors () =
  let fails src =
    match Minic.Mcodegen.compile_and_verify src with
    | exception Minic.Mcodegen.Error _ -> true
    | exception Minic.Mparser.Error _ -> true
    | exception Minic.Mlexer.Error _ -> true
    | _ -> false
  in
  check_bool "unknown variable" true (fails "int main() { return x; }");
  check_bool "bad call arity" true
    (fails "int f(int a) { return a; } int main() { return f(); }");
  check_bool "unknown field" true
    (fails
       "struct s { int a; }; int main() { struct s v; return v.nope; }");
  check_bool "syntax error" true (fails "int main() { return 1 + ; }");
  check_bool "deref non-pointer" true
    (fails "int main() { int x; return *x; }")

let test_mem2reg_on_minic () =
  (* the front-end emits allocas for everything; mem2reg should remove
     nearly all of them *)
  let m =
    compile
      {|
int gcd(int a, int b) {
  while (b != 0) { int t = b; b = a % b; a = t; }
  return a;
}
int main() { return gcd(252, 105); }
|}
  in
  let count_allocas () =
    List.fold_left
      (fun acc f ->
        Llva.Ir.fold_instrs
          (fun n i -> if i.Llva.Ir.op = Llva.Ir.Alloca then n + 1 else n)
          acc f)
      0 m.Llva.Ir.funcs
  in
  let before = count_allocas () in
  check_bool "allocas before" true (before >= 3);
  ignore (Transform.Simplifycfg.run_module m);
  ignore (Transform.Mem2reg.run_module m);
  check_int "allocas after" 0 (count_allocas ());
  let st = Interp.create m in
  check_int "gcd" 21 (Interp.run_main st)

(* ---------- the lexer against its reference ---------- *)

(* A workload source, cut short or with three bytes overwritten by
   printable characters, chosen by [rand]. *)
let mutate rand src =
  let n = String.length src in
  if n = 0 || Random.State.bool rand then String.sub src 0 (Random.State.int rand (n + 1))
  else begin
    let b = Bytes.of_string src in
    for _ = 1 to 3 do
      Bytes.set b (Random.State.int rand n) (Char.chr (32 + Random.State.int rand 95))
    done;
    Bytes.to_string b
  end

let gen_mutant : (string * string) QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* k = int_bound (List.length Workloads.all - 1) in
    let* seed = int_range 0 10_000_000 in
    let w = List.nth Workloads.all k in
    return (w.Workloads.name, mutate (Random.State.make [| seed |]) w.Workloads.source)
  in
  QCheck.make gen ~print:(fun (name, src) -> Printf.sprintf "%s:\n%s" name src)

type lexed = Tok of Minic.Mlexer.token * int | Err of string * int

(* every token with the line after it, up to the end or the first error *)
let lex_all src =
  let lx = Minic.Mlexer.create src in
  let rec go acc =
    match Minic.Mlexer.next lx with
    | Minic.Mlexer.Teof -> List.rev (Tok (Minic.Mlexer.Teof, Minic.Mlexer.line lx) :: acc)
    | t -> go (Tok (t, Minic.Mlexer.line lx) :: acc)
    | exception Minic.Mlexer.Error (msg, line) -> List.rev (Err (msg, line) :: acc)
  in
  go []

(* the same from the reference; its raw [Invalid_argument] on a char
   literal cut off by the end is what [Mlexer] now reports as an error *)
let lex_all_ref src =
  let lx = Lexer_ref.create src in
  let rec go acc =
    match Lexer_ref.next lx with
    | Minic.Mlexer.Teof -> List.rev (Tok (Minic.Mlexer.Teof, Lexer_ref.line lx) :: acc)
    | t -> go (Tok (t, Lexer_ref.line lx) :: acc)
    | exception Lexer_ref.Error (msg, line) -> List.rev (Err (msg, line) :: acc)
    | exception Invalid_argument _ ->
        List.rev (Err ("unterminated char literal", Lexer_ref.line lx) :: acc)
  in
  go []

let test_lexer_workloads () =
  List.iter
    (fun (w : Workloads.workload) ->
      check_bool w.Workloads.name true (lex_all w.source = lex_all_ref w.source))
    Workloads.all

let prop_lexer_mutants =
  QCheck.Test.make ~name:"lexer agrees with its reference on mutants" ~count:500
    gen_mutant (fun (_, src) -> lex_all src = lex_all_ref src)

let test_char_literal_at_end () =
  List.iter
    (fun src ->
      match Minic.Mcodegen.compile src with
      | exception Minic.Mlexer.Error (msg, _) ->
          check_string src "unterminated char literal" msg
      | exception e -> Alcotest.failf "%S raised %s" src (Printexc.to_string e)
      | _ -> Alcotest.failf "%S compiled" src)
    [ "int main() { return '"; "int main() { return '\\"; "int main() { return 'a" ]

(* Seeded truncations and three-byte printable mutations of every
   workload source, 1,000 per workload at seed 7: each compiles to a
   module that verifies, or the front end refuses it with a lexer, parser
   or code generation error. No other exception may escape. *)
let test_front_end_robust () =
  List.iter
    (fun (w : Workloads.workload) ->
      let rand = Random.State.make [| 7 |] in
      for k = 1 to 1000 do
        let src = mutate rand w.Workloads.source in
        match Minic.Mcodegen.compile ~name:w.name src with
        | m -> (
            match Llva.Verify.verify_module m with
            | [] -> ()
            | e :: _ -> Alcotest.failf "%s mutant %d: invalid code: %s" w.name k e)
        | exception (Minic.Mlexer.Error _ | Minic.Mparser.Error _ | Minic.Mcodegen.Error _)
          ->
            ()
        | exception e ->
            Alcotest.failf "%s mutant %d raised %s" w.name k (Printexc.to_string e)
      done)
    Workloads.all

(* Unary - and ~ promote a char or short operand to int, as C does, and
   every engine computes the same result. *)
let test_unary_promotion () =
  let src =
    {|
int main() {
  char c = 1; short s = 300; unsigned char uc = 200; unsigned short us = 65000;
  c = ~c; print_int(c); print_char(' ');
  c = -c; print_int(c); print_char(' ');
  s = -s; print_int(s); print_char(' ');
  s = ~s; print_int(s); print_char(' ');
  print_int(-uc); print_char(' ');
  print_int(~us); print_char(' ');
  print_int(-(char)-128);
  return ~c & 255;
}
|}
  in
  List.iter
    (fun level ->
      let m = Minic.Mcodegen.compile_and_verify ~optimize:level src in
      List.iter
        (fun (engine, o, out) ->
          check_string
            (Printf.sprintf "%s at -O%d" engine level)
            "exit 253: -2 2 -300 299 -200 -65001 128"
            (Printf.sprintf "exit %d: %s" (Llee.Outcome.exit_code o) out))
        (Gen.engine_results m))
    [ 0; 1; 2 ]

let suite =
  [
    Alcotest.test_case "hello" `Quick test_hello;
    Alcotest.test_case "factorial" `Quick test_factorial;
    Alcotest.test_case "loops and arrays" `Quick test_loops_and_arrays;
    Alcotest.test_case "bubble sort" `Quick test_bubble_sort;
    Alcotest.test_case "structs" `Quick test_structs_and_pointers;
    Alcotest.test_case "linked list" `Quick test_linked_list;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "switch" `Quick test_switch;
    Alcotest.test_case "switch fallthrough" `Quick test_switch_fallthrough;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "unsigned and bits" `Quick test_unsigned_and_bits;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "enum and sizeof" `Quick test_enum_and_sizeof;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "ternary and incr" `Quick test_ternary_and_incr;
    Alcotest.test_case "2d arrays" `Quick test_2d_array;
    Alcotest.test_case "do while break continue" `Quick
      test_do_while_break_continue;
    Alcotest.test_case "compile errors" `Quick test_compile_errors;
    Alcotest.test_case "mem2reg on minic" `Quick test_mem2reg_on_minic;
    Alcotest.test_case "lexer agrees with its reference" `Quick
      test_lexer_workloads;
    QCheck_alcotest.to_alcotest prop_lexer_mutants;
    Alcotest.test_case "char literal cut off by the end" `Quick
      test_char_literal_at_end;
    Alcotest.test_case "unary - and ~ promote char and short (five engines)"
      `Quick test_unary_promotion;
    Alcotest.test_case "front end refuses mutated sources cleanly" `Quick
      test_front_end_robust;
  ]
