(* Parser / printer tests, including the paper's Fig. 2 example and a
   qcheck round-trip property over randomly generated modules. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The paper's Fig. 2(b) function, transliterated. *)
let fig2 =
  {|
; ModuleID = 'fig2'
target pointersize = 32
target endian = little
%struct.QuadTree = type { double, [4 x %QT*] }
%QT = type %struct.QuadTree

void %Sum3rdChildren(%QT* %T, double* %Result) {
entry:
  %V = alloca double
  %tmp.0 = seteq %QT* %T, null
  br bool %tmp.0, label %endif, label %else
else:
  %tmp.1 = getelementptr %QT* %T, long 0, ubyte 1, long 3
  %Child3 = load %QT** %tmp.1
  call void %Sum3rdChildren(%QT* %Child3, double* %V)
  %tmp.2 = load double* %V
  %tmp.3 = getelementptr %QT* %T, long 0, ubyte 0
  %tmp.4 = load double* %tmp.3
  %Ret.0 = add double %tmp.2, %tmp.4
  br label %endif
endif:
  %Ret.1 = phi double [ %Ret.0, %else ], [ 0.0, %entry ]
  store double %Ret.1, double* %Result
  ret void
}
|}

let test_fig2_parses () =
  let m = Resolve.parse_module ~name:"fig2" fig2 in
  check_int "one function" 1 (List.length m.Ir.funcs);
  check_int "typedefs" 2 (List.length m.Ir.typedefs);
  let f = Option.get (Ir.find_func m "Sum3rdChildren") in
  check_int "blocks" 3 (List.length f.Ir.fblocks);
  check_int "instrs" 14 (Ir.instr_count f);
  check_bool "verifies" true (Verify.verify_module m = []);
  check_bool "pointer size" true (m.Ir.target.Target.ptr_size = 4)

let test_fig2_roundtrip () =
  let m = Resolve.parse_module fig2 in
  let printed = Pretty.module_to_string m in
  let m2 = Resolve.parse_module printed in
  let printed2 = Pretty.module_to_string m2 in
  check_string "printer fixpoint" printed printed2;
  check_bool "reparse verifies" true (Verify.verify_module m2 = [])

let test_globals_roundtrip () =
  let src =
    {|
%msg = constant [6 x sbyte] c"hello\00"
%counter = global int 42
%table = global [3 x int] [ int 1, int 2, int 3 ]
%pair = global { int, double } { int 7, double 2.5 }
%ptr = global int* null
%zero = global [8 x double] zeroinitializer
%fptr = global void ()* %f

void %f() {
entry:
  ret void
}
|}
  in
  let m = Resolve.parse_module src in
  check_int "globals" 7 (List.length m.Ir.globals);
  let printed = Pretty.module_to_string m in
  let m2 = Resolve.parse_module printed in
  check_string "fixpoint" printed (Pretty.module_to_string m2);
  (* check the function-pointer initializer survived *)
  let fptr = Option.get (Ir.find_global m2 "fptr") in
  match (Option.get fptr.Ir.ginit).Ir.ckind with
  | Ir.Cglobal_ref "f" -> ()
  | _ -> Alcotest.fail "fptr initializer lost"

let test_all_instructions_roundtrip () =
  let src =
    {|
declare int %ext(int)
%g = global int 0

int %kitchen_sink(int %a, int %b, bool %c, double %x, int* %p) {
entry:
  %s1 = add int %a, %b
  %s2 = sub int %s1, %b
  %s3 = mul int %s2, %a
  %s4 = div int %s3, %b
  %s5 = rem int %s4, %b
  %b1 = and int %s5, %a
  %b2 = or int %b1, %b
  %b3 = xor int %b2, %a
  %sh1 = shl int %b3, ubyte 2
  %sh2 = shr int %sh1, ubyte 1
  %c1 = seteq int %sh2, %a
  %c2 = setne int %sh2, %a
  %c3 = setlt int %sh2, %a
  %c4 = setgt int %sh2, %a
  %c5 = setle int %sh2, %a
  %c6 = setge int %sh2, %a
  %mem = alloca int, uint 4
  store int %s1, int* %mem
  %lv = load int* %mem
  %gp = getelementptr int* %mem, long 2
  %cast1 = cast int %lv to double
  %cast2 = cast double %cast1 to int
  %call1 = call int %ext(int %cast2)
  %iv = invoke int %ext(int %call1) to label %cont except label %handler
cont:
  mbr int %iv, label %deflt [ int 1, label %one, int 2, label %two ]
one:
  br label %merge
two:
  br label %merge
deflt:
  br bool %c, label %merge, label %handler
handler:
  unwind
merge:
  %m = phi int [ 1, %one ], [ 2, %two ], [ 3, %deflt ]
  %dis = add int %m, %a @ee(true)
  %en = div int %m, %a @ee(false)
  ret int %m
}
|}
  in
  let m = Resolve.parse_module src in
  check_bool "verifies" true (Verify.verify_module m = []);
  let printed = Pretty.module_to_string m in
  let m2 = Resolve.parse_module printed in
  check_string "fixpoint" printed (Pretty.module_to_string m2);
  (* the @ee attribute round-trips *)
  let f = Option.get (Ir.find_func m2 "kitchen_sink") in
  let found_dis = ref false and found_en = ref false in
  Ir.iter_instrs
    (fun i ->
      if i.Ir.iname = "dis" then begin
        found_dis := true;
        check_bool "add with @ee(true)" true i.Ir.exceptions_enabled
      end;
      if i.Ir.iname = "en" then begin
        found_en := true;
        check_bool "div with @ee(false)" false i.Ir.exceptions_enabled
      end)
    f;
  check_bool "found dis" true !found_dis;
  check_bool "found en" true !found_en

let test_parse_errors () =
  let bad src =
    match Resolve.parse_module src with
    | exception Parser.Error _ -> true
    | exception Resolve.Error _ -> true
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  check_bool "unknown instruction" true
    (bad "void %f() {\nentry:\n  frobnicate int 1\n}");
  check_bool "unknown value" true
    (bad "void %f() {\nentry:\n  %x = add int %nope, 1\n  ret void\n}");
  check_bool "duplicate ssa name" true
    (bad
       "void %f() {\nentry:\n  %x = add int 1, 1\n  %x = add int 2, 2\n  ret void\n}");
  check_bool "unterminated string" true (bad "%s = constant [2 x sbyte] c\"a");
  check_bool "unknown block" true
    (bad "void %f() {\nentry:\n  br label %nowhere\n}");
  check_bool "load through a non-pointer" true
    (bad "int %f() {\nentry:\n  %x = load int 5\n  ret int %x\n}");
  check_bool "integer constant of pointer type" true
    (bad "int* %f() {\nentry:\n  %x = add int* 1, 2\n  ret int* %x\n}")

let test_default_exception_attrs () =
  let src =
    {|
void %f(int* %p, int %a, int %b) {
entry:
  %l = load int* %p
  %d = div int %a, %b
  %s = add int %a, %b
  store int %s, int* %p
  ret void
}
|}
  in
  let m = Resolve.parse_module src in
  let f = Option.get (Ir.find_func m "f") in
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Load | Ir.Store | Ir.Binop Ir.Div ->
          check_bool ("default ee " ^ Ir.opcode_name i.Ir.op) true
            i.Ir.exceptions_enabled
      | Ir.Binop Ir.Add ->
          check_bool "add default off" false i.Ir.exceptions_enabled
      | _ -> ())
    f

(* ---------- qcheck round-trip over generated straight-line modules ---------- *)

let gen_module : Ir.modl QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* n_instrs = int_range 1 30 in
    let* seed = int_range 0 1_000_000 in
    let rand = Random.State.make [| seed |] in
    let m = Ir.mk_module ~name:"gen" () in
    let f =
      Ir.mk_func ~name:"gen_main" ~return:Types.Int
        ~params:[ ("a", Types.Int); ("b", Types.Int) ]
        ()
    in
    Ir.add_func m f;
    let b = Ir.mk_block ~name:"entry" () in
    Ir.append_block f b;
    let bld = Builder.create m in
    Builder.position_at_end b bld;
    let pool =
      ref
        [ Ir.Varg (List.nth f.Ir.fargs 0); Ir.Varg (List.nth f.Ir.fargs 1) ]
    in
    let pick () = List.nth !pool (Random.State.int rand (List.length !pool)) in
    for _ = 1 to n_instrs do
      let ops = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor |] in
      let op = ops.(Random.State.int rand (Array.length ops)) in
      let v = Builder.binop bld op (pick ()) (pick ()) in
      pool := v :: !pool
    done;
    Builder.ret bld (Some (pick ()));
    return m
  in
  QCheck.make gen ~print:(fun m -> Pretty.module_to_string m)

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:100 gen_module (fun m ->
      let printed = Pretty.module_to_string m in
      let m2 = Resolve.parse_module printed in
      Verify.verify_module m2 = []
      && String.equal printed (Pretty.module_to_string m2))

let suite =
  [
    Alcotest.test_case "fig2 parses" `Quick test_fig2_parses;
    Alcotest.test_case "fig2 roundtrip" `Quick test_fig2_roundtrip;
    Alcotest.test_case "globals roundtrip" `Quick test_globals_roundtrip;
    Alcotest.test_case "all instructions roundtrip" `Quick
      test_all_instructions_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "default exception attrs" `Quick
      test_default_exception_attrs;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]

(* fuzz: arbitrary text never hangs or escapes the declared error types *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser total on junk input" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun junk ->
      match Resolve.parse_module junk with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Lexer.Error _ -> true
      | exception Resolve.Error _ -> true
      | exception _ -> false)

(* fuzz: mutated valid programs also stay within the error contract *)
let prop_parser_total_mutated =
  QCheck.Test.make ~name:"parser total on mutated programs" ~count:300
    QCheck.(pair (int_range 0 10_000) (int_range 0 255))
    (fun (pos, byte) ->
      let base = fig2 in
      let pos = pos mod String.length base in
      let mutated =
        String.mapi (fun k c -> if k = pos then Char.chr byte else c) base
      in
      match Resolve.parse_module mutated with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Lexer.Error _ -> true
      | exception Resolve.Error _ -> true
      | exception Types.Unresolved _ -> true
      | exception _ -> false)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parser_total;
      QCheck_alcotest.to_alcotest prop_parser_total_mutated;
    ]

(* float constants survive print/parse exactly (the printer uses hex-float
   notation when needed) *)
let prop_float_roundtrip =
  QCheck.Test.make ~name:"float constant print/parse roundtrip" ~count:300
    QCheck.float (fun x ->
      QCheck.assume (Float.is_finite x);
      let m = Ir.mk_module ~name:"f" () in
      let g =
        Ir.mk_global ~name:"g" ~ty:Types.Double
          ~init:{ Ir.cty = Types.Double; ckind = Ir.Cfloat x }
          ()
      in
      Ir.add_global m g;
      let m2 = Resolve.parse_module (Pretty.module_to_string m) in
      match (Option.get (Ir.find_global m2 "g")).Ir.ginit with
      | Some { Ir.ckind = Ir.Cfloat y; _ } ->
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      | _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_float_roundtrip ]
