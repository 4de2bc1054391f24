(* Virtual object code tests: byte-level round-trips, semantic round-trips
   through the interpreter, compactness, and malformed-input rejection. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let program =
  {|
%greeting = constant [6 x sbyte] c"hello\00"
%counter = global int 0
declare void %print_int(int)

int %sum_to(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 1, %entry ], [ %inext, %loop ]
  %acc = phi int [ 0, %entry ], [ %anext, %loop ]
  %anext = add int %acc, %i
  %inext = add int %i, 1
  %done = setgt int %inext, %n
  br bool %done, label %exit, label %loop
exit:
  ret int %anext
}

int %main() {
entry:
  %r = call int %sum_to(int 10)
  call void %print_int(int %r)
  ret int %r
}
|}

let test_roundtrip_structure () =
  let m = Resolve.parse_module program in
  let bytes = Encode.encode m in
  let m2 = Decode.decode bytes in
  check_bool "decoded verifies" true (Verify.verify_module m2 = []);
  check_int "function count" (List.length m.Ir.funcs) (List.length m2.Ir.funcs);
  check_int "global count" (List.length m.Ir.globals) (List.length m2.Ir.globals);
  check_int "instr count"
    (Ir.module_instr_count m)
    (Ir.module_instr_count m2);
  (* encode of decode is a fixpoint *)
  let bytes2 = Encode.encode m2 in
  check_bool "byte fixpoint" true (String.equal bytes bytes2)

let test_roundtrip_semantics () =
  let m = Resolve.parse_module program in
  let m2 = Decode.decode (Encode.encode m) in
  let st = Interp.create m in
  let st2 = Interp.create m2 in
  let c1 = Interp.run_main st in
  let c2 = Interp.run_main st2 in
  check_int "same exit code" c1 c2;
  Alcotest.(check string) "same output" (Interp.output st) (Interp.output st2);
  check_int "sum is 55" 55 c1

let test_target_flags_roundtrip () =
  List.iter
    (fun target ->
      let m = Ir.mk_module ~name:"t" ~target () in
      let f = Ir.mk_func ~name:"main" ~return:Types.Int ~params:[] () in
      Ir.add_func m f;
      let b = Ir.mk_block ~name:"entry" () in
      Ir.append_block f b;
      Ir.append_instr b
        (Ir.mk_instr Ir.Ret [| Ir.const_int Types.Int 0L |] Types.Void);
      let m2 = Decode.decode (Encode.encode m) in
      check_bool
        ("target preserved: " ^ Target.to_string target)
        true
        (Target.equal m2.Ir.target target))
    Target.all

let test_exception_attr_roundtrip () =
  let src =
    {|
int %main() {
entry:
  %a = add int 1, 2 @ee(true)
  %b = div int %a, 3 @ee(false)
  ret int %b
}
|}
  in
  let m2 = Decode.decode (Encode.encode (Resolve.parse_module src)) in
  let f = Option.get (Ir.find_func m2 "main") in
  let seen = ref 0 in
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Binop Ir.Add ->
          incr seen;
          check_bool "add ee on" true i.Ir.exceptions_enabled
      | Ir.Binop Ir.Div ->
          incr seen;
          check_bool "div ee off" false i.Ir.exceptions_enabled
      | _ -> ())
    f;
  check_int "both found" 2 !seen

let test_compactness () =
  (* Most instructions use the 4-byte compact form, so the marginal cost of
     an instruction must stay near one 32-bit word once fixed headers are
     amortized (paper §3.1). *)
  let build n =
    let m = Ir.mk_module ~name:"big" () in
    let f =
      Ir.mk_func ~name:"main" ~return:Types.Int ~params:[ ("a", Types.Int) ] ()
    in
    Ir.add_func m f;
    let b = Ir.mk_block ~name:"entry" () in
    Ir.append_block f b;
    let bld = Builder.create m in
    Builder.position_at_end b bld;
    let v = ref (Ir.Varg (List.hd f.Ir.fargs)) in
    for k = 1 to n do
      v := Builder.add bld !v (Ir.const_int Types.Int (Int64.of_int (k mod 7)))
    done;
    Builder.ret bld (Some !v);
    m
  in
  let small = String.length (Encode.encode (build 100)) in
  let large = String.length (Encode.encode (build 1100)) in
  let marginal = float_of_int (large - small) /. 1000.0 in
  check_bool
    (Printf.sprintf "marginal cost %.2f bytes/instr" marginal)
    true
    (marginal < 6.0 && marginal >= 4.0)

let test_malformed () =
  let reject name data =
    check_bool name true
      (try
         ignore (Decode.decode data);
         false
       with Decode.Error _ -> true)
  in
  reject "bad magic" "NOPE\x01\x00";
  reject "empty" "";
  reject "bad version" "LLVA\x09\x00";
  let m = Resolve.parse_module program in
  let bytes = Encode.encode m in
  reject "truncated" (String.sub bytes 0 (String.length bytes / 2))

let test_string_constants () =
  let src =
    {|
%msg = constant [7 x sbyte] c"\22q\5C\22z\00\00"
int %main() {
entry:
  ret int 0
}
|}
  in
  let m = Resolve.parse_module src in
  let m2 = Decode.decode (Encode.encode m) in
  let g = Option.get (Ir.find_global m2 "msg") in
  match (Option.get g.Ir.ginit).Ir.ckind with
  | Ir.Cstring s -> Alcotest.(check string) "escapes survive" "\"q\\\"z\000" s
  | _ -> Alcotest.fail "string initializer lost"

let suite =
  [
    Alcotest.test_case "roundtrip structure" `Quick test_roundtrip_structure;
    Alcotest.test_case "roundtrip semantics" `Quick test_roundtrip_semantics;
    Alcotest.test_case "target flags" `Quick test_target_flags_roundtrip;
    Alcotest.test_case "exception attrs" `Quick test_exception_attr_roundtrip;
    Alcotest.test_case "compactness" `Quick test_compactness;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "string constants" `Quick test_string_constants;
  ]

(* qcheck: encode/decode over random programs preserves verification,
   byte-level fixpoint, and behaviour *)
let prop_object_code_roundtrip =
  QCheck.Test.make ~name:"object code roundtrip (random programs)" ~count:60
    Gen.gen_memory_program (fun m ->
      let bytes = Encode.encode m in
      let m2 = Decode.decode bytes in
      Verify.verify_module m2 = []
      && String.equal bytes (Encode.encode m2)
      && Gen.run_interp m = Gen.run_interp m2)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_object_code_roundtrip ]

let test_non_compact_roundtrip () =
  (* the ablation encoding (self-extending form only) is bigger but fully
     equivalent *)
  let m = Resolve.parse_module program in
  let c = Encode.encode ~compact:true m in
  let nc = Encode.encode ~compact:false m in
  check_bool "compact is smaller" true (String.length c < String.length nc);
  let m2 = Decode.decode nc in
  check_bool "decodes and verifies" true (Verify.verify_module m2 = []);
  check_bool "same behaviour" true
    (Gen.run_interp m2 = Gen.run_interp (Resolve.parse_module program));
  (* re-encoding compactly reproduces the compact bytes *)
  check_bool "canonical re-encode" true (String.equal (Encode.encode m2) c)

let suite =
  suite
  @ [ Alcotest.test_case "non-compact roundtrip" `Quick test_non_compact_roundtrip ]

(* An opcode field naming no opcode (0, or 29-63) is malformed object
   code, in the compact and in the extended form alike. The one byte
   where an [add] and a [sub] module differ is the opcode byte. *)
let test_unknown_opcode () =
  let src op =
    Printf.sprintf "int %%main(int %%a) {\nentry:\n  %%x = %s int %%a, 1\n  ret int %%x\n}\n" op
  in
  List.iter
    (fun compact ->
      let enc op = Encode.encode ~compact (Resolve.parse_module (src op)) in
      let a = enc "add" and s = enc "sub" in
      let diffs =
        List.filter (fun k -> a.[k] <> s.[k]) (List.init (String.length a) Fun.id)
      in
      check_int "one opcode byte differs" 1 (List.length diffs);
      let p = List.hd diffs in
      List.iter
        (fun code ->
          let b = Bytes.of_string a in
          Bytes.set_uint8 b p ((Bytes.get_uint8 b p land 0xC0) lor code);
          match Decode.decode (Bytes.to_string b) with
          | _ -> Alcotest.failf "opcode %d decoded" code
          | exception Decode.Error msg ->
              Alcotest.(check string)
                "error names the opcode"
                (Printf.sprintf "unknown opcode %d" code)
                msg)
        [ 0; 29; 63 ])
    [ true; false ]

let suite =
  suite @ [ Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode ]

(* Mutated object code must end in [Decode.Error] or a verifier
   diagnostic, never in a raw OCaml exception. Each regression below is
   a one-byte mutant of a compact single-incoming phi, [phi int [%x,
   %entry]], whose operand bytes are 2 (%x, two slots back) and 128 (the
   first block); [phi_mutant off v] sets byte [off] of that instruction
   to [v]. *)
let phi_mutant off v =
  let src =
    "int %main(int %a) {\nentry:\n  %x = add int %a, 1\n  br label %next\nnext:\n\
    \  %p = phi int [ %x, %entry ]\n  ret int %p\n}\n"
  in
  let bytes = Encode.encode (Resolve.parse_module src) in
  let phi = 0x80 lor Ir.opcode_code Ir.Phi in
  let at =
    List.filter
      (fun k ->
        Char.code bytes.[k] = phi
        && Char.code bytes.[k + 2] = 2
        && Char.code bytes.[k + 3] = 128)
      (List.init (String.length bytes - 3) Fun.id)
  in
  check_int "one compact phi" 1 (List.length at);
  let b = Bytes.of_string bytes in
  Bytes.set_uint8 b (List.hd at + off) v;
  Bytes.to_string b

(* the value operand reaches back past the first argument *)
let test_mutant_negative_operand () =
  check_bool "decode error" true
    (match Decode.decode (phi_mutant 2 100) with
    | _ -> false
    | exception Decode.Error _ -> true)

let check_rejected mutant msg =
  let errs = Verify.verify_module (Decode.decode mutant) in
  check_bool msg true (List.exists (String.ends_with ~suffix:msg) errs)

(* the predecessor operand names the br instruction, not a label *)
let test_mutant_phi_non_label () =
  check_rejected (phi_mutant 3 1) "phi predecessor must be a label"

(* the predecessor operand is gone: one operand, an odd count *)
let test_mutant_phi_odd_count () =
  check_rejected (phi_mutant 3 0xFF) "phi operand count invalid"

let suite =
  suite
  @ [
      Alcotest.test_case "mutant: negative compact operand" `Quick
        test_mutant_negative_operand;
      Alcotest.test_case "mutant: phi predecessor not a label" `Quick
        test_mutant_phi_non_label;
      Alcotest.test_case "mutant: phi odd operand count" `Quick
        test_mutant_phi_odd_count;
    ]
