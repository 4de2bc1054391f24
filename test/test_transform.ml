(* Optimizer tests: each pass individually, pipelines, and a differential
   qcheck property — optimizing a random program must not change its
   observable behaviour (exit code + runtime output). *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Gen.parse
let run = Gen.run_interp
let clone = Gen.clone

let assert_valid m =
  match Verify.verify_module m with
  | [] -> ()
  | errs -> Alcotest.failf "invalid after pass: %s" (String.concat "; " errs)

let test_mem2reg () =
  (* the Fig. 2 pattern: a local variable through an alloca *)
  let m =
    parse
      {|
int %main() {
entry:
  %x = alloca int
  store int 10, int* %x
  %c = setgt int 5, 3
  br bool %c, label %then, label %done
then:
  %v = load int* %x
  %v2 = add int %v, 32
  store int %v2, int* %x
  br label %done
done:
  %r = load int* %x
  ret int %r
}
|}
  in
  let before = run (clone m) in
  let promoted = Transform.Mem2reg.run_module m in
  assert_valid m;
  check_int "one alloca promoted" 1 promoted;
  let after = run m in
  check_bool "same result" true (before = after);
  check_int "result is 42" 42 (fst after);
  (* no loads/stores remain *)
  let f = Option.get (Ir.find_func m "main") in
  let mem_ops =
    Ir.fold_instrs
      (fun n i ->
        match i.Ir.op with Ir.Load | Ir.Store | Ir.Alloca -> n + 1 | _ -> n)
      0 f
  in
  check_int "memory ops gone" 0 mem_ops

let test_mem2reg_loop () =
  let m =
    parse
      {|
int %main() {
entry:
  %sum = alloca int
  %i = alloca int
  store int 0, int* %sum
  store int 0, int* %i
  br label %loop
loop:
  %iv = load int* %i
  %done = setge int %iv, 10
  br bool %done, label %exit, label %body
body:
  %sv = load int* %sum
  %s2 = add int %sv, %iv
  store int %s2, int* %sum
  %i2 = add int %iv, 1
  store int %i2, int* %i
  br label %loop
exit:
  %r = load int* %sum
  ret int %r
}
|}
  in
  check_int "before" 45 (fst (run (clone m)));
  let promoted = Transform.Mem2reg.run_module m in
  assert_valid m;
  check_int "two promoted" 2 promoted;
  check_int "after" 45 (fst (run m));
  (* loop phis were introduced *)
  let f = Option.get (Ir.find_func m "main") in
  let phis =
    Ir.fold_instrs (fun n i -> if i.Ir.op = Ir.Phi then n + 1 else n) 0 f
  in
  check_bool "phis introduced" true (phis >= 2)

let test_sccp () =
  let m =
    parse
      {|
int %main() {
entry:
  %a = add int 2, 3
  %b = mul int %a, 4
  %c = seteq int %b, 20
  br bool %c, label %taken, label %nottaken
taken:
  ret int %b
nottaken:
  %huge = mul int %b, %b
  ret int %huge
}
|}
  in
  let n = Transform.Sccp.run_module m in
  assert_valid m;
  check_bool "propagated" true (n > 0);
  ignore (Transform.Simplifycfg.run_module m);
  ignore (Transform.Dce.run_module m);
  assert_valid m;
  check_int "result" 20 (fst (run m));
  (* the dead branch must be gone *)
  let f = Option.get (Ir.find_func m "main") in
  check_bool "dead block removed" true (List.length f.Ir.fblocks <= 2)

let test_sccp_through_phi () =
  (* constants must propagate through phis when only one edge is live *)
  let m =
    parse
      {|
int %main() {
entry:
  %t = seteq int 1, 1
  br bool %t, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %v = phi int [ 7, %a ], [ 9, %b ]
  ret int %v
}
|}
  in
  ignore (Transform.Sccp.run_module m);
  ignore (Transform.Simplifycfg.run_module m);
  ignore (Transform.Dce.run_module m);
  assert_valid m;
  check_int "phi folded to 7" 7 (fst (run m));
  let f = Option.get (Ir.find_func m "main") in
  let rets_const =
    Ir.fold_instrs
      (fun acc i ->
        acc
        || (i.Ir.op = Ir.Ret
            && Array.length i.Ir.operands = 1
            &&
            match i.Ir.operands.(0) with
            | Ir.Const { ckind = Ir.Cint 7L; _ } -> true
            | _ -> false))
      false f
  in
  check_bool "ret uses literal 7" true rets_const

let test_gvn () =
  let m =
    parse
      {|
int %main(int %x, int %y) {
entry:
  %a = add int %x, %y
  %b = add int %x, %y
  %c = add int %y, %x
  %s1 = mul int %a, %b
  %s2 = mul int %s1, %c
  ret int %s2
}
|}
  in
  let n = Transform.Gvn.run_module m in
  assert_valid m;
  (* b and c both collapse onto a (commutativity) *)
  check_int "two adds eliminated" 2 n

let test_gvn_loads () =
  let m =
    parse
      {|
%g = global int 5

int %main() {
entry:
  %x = alloca int
  %y = alloca int
  store int 1, int* %x
  store int 2, int* %y
  %v1 = load int* %x
  store int 9, int* %y
  %v2 = load int* %x
  %s = add int %v1, %v2
  ret int %s
}
|}
  in
  let before = run (clone m) in
  let n = Transform.Gvn.run_module m in
  assert_valid m;
  check_bool "redundant load removed" true (n >= 1);
  check_bool "semantics kept" true (before = run m);
  check_int "result 2" 2 (fst before)

let test_instcombine () =
  let m =
    parse
      {|
int %main(int %x) {
entry:
  %a = add int %x, 0
  %b = mul int %a, 1
  %c = mul int %b, 8
  %d = sub int %c, %c
  %e = or int %d, %b
  %f = div uint 100, 4
  %g = cast uint %f to int
  %h = add int %e, %g
  ret int %h
}
|}
  in
  let n = Transform.Instcombine.run_module m in
  assert_valid m;
  check_bool "simplified" true (n >= 4);
  let f = Option.get (Ir.find_func m "main") in
  (* mul by 8 became shl *)
  let has_shl =
    Ir.fold_instrs
      (fun acc i -> acc || i.Ir.op = Ir.Binop Ir.Shl)
      false f
  in
  check_bool "mul became shl" true has_shl

let test_instcombine_preserves_traps () =
  (* div by zero with exceptions enabled must NOT be folded away *)
  let m =
    parse
      "int %main() {\nentry:\n  %x = div int 1, 0\n  ret int 5\n}"
  in
  ignore (Transform.Instcombine.run_module m);
  ignore (Transform.Dce.run_module m);
  assert_valid m;
  let st = Interp.create m in
  check_bool "trap preserved" true
    (try
       ignore (Interp.run_main st);
       false
     with Interp.Trap Interp.Division_by_zero -> true)

let test_simplifycfg () =
  let m =
    parse
      {|
int %main() {
entry:
  br bool true, label %live, label %dead
live:
  br label %fwd
fwd:
  br label %tail
dead:
  %x = add int 1, 2
  br label %tail
tail:
  %v = phi int [ 0, %fwd ], [ %x, %dead ]
  ret int %v
}
|}
  in
  let n = Transform.Simplifycfg.run_module m in
  assert_valid m;
  check_bool "simplified" true (n > 0);
  check_int "result" 0 (fst (run m));
  let f = Option.get (Ir.find_func m "main") in
  check_int "single block remains" 1 (List.length f.Ir.fblocks)

let test_licm () =
  let m =
    parse
      {|
%g = global int 37

int %main(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %inext, %loop ]
  %acc = phi int [ 0, %entry ], [ %accnext, %loop ]
  %inv = mul int 6, 7
  %gv = load int* %g
  %t = add int %inv, %gv
  %accnext = add int %acc, %t
  %inext = add int %i, 1
  %done = setge int %inext, 10
  br bool %done, label %exit, label %loop
exit:
  ret int %accnext
}
|}
  in
  let before = run (clone m) in
  let n = Transform.Licm.run_module m in
  assert_valid m;
  check_bool "hoisted" true (n >= 2);
  check_bool "semantics kept" true (before = run m);
  (* the invariant mul and load are out of the loop *)
  let f = Option.get (Ir.find_func m "main") in
  let loops = Analysis.Loops.of_function f in
  let l = List.hd loops.Analysis.Loops.loops in
  let in_loop_muls =
    List.fold_left
      (fun acc (b : Ir.block) ->
        List.fold_left
          (fun acc (i : Ir.instr) ->
            match i.Ir.op with
            | Ir.Binop Ir.Mul | Ir.Load -> acc + 1
            | _ -> acc)
          acc b.Ir.instrs)
      0 l.Analysis.Loops.body
  in
  check_int "invariants out of loop" 0 in_loop_muls

let test_inline () =
  let m =
    parse
      {|
int %square(int %x) {
entry:
  %r = mul int %x, %x
  ret int %r
}

int %clamp(int %x) {
entry:
  %neg = setlt int %x, 0
  br bool %neg, label %zero, label %pos
zero:
  ret int 0
pos:
  ret int %x
}

int %main() {
entry:
  %a = call int %square(int 6)
  %b = call int %clamp(int -5)
  %c = call int %clamp(int %a)
  %s1 = add int %a, %b
  %s2 = add int %s1, %c
  ret int %s2
}
|}
  in
  let before = run (clone m) in
  let n = Transform.Inline.run_module m in
  assert_valid m;
  check_int "three sites inlined" 3 n;
  check_bool "semantics kept" true (before = run m);
  check_int "value" 72 (fst before);
  (* no calls remain in main *)
  let f = Option.get (Ir.find_func m "main") in
  let calls =
    Ir.fold_instrs (fun n i -> if i.Ir.op = Ir.Call then n + 1 else n) 0 f
  in
  check_int "no calls left" 0 calls

let test_inline_respects_recursion () =
  let m =
    parse
      {|
int %fact(int %n) {
entry:
  %base = setle int %n, 1
  br bool %base, label %one, label %rec
one:
  ret int 1
rec:
  %n1 = sub int %n, 1
  %r = call int %fact(int %n1)
  %p = mul int %n, %r
  ret int %p
}

int %main() {
entry:
  %r = call int %fact(int 5)
  ret int %r
}
|}
  in
  let n = Transform.Inline.run_module m in
  assert_valid m;
  check_int "recursive not inlined" 0 n;
  check_int "fact 5" 120 (fst (run m))

let test_globaldce () =
  let m =
    parse
      {|
%used = global int 3
%unused = global int 4

void %dead_helper() {
entry:
  ret void
}

int %main() {
entry:
  %v = load int* %used
  ret int %v
}
|}
  in
  let n = Transform.Globaldce.run_module m in
  assert_valid m;
  check_int "two removed" 2 n;
  check_int "funcs" 1 (List.length m.Ir.funcs);
  check_int "globals" 1 (List.length m.Ir.globals);
  check_int "still works" 3 (fst (run m))

let test_full_pipeline () =
  let m =
    parse
      {|
%data = global [4 x int] [ int 3, int 1, int 4, int 1 ]

int %get(int %k) {
entry:
  %p = getelementptr [4 x int]* %data, long 0, int %k
  %v = load int* %p
  ret int %v
}

int %main() {
entry:
  %t = alloca int
  store int 0, int* %t
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %inext, %loop ]
  %cur = load int* %t
  %elem = call int %get(int %i)
  %next = add int %cur, %elem
  store int %next, int* %t
  %inext = add int %i, 1
  %done = setge int %inext, 4
  br bool %done, label %exit, label %loop
exit:
  %r = load int* %t
  ret int %r
}
|}
  in
  let before = run (clone m) in
  let n = Transform.Passmgr.optimize ~level:2 ~verify:true m in
  check_bool "changes made" true (n > 0);
  check_bool "semantics kept" true (before = run m);
  check_int "sum" 9 (fst before)

(* ---------- differential qcheck: optimize preserves semantics ---------- *)

let gen_program = Gen.gen_program

let prop_optimize_preserves =
  QCheck.Test.make ~name:"optimize preserves semantics" ~count:120 gen_program
    (fun m ->
      (match Verify.verify_module m with
      | [] -> ()
      | errs -> QCheck.Test.fail_reportf "generated invalid: %s" (String.concat ";" errs));
      let reference = run (clone m) in
      let opt = clone m in
      let _ = Transform.Passmgr.optimize ~level:2 ~verify:true opt in
      let optimized = run opt in
      reference = optimized)

let suite =
  [
    Alcotest.test_case "mem2reg" `Quick test_mem2reg;
    Alcotest.test_case "mem2reg loop" `Quick test_mem2reg_loop;
    Alcotest.test_case "sccp" `Quick test_sccp;
    Alcotest.test_case "sccp through phi" `Quick test_sccp_through_phi;
    Alcotest.test_case "gvn" `Quick test_gvn;
    Alcotest.test_case "gvn loads" `Quick test_gvn_loads;
    Alcotest.test_case "instcombine" `Quick test_instcombine;
    Alcotest.test_case "instcombine preserves traps" `Quick
      test_instcombine_preserves_traps;
    Alcotest.test_case "simplifycfg" `Quick test_simplifycfg;
    Alcotest.test_case "licm" `Quick test_licm;
    Alcotest.test_case "inline" `Quick test_inline;
    Alcotest.test_case "inline respects recursion" `Quick
      test_inline_respects_recursion;
    Alcotest.test_case "globaldce" `Quick test_globaldce;
    Alcotest.test_case "full pipeline" `Quick test_full_pipeline;
    QCheck_alcotest.to_alcotest prop_optimize_preserves;
  ]

let test_deadargelim () =
  let m =
    parse
      {|
int %used_and_unused(int %a, int %dead, int %b) {
entry:
  %s = add int %a, %b
  ret int %s
}

int %main() {
entry:
  %r1 = call int %used_and_unused(int 1, int 999, int 2)
  %r2 = call int %used_and_unused(int 3, int 888, int 4)
  %s = add int %r1, %r2
  ret int %s
}
|}
  in
  let before = run (clone m) in
  let n = Transform.Deadargelim.run_module m in
  assert_valid m;
  check_int "one argument removed" 1 n;
  check_bool "semantics kept" true (before = run m);
  let f = Option.get (Ir.find_func m "used_and_unused") in
  check_int "two params remain" 2 (List.length f.Ir.fargs);
  (* call sites shrank too *)
  let main = Option.get (Ir.find_func m "main") in
  Ir.iter_instrs
    (fun i ->
      if i.Ir.op = Ir.Call then
        check_int "call has 2 args" 2 (List.length (Ir.call_args i)))
    main

let test_deadargelim_respects_address_taken () =
  let m =
    parse
      {|
%table = global [1 x int (int, int)*] [ int (int, int)* %escapes ]

int %escapes(int %a, int %dead) {
entry:
  ret int %a
}

int %main() {
entry:
  %p = getelementptr [1 x int (int, int)*]* %table, long 0, long 0
  %fp = load int (int, int)** %p
  %r = call int (int, int)* %fp(int 5, int 6)
  ret int %r
}
|}
  in
  let n = Transform.Deadargelim.run_module m in
  assert_valid m;
  check_int "address-taken function untouched" 0 n;
  check_int "still works" 5 (fst (run m))

(* ---------- the rewritten passes against their references ---------- *)

(* The copy kept in test/ of each pass whose tables were rewritten. *)
let reference_pass = function
  | "gvn" -> Some Gvn_ref.run_module
  | "mem2reg" -> Some Mem2reg_ref.run_module
  | "sccp" -> Some Sccp_ref.run_module
  | "adce" -> Some Adce_ref.run_module
  | "simplifycfg" -> Some Simplifycfg_ref.run_module
  | _ -> None

(* Runs the -O2 pipeline on two clones of [m], one with the library's
   passes and one with the references where there are some; after every
   pass the change counts and the printed modules must be the same. The
   first pass where they differ, if any. The clones keep the value and
   block names. *)
let first_disagreement (m : Ir.modl) =
  let copy () =
    let c = clone m in
    List.iter2
      (fun (f : Ir.func) (g : Ir.func) ->
        List.iter2
          (fun (a : Ir.arg) (b : Ir.arg) -> b.Ir.aname <- a.Ir.aname)
          f.Ir.fargs g.Ir.fargs;
        List.iter2
          (fun (x : Ir.block) (y : Ir.block) ->
            y.Ir.bname <- x.Ir.bname;
            List.iter2
              (fun (i : Ir.instr) (j : Ir.instr) -> j.Ir.iname <- i.Ir.iname)
              x.Ir.instrs y.Ir.instrs)
          f.Ir.fblocks g.Ir.fblocks)
      m.Ir.funcs c.Ir.funcs;
    c
  in
  let a = copy () and b = copy () in
  List.find_opt
    (fun name ->
      let p = Option.get (Transform.Passmgr.find name) in
      let n = p.Transform.Passmgr.run a in
      let n' = match reference_pass name with Some r -> r b | None -> p.run b in
      n <> n' || Pretty.module_to_string a <> Pretty.module_to_string b)
    Transform.Passmgr.o2_pipeline

(* Register-to-memory demotion, so that mem2reg has phis to rebuild: every
   phi, and every value used outside its block or by a phi, goes through
   a stack slot of its own, stored once after its definition (or at the
   end of each predecessor, for a phi) and loaded before each such use. *)
let demote (m : Ir.modl) =
  List.iter
    (fun (f : Ir.func) ->
      if not (Ir.is_declaration f) then begin
        let entry = Ir.entry_block f in
        let slot (ty : Types.t) =
          let a = Ir.mk_instr ~name:"slot" Ir.Alloca [||] (Types.Pointer ty) in
          Ir.prepend_instr entry a;
          Ir.Vreg a
        in
        let store_at_end (b : Ir.block) v ptr =
          let t = Option.get (Ir.terminator b) in
          Ir.insert_before b ~before:t
            (Ir.mk_instr Ir.Store [| v; ptr |] Types.Void)
        in
        let load_before (b : Ir.block) (before : Ir.instr) ptr ty =
          let l = Ir.mk_instr ~name:"reload" Ir.Load [| ptr |] ty in
          Ir.insert_before b ~before l;
          Ir.Vreg l
        in
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (phi : Ir.instr) ->
                let s = slot phi.Ir.ity in
                List.iter
                  (fun (v, pred) -> store_at_end pred v s)
                  (Ir.phi_incoming phi);
                let first =
                  List.find (fun (i : Ir.instr) -> i.Ir.op <> Ir.Phi) b.Ir.instrs
                in
                Ir.replace_all_uses_with (Ir.Vreg phi)
                  (load_before b first s phi.Ir.ity);
                Ir.remove_instr phi)
              (Ir.block_phis b))
          f.Ir.fblocks;
        List.iter
          (fun (b : Ir.block) ->
            let rec go = function
              | (i : Ir.instr) :: (next :: _ as rest) ->
                  let far (u : Ir.use) =
                    u.Ir.user.Ir.op = Ir.Phi
                    ||
                    match u.Ir.user.Ir.iparent with
                    | Some p -> p != b
                    | None -> true
                  in
                  if i.Ir.op <> Ir.Alloca && List.exists far i.Ir.iuses then begin
                    let s = slot i.Ir.ity in
                    Ir.insert_before b ~before:next
                      (Ir.mk_instr Ir.Store [| Ir.Vreg i; s |] Types.Void);
                    List.iter
                      (fun (u : Ir.use) ->
                        let user = u.Ir.user in
                        if far u then
                          let at, before =
                            if user.Ir.op = Ir.Phi then
                              let pred = Ir.block_of_value user.Ir.operands.(u.Ir.uidx + 1) in
                              (pred, Option.get (Ir.terminator pred))
                            else (Option.get user.Ir.iparent, user)
                          in
                          Ir.set_operand user u.Ir.uidx (load_before at before s i.Ir.ity))
                      i.Ir.iuses
                  end;
                  go rest
              | _ -> ()
            in
            go b.Ir.instrs)
          f.Ir.fblocks
      end)
    m.Ir.funcs;
  m

let agree_with_references m =
  match first_disagreement m with
  | None -> true
  | Some name -> QCheck.Test.fail_reportf "%s differs from its reference" name

let prop_passes_agree =
  QCheck.Test.make ~name:"passes agree with their references" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 0 10_000_000 and* kind = int_bound 2 in
         let rand = Random.State.make [| seed |] in
         return
           (match kind with
           | 0 -> Gen.random_program rand
           | 1 -> Gen.random_memory_program rand
           | _ -> Gen.random_full_program rand))
       ~print:Pretty.module_to_string)
    (fun m -> agree_with_references m && agree_with_references (demote (clone m)))

let test_demote_is_valid () =
  for seed = 1 to 20 do
    let m = demote (Gen.random_full_program (Random.State.make [| seed |])) in
    assert_valid m;
    check_bool "phis demoted" true
      (List.for_all
         (fun f -> Ir.fold_instrs (fun ok i -> ok && i.Ir.op <> Ir.Phi) true f)
         m.Ir.funcs)
  done

let test_workloads_agree () =
  List.iter
    (fun (w : Workloads.workload) ->
      let m = Minic.Mcodegen.compile ~name:w.name w.source in
      match first_disagreement m with
      | None -> ()
      | Some name -> Alcotest.failf "%s: %s differs from its reference" w.name name)
    Workloads.all

let extra_suite =
  [
    Alcotest.test_case "demotion keeps programs valid" `Quick test_demote_is_valid;
    QCheck_alcotest.to_alcotest prop_passes_agree;
    Alcotest.test_case "passes agree with their references on the workloads"
      `Quick test_workloads_agree;
    Alcotest.test_case "deadargelim" `Quick test_deadargelim;
    Alcotest.test_case "deadargelim address taken" `Quick
      test_deadargelim_respects_address_taken;
  ]

let suite = suite @ extra_suite
