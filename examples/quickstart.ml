(* Quickstart: build an LLVA function with the Builder API, verify it,
   optimize it, then execute it four ways — reference interpreter, both
   simulated hardware back-ends, and as shipped virtual object code.

     dune exec examples/quickstart.exe *)

open Llva

let () =
  (* 1. Build a module: int sum_squares(int n) { sum of i*i for i<n } *)
  let m = Ir.mk_module ~name:"quickstart" () in
  let f =
    Ir.mk_func ~name:"sum_squares" ~return:Types.Int
      ~params:[ ("n", Types.Int) ] ()
  in
  Ir.add_func m f;
  let entry = Ir.mk_block ~name:"entry" () in
  let loop = Ir.mk_block ~name:"loop" () in
  let exit_b = Ir.mk_block ~name:"exit" () in
  List.iter (Ir.append_block f) [ entry; loop; exit_b ];
  let bld = Builder.create m in
  let n = Ir.Varg (List.hd f.Ir.fargs) in

  Builder.position_at_end entry bld;
  Builder.br bld loop;

  Builder.position_at_end loop bld;
  let i = Builder.phi_at_front bld Types.Int [] in
  let acc = Builder.phi_at_front bld Types.Int [] in
  let sq = Builder.mul ~name:"sq" bld i i in
  let acc' = Builder.add ~name:"acc.next" bld acc sq in
  let i' = Builder.add ~name:"i.next" bld i (Ir.const_int Types.Int 1L) in
  let done_ = Builder.setge ~name:"done" bld i' n in
  Builder.cond_br bld done_ exit_b loop;
  (match (i, acc) with
  | Ir.Vreg ip, Ir.Vreg ap ->
      Ir.phi_set_incoming ip [ (Ir.const_int Types.Int 0L, entry); (i', loop) ];
      Ir.phi_set_incoming ap
        [ (Ir.const_int Types.Int 0L, entry); (acc', loop) ]
  | _ -> assert false);

  Builder.position_at_end exit_b bld;
  Builder.ret bld (Some acc');

  (* a main that prints sum_squares(100) *)
  let main = Ir.mk_func ~name:"main" ~return:Types.Int ~params:[] () in
  Ir.add_func m main;
  let me = Ir.mk_block ~name:"entry" () in
  Ir.append_block main me;
  Builder.position_at_end me bld;
  let r = Builder.call bld (Ir.Vfunc f) [ Ir.const_int Types.Int 100L ] in
  let pi =
    Ir.mk_func ~name:"print_int" ~return:Types.Void
      ~params:[ ("v", Types.Int) ] ()
  in
  Ir.add_func m pi;
  ignore (Builder.call bld (Ir.Vfunc pi) [ r ]);
  Builder.ret bld (Some (Ir.const_int Types.Int 0L));

  (* 2. Print and verify *)
  print_endline "--- textual LLVA ---";
  print_string (Pretty.module_to_string m);
  (match Verify.verify_module m with
  | [] -> print_endline "verify: ok"
  | errs -> List.iter print_endline errs);

  (* 3. Optimize *)
  let changes = Transform.Passmgr.optimize ~level:2 m in
  Printf.printf "optimizer made %d changes\n" changes;

  (* 4. Execute everywhere *)
  let st = Interp.create m in
  let code = Interp.run_main st in
  Printf.printf "interpreter : exit=%d output=%s (in %d LLVA steps)\n" code
    (Interp.output st) st.Interp.stats.Interp.steps;

  let x86 = X86lite.Compile.compile_module m in
  let xcode, xst = Codegen.Machine.run_main X86lite.Sim.machine x86 in
  Printf.printf "x86-lite    : exit=%d output=%s (%d instrs, %d cycles)\n"
    xcode (Codegen.Machine.output xst) xst.Codegen.Machine.icount
    xst.Codegen.Machine.cycles;

  let sparc = Sparclite.Compile.compile_module m in
  let scode, sst = Codegen.Machine.run_main Sparclite.Sim.machine sparc in
  Printf.printf "sparc-lite  : exit=%d output=%s (%d instrs, %d cycles)\n"
    scode (Codegen.Machine.output sst) sst.Codegen.Machine.icount
    sst.Codegen.Machine.cycles;

  (* 5. Ship as virtual object code and run through LLEE *)
  let bytes = Encode.encode m in
  Printf.printf "virtual object code: %d bytes\n" (String.length bytes);
  let eng = Llee.load ~target:Llee.X86 bytes in
  let loutcome, lout = Llee.run eng in
  Printf.printf
    "LLEE (jit)  : exit=%d output=%s (translated %d functions in %.3f ms)\n"
    (Llee.Outcome.exit_code loutcome)
    lout eng.Llee.stats.Llee.translations
    (eng.Llee.stats.Llee.translate_time *. 1000.0)
