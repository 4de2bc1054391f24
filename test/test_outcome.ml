(* Structured-outcome regressions: every engine must map guest traps and
   exhausted fuel budgets into [Llee.Outcome.t] instead of letting the
   engine's own OCaml exception escape. The `--engine x86` crash this
   guards against: the interpreter printed `trap: ...` and exited 134
   while both simulators took down the process with an uncaught
   [Sim.Trap]. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The divisor is loaded from a global so llva-lint's constant-division
   check cannot see it: the module lints clean, then traps at runtime. *)
let trapping_program =
  {|
%zero = global int 0

int %div_by_global(int %n) {
entry:
  %z = load int* %zero
  %q = div int %n, %z
  ret int %q
}

int %main() {
entry:
  %r = call int %div_by_global(int 50)
  ret int %r
}
|}

let looping_program =
  {|
int %main() {
entry:
  br label %loop
loop:
  br label %loop
}
|}

(* all five engines as [unit -> Outcome.t] launchers *)
let engines ?fuel src =
  let m () = Gen.parse src in
  let native target =
    let (module B) = Llee.backend target in
    fst (Llee.Outcome.run_main ?fuel B.machine (B.compile_module (m ())))
  in
  [
    ("interp", fun () -> fst (Llee.Outcome.run_main_interp ?fuel (m ())));
    ("x86", fun () -> native Llee.X86);
    ("sparc", fun () -> native Llee.Sparc);
    ( "llee-x86",
      fun () -> fst (Llee.run ?fuel (Llee.of_module ~target:Llee.X86 (m ()))) );
    ( "llee-sparc",
      fun () ->
        fst (Llee.run ?fuel (Llee.of_module ~target:Llee.Sparc (m ()))) );
  ]

let test_trap_all_engines () =
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Trapped { kind = Llee.Outcome.Division_by_zero; func; _ }
        as o ->
          check_string (tag ^ ": trap names the faulting function")
            "div_by_global" func;
          check_int (tag ^ ": trap exit code") 134 (Llee.Outcome.exit_code o)
      | o ->
          Alcotest.failf "%s: expected division trap, got %s" tag
            (Llee.Outcome.to_string o))
    (engines trapping_program)

let test_fuel_all_engines () =
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Fuel_exhausted as o ->
          check_int (tag ^ ": fuel exit code") 124 (Llee.Outcome.exit_code o)
      | o ->
          Alcotest.failf "%s: expected fuel exhaustion, got %s" tag
            (Llee.Outcome.to_string o))
    (engines ~fuel:10_000 looping_program)

let test_normal_exit_all_engines () =
  let src = {|
int %main() {
entry:
  ret int 7
}
|} in
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Exit 7 -> ()
      | o ->
          Alcotest.failf "%s: expected exit 7, got %s" tag
            (Llee.Outcome.to_string o))
    (engines src)

(* Wild malloc sizes: 2^62 has no power-of-two size class below
   max_int, and 2^40 would run the heap into the stack. The interpreter
   and both simulators must return null at once instead of looping or
   zero-filling. *)
let test_wild_malloc_is_null () =
  let src =
    {|
declare sbyte* %malloc(ulong)

int %main() {
entry:
  %p = call sbyte* %malloc(ulong 4611686018427387904)
  %q = call sbyte* %malloc(ulong 1099511627776)
  %a = seteq sbyte* %p, null
  %b = seteq sbyte* %q, null
  %c = and bool %a, %b
  %r = cast bool %c to int
  ret int %r
}
|}
  in
  List.iter
    (fun (tag, launch) ->
      match launch () with
      | Llee.Outcome.Exit 1 -> ()
      | o ->
          Alcotest.failf "%s: expected both mallocs to be null, got %s" tag
            (Llee.Outcome.to_string o))
    (List.filter
       (fun (tag, _) -> List.mem tag [ "interp"; "x86"; "sparc" ])
       (engines src))

(* A module that names a struct it never defines: the verifier rejects
   it, and run without verifying, the interpreter's [Types.Unresolved]
   is an outcome, not an escape. *)
let test_unresolved_type () =
  let m =
    Llva.Resolve.parse_module
      {|
int %main() {
entry:
  %p = alloca %struct.missing
  ret int 0
}
|}
  in
  check_bool "the verifier rejects it" true (Llva.Verify.verify_module m <> []);
  match Llee.Outcome.run_main_interp m with
  | Llee.Outcome.Trapped
      { kind = Llee.Outcome.Invalid_operation msg; engine = "interp"; _ }, _ ->
      check_string "names the type" "unresolved type %struct.missing" msg
  | o, _ -> Alcotest.failf "expected an invalid operation, got %s"
              (Llee.Outcome.to_string o)

(* A type that contains itself by value has no size. The verifier
   rejects the module; run without verifying, the interpreter and a
   native engine each end in an outcome at once, where the layout walk
   used to recurse until the stack overflowed. *)
let test_self_containing_type () =
  let src =
    {|
%t = type { int, %t }

int %main() {
entry:
  %p = alloca %t
  ret int 0
}
|}
  in
  let m () = Llva.Resolve.parse_module src in
  check_bool "the verifier rejects it" true (Llva.Verify.verify_module (m ()) <> []);
  let (module B) = Llee.backend Llee.X86 in
  List.iter
    (fun (tag, launch) ->
      let t0 = Unix.gettimeofday () in
      let o = launch () in
      let secs = Unix.gettimeofday () -. t0 in
      check_bool (Printf.sprintf "%s: an outcome in under 1 s (%.2f s)" tag secs) true (secs < 1.0);
      match o with
      | Llee.Outcome.Trapped { kind = Llee.Outcome.Invalid_operation msg; _ } as o ->
          let says = "type %t contains itself" in
          check_bool (tag ^ ": names the type: " ^ msg) true
            (String.ends_with ~suffix:says msg);
          check_int (tag ^ ": trap exit code") 134 (Llee.Outcome.exit_code o)
      | o -> Alcotest.failf "%s: expected an invalid operation, got %s" tag (Llee.Outcome.to_string o))
    [
      ("interp", fun () -> fst (Llee.Outcome.run_main_interp (m ())));
      ("x86", fun () -> fst (Llee.Outcome.run_main B.machine (B.compile_module (m ()))));
    ]

let test_exit_codes () =
  check_int "exit passthrough" 3 (Llee.Outcome.exit_code (Llee.Outcome.Exit 3));
  check_int "trap is 134" 134
    (Llee.Outcome.exit_code
       (Llee.Outcome.Trapped
          {
            kind = Llee.Outcome.Privilege_violation;
            engine = "interp";
            func = "main";
          }));
  check_int "fuel is 124" 124
    (Llee.Outcome.exit_code Llee.Outcome.Fuel_exhausted);
  check_int "degraded is 125" 125
    (Llee.Outcome.exit_code (Llee.Outcome.Cache_degraded { reason = "" }));
  check_int "degraded matches the lint gate's code" Llee.lint_rejected_code
    (Llee.Outcome.exit_code (Llee.Outcome.Cache_degraded { reason = "" }))

let suite =
  [
    Alcotest.test_case "trap on all five engines" `Quick test_trap_all_engines;
    Alcotest.test_case "fuel exhaustion on all five engines" `Quick
      test_fuel_all_engines;
    Alcotest.test_case "normal exit on all five engines" `Quick
      test_normal_exit_all_engines;
    Alcotest.test_case "outcome exit codes" `Quick test_exit_codes;
    Alcotest.test_case "wild malloc returns null" `Quick
      test_wild_malloc_is_null;
    Alcotest.test_case "unresolved type is an outcome" `Quick
      test_unresolved_type;
    Alcotest.test_case "self-containing type is an outcome" `Quick
      test_self_containing_type;
  ]
