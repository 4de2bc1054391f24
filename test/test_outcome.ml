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

(* ---------- pool fault containment ---------- *)

exception Boom of int

let test_pool_mixed_exceptions () =
  (* a raising task aborts only itself: its siblings all run, the pool
     survives, and the earliest input's exception surfaces *)
  let ran = Array.make 8 false in
  let work i =
    ran.(i) <- true;
    if i mod 3 = 1 then raise (Boom i) else i * 10
  in
  (match Llee.Pool.map ~domains:4 work (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected the earliest Boom to re-raise"
  | exception Boom i -> check_int "earliest failing input wins" 1 i);
  check_bool "every task still ran" true (Array.for_all Fun.id ran);
  (* same semantics sequentially: no early abort on the first raise *)
  let ran1 = Array.make 8 false in
  let work1 i =
    ran1.(i) <- true;
    if i mod 3 = 1 then raise (Boom i) else i * 10
  in
  (match Llee.Pool.map ~domains:1 work1 (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected the earliest Boom to re-raise"
  | exception Boom i -> check_int "sequential: earliest input wins" 1 i);
  check_bool "sequential: every task still ran" true
    (Array.for_all Fun.id ran1);
  (* the pool is not poisoned: the next fan-out works normally *)
  let r = Llee.Pool.map ~domains:4 (fun i -> i + 1) (List.init 16 Fun.id) in
  check_bool "pool survives a raising batch" true
    (r = List.init 16 (fun i -> i + 1))

let test_pool_both_exceptions () =
  (match Llee.Pool.both ~domains:2 (fun () -> raise (Boom 1)) (fun () -> 2) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "first thunk's exception" 1 i);
  let second_ran = ref false in
  (match
     Llee.Pool.both ~domains:2
       (fun () -> raise (Boom 1))
       (fun () ->
         second_ran := true;
         raise (Boom 2))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "both raise: first wins" 1 i);
  check_bool "both raise: second thunk still ran" true !second_ran;
  let a, b = Llee.Pool.both ~domains:2 (fun () -> 1) (fun () -> 2) in
  check_int "both survives raising batches: fst" 1 a;
  check_int "both survives raising batches: snd" 2 b

(* ---------- pool nesting, one domain ---------- *)

let self_id () = (Domain.self () :> int)

(* enough work per task that a helper domain starts before the caller
   has drained the batch alone *)
let busy i =
  let r = ref i in
  for k = 1 to 20_000 do
    r := (!r * 31) + k
  done;
  !r

let test_pool_nested () =
  let r =
    Llee.Pool.map ~domains:2
      (fun i ->
        List.fold_left ( + ) 0
          (Llee.Pool.map ~domains:2 (fun j -> (i * 10) + j) (List.init 4 Fun.id)))
      (List.init 6 Fun.id)
  in
  check_bool "nested map" true
    (r = List.init 6 (fun i -> (i * 40) + 6));
  let r =
    Llee.Pool.map ~domains:2
      (fun i ->
        let a, b =
          Llee.Pool.both ~domains:2 (fun () -> busy i) (fun () -> i + 1)
        in
        (a = busy i, b))
      (List.init 4 Fun.id)
  in
  check_bool "both nested in map" true
    (r = List.init 4 (fun i -> (true, i + 1)));
  let a, b =
    Llee.Pool.both ~domains:2
      (fun () -> Llee.Pool.map ~domains:2 succ [ 1; 2; 3 ])
      (fun () -> Llee.Pool.map ~domains:2 pred [ 1; 2; 3 ])
  in
  check_bool "map nested in both" true (a = [ 2; 3; 4 ] && b = [ 0; 1; 2 ])

let test_pool_one_domain_is_caller () =
  let me = self_id () in
  let ids =
    Llee.Pool.map ~domains:1
      (fun i ->
        ignore (busy i);
        self_id ())
      (List.init 8 Fun.id)
  in
  check_bool "map ran on the caller" true (List.for_all (( = ) me) ids);
  let a, b = Llee.Pool.both ~domains:1 self_id self_id in
  check_bool "both ran on the caller" true (a = me && b = me)

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
    Alcotest.test_case "pool mixed exceptions" `Quick test_pool_mixed_exceptions;
    Alcotest.test_case "pool both exceptions" `Quick test_pool_both_exceptions;
    Alcotest.test_case "pool nested map and both" `Quick test_pool_nested;
    Alcotest.test_case "pool one domain runs on the caller" `Quick
      test_pool_one_domain_is_caller;
  ]
