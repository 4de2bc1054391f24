(* @superopt: guards the committed peephole rewrite tables
   (test/tables/<target>.peep) and the superoptimizer behind them.

   1. Strict decode + oracle re-verification: every rewrite of both
      committed tables must still be certified by the simulator oracle
      on its fixed boundary and seeded random vectors. A rule the
      oracle refutes — because a back-end's semantics changed under it —
      fails the build rather than miscompiling at run time.

   2. Search determinism: two full searches over the 17-workload suite
      must produce byte-identical tables (the cache-identity story
      depends on it: same program, same table, same fingerprint).

   3. Table drift: a fresh search must reproduce the committed bytes.
      A difference means the selectors, the suite or the oracle changed
      under the tables; regenerate them with
      llva_superopt --target all --out test/tables.

   4. Behavior identity: every workload, compiled with the committed
      table applied, must produce exactly the interpreter's exit code
      and output on both back-ends — and never more cycles than the
      pass-off build.

   5. Exact counts: the exit code, native instruction count and cycle
      count of each of those executions (17 workloads x 2 targets x
      table off/on), one line each, must equal the file named by the
      third argument (sim_counts.expected) line for line. A simulator
      change must leave every count as it was. Without a third argument
      the lines are printed instead, which is how that file is made.

   6. Per-module table bytes: LLEE learns a table from the one module
      it launches, not from the suite, so the committed tables do not
      cover what a launch writes to its cache. For each workload at -O1,
      after an encode/decode round trip (the module as LLEE decodes it),
      and each target, the rule count and the MD5 of the serialized
      per-module table must equal the file named by the fourth argument
      (peep_digests.expected) line for line; without a fourth argument
      the lines are printed.

   7. Counts at fuel exhaustion and at traps: for the 9 short
      workloads and three trapping programs with a registered trap
      handler, on both targets, under fuel budgets 0, 1, 10 000 and
      1 000 000 (and, for the trapping programs, budgets that stop
      around the fault and inside the handler), the outcome, native
      instruction count and cycle count must equal the file named by
      the fifth argument (sim_fuel.expected) line for line; without a fifth argument the lines are printed. An
      instruction that runs out of fuel is counted and charged before
      the budget check stops it.

   8. Native code bytes: for each workload at -O1, after an
      encode/decode round trip, on both targets, without a table and
      with the per-module table of section 6, the static instruction
      count, the native code size and the MD5 of the marshaled compiled
      functions in source order (the bytes LLEE caches) must equal the
      file named by the sixth argument (code_digests.expected) line for
      line; without a sixth argument the lines are printed.

   9. Search counters: the search's deterministic counts (windows,
      oracle sessions, candidates generated, pruned by the write-set
      pre-screen, screened, surviving the screen, checked on the full
      set, and rules accepted), per target, for the suite search of
      section 3 and summed over the per-module searches of section 6,
      must equal the file named by the seventh argument
      (search_counts.expected) line for line; without a seventh argument
      the lines are printed. The pre-screen may only move [pruned] and
      [screened]: every other count is the search's, with or without
      it. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_table ~target path =
  match Superopt.Table.of_string ~expect_target:target (read_file path) with
  | tb -> tb
  | exception Superopt.Table.Invalid_table why ->
      Printf.printf "FAIL %s: invalid committed table: %s\n" path why;
      exit 1

(* Diff the lines in [got] against the file at [path], or print them
   when there is no file to diff against. *)
let expect_lines ~what path_opt got =
  match path_opt with
  | None -> print_string got
  | Some path ->
      let expected = read_file path in
      let lines s = String.split_on_char '\n' s in
      List.iter
        (fun l -> if not (List.mem l (lines got)) then Printf.printf "  expected: %s\n" l)
        (lines expected);
      List.iter
        (fun l -> if not (List.mem l (lines expected)) then Printf.printf "  got:      %s\n" l)
        (lines got);
      check
        (Printf.sprintf "%s differ from %s (run this gate without that \
            argument to print fresh lines)" what path)
        (expected = got);
      if expected = got then Printf.printf "exact %s: %s matches\n%!" what path

(* the benchmark's short programs: under 10M x86lite instructions at -O1 *)
let short_workloads =
  [
    "ptrdist-anagram"; "183.equake"; "181.mcf"; "256.bzip2"; "164.gzip";
    "197.parser"; "188.ammp"; "186.crafty"; "255.vortex";
  ]

(* Guest traps under a registered handler: the handler runs as a native
   subcall (and prints), then the trap ends the program. Each comes with
   its own extra fuel budgets; for the first two, 3060 and 5445 stop
   inside the handler on sparclite and x86lite respectively. *)
let trap_programs =
  let prelude =
    {|
declare void %print_int(int)
declare void %llva.trap.register(void (uint, sbyte*)*)

%zero = global int 0
%nowhere = global int* null

void %handler(uint %num, sbyte* %info) {
entry:
  %n = cast uint %num to int
  call void %print_int(int %n)
  ret void
}

int %spin(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %j, %loop ]
  %acc = phi int [ 1, %entry ], [ %a, %loop ]
  %a = mul int %acc, 3
  %j = add int %i, 1
  %d = setge int %j, %n
  br bool %d, label %out, label %loop
out:
  ret int %a
}
|}
  in
  [
    ( "trap-divide",
      [ 3060; 5445 ],
      prelude
      ^ {|
int %main() {
entry:
  %s = call int %spin(int 300)
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %z = load int* %zero
  %q = div int %s, %z
  ret int %q
}
|} );
    ( "trap-fault",
      [ 3060; 5445 ],
      prelude
      ^ {|
int %main() {
entry:
  %s = call int %spin(int 300)
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %p = load int** %nowhere
  %v = load int* %p
  %r = add int %v, %s
  ret int %r
}
|} );
    (* The faulting load sits mid-way through a straight-line run on
       both targets, with at least 3 instructions before and after it.
       The budgets stop just before the fault, on it, just after it (at
       the handler's first instruction) and inside the handler: x86lite
       first, then sparclite. *)
    ( "trap-midrun",
      [ 5437; 5438; 5439; 5445; 3050; 3051; 3052; 3058 ],
      prelude
      ^ {|
int %main() {
entry:
  %s = call int %spin(int 300)
  call void %llva.trap.register(void (uint, sbyte*)* %handler)
  %p = load int** %nowhere
  %a = add int %s, 7
  %b = mul int %a, %s
  %c = xor int %b, 5
  %v = load int* %p
  %d = add int %v, %c
  %e = mul int %d, %a
  %f = sub int %e, %b
  ret int %f
}
|} );
  ]

let () =
  let arg k = if Array.length Sys.argv > k then Some Sys.argv.(k) else None in
  let x86_path = Option.value (arg 1) ~default:"tables/x86lite.peep"
  and sparc_path = Option.value (arg 2) ~default:"tables/sparclite.peep" in
  let counts_path = arg 3
  and digests_path = arg 4
  and fuel_path = arg 5
  and code_path = arg 6
  and search_path = arg 7 in
  let backends = Superopt.Backend.all in
  let committed =
    List.map2
      (fun (module B : Superopt.Backend.S) path -> load_table ~target:B.name path)
      backends [ x86_path; sparc_path ]
  in
  Printf.printf "committed tables: %s\n%!"
    (String.concat ", "
       (List.map
          (fun tb ->
            Printf.sprintf "%s %d rules (fingerprint %s)"
              tb.Superopt.Table.target (Superopt.Table.count tb)
              (Superopt.Table.fingerprint tb))
          committed));

  (* 1. oracle re-verification of every committed rewrite *)
  List.iter
    (fun tb ->
      let target = tb.Superopt.Table.target in
      match Superopt.Search.reverify tb with
      | [] -> Printf.printf "%s: all rules re-verified\n%!" target
      | bad ->
          check
            (Printf.sprintf "%s rules refuted by the oracle: %s" target
               (String.concat "," (List.map string_of_int bad)))
            false)
    committed;

  (* 2. search determinism over the training suite, and 3. a fresh
     search reproduces the committed tables *)
  let mods =
    List.map (fun w -> Workloads.compile_optimized ~level:1 w) Workloads.all
  in
  let search_lines = Buffer.create 1024 in
  let search_line what name stats =
    Printf.bprintf search_lines "%-10s %-9s %s\n" what name
      (Superopt.Search.stats_line stats)
  in
  List.iter2
    (fun b tb ->
      let (module B : Superopt.Backend.S) = b in
      let learn ?stats () =
        Superopt.Table.to_string (Superopt.Search.learn b ?stats mods)
      in
      let stats = Superopt.Search.stats () in
      let fresh = learn ~stats () in
      search_line "suite" B.name stats;
      check (B.name ^ " search deterministic") (fresh = learn ());
      check
        (Printf.sprintf
           "committed %s table differs from a fresh search; regenerate with \
            llva_superopt --target all --out test/tables"
           B.name)
        (fresh = Superopt.Table.to_string tb))
    backends committed;
  Printf.printf "determinism: two searches per target, identical bytes\n%!";

  (* 4. behavior identity on all 17 workloads with the pass enabled *)
  let counts = Buffer.create 4096 in
  List.iter
    (fun (w : Workloads.workload) ->
      let name = w.Workloads.name in
      let m () = Workloads.compile_optimized ~level:1 w in
      let ist = Interp.create ~fuel:100_000_000 (m ()) in
      let icode = Interp.run_main ist in
      let iout = Interp.output ist in
      let cycles =
        List.map2
          (fun (module B : Superopt.Backend.S) tb ->
            let run peep =
              let o, st =
                Llee.Outcome.run_main B.machine (B.compile_module ~peep (m ()))
              in
              Codegen.Machine.
                (Llee.Outcome.exit_code o, output st, st.icount, st.cycles)
            in
            let ((code0, out0, _, cycles0) as off) = run [] in
            let ((code, out, _, cycles) as on) =
              run (Superopt.Table.pairs (module B) tb)
            in
            check
              (Printf.sprintf "%s: %s behavior identical to interp with pass on"
                 name B.name)
              (code = icode && out = iout);
            check
              (Printf.sprintf "%s: %s pass-on matches pass-off" name B.name)
              (code = code0 && out = out0);
            check
              (Printf.sprintf "%s: %s cycles no worse" name B.name)
              (cycles <= cycles0);
            List.iter
              (fun (peep, (code, _, icount, cycles)) ->
                Printf.bprintf counts
                  "%-17s %-9s %-8s exit %3d  instrs %10d  cycles %10d\n" name
                  B.name
                  (if peep then "table" else "no-table")
                  code icount cycles)
              [ (false, off); (true, on) ];
            Printf.sprintf "%s %d -> %d" B.name cycles0 cycles)
          backends committed
      in
      Printf.printf "%-17s ok (%s cycles)\n%!" name (String.concat ", " cycles))
    Workloads.all;

  (* 5. exact counts *)
  expect_lines ~what:"counts" counts_path (Buffer.contents counts);

  (* 6. per-module table bytes *)
  let digests = Buffer.create 4096 in
  let module_stats = List.map (fun _ -> Superopt.Search.stats ()) backends in
  let per_module =
    List.map
      (fun (w : Workloads.workload) ->
        let m =
          Llva.Decode.decode
            (Llva.Encode.encode (Workloads.compile_optimized ~level:1 w))
        in
        let tables =
          List.map2
            (fun b stats ->
              let tb = Superopt.Search.learn b ~stats [ m ] in
              Printf.bprintf digests "%-17s %-9s rules %3d  md5 %s\n"
                w.Workloads.name tb.Superopt.Table.target
                (Superopt.Table.count tb)
                (Digest.to_hex (Digest.string (Superopt.Table.to_string tb)));
              tb)
            backends module_stats
        in
        (w.Workloads.name, m, tables))
      Workloads.all
  in
  expect_lines ~what:"per-module table digests" digests_path
    (Buffer.contents digests);
  List.iter2
    (fun (module B : Superopt.Backend.S) stats ->
      search_line "per-module" B.name stats)
    backends module_stats;
  expect_lines ~what:"search counters" search_path
    (Buffer.contents search_lines);

  (* 7. counts at fuel exhaustion and at traps *)
  let fuel_lines = Buffer.create 4096 in
  let programs =
    List.map
      (fun name ->
        match Workloads.find name with
        | Some w ->
            (name, [], fun () -> Workloads.compile_optimized ~level:1 w)
        | None -> failwith ("no workload " ^ name))
      short_workloads
    @ List.map
        (fun (name, extra, src) ->
          (name, extra, fun () -> Llva.Resolve.parse_module ~name src))
        trap_programs
  in
  List.iter
    (fun (name, extra, m) ->
      List.iter
        (fun fuel ->
          List.iter
            (fun (module B : Superopt.Backend.S) ->
              let o, st =
                Llee.Outcome.run_main ~fuel B.machine (B.compile_module (m ()))
              in
              Printf.bprintf fuel_lines
                "%-17s %-9s fuel %7d  instrs %7d  cycles %8d  out %s  %s\n"
                name B.name fuel st.Codegen.Machine.icount
                st.Codegen.Machine.cycles
                (String.sub
                   (Digest.to_hex (Digest.string (Codegen.Machine.output st)))
                   0 8)
                (Llee.Outcome.to_string o))
            backends)
        ([ 0; 1; 10_000; 1_000_000 ] @ extra))
    programs;
  expect_lines ~what:"fuel and trap counts" fuel_path (Buffer.contents fuel_lines);

  (* 8. native code bytes *)
  let code_lines = Buffer.create 4096 in
  List.iter
    (fun (name, m, tables) ->
      let defined =
        List.filter (fun f -> not (Llva.Ir.is_declaration f)) m.Llva.Ir.funcs
      in
      List.iter
        (fun peep ->
          List.iter2
            (fun (module B : Superopt.Backend.S) tb ->
              let cm =
                B.compile_module
                  ~peep:(if peep then Superopt.Table.pairs (module B) tb else [])
                  m
              in
              let marshaled =
                List.map
                  (fun (f : Llva.Ir.func) ->
                    Marshal.to_string
                      (Hashtbl.find cm.Codegen.Native.funcs f.Llva.Ir.fname)
                      [])
                  defined
              in
              Printf.bprintf code_lines
                "%-17s %-9s %-8s instrs %6d  bytes %7d  md5 %s\n" name B.name
                (if peep then "table" else "no-table")
                (B.module_instr_count cm) (B.module_code_size cm)
                (Digest.to_hex (Digest.string (String.concat "" marshaled))))
            backends tables)
        [ false; true ])
    per_module;
  expect_lines ~what:"native code digests" code_path
    (Buffer.contents code_lines);

  if !failures > 0 then begin
    Printf.printf "superopt gate FAILED: %d assertion(s)\n" !failures;
    exit 1
  end
  else Printf.printf "superopt gate passed\n"
