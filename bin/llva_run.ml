(* llva-run: execute an LLVA program (text or object code) on one of the
   execution engines.

     llva_run prog.bc                          # reference interpreter
     llva_run prog.bc --engine x86             # X86-lite simulator
     llva_run prog.bc --engine llee-sparc      # LLEE JIT, cached on disk
     llva_run prog.bc --stats                  # print execution statistics

   Every engine reports failures through the same structured outcome:
   a guest trap exits 134, an exhausted --fuel budget exits 124, and a
   lint-refused launch exits 125 — never an uncaught OCaml exception. *)

open Cmdliner

let run input engine stats opt fuel cache_dir peephole doctor purge diff
    certify =
  let m = Tool_common.load_module input in
  Tool_common.check_verify m;
  if opt > 0 then ignore (Transform.Passmgr.optimize ~level:opt m);
  if certify then begin
    (* certification mode: lockstep-validate the translation of every
       certifiable function and exit without running the program. With
       --cache the verdict is read from / recorded to the #tv# entry;
       without it the checker runs fresh. Exit 126 on any mismatch. *)
    let target =
      match engine with
      | "llee-sparc" | "sparc" -> Llee.Sparc
      | "llee-x86" | "x86" | "interp" -> Llee.X86
      | e ->
          Printf.eprintf "--certify: unknown engine %s\n" e;
          exit 2
    in
    let storage =
      match cache_dir with
      | Some dir -> Tool_common.open_cache dir
      | None -> Llee.Storage.none
    in
    let eng = Llee.of_module ~storage ~peephole ~target m in
    let v = Llee.certify eng in
    List.iter print_endline (Llee.Tv.report v);
    if stats then begin
      Printf.eprintf "--- stats ---\n";
      Printf.eprintf "tv runs: %d\n" eng.Llee.stats.Llee.tv_runs;
      Printf.eprintf "tv skipped (verdict cached): %d\n"
        eng.Llee.stats.Llee.tv_skipped;
      Printf.eprintf "tv mismatches: %d\n" eng.Llee.stats.Llee.tv_mismatches;
      Printf.eprintf "tv time: %.3f ms\n"
        (eng.Llee.stats.Llee.tv_time *. 1000.0)
    end;
    exit (if Llee.Tv.clean v then 0 else 126)
  end;
  if doctor || purge || diff <> None then begin
    (* forensics mode: inspect the quarantined entries of the on-disk
       cache and exit without executing the program *)
    (match cache_dir with
    | None ->
        prerr_endline "--cache-doctor requires --cache DIR";
        exit 2
    | Some _ -> ());
    let target =
      match engine with
      | "llee-sparc" -> Llee.Sparc
      | "llee-x86" | "interp" -> Llee.X86
      | e ->
          Printf.eprintf "--cache-doctor requires an llee engine (got %s)\n" e;
          exit 2
    in
    let storage = Tool_common.open_cache (Option.get cache_dir) in
    let eng = Llee.of_module ~storage ~peephole ~target m in
    List.iter print_endline (Llee.cache_doctor eng);
    (match diff with
    | Some fname -> List.iter print_endline (Llee.diff_quarantined eng fname)
    | None -> ());
    if purge then begin
      let n = Llee.purge_quarantined eng in
      Printf.printf "purged %d quarantined entr%s\n" n
        (if n = 1 then "y" else "ies")
    end;
    exit 0
  end;
  let finish (outcome : Llee.Outcome.t) output st_lines =
    print_string output;
    (match outcome with
    | Llee.Outcome.Exit _ -> ()
    | o -> Printf.eprintf "%s\n" (Llee.Outcome.to_string o));
    if stats then begin
      Printf.eprintf "--- stats ---\n";
      List.iter (fun l -> Printf.eprintf "%s\n" l) st_lines
    end;
    exit (Llee.Outcome.exit_code outcome)
  in
  match engine with
  | "interp" ->
      let outcome, st = Llee.Outcome.run_main_interp ?fuel m in
      finish outcome (Interp.output st)
        [
          Printf.sprintf "llva instructions executed: %d"
            st.Interp.stats.Interp.steps;
          Printf.sprintf "calls: %d" st.Interp.stats.Interp.calls;
          Printf.sprintf "max call depth: %d" st.Interp.stats.Interp.max_depth;
          Printf.sprintf "functions lowered: %d" st.Interp.stats.Interp.lowered;
        ]
  | ("x86" | "sparc") as e ->
      let (module B) =
        Llee.backend (if e = "x86" then Llee.X86 else Llee.Sparc)
      in
      let cm = B.compile_module m in
      let outcome, st = Llee.Outcome.run_main ?fuel B.machine cm in
      finish outcome (Codegen.Machine.output st)
        [
          Printf.sprintf "native instructions: %d" st.Codegen.Machine.icount;
          Printf.sprintf "cycles: %d" st.Codegen.Machine.cycles;
          Printf.sprintf "static native instructions: %d"
            (B.module_instr_count cm);
          Printf.sprintf "native code bytes: %d" (B.module_code_size cm);
        ]
  | "llee-x86" | "llee-sparc" ->
      let target = if engine = "llee-x86" then Llee.X86 else Llee.Sparc in
      let storage =
        match cache_dir with
        | Some dir -> Tool_common.open_cache dir
        | None -> Llee.Storage.none
      in
      let eng = Llee.of_module ~storage ~peephole ~target m in
      let outcome, output = Llee.run ?fuel eng in
      finish outcome output
        [
          Printf.sprintf "functions translated: %d"
            eng.Llee.stats.Llee.translations;
          Printf.sprintf "cache hits: %d" eng.Llee.stats.Llee.cache_hits;
          Printf.sprintf "corrupt cache entries: %d"
            eng.Llee.stats.Llee.cache_corrupt;
          Printf.sprintf "quarantined cache entries: %d"
            eng.Llee.stats.Llee.cache_quarantined;
          Printf.sprintf "repaired cache entries: %d"
            eng.Llee.stats.Llee.cache_repaired;
          Printf.sprintf "storage errors contained: %d"
            eng.Llee.stats.Llee.storage_errors;
          Printf.sprintf "unreadable storage entries: %d"
            eng.Llee.storage.Llee.Storage.counters
              .Llee.Storage.unreadable;
          Printf.sprintf "translate time: %.3f ms"
            (eng.Llee.stats.Llee.translate_time *. 1000.0);
          Printf.sprintf "lint runs: %d" eng.Llee.stats.Llee.lint_runs;
          Printf.sprintf "lint skipped (verdict cached): %d"
            eng.Llee.stats.Llee.lint_skipped;
          Printf.sprintf "lint rejected: %d" eng.Llee.stats.Llee.lint_rejected;
          Printf.sprintf "lint blocked functions: %d"
            eng.Llee.stats.Llee.lint_blocked_funcs;
          Printf.sprintf "lint time: %.3f ms"
            (eng.Llee.stats.Llee.lint_time *. 1000.0);
          Printf.sprintf "peephole rewrites: %d"
            eng.Llee.stats.Llee.peep_rewrites;
          Printf.sprintf "peephole cycles saved (static): %d"
            eng.Llee.stats.Llee.peep_cycles_saved;
          Printf.sprintf "peephole searches: %d"
            eng.Llee.stats.Llee.peep_searches;
          Printf.sprintf "peephole table loads: %d"
            eng.Llee.stats.Llee.peep_table_loads;
          Printf.sprintf "peephole time: %.3f ms"
            (eng.Llee.stats.Llee.peep_time *. 1000.0);
          Printf.sprintf "tv runs: %d" eng.Llee.stats.Llee.tv_runs;
          Printf.sprintf "tv skipped (verdict cached): %d"
            eng.Llee.stats.Llee.tv_skipped;
          Printf.sprintf "tv mismatches: %d" eng.Llee.stats.Llee.tv_mismatches;
          Printf.sprintf "tv time: %.3f ms"
            (eng.Llee.stats.Llee.tv_time *. 1000.0);
          Printf.sprintf "cycles: %Ld" eng.Llee.stats.Llee.cycles;
        ]
  | e ->
      Printf.eprintf
        "unknown engine %s (interp, x86, sparc, llee-x86, llee-sparc)\n" e;
      exit 1

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM")
let engine = Arg.(value & opt string "interp" & info [ "engine"; "e" ] ~docv:"ENGINE")
let stats = Arg.(value & flag & info [ "stats" ])
let opt = Arg.(value & opt int 0 & info [ "O" ] ~docv:"LEVEL")

let fuel =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"instruction budget; exhausting it exits 124")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR" ~doc:"offline code cache for llee engines")

let peephole =
  Arg.(
    value & flag
    & info [ "peephole" ]
        ~doc:
          "apply the superoptimized peephole table in llee engines (learned \
           once and cached as a #peep# entry when --cache is given)")

let doctor =
  Arg.(
    value & flag
    & info [ "cache-doctor" ]
        ~doc:
          "inspect the quarantined entries of the --cache directory (name, \
           size, age) and exit without executing")

let purge =
  Arg.(
    value & flag
    & info [ "purge" ]
        ~doc:"with --cache-doctor: delete every quarantined entry")

let diff =
  Arg.(
    value
    & opt (some string) None
    & info [ "diff" ] ~docv:"FUNC"
        ~doc:
          "with --cache-doctor: compare FUNC's quarantined entry against a \
           fresh translation")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "lockstep-certify the native translation of every certifiable \
           function against the reference interpreter and exit without \
           executing (0 clean, 126 on a mismatch); with --cache the verdict \
           is recorded as a #tv# entry and reused on later runs")

let cmd =
  Cmd.v
    (Cmd.info "llva-run" ~doc:"execute LLVA programs")
    Term.(
      const run $ input $ engine $ stats $ opt $ fuel $ cache_dir $ peephole
      $ doctor $ purge $ diff $ certify)

let () = exit (Cmd.eval cmd)
