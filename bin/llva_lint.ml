(* llva-lint: the interprocedural static safety analyzer over LLVA
   modules (text or virtual object code).

     llva_lint input.ll                     # default checks, text report
     llva_lint input.bc --json              # machine-readable report
     llva_lint input.ll --checks uninit-load,oob-access
     llva_lint input.ll --checks all --werror
     llva_lint --workloads                  # lint the built-in suite
     llva_lint input.bc --cache-dir DIR     # record/reuse the LLEE verdict entry

   Exit codes: 0 — no gating findings; 1 — at least one error-severity
   finding (warnings gate too under --werror); 2 — usage error or the
   module failed the verifier (lint requires verified input). *)

open Cmdliner

let parse_checks = function
  | None -> None
  | Some "all" -> Some Check.Lint.check_ids
  | Some csv -> (
      let names =
        List.filter (fun s -> s <> "") (String.split_on_char ',' csv)
      in
      try
        Check.Lint.validate_checks names;
        Some names
      with Check.Lint.Unknown_check c ->
        Printf.eprintf "unknown check %s (use --list-checks)\n" c;
        exit 2)

let report_diags ~json ~werror diags =
  if json then print_endline (Check.Diag.render_json diags)
  else begin
    List.iter (fun d -> print_endline (Check.Diag.to_text d)) diags;
    let e = Check.Diag.count_severity Check.Diag.Error diags in
    let w = Check.Diag.count_severity Check.Diag.Warning diags in
    Printf.printf "%d error%s, %d warning%s\n" e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")
  end;
  Check.Diag.count_severity Check.Diag.Error diags > 0
  || (werror && Check.Diag.count_severity Check.Diag.Warning diags > 0)

let lint_module ?checks ~json ~werror m =
  report_diags ~json ~werror (Check.Lint.run ?checks m)

(* --cache-dir: run the lint-before-cache path against an on-disk LLEE
   cache. A first run analyzes and records the verdict entry (pre-seeding
   the cache for later llva-run/LLEE launches of the same object code); a
   later run of the identical module reuses the recorded verdict and
   performs zero recomputation. The cache status goes to stderr so stdout
   stays the plain report. *)
let lint_via_cache ~dir ~json ~werror m =
  let storage = Tool_common.open_cache dir in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  let v = Llee.verdict eng in
  Printf.eprintf "lint verdict for module %s: %s (analysis v%d)\n"
    eng.Llee.key
    (if eng.Llee.stats.Llee.lint_skipped > 0 then "reused from cache"
     else "computed and recorded")
    Check.Lint.version;
  report_diags ~json ~werror (Check.Lint.verdict_diags v)

let lint_workloads ?checks ~json ~werror () =
  let failed = ref false in
  let reports =
    List.map
      (fun w ->
        let m = Workloads.compile_optimized ~level:2 w in
        (match Llva.Verify.verify_module m with
        | [] -> ()
        | errs ->
            List.iter (fun e -> Printf.eprintf "verify: %s\n" e) errs;
            exit 2);
        let diags = Check.Lint.run ?checks m in
        if Check.Diag.count_severity Check.Diag.Error diags > 0 then
          failed := true;
        if werror && Check.Diag.count_severity Check.Diag.Warning diags > 0
        then failed := true;
        (w.Workloads.name, diags))
      Workloads.all
  in
  if json then
    print_endline
      (Check.Json.to_string ~pretty:true
         (Check.Json.Obj
            (List.map
               (fun (name, diags) -> (name, Check.Diag.to_json diags))
               reports)))
  else
    List.iter
      (fun (name, diags) ->
        if diags = [] then Printf.printf "%-18s clean\n" name
        else begin
          Printf.printf "%-18s %d finding(s)\n" name (List.length diags);
          List.iter (fun d -> print_endline ("  " ^ Check.Diag.to_text d)) diags
        end)
      reports;
  !failed

(* --ranges: print the interprocedural value-range table instead of a
   lint report — one section per defined function with per-argument,
   per-instruction, and return ranges. *)
let show_ranges m =
  let t = Check.Ranges.compute m in
  List.iter print_endline (Check.Ranges.render t);
  Printf.eprintf "range analysis: %d sweep%s, %d interprocedural round%s%s\n"
    (Check.Ranges.total_sweeps t)
    (if Check.Ranges.total_sweeps t = 1 then "" else "s")
    (Check.Ranges.rounds t)
    (if Check.Ranges.rounds t = 1 then "" else "s")
    (if Check.Ranges.fixpoint_reached t then "" else " (budget exhausted)")

(* --relations: print the relational fact table — per-function summary
   bounds (arg <= arg + c, arg <= len(ptr arg) + c), guard difference
   facts per constrained edge, and no-wrap flow equations. *)
let show_relations m =
  let t = Check.Ranges.compute m in
  List.iter print_endline (Check.Ranges.render_relations t);
  Printf.eprintf "relational analysis: %d fact%s%s\n"
    (Check.Ranges.rel_fact_count t)
    (if Check.Ranges.rel_fact_count t = 1 then "" else "s")
    (if Check.Ranges.rel_within_budget t then "" else " (node budget hit)")

(* --workloads --relations: one summary line per workload — proven fact
   count and the cost of building + closing every DBM the oob checker
   would consult, on a fresh analysis (the EXPERIMENTS.md table). *)
let workloads_relations () =
  List.iter
    (fun w ->
      let m = Workloads.compile_optimized ~level:2 w in
      let t = Check.Ranges.compute m in
      let t0 = Unix.gettimeofday () in
      Check.Ranges.force_relations t;
      let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Printf.printf "%-18s %4d fact%s %6.2f ms%s\n" w.Workloads.name
        (Check.Ranges.rel_fact_count t)
        (if Check.Ranges.rel_fact_count t = 1 then " " else "s")
        dt
        (if Check.Ranges.rel_within_budget t then ""
         else "  (node budget hit)"))
    Workloads.all

let run input json checks list_checks werror workloads cache_dir ranges
    relations =
  if list_checks then begin
    List.iter
      (fun (c : Check.Lint.check_info) ->
        Printf.printf "%-18s %s%s\n" c.Check.Lint.id
          (if c.Check.Lint.default_on then "" else "[opt-in] ")
          c.Check.Lint.descr)
      Check.Lint.catalogue;
    exit 0
  end;
  let checks = parse_checks checks in
  (match cache_dir with
  | Some _ when workloads || checks <> None ->
      (* the recorded verdict is shared with LLEE, which lints with the
         default check set; a custom set must not poison it *)
      prerr_endline "--cache-dir takes a single input and no --checks";
      exit 2
  | _ -> ());
  let failed =
    if workloads && relations then begin
      workloads_relations ();
      false
    end
    else if workloads then lint_workloads ?checks ~json ~werror ()
    else
      match input with
      | None ->
          prerr_endline "an input file is required (or --workloads)";
          exit 2
      | Some path ->
          let m = Tool_common.load_module path in
          (match Llva.Verify.verify_module m with
          | [] -> ()
          | errs ->
              List.iter (fun e -> Printf.eprintf "verify: %s\n" e) errs;
              prerr_endline "lint requires a verified module";
              exit 2);
          if ranges then begin
            show_ranges m;
            false
          end
          else if relations then begin
            show_relations m;
            false
          end
          else
            (match cache_dir with
            | Some dir -> lint_via_cache ~dir ~json ~werror m
            | None -> lint_module ?checks ~json ~werror m)
  in
  exit (if failed then 1 else 0)

let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT")
let json = Arg.(value & flag & info [ "json" ] ~doc:"emit a JSON report")

let checks =
  Arg.(
    value
    & opt (some string) None
    & info [ "checks" ] ~docv:"C1,C2,..."
        ~doc:"comma-separated check ids, or 'all' (default: the default set)")

let list_checks = Arg.(value & flag & info [ "list-checks" ])

let werror =
  Arg.(
    value & flag
    & info [ "werror"; "Werror" ] ~doc:"treat warnings as gating errors")

let workloads =
  Arg.(
    value & flag
    & info [ "workloads" ]
        ~doc:"lint the 17 built-in workloads (optimized at -O2)")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "lint through an on-disk LLEE cache: record the verdict entry on \
           first analysis, reuse it on later runs of the same module")

let ranges =
  Arg.(
    value & flag
    & info [ "ranges" ]
        ~doc:
          "print the interprocedural value-range table for the input \
           module instead of a lint report")

let relations =
  Arg.(
    value & flag
    & info [ "relations" ]
        ~doc:
          "print the relational fact table (difference bounds, symbolic \
           argument/length bounds, flow equations) for the input module \
           instead of a lint report")

let cmd =
  Cmd.v
    (Cmd.info "llva-lint" ~doc:"static safety analysis over LLVA modules")
    Term.(
      const run $ input $ json $ checks $ list_checks $ werror $ workloads
      $ cache_dir $ ranges $ relations)

let () = exit (Cmd.eval cmd)
