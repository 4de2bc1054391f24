(* llva-superopt: the offline enumerative superoptimizer behind the
   back-ends' peephole pass.

     llva_superopt --target x86lite --out tables/     # learn + write table
     llva_superopt --target all --out tables/         # both back-ends
     llva_superopt --check tables/x86lite.peep        # oracle re-verification
     llva_superopt --determinism --target x86lite     # two searches, same bytes
     llva_superopt --show tables/x86lite.peep         # human-readable dump

   Learning harvests every 1-4 instruction window the naive selectors
   emit across the 17-workload suite (compiled at -O1, which keeps the
   call graph), searches for cheaper replacements under the simulator
   cycle models, and admits only candidates the simulator-as-oracle
   certifies on boundary and random vectors. The resulting table is
   written via [Superopt.Table.to_string] (magic + version framed) and
   is byte-deterministic: same suite in, same table out. Each learned
   table is followed by the search's deterministic counters (windows,
   oracle sessions, candidates generated, pruned by the write-set
   pre-screen, screened, surviving the screen, full-checked, accepted).

   Exit codes: 0 — success; 2 — a --check found a rule the oracle now
   refutes, or a --determinism run produced diverging bytes. *)

open Cmdliner

let suite () =
  List.map (fun w -> Workloads.compile_optimized ~level:1 w) Workloads.all

let targets_of = function
  | "all" ->
      List.map
        (fun (module B : Superopt.Backend.S) -> B.name)
        Superopt.Backend.all
  | t -> [ t ]

let table_path dir target = Filename.concat dir (target ^ ".peep")

let learn_one mods target =
  let t0 = Unix.gettimeofday () in
  let stats = Superopt.Search.stats () in
  let tb =
    Superopt.Search.learn (Superopt.Backend.of_name target) ~stats mods
  in
  Printf.printf "%-10s %d rules, %d static cycles saved (%.2fs search)\n"
    target (Superopt.Table.count tb)
    (Superopt.Table.total_saved tb)
    (Unix.gettimeofday () -. t0);
  Printf.printf "%-10s %s\n" target (Superopt.Search.stats_line stats);
  tb

let do_learn out targets =
  let mods = suite () in
  List.iter
    (fun target ->
      let tb = learn_one mods target in
      match out with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
          let path = table_path dir target in
          let oc = open_out_bin path in
          output_string oc (Superopt.Table.to_string tb);
          close_out oc;
          Printf.printf "wrote %s (fingerprint %s)\n" path
            (Superopt.Table.fingerprint tb))
    targets;
  0

let load_table path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Superopt.Table.of_string s with
  | tb -> tb
  | exception Superopt.Table.Invalid_table why ->
      Printf.eprintf "%s: invalid table: %s\n" path why;
      exit 2

let do_check path =
  let tb = load_table path in
  match Superopt.Search.reverify tb with
  | [] ->
      Printf.printf
        "%s: all %d rules re-verified against the %s oracle (fingerprint %s)\n"
        path (Superopt.Table.count tb) tb.Superopt.Table.target
        (Superopt.Table.fingerprint tb);
      0
  | bad ->
      Printf.eprintf "%s: oracle refuted rule(s): %s\n" path
        (String.concat ", " (List.map string_of_int bad));
      2

let do_determinism targets =
  let mods = suite () in
  let code = ref 0 in
  List.iter
    (fun target ->
      let learn () =
        Superopt.Table.to_string
          (Superopt.Search.learn (Superopt.Backend.of_name target) mods)
      in
      let a = learn () in
      let b = learn () in
      if a = b then
        Printf.printf "%-10s deterministic: two searches, identical bytes\n"
          target
      else begin
        Printf.eprintf "%-10s NOT deterministic: searches diverged\n" target;
        code := 2
      end)
    targets;
  !code

let do_show path =
  print_string (Superopt.Table.render (load_table path));
  0

let run target out check determinism show =
  let targets = targets_of target in
  List.iter
    (fun t ->
      if Superopt.Backend.find t = None then begin
        Printf.eprintf "unknown target %s (x86lite, sparclite, all)\n" t;
        exit 2
      end)
    targets;
  let code =
    match (check, show) with
    | Some path, _ -> do_check path
    | None, Some path -> do_show path
    | None, None ->
        if determinism then do_determinism targets else do_learn out targets
  in
  exit code

let target =
  Arg.(
    value & opt string "all"
    & info [ "target"; "t" ] ~docv:"TARGET"
        ~doc:"back-end to learn for: x86lite, sparclite, or all")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"DIR"
        ~doc:"write learned tables as DIR/<target>.peep")

let check =
  Arg.(
    value
    & opt (some file) None
    & info [ "check" ] ~docv:"TABLE"
        ~doc:
          "re-verify every rule of a serialized table against the \
           simulator oracle; exit 2 if any rule is refuted")

let determinism =
  Arg.(
    value & flag
    & info [ "determinism" ]
        ~doc:"run the search twice and require byte-identical tables")

let show =
  Arg.(
    value
    & opt (some file) None
    & info [ "show" ] ~docv:"TABLE" ~doc:"print a table in readable form")

let cmd =
  Cmd.v
    (Cmd.info "llva-superopt"
       ~doc:"learn, verify and inspect superoptimized peephole tables")
    Term.(const run $ target $ out $ check $ determinism $ show)

let () = exit (Cmd.eval cmd)
