(* The range-analysis pin: one line per workload and optimization level
   (-O0, -O1, -O2), and one per LLVA assembly file named on the command
   line, with the MD5 of the value-range table
   ([Check.Ranges.render]), of the relational fact table
   ([Check.Ranges.render_relations]) and of the lint verdict JSON
   ([Check.Lint.verdict_to_json]), plus [Check.Ranges.total_sweeps].

   Printed on stdout; the @lint rule in test/dune diffs it against
   ranges.expected, so a change to the analysis that is meant to be
   behaviour-neutral (a faster fixpoint, a shared call graph) must keep
   every line byte-identical. Regenerate with

     dune exec test/ranges_main.exe -- examples/lint_ranges.ll \
       examples/lint_relational.ll examples/lint_clean.ll \
       examples/lint_buggy.ll > test/ranges.expected

   only when the analysis is meant to change. *)

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let pin name (m : Llva.Ir.modl) =
  let t = Check.Ranges.compute m in
  let verdict =
    Check.Json.to_string (Check.Lint.verdict_to_json (Check.Lint.verdict m))
  in
  Printf.printf "%-22s sweeps %5d ranges %s relations %s verdict %s\n" name
    (Check.Ranges.total_sweeps t)
    (md5_lines (Check.Ranges.render t))
    (md5_lines (Check.Ranges.render_relations t))
    (Digest.to_hex (Digest.string verdict))

let () =
  List.iter
    (fun level ->
      List.iter
        (fun (w : Workloads.workload) ->
          pin
            (Printf.sprintf "%s O%d" w.Workloads.name level)
            (Workloads.compile_optimized ~level w))
        Workloads.all)
    [ 0; 1; 2 ];
  (* the lint fixtures named on the command line *)
  List.iter
    (fun path ->
      let src = In_channel.with_open_bin path In_channel.input_all in
      let name = Filename.remove_extension (Filename.basename path) in
      pin name (Llva.Resolve.parse_module ~name src))
    (List.tl (Array.to_list Sys.argv))
