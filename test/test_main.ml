let () =
  Alcotest.run "llva"
    [
      ("types", Test_types.suite);
      ("ir", Test_ir.suite);
      ("parser", Test_parser.suite);
      ("interp", Test_interp.suite);
      ("encode", Test_encode.suite);
      ("analysis", Test_analysis.suite);
      ("transform", Test_transform.suite);
      ("backends", Test_backends.suite);
      ("llee", Test_llee.suite);
      ("outcome", Test_outcome.suite);
      ("storage", Test_storage.suite);
      ("minic", Test_minic.suite);
      ("workloads", Test_workloads.suite);
      ("vmem", Test_vmem.suite);
      ("codegen", Test_codegen.suite);
      ("lint", Test_lint.suite);
      ("ranges", Test_ranges.suite);
      ("tv", Test_tv.suite);
      ("superopt", Test_superopt.suite);
      ("sims", Test_sims.suite);
    ]
