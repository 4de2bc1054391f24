(* The static compiler's pin: one line per workload and optimization
   level (-O0, -O1, -O2) with the byte count and MD5 of the virtual
   object code ([Llva.Encode.encode]) and the MD5 of the printed module
   ([Llva.Pretty.module_to_string], so value and block names are pinned
   as well as the encoding).

   Printed on stdout; the rule in test/dune diffs it against
   object_digests.expected under @runtest, so a change to the MiniC
   front end, the optimizer or the encoder that is meant to be
   behaviour-neutral must keep every line byte-identical. Regenerate with

     dune exec test/objects_main.exe > test/object_digests.expected

   only when the compiled code is meant to change. *)

let () =
  List.iter
    (fun level ->
      List.iter
        (fun (w : Workloads.workload) ->
          let m = Workloads.compile_optimized ~level w in
          let obj = Llva.Encode.encode m in
          Printf.printf "%-17s O%d bytes %6d object %s ir %s\n"
            w.Workloads.name level (String.length obj)
            (Digest.to_hex (Digest.string obj))
            (Digest.to_hex (Digest.string (Llva.Pretty.module_to_string m))))
        Workloads.all)
    [ 0; 1; 2 ]
