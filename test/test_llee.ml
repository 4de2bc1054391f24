(* LLEE execution-manager tests: JIT-on-demand, offline caching,
   timestamps, storage backends, profile collection, trace formation and
   relayout, and the profile round-trip. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let program =
  {|
declare void %print_int(int)

int %hot(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %inext, %latch ]
  %acc = phi int [ 0, %entry ], [ %acc3, %latch ]
  %odd = rem int %i, 2
  %isodd = seteq int %odd, 1
  br bool %isodd, label %odd_path, label %even_path
odd_path:
  %a1 = add int %acc, %i
  br label %latch
even_path:
  %a2 = add int %acc, 1
  br label %latch
latch:
  %acc3 = phi int [ %a1, %odd_path ], [ %a2, %even_path ]
  %inext = add int %i, 1
  %done = setge int %inext, %n
  br bool %done, label %out, label %loop
out:
  ret int %acc3
}

int %cold_helper(int %x) {
entry:
  %r = mul int %x, 3
  ret int %r
}

int %main() {
entry:
  %h = call int %hot(int 50)
  call void %print_int(int %h)
  ret int %h
}
|}

let expected_result = Gen.run_interp (Gen.parse program)

(* unwrap a launch that must finish normally: [Llee.run] returns a
   structured outcome, and these tests expect a plain exit *)
let run_ok eng =
  match Llee.run eng with
  | Llee.Outcome.Exit c, out -> (c, out)
  | o, _ -> Alcotest.fail ("unexpected outcome: " ^ Llee.Outcome.to_string o)

let test_jit_no_storage () =
  (* no OS storage: every launch translates online (the DAISY/Crusoe
     situation) *)
  let eng = Llee.of_module ~target:Llee.X86 (Gen.parse program) in
  let r = run_ok eng in
  check_bool "result matches interp" true (r = expected_result);
  (* only functions actually called get translated: cold_helper is not *)
  check_int "two functions JITed" 2 eng.Llee.stats.Llee.translations;
  check_int "no cache hits" 0 eng.Llee.stats.Llee.cache_hits;
  check_bool "cycles counted" true
    (Int64.compare eng.Llee.stats.Llee.cycles 0L > 0)

let test_warm_cache () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let cold = Llee.of_module ~storage ~target:Llee.X86 m in
  let r1 = run_ok cold in
  check_bool "cold run ok" true (r1 = expected_result);
  check_int "cold: translated" 2 cold.Llee.stats.Llee.translations;
  (* second launch of the same object code: all code comes from cache *)
  let warm = Llee.fresh_run cold in
  let r2 = run_ok warm in
  check_bool "warm run ok" true (r2 = expected_result);
  check_int "warm: no translations" 0 warm.Llee.stats.Llee.translations;
  check_int "warm: cache hits" 2 warm.Llee.stats.Llee.cache_hits

let test_offline_translation () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let eng = Llee.of_module ~storage ~target:Llee.Sparc m in
  (* idle-time: translate everything without executing *)
  Llee.translate_offline eng;
  check_int "all three functions translated" 3 eng.Llee.stats.Llee.translations;
  check_bool "cache populated" true (storage.Llee.Storage.size () > 0);
  let launch = Llee.fresh_run eng in
  let r = run_ok launch in
  check_bool "runs from cache" true (r = expected_result);
  check_int "launch: zero translations" 0
    launch.Llee.stats.Llee.translations;
  check_int "launch: hits" 2 launch.Llee.stats.Llee.cache_hits

let test_stale_timestamp () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let v1 = Llee.of_module ~storage ~timestamp:0.0 ~target:Llee.X86 m in
  ignore (Llee.run v1);
  (* "recompile" the program with a newer timestamp than any cache entry:
     entries written during v1 (logical clocks 1..) would be valid, so
     jump the program timestamp far ahead *)
  let v2 =
    Llee.of_module ~storage ~timestamp:1e9 ~target:Llee.X86
      (Gen.parse program)
  in
  ignore (Llee.run v2);
  check_int "stale entries retranslated" 2 v2.Llee.stats.Llee.translations;
  check_int "no stale hits" 0 v2.Llee.stats.Llee.cache_hits

let test_on_disk_storage () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "llee_cache_test" in
  let storage = Llee.Storage.on_disk ~dir in
  let m = Gen.parse program in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  let r1 = run_ok eng in
  check_bool "disk-cached run" true (r1 = expected_result);
  let warm = Llee.fresh_run eng in
  let r2 = run_ok warm in
  check_bool "warm disk run" true (r2 = expected_result);
  check_int "warm from disk" 0 warm.Llee.stats.Llee.translations;
  (* cleanup *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

let test_profile_collection () =
  let m = Gen.parse program in
  let prof, code, _ = Llee.Profile.collect m in
  check_bool "profiled run correct" true (code = fst expected_result);
  let f = Option.get (Ir.find_func m "hot") in
  let block name = List.find (fun (b : Ir.block) -> b.Ir.bname = name) f.Ir.fblocks in
  (* the loop executes 50 times: latch -> loop edge taken 49 times *)
  check_int "back edge count" 49
    (Llee.Profile.edge_count prof (block "latch") (block "loop"));
  check_int "odd path taken 25x" 25
    (Llee.Profile.edge_count prof (block "loop") (block "odd_path"));
  check_bool "latch hot" true (Llee.Profile.block_count prof (block "latch") >= 50);
  (* serialization round-trip *)
  let prof2 = Llee.Profile.deserialize (Llee.Profile.serialize prof) in
  check_int "serialized edge count" 49
    (Llee.Profile.edge_count prof2 (block "latch") (block "loop"))

let test_trace_formation () =
  let m = Gen.parse program in
  let prof, _, _ = Llee.Profile.collect m in
  let f = Option.get (Ir.find_func m "hot") in
  let traces = Llee.Trace.form_traces prof f in
  check_bool "at least one trace" true (traces <> []);
  let t = List.hd traces in
  check_bool "trace has >= 2 blocks" true (List.length t.Llee.Trace.blocks >= 2);
  (* the trace follows the hot loop, not the exit *)
  check_bool "trace stays in loop" true
    (List.for_all
       (fun (b : Ir.block) -> b.Ir.bname <> "out" || List.length t.Llee.Trace.blocks > 4)
       t.Llee.Trace.blocks)

let test_reoptimize_preserves_semantics () =
  let eng = Llee.of_module ~target:Llee.X86 (Gen.parse program) in
  let r1 = run_ok eng in
  let eng2, _moved = Llee.reoptimize eng in
  let r2 = run_ok eng2 in
  check_bool "same behaviour after relayout" true (r1 = r2);
  check_bool "verifies after relayout" true (Verify.verify_module eng2.Llee.m = [])

let test_reoptimize_helps_or_neutral () =
  (* trace relayout should never increase dynamic instruction count by
     more than a sliver, and usually reduces taken branches *)
  let eng = Llee.of_module ~target:Llee.Sparc (Gen.parse program) in
  ignore (Llee.run eng);
  let before = eng.Llee.stats.Llee.native_instrs in
  let eng2, _ = Llee.reoptimize eng in
  ignore (Llee.run eng2);
  let after = eng2.Llee.stats.Llee.native_instrs in
  check_bool
    (Printf.sprintf "dynamic instrs %Ld -> %Ld" before after)
    true
    (Int64.compare after (Int64.add before (Int64.div before 20L)) <= 0)

let test_smc_with_llee () =
  let src =
    {|
declare void %llva.smc.replace(int (int)*, int (int)*)
int %orig(int %x) {
entry:
  %r = add int %x, 1
  ret int %r
}
int %patched(int %x) {
entry:
  %r = add int %x, 100
  ret int %r
}
int %main() {
entry:
  %a = call int %orig(int 0)
  call void %llva.smc.replace(int (int)* %orig, int (int)* %patched)
  %b = call int %orig(int 0)
  %r = add int %a, %b
  ret int %r
}
|}
  in
  let eng = Llee.of_module ~target:Llee.X86 (Gen.parse src) in
  let code, _ = run_ok eng in
  check_int "patched applies to future calls" 101 code;
  check_bool "invalidation observed" true
    (eng.Llee.stats.Llee.invalidations >= 1)

let suite =
  [
    Alcotest.test_case "jit without storage" `Quick test_jit_no_storage;
    Alcotest.test_case "warm cache" `Quick test_warm_cache;
    Alcotest.test_case "offline translation" `Quick test_offline_translation;
    Alcotest.test_case "stale timestamp" `Quick test_stale_timestamp;
    Alcotest.test_case "on-disk storage" `Quick test_on_disk_storage;
    Alcotest.test_case "profile collection" `Quick test_profile_collection;
    Alcotest.test_case "trace formation" `Quick test_trace_formation;
    Alcotest.test_case "reoptimize semantics" `Quick
      test_reoptimize_preserves_semantics;
    Alcotest.test_case "reoptimize dynamic count" `Quick
      test_reoptimize_helps_or_neutral;
    Alcotest.test_case "smc with llee" `Quick test_smc_with_llee;
  ]

let test_corrupted_cache () =
  (* a corrupted or foreign cache entry must be treated as a miss, not
     crash the deserializer *)
  let storage = Llee.Storage.in_memory () in
  let eng = Llee.of_module ~storage ~target:Llee.X86 (Gen.parse program) in
  ignore (Llee.run eng);
  (* trash every cache entry *)
  let key f = Printf.sprintf "%s.%s.x86lite" eng.Llee.key f in
  List.iter
    (fun f -> storage.Llee.Storage.write (key f) "garbage bytes!")
    [ "main"; "hot" ];
  let again = Llee.fresh_run eng in
  let r = run_ok again in
  check_bool "still correct" true (r = expected_result);
  check_int "retranslated after corruption" 2
    again.Llee.stats.Llee.translations;
  check_int "no bogus hits" 0 again.Llee.stats.Llee.cache_hits;
  check_int "bad-magic entries counted" 2 again.Llee.stats.Llee.cache_corrupt

let test_truncated_marshal () =
  (* magic intact but the payload cut short: the frame checksum no longer
     matches, so the entry is quarantined (never re-read), retranslated,
     and the rewrite counts as a repair *)
  let storage = Llee.Storage.in_memory () in
  let eng = Llee.of_module ~storage ~target:Llee.X86 (Gen.parse program) in
  ignore (Llee.run eng);
  let key f = Printf.sprintf "%s.%s.x86lite" eng.Llee.key f in
  List.iter
    (fun f ->
      match storage.Llee.Storage.read (key f) with
      | Some e ->
          let d = e.Llee.Storage.data in
          storage.Llee.Storage.write (key f)
            (String.sub d 0 (String.length d - 8))
      | None -> Alcotest.fail ("missing cache entry for " ^ f))
    [ "main"; "hot" ];
  let again = Llee.fresh_run eng in
  let r = run_ok again in
  check_bool "still correct after truncation" true (r = expected_result);
  check_int "retranslated after truncation" 2 again.Llee.stats.Llee.translations;
  check_int "no bogus hits" 0 again.Llee.stats.Llee.cache_hits;
  check_int "checksum mismatches quarantined" 2
    again.Llee.stats.Llee.cache_quarantined;
  check_int "both entries repaired" 2 again.Llee.stats.Llee.cache_repaired;
  (* the repaired cache serves the next launch with no retranslation *)
  let healed = Llee.fresh_run eng in
  let r2 = run_ok healed in
  check_bool "healed cache correct" true (r2 = expected_result);
  check_int "healed: no translations" 0 healed.Llee.stats.Llee.translations;
  check_int "healed: nothing quarantined" 0
    healed.Llee.stats.Llee.cache_quarantined

let test_module_entry_fast_path () =
  (* offline translation writes a whole-module entry; a warm launch can
     run entirely from it even with every per-function entry gone *)
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  Llee.translate_offline eng;
  let key f = Printf.sprintf "%s.%s.x86lite" eng.Llee.key f in
  List.iter
    (fun f -> storage.Llee.Storage.delete (key f))
    [ "main"; "hot"; "cold_helper" ];
  let warm = Llee.fresh_run eng in
  let r = run_ok warm in
  check_bool "runs from module entry" true (r = expected_result);
  check_int "module entry: no translations" 0 warm.Llee.stats.Llee.translations;
  check_int "module entry: hits" 2 warm.Llee.stats.Llee.cache_hits

let test_module_entry_fallback () =
  (* ... and conversely: with the module entry corrupted, the launch
     falls back to the per-function entries *)
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  Llee.translate_offline eng;
  let module_key = Printf.sprintf "%s.#module#.x86lite" eng.Llee.key in
  storage.Llee.Storage.write module_key
    (Llee.frame_entry "not a marshalled module");
  let warm = Llee.fresh_run eng in
  let r = run_ok warm in
  check_bool "falls back to per-function entries" true (r = expected_result);
  check_int "fallback: no translations" 0 warm.Llee.stats.Llee.translations;
  check_int "fallback: per-function hits" 2 warm.Llee.stats.Llee.cache_hits;
  check_bool "module corruption counted" true
    (warm.Llee.stats.Llee.cache_corrupt >= 1);
  (* deleting the module entry entirely behaves the same *)
  storage.Llee.Storage.delete module_key;
  let warm2 = Llee.fresh_run eng in
  ignore (Llee.run warm2);
  check_int "deleted module entry: hits" 2 warm2.Llee.stats.Llee.cache_hits

let test_stale_module_entry () =
  (* a newer program timestamp evicts the whole-module entry as well as
     the per-function entries: everything retranslates *)
  let storage = Llee.Storage.in_memory () in
  let bytes = Llva.Encode.encode (Gen.parse program) in
  let v1 = Llee.load ~storage ~timestamp:0.0 ~target:Llee.X86 bytes in
  Llee.translate_offline v1;
  let v2 = Llee.load ~storage ~timestamp:1e9 ~target:Llee.X86 bytes in
  let r = run_ok v2 in
  check_bool "stale offline cache: correct" true (r = expected_result);
  check_int "stale offline cache: retranslated" 2
    v2.Llee.stats.Llee.translations;
  check_int "stale offline cache: no hits" 0 v2.Llee.stats.Llee.cache_hits;
  (* the stale module entry was deleted, not just skipped *)
  let module_key = Printf.sprintf "%s.#module#.x86lite" v2.Llee.key in
  check_bool "stale module entry evicted" true
    (storage.Llee.Storage.read module_key = None)

let test_offline_deterministic () =
  (* two offline translations of the same bytes into separate caches
     write the same entries with byte-identical contents *)
  let bytes = Llva.Encode.encode (Gen.parse program) in
  let s1 = Llee.Storage.in_memory () in
  let s2 = Llee.Storage.in_memory () in
  let e1 = Llee.load ~storage:s1 ~target:Llee.X86 bytes in
  let e2 = Llee.load ~storage:s2 ~target:Llee.X86 bytes in
  Llee.translate_offline e1;
  Llee.translate_offline e2;
  check_int "same translation count" e1.Llee.stats.Llee.translations
    e2.Llee.stats.Llee.translations;
  check_int "same cache size" (s1.Llee.Storage.size ())
    (s2.Llee.Storage.size ());
  List.iter
    (fun f ->
      let key = Printf.sprintf "%s.%s.x86lite" e1.Llee.key f in
      match (s1.Llee.Storage.read key, s2.Llee.Storage.read key) with
      | Some a, Some b ->
          check_bool ("identical entry for " ^ f) true
            (String.equal a.Llee.Storage.data b.Llee.Storage.data)
      | _ -> Alcotest.fail ("missing cache entry for " ^ f))
    [ "main"; "hot"; "cold_helper"; "#module#" ];
  (* the lint verdict entry must be byte-identical as well *)
  (match
     ( s1.Llee.Storage.read (Llee.entry_name e1 Llee.Kind.lint),
       s2.Llee.Storage.read (Llee.entry_name e2 Llee.Kind.lint) )
   with
  | Some a, Some b ->
      check_bool "identical verdict entry" true
        (String.equal a.Llee.Storage.data b.Llee.Storage.data)
  | _ -> Alcotest.fail "missing lint verdict entry");
  (* and the offline cache actually runs *)
  let warm = Llee.fresh_run e2 in
  let r = run_ok warm in
  check_bool "offline cache runs" true (r = expected_result);
  check_int "offline cache: no translations" 0
    warm.Llee.stats.Llee.translations

let test_reoptimize_with_storage () =
  (* reoptimize's two validation runs share the caller's storage; the
     layout it keeps must behave as the original *)
  let storage = Llee.Storage.in_memory () in
  let eng = Llee.of_module ~storage ~target:Llee.X86 (Gen.parse program) in
  let r1 = run_ok eng in
  let eng2, _moved = Llee.reoptimize eng in
  let r2 = run_ok eng2 in
  check_bool "same behaviour after validation on shared storage" true (r1 = r2)

(* ---------- cache identity regressions ---------- *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let code_name eng f = Llee.entry_name eng (Llee.Kind.code f)

let fresh_tmp_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d" tag (Unix.getpid ()))
  in
  (match Sys.readdir dir with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ());
  dir

let rm_rf_dir dir =
  (match Sys.readdir dir with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_module_named_function () =
  (* "__module__" is a perfectly legal LLVA identifier, so it must get its
     own cache entry, distinct from the reserved whole-module entry (which
     is '#'-framed exactly because identifiers cannot contain '#') *)
  let src =
    {|
int %__module__(int %x) {
entry:
  %r = add int %x, 41
  ret int %r
}
int %main() {
entry:
  %r = call int %__module__(int 1)
  ret int %r
}
|}
  in
  let m = Gen.parse src in
  let expected = Gen.run_interp m in
  let storage = Llee.Storage.in_memory () in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  Llee.translate_offline eng;
  check_bool "function and reserved entries are distinct" true
    (code_name eng "__module__"
    <> Llee.entry_name eng Llee.Kind.whole_module);
  check_bool "function entry present" true
    (storage.Llee.Storage.read (code_name eng "__module__") <> None);
  check_bool "module entry present" true
    (storage.Llee.Storage.read (Llee.entry_name eng Llee.Kind.whole_module)
    <> None);
  let warm = Llee.fresh_run eng in
  let r = run_ok warm in
  check_bool "runs with a function named __module__" true (r = expected);
  check_int "warm: nothing retranslated" 0 warm.Llee.stats.Llee.translations;
  check_int "warm: both functions from cache" 2 warm.Llee.stats.Llee.cache_hits;
  check_int "warm: nothing corrupt" 0 warm.Llee.stats.Llee.cache_corrupt

let test_storage_name_collision () =
  (* distinct cache names must never share an on-disk file: 'a$b' and
     'a_b' used to sanitize to the same path, silently serving one
     entry's native code for the other *)
  let dir = fresh_tmp_dir "llee_sanitize_test" in
  let storage = Llee.Storage.on_disk ~dir in
  storage.Llee.Storage.write "a$b" "dollar entry";
  storage.Llee.Storage.write "a_b" "underscore entry";
  (match storage.Llee.Storage.read "a$b" with
  | Some e -> check_string "a$b keeps its own data" "dollar entry" e.Llee.Storage.data
  | None -> Alcotest.fail "a$b entry lost");
  (match storage.Llee.Storage.read "a_b" with
  | Some e -> check_string "a_b keeps its own data" "underscore entry" e.Llee.Storage.data
  | None -> Alcotest.fail "a_b entry lost");
  (* deleting one must not delete the other *)
  storage.Llee.Storage.delete "a$b";
  check_bool "a$b gone" true (storage.Llee.Storage.read "a$b" = None);
  check_bool "a_b survives" true (storage.Llee.Storage.read "a_b" <> None);
  rm_rf_dir dir

let test_storage_write_midfail () =
  (* a write that fails after open (full disk: flushing to /dev/full
     raises on close_out) must close the fd and remove the tmp file *)
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd")
  then ()
  else begin
    let dir = fresh_tmp_dir "llee_midfail_test" in
    let storage = Llee.Storage.on_disk ~dir in
    (* a successful write reveals the sanitized path the name maps to *)
    storage.Llee.Storage.write "victim" "original data";
    let file =
      match Sys.readdir dir with
      | [| f |] -> Filename.concat dir f
      | _ -> Alcotest.fail "expected exactly one cache file"
    in
    let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
    let fd_count () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = fd_count () in
    for _ = 1 to 5 do
      (* route the tmp file to /dev/full so the flush on close fails *)
      Unix.symlink "/dev/full" tmp;
      storage.Llee.Storage.write "victim" "replacement that never lands";
      check_bool "tmp file removed after failed write" true
        (not (Sys.file_exists tmp))
    done;
    check_int "no fd leaked across failed writes" before (fd_count ());
    (match storage.Llee.Storage.read "victim" with
    | Some e ->
        check_string "failed write left the old entry intact" "original data"
          e.Llee.Storage.data
    | None -> Alcotest.fail "victim entry lost");
    (* and the storage still works afterwards *)
    storage.Llee.Storage.write "victim" "new data";
    (match storage.Llee.Storage.read "victim" with
    | Some e -> check_string "storage usable after failure" "new data" e.Llee.Storage.data
    | None -> Alcotest.fail "post-failure write lost");
    rm_rf_dir dir
  end

(* ---------- lint-before-cache ---------- *)

(* provably wrong: uninit-load reports an error-severity finding *)
let poisoned_program =
  {|
int %main() {
entry:
  %x = alloca int
  %v = load int* %x
  ret int %v
}
|}

let test_lint_gate_blocks_poisoned_cache () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse poisoned_program in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  Llee.translate_offline eng;
  check_int "offline: lint ran once" 1 eng.Llee.stats.Llee.lint_runs;
  check_int "offline: rejected" 1 eng.Llee.stats.Llee.lint_rejected;
  check_int "offline: nothing translated" 0 eng.Llee.stats.Llee.translations;
  check_bool "no native function entry in storage" true
    (storage.Llee.Storage.read (code_name eng "main") = None);
  check_bool "no whole-module entry in storage" true
    (storage.Llee.Storage.read (Llee.entry_name eng Llee.Kind.whole_module)
    = None);
  check_bool "verdict entry recorded" true
    (storage.Llee.Storage.read (Llee.entry_name eng Llee.Kind.lint) <> None);
  (* a launch degrades to a reported failure, not a crash *)
  let launch = Llee.fresh_run eng in
  let outcome, out = Llee.run launch in
  check_bool "degrades to Cache_degraded" true
    (match outcome with Llee.Outcome.Cache_degraded _ -> true | _ -> false);
  check_int "lint-rejected exit code" Llee.lint_rejected_code
    (Llee.Outcome.exit_code outcome);
  check_bool "report names the finding" true (contains out "uninit-load");
  check_int "launch: verdict reused" 1 launch.Llee.stats.Llee.lint_skipped;
  check_int "launch: zero lint recomputation" 0 launch.Llee.stats.Llee.lint_runs;
  check_int "launch: rejected" 1 launch.Llee.stats.Llee.lint_rejected;
  check_int "launch: nothing translated" 0 launch.Llee.stats.Llee.translations;
  check_bool "still no native code cached" true
    (storage.Llee.Storage.read (code_name eng "main") = None);
  (* without storage there is nothing to protect: the pure-JIT path does
     not lint at all (the DAISY/Crusoe situation is unchanged) *)
  let free = Llee.of_module ~target:Llee.X86 m in
  ignore (Llee.run free);
  check_int "no storage: no lint" 0 free.Llee.stats.Llee.lint_runs;
  check_int "no storage: not rejected" 0 free.Llee.stats.Llee.lint_rejected

let test_lint_warm_zero_recompute () =
  let storage = Llee.Storage.in_memory () in
  let cold = Llee.of_module ~storage ~target:Llee.X86 (Gen.parse program) in
  let r1 = run_ok cold in
  check_bool "clean module still runs" true (r1 = expected_result);
  check_int "cold: linted once" 1 cold.Llee.stats.Llee.lint_runs;
  check_int "cold: nothing reused" 0 cold.Llee.stats.Llee.lint_skipped;
  check_int "cold: not rejected" 0 cold.Llee.stats.Llee.lint_rejected;
  let warm = Llee.fresh_run cold in
  let r2 = run_ok warm in
  check_bool "warm run ok" true (r2 = expected_result);
  check_int "warm: zero lint recomputation" 0 warm.Llee.stats.Llee.lint_runs;
  check_int "warm: verdict reused" 1 warm.Llee.stats.Llee.lint_skipped;
  check_int "warm: not rejected" 0 warm.Llee.stats.Llee.lint_rejected

let test_lint_verdict_corrupt_or_stale () =
  let storage = Llee.Storage.in_memory () in
  let cold = Llee.of_module ~storage ~target:Llee.X86 (Gen.parse program) in
  ignore (Llee.run cold);
  let name = Llee.entry_name cold Llee.Kind.lint in
  (* corrupt verdict: exactly one re-lint, and the verdict is re-recorded *)
  storage.Llee.Storage.write name "definitely not a verdict";
  let w1 = Llee.fresh_run cold in
  ignore (Llee.run w1);
  check_int "corrupt verdict: exactly one re-lint" 1 w1.Llee.stats.Llee.lint_runs;
  check_int "corrupt verdict: nothing reused" 0 w1.Llee.stats.Llee.lint_skipped;
  check_bool "corruption counted" true (w1.Llee.stats.Llee.cache_corrupt >= 1);
  let w2 = Llee.fresh_run cold in
  ignore (Llee.run w2);
  check_int "re-recorded verdict reused" 1 w2.Llee.stats.Llee.lint_skipped;
  check_int "re-recorded verdict: no recompute" 0 w2.Llee.stats.Llee.lint_runs;
  (* framed but version-bumped payload under the current entry name: the
     strict reader rejects it and the launch re-lints exactly once *)
  let bumped =
    Printf.sprintf
      "{\"lint_version\": %d, \"checks\": [], \"report\": {\"version\": 1, \
       \"errors\": 0, \"warnings\": 0, \"diagnostics\": []}}"
      (Check.Lint.version + 1)
  in
  storage.Llee.Storage.write name (Llee.frame_entry bumped);
  let w3 = Llee.fresh_run cold in
  ignore (Llee.run w3);
  check_int "version-bumped verdict: exactly one re-lint" 1
    w3.Llee.stats.Llee.lint_runs;
  check_int "version-bumped verdict: nothing reused" 0
    w3.Llee.stats.Llee.lint_skipped;
  (* a missing verdict entry behaves the same *)
  storage.Llee.Storage.delete name;
  let w4 = Llee.fresh_run cold in
  ignore (Llee.run w4);
  check_int "missing verdict: exactly one re-lint" 1 w4.Llee.stats.Llee.lint_runs

(* ---------- per-function verdicts: partial install ---------- *)

(* An error-severity finding confined to a function [main] never calls:
   the launch must proceed, clean functions must install and serve
   cached native code, and only the tainted function is barred. *)
let partial_program =
  {|
int %broken() {
entry:
  %x = alloca int
  %v = load int* %x
  ret int %v
}

int %helper(int %x) {
entry:
  %r = mul int %x, 2
  ret int %r
}

int %main() {
entry:
  %a = call int %helper(int 21)
  ret int %a
}
|}

let test_lint_partial_install () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse partial_program in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  let code, _ = run_ok eng in
  check_int "unreachable bug: program still runs" 42 code;
  check_int "not rejected" 0 eng.Llee.stats.Llee.lint_rejected;
  check_int "exactly the buggy function blocked" 1
    eng.Llee.stats.Llee.lint_blocked_funcs;
  check_bool "clean functions were translated" true
    (eng.Llee.stats.Llee.translations > 0);
  check_bool "clean native entry cached" true
    (storage.Llee.Storage.read (code_name eng "helper") <> None);
  check_bool "blocked function never cached" true
    (storage.Llee.Storage.read (code_name eng "broken") = None);
  (* warm launch: everything executed comes from cache, and the verdict
     itself is reused *)
  let warm = Llee.fresh_run eng in
  let code2, _ = run_ok warm in
  check_int "warm result identical" 42 code2;
  check_int "warm: zero translations" 0 warm.Llee.stats.Llee.translations;
  check_bool "warm: served from cache" true
    (warm.Llee.stats.Llee.cache_hits > 0);
  check_int "warm: verdict reused" 1 warm.Llee.stats.Llee.lint_skipped;
  check_int "warm: still blocked" 1 warm.Llee.stats.Llee.lint_blocked_funcs;
  check_bool "warm: blocked entry still absent" true
    (storage.Llee.Storage.read (code_name eng "broken") = None);
  (* offline translation skips the blocked function too: neither a
     per-function entry nor a slot in the whole-module entry *)
  let s2 = Llee.Storage.in_memory () in
  let off = Llee.of_module ~storage:s2 ~target:Llee.X86 m in
  Llee.translate_offline off;
  check_bool "offline: clean entries written" true
    (s2.Llee.Storage.read (code_name off "helper") <> None
    && s2.Llee.Storage.read (code_name off "main") <> None);
  check_bool "offline: blocked entry not written" true
    (s2.Llee.Storage.read (code_name off "broken") = None);
  check_bool "offline: module entry exists" true
    (s2.Llee.Storage.read (Llee.entry_name off Llee.Kind.whole_module) <> None)

(* the same finding, but now call-reachable from [main] through an
   intermediate hop: the whole launch must be refused (exit 125) *)
let test_lint_reachable_bug_refused () =
  let src =
    {|
int %broken() {
entry:
  %x = alloca int
  %v = load int* %x
  ret int %v
}

int %mid() {
entry:
  %r = call int %broken()
  ret int %r
}

int %main() {
entry:
  %a = call int %mid()
  ret int %a
}
|}
  in
  let storage = Llee.Storage.in_memory () in
  let eng = Llee.of_module ~storage ~target:Llee.X86 (Gen.parse src) in
  let outcome, _ = Llee.run eng in
  check_bool "reachable bug refuses the launch" true
    (match outcome with Llee.Outcome.Cache_degraded _ -> true | _ -> false);
  check_int "exit 125" Llee.lint_rejected_code (Llee.Outcome.exit_code outcome);
  check_int "rejected counted" 1 eng.Llee.stats.Llee.lint_rejected;
  check_int "nothing translated" 0 eng.Llee.stats.Llee.translations;
  check_bool "nothing cached" true
    (storage.Llee.Storage.read (code_name eng "main") = None)

(* ---------- quarantine forensics (the cache doctor) ---------- *)

let test_cache_doctor () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let eng = Llee.of_module ~storage ~target:Llee.X86 m in
  ignore (run_ok eng);
  check_bool "healthy cache: nothing to report" true
    (Llee.cache_doctor ~now:10.0 eng
    = [
        "cache doctor: no quarantined entries";
        "tv verdict: none recorded for this module/target";
      ]);
  (* damage one native entry; the next launch quarantines and repairs *)
  let cname = code_name eng "hot" in
  (match storage.Llee.Storage.read cname with
  | None -> Alcotest.fail "expected a cached entry for %hot"
  | Some e ->
      let d = Bytes.of_string e.Llee.Storage.data in
      let k = Bytes.length d - 1 in
      Bytes.set d k (Char.chr (Char.code (Bytes.get d k) lxor 0xff));
      storage.Llee.Storage.write cname (Bytes.to_string d));
  let warm = Llee.fresh_run eng in
  ignore (run_ok warm);
  check_int "damaged entry quarantined" 1 warm.Llee.stats.Llee.cache_quarantined;
  (* the doctor sees it, the diff localizes the flipped byte *)
  let report = Llee.cache_doctor ~now:10.0 warm in
  check_bool "doctor counts one entry" true
    (List.exists (fun l -> contains l "1 quarantined entry") report);
  check_bool "doctor lists the name" true
    (List.exists (fun l -> contains l cname) report);
  let diff = Llee.diff_quarantined warm "hot" in
  check_bool "diff classifies the damage" true
    (List.exists (fun l -> contains l "checksum mismatch") diff);
  check_bool "diff finds the flipped byte" true
    (List.exists (fun l -> contains l "first difference at byte") diff);
  check_bool "no quarantined entry for a clean function" true
    (contains
       (String.concat "\n" (Llee.diff_quarantined warm "cold_helper"))
       "no quarantined entry");
  (* purge disposes of it; the live repaired entry survives *)
  check_int "purge removes one" 1 (Llee.purge_quarantined warm);
  check_bool "purged: doctor clean again" true
    (Llee.cache_doctor ~now:10.0 warm
    = [
        "cache doctor: no quarantined entries";
        "tv verdict: none recorded for this module/target";
      ]);
  check_bool "live entry untouched by purge" true
    (storage.Llee.Storage.read cname <> None);
  let healed = Llee.fresh_run warm in
  ignore (run_ok healed);
  check_int "healed launch translates nothing" 0
    healed.Llee.stats.Llee.translations

let test_diff_quarantined_peephole () =
  (* with the pass on, native entry names carry the table's fingerprint:
     the autopsy must look the quarantined entry up under that name, from
     a fresh engine that has not acquired the table yet *)
  let storage = Llee.Storage.in_memory () in
  let eng =
    Llee.of_module ~storage ~peephole:true ~target:Llee.X86
      (Gen.parse program)
  in
  ignore (run_ok eng);
  let cname = code_name eng "hot" in
  (match storage.Llee.Storage.read cname with
  | None -> Alcotest.fail "expected a cached entry for %hot"
  | Some e ->
      let d = Bytes.of_string e.Llee.Storage.data in
      let k = Bytes.length d - 1 in
      Bytes.set d k (Char.chr (Char.code (Bytes.get d k) lxor 0xff));
      storage.Llee.Storage.write cname (Bytes.to_string d));
  let warm = Llee.fresh_run eng in
  ignore (run_ok warm);
  check_int "damaged entry quarantined" 1
    warm.Llee.stats.Llee.cache_quarantined;
  let diff = Llee.diff_quarantined (Llee.fresh_run warm) "hot" in
  check_bool "diff finds the fingerprinted entry" true
    (List.exists (fun l -> contains l "first difference at byte") diff)

(* loop-free, so cheap to certify on both targets *)
let small_program =
  {|
int %twice(int %x) {
entry:
  %r = mul int %x, 2
  ret int %r
}

int %main() {
entry:
  %a = call int %twice(int 21)
  ret int %a
}
|}

let test_doctor_rejects_foreign_tv () =
  (* an x86lite verdict stored under the sparclite [#tv#] name is one
     [certify] throws away; the doctor must not vouch for it either *)
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse small_program in
  let x86 = Llee.of_module ~storage ~target:Llee.X86 m in
  let sparc = Llee.of_module ~storage ~target:Llee.Sparc m in
  ignore (Llee.certify x86);
  (match storage.Llee.Storage.read (Llee.entry_name x86 Llee.Kind.tv) with
  | Some e ->
      storage.Llee.Storage.write
        (Llee.entry_name sparc Llee.Kind.tv)
        e.Llee.Storage.data
  | None -> Alcotest.fail "missing x86lite #tv# entry");
  let tv_line () = List.nth (Llee.cache_doctor ~now:10.0 sparc) 1 in
  check_string "doctor rejects the foreign verdict"
    "tv verdict: recorded entry rejected: undecodable, stale version or \
     another target (the next read replaces it)"
    (tv_line ());
  let v = Llee.certify sparc in
  check_int "certify counts it corrupt" 1 sparc.Llee.stats.Llee.cache_corrupt;
  check_int "certify recomputes" 1 sparc.Llee.stats.Llee.tv_runs;
  check_string "recomputed for sparclite" "sparclite" v.Llee.Tv.v_target;
  check_bool "doctor vouches for the recomputed verdict" true
    (contains (tv_line ()) "certified, 0 skipped, 0 mismatched (sparclite")

(* ---------- superoptimized peephole tables ---------- *)

let test_peep_cold_search_warm_load () =
  let storage = Llee.Storage.in_memory () in
  let m = Gen.parse program in
  let cold = Llee.of_module ~storage ~peephole:true ~target:Llee.X86 m in
  let r1 = run_ok cold in
  check_bool "peephole run correct" true (r1 = expected_result);
  check_int "cold: exactly one search" 1 cold.Llee.stats.Llee.peep_searches;
  check_int "cold: no table loads" 0 cold.Llee.stats.Llee.peep_table_loads;
  check_bool "table entry recorded" true
    (storage.Llee.Storage.read (Llee.entry_name cold Llee.Kind.peep) <> None);
  let warm = Llee.fresh_run cold in
  let r2 = run_ok warm in
  check_bool "warm peephole run correct" true (r2 = expected_result);
  check_int "warm: zero searches" 0 warm.Llee.stats.Llee.peep_searches;
  check_int "warm: table loaded once" 1 warm.Llee.stats.Llee.peep_table_loads;
  check_int "warm: native code from cache" 0
    warm.Llee.stats.Llee.translations;
  (* observable behavior identical to the pass-off launch, and never
     slower under the cycle model *)
  let base = Llee.of_module ~target:Llee.X86 (Gen.parse program) in
  let r0 = run_ok base in
  check_bool "same behavior without the pass" true (r0 = r1);
  check_bool "cycles no worse than baseline" true
    (Int64.compare cold.Llee.stats.Llee.cycles base.Llee.stats.Llee.cycles
    <= 0);
  (* sparc back-end: same protocol *)
  let scold =
    Llee.of_module
      ~storage:(Llee.Storage.in_memory ())
      ~peephole:true ~target:Llee.Sparc (Gen.parse program)
  in
  let rs = run_ok scold in
  check_bool "sparc peephole run correct" true (rs = expected_result);
  check_int "sparc cold: exactly one search" 1
    scold.Llee.stats.Llee.peep_searches

let test_peep_entry_corrupt_stale_bumped () =
  let storage = Llee.Storage.in_memory () in
  let bytes = Llva.Encode.encode (Gen.parse program) in
  let cold = Llee.load ~storage ~peephole:true ~target:Llee.X86 bytes in
  ignore (run_ok cold);
  check_int "cold: one search" 1 cold.Llee.stats.Llee.peep_searches;
  let name = Llee.entry_name cold Llee.Kind.peep in
  (* foreign bytes under the entry name: bad magic, counted as plain
     corruption, exactly one re-search *)
  storage.Llee.Storage.write name "definitely not a rewrite table";
  let w1 = Llee.fresh_run cold in
  ignore (run_ok w1);
  check_int "corrupt entry: exactly one re-search" 1
    w1.Llee.stats.Llee.peep_searches;
  check_int "corrupt entry: nothing loaded" 0
    w1.Llee.stats.Llee.peep_table_loads;
  check_bool "corruption counted" true (w1.Llee.stats.Llee.cache_corrupt >= 1);
  (* the re-search re-recorded the entry: next launch loads it *)
  let w2 = Llee.fresh_run cold in
  ignore (run_ok w2);
  check_int "re-recorded table reused" 1 w2.Llee.stats.Llee.peep_table_loads;
  check_int "re-recorded table: no re-search" 0
    w2.Llee.stats.Llee.peep_searches;
  (* checksum damage: quarantined, re-searched once, and the write-back
     of the fresh table counts as a repair *)
  (match storage.Llee.Storage.read name with
  | Some e ->
      let b = Bytes.of_string e.Llee.Storage.data in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
      storage.Llee.Storage.write name (Bytes.to_string b)
  | None -> Alcotest.fail "missing peep entry");
  let w3 = Llee.fresh_run cold in
  ignore (run_ok w3);
  check_int "damaged entry: exactly one re-search" 1
    w3.Llee.stats.Llee.peep_searches;
  check_bool "damaged entry quarantined" true
    (w3.Llee.stats.Llee.cache_quarantined >= 1);
  check_bool "damaged entry repaired" true
    (w3.Llee.stats.Llee.cache_repaired >= 1);
  (* a well-framed entry whose payload the strict table reader rejects
     (wrong table magic/version) is corruption, not a crash *)
  storage.Llee.Storage.write name (Llee.frame_entry "LLVAPEEP0\x00junk");
  let w4 = Llee.fresh_run cold in
  ignore (run_ok w4);
  check_int "version-bumped table: exactly one re-search" 1
    w4.Llee.stats.Llee.peep_searches;
  check_bool "version-bumped table counted corrupt" true
    (w4.Llee.stats.Llee.cache_corrupt >= 1);
  (* a newer program timestamp orphans the recorded table *)
  let v2 = Llee.load ~storage ~timestamp:1e9 ~peephole:true ~target:Llee.X86 bytes in
  ignore (run_ok v2);
  check_int "stale table: exactly one re-search" 1
    v2.Llee.stats.Llee.peep_searches;
  check_int "stale table: nothing loaded" 0
    v2.Llee.stats.Llee.peep_table_loads

let test_peep_table_determinism () =
  (* two independent cold launches must leave byte-identical #peep#
     entries AND byte-identical rewritten native code *)
  let mk () =
    let storage = Llee.Storage.in_memory () in
    let eng =
      Llee.of_module ~storage ~peephole:true ~target:Llee.X86
        (Gen.parse program)
    in
    ignore (run_ok eng);
    (storage, eng)
  in
  let s1, e1 = mk () in
  let s2, e2 = mk () in
  let data s name =
    Option.map (fun e -> e.Llee.Storage.data) (s.Llee.Storage.read name)
  in
  check_bool "identical #peep# entries" true
    (data s1 (Llee.entry_name e1 Llee.Kind.peep)
     = data s2 (Llee.entry_name e2 Llee.Kind.peep)
    && data s1 (Llee.entry_name e1 Llee.Kind.peep) <> None);
  (* native entry names include the table fingerprint once it is set *)
  List.iter
    (fun f ->
      check_bool
        ("identical native entry for " ^ f)
        true
        (data s1 (code_name e1 f) = data s2 (code_name e2 f)
        && data s1 (code_name e1 f) <> None))
    [ "main"; "hot" ];
  (* and the fingerprint-suffixed identity is disjoint from the plain
     one: a pass-off launch of the same bytes misses this cache *)
  let plain = Llee.of_module ~target:Llee.X86 (Gen.parse program) in
  check_bool "peephole code keyed separately" true
    (code_name e1 "main" <> code_name plain "main")

(* ---------- entry names, pinned literally ---------- *)

(* An in-memory storage that logs every name written to it, in order: the
   test reads names off the medium, not from the functions that build
   them, so renaming every entry cannot go unnoticed. *)
let logging_storage () =
  let s = Llee.Storage.in_memory () in
  let names = ref [] in
  let write name data =
    names := name :: !names;
    s.Llee.Storage.write name data
  in
  ({ s with Llee.Storage.write }, fun () -> List.rev !names)

let test_entry_names_pinned () =
  let bytes = Llva.Encode.encode (Gen.parse small_program) in
  let key = "d1c68797db8631d0ca7cdc53e56b64ba" in
  let written f =
    let storage, names = logging_storage () in
    f storage;
    List.map
      (fun n ->
        (* the module hash is pinned once, here *)
        let k = String.length key in
        if String.length n > k && String.sub n 0 k = key then
          "<key>" ^ String.sub n k (String.length n - k)
        else n)
      (names ())
  in
  let load ?peephole storage target =
    let eng = Llee.load ~storage ?peephole ~target bytes in
    check_string "module hash" key eng.Llee.key;
    eng
  in
  let check_names what expected f =
    Alcotest.(check (list string)) what expected (written f)
  in
  check_names "offline, pass off"
    [
      "<key>.#lint#.v3";
      "<key>.twice.x86lite";
      "<key>.main.x86lite";
      "<key>.#module#.x86lite";
    ]
    (fun s -> Llee.translate_offline (load s Llee.X86));
  check_names "x86 launch with --peephole"
    [
      "<key>.#lint#.v3";
      "<key>.#peep#.x86lite.v1";
      "<key>.main.x86lite.p37a84c22";
      "<key>.twice.x86lite.p37a84c22";
    ]
    (fun s -> ignore (Llee.run (load ~peephole:true s Llee.X86)));
  check_names "sparc launch with --peephole"
    [
      "<key>.#lint#.v3";
      "<key>.#peep#.sparclite.v1";
      "<key>.main.sparclite.pbb066cee";
      "<key>.twice.sparclite.pbb066cee";
    ]
    (fun s -> ignore (Llee.run (load ~peephole:true s Llee.Sparc)));
  check_names "certify, both targets"
    [ "<key>.#tv#.x86lite.v1"; "<key>.#tv#.sparclite.v1" ]
    (fun s ->
      ignore (Llee.certify (load s Llee.X86));
      ignore (Llee.certify (load s Llee.Sparc)))

let suite =
  suite
  @ [
      Alcotest.test_case "module-named function" `Quick
        test_module_named_function;
      Alcotest.test_case "storage name collision" `Quick
        test_storage_name_collision;
      Alcotest.test_case "storage mid-write failure" `Quick
        test_storage_write_midfail;
      Alcotest.test_case "lint gate blocks poisoned cache" `Quick
        test_lint_gate_blocks_poisoned_cache;
      Alcotest.test_case "lint warm zero recompute" `Quick
        test_lint_warm_zero_recompute;
      Alcotest.test_case "lint verdict corrupt or stale" `Quick
        test_lint_verdict_corrupt_or_stale;
      Alcotest.test_case "lint partial install" `Quick
        test_lint_partial_install;
      Alcotest.test_case "lint reachable bug refused" `Quick
        test_lint_reachable_bug_refused;
      Alcotest.test_case "cache doctor" `Quick test_cache_doctor;
      Alcotest.test_case "doctor rejects a foreign tv verdict" `Quick
        test_doctor_rejects_foreign_tv;
      Alcotest.test_case "diff quarantined with peephole" `Quick
        test_diff_quarantined_peephole;
      Alcotest.test_case "corrupted cache" `Quick test_corrupted_cache;
      Alcotest.test_case "truncated marshal" `Quick test_truncated_marshal;
      Alcotest.test_case "module entry fast path" `Quick
        test_module_entry_fast_path;
      Alcotest.test_case "module entry fallback" `Quick
        test_module_entry_fallback;
      Alcotest.test_case "stale module entry" `Quick test_stale_module_entry;
      Alcotest.test_case "offline translation deterministic" `Quick
        test_offline_deterministic;
      Alcotest.test_case "reoptimize with storage" `Quick
        test_reoptimize_with_storage;
      Alcotest.test_case "peep cold search warm load" `Quick
        test_peep_cold_search_warm_load;
      Alcotest.test_case "peep entry corrupt or stale" `Quick
        test_peep_entry_corrupt_stale_bumped;
      Alcotest.test_case "peep table determinism" `Quick
        test_peep_table_determinism;
      Alcotest.test_case "entry names pinned" `Quick test_entry_names_pinned;
    ]
