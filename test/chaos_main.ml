(* Chaos suite: run every workload of the paper's Table 2 under injected
   storage faults and assert that LLEE contains all of them.

   Scenario 1 (read chaos): a fully-populated offline cache whose reads
   are corrupted in flight. Every damaged serve must be detected by the
   entry checksum and quarantined — exactly one quarantine per damaged
   serve — and every quarantined entry the launch actually needs must be
   retranslated and repaired (the whole-module entry is the one entry the
   run path never rewrites). Program output and exit must be identical to
   the fault-free baseline.

   Scenario 2 (write chaos): a cold launch whose storage drops, tears, or
   transiently refuses writes (with bounded retry absorbing the transient
   class). The launch itself must be correct — the cache is an
   optimization, never a correctness dependency — and the damage it left
   behind must self-heal: one warm launch quarantines and repairs the
   torn entries, and the launch after that runs entirely from cache.

   Any OCaml exception escaping an engine entry point crashes this
   harness, which is precisely the regression it guards against. The
   fault seed is fixed for reproducibility; override with CHAOS_SEED. *)

module Storage = Llee.Storage

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0xC0FFEE)
  | None -> 0xC0FFEE

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

let check_eq name pp a b =
  if a <> b then begin
    incr failures;
    Printf.printf "  FAIL %s: %s <> %s\n%!" name (pp a) (pp b)
  end

let outcome_pp (o, out) =
  Printf.sprintf "%s (%d output bytes)" (Llee.Outcome.to_string o)
    (String.length out)

(* totals across the whole campaign, for the summary line *)
let t_quarantined = ref 0
let t_repaired = ref 0
let t_damaged = ref 0
let t_torn = ref 0
let t_failed_writes = ref 0
let t_transient = ref 0
let t_retried = ref 0

let with_storage eng storage = { (Llee.fresh_run eng) with Llee.storage }

let run_workload (w : Workloads.workload) =
  Printf.printf "%-17s %!" w.Workloads.name;
  let m = Workloads.compile_optimized ~level:1 w in
  let bytes = Llva.Encode.encode m in

  (* fault-free baseline *)
  let s0 = Storage.in_memory () in
  let base = Llee.load ~storage:s0 ~target:Llee.X86 bytes in
  let expected = Llee.run base in
  check "baseline exits normally"
    (match expected with Llee.Outcome.Exit _, _ -> true | _ -> false);

  (* ---- scenario 1: read chaos over a populated offline cache ---- *)
  let s1 = Storage.in_memory () in
  let eng1 = Llee.load ~storage:s1 ~target:Llee.X86 bytes in
  Llee.translate_offline eng1;
  let faulty_cfg =
    {
      Storage.fault_seed = seed;
      read_corrupt = 0.75;
      write_fail = 0.0;
      write_torn = 0.0;
      transient = 0.0;
    }
  in
  let fs1, fc1 = Storage.faulty faulty_cfg s1 in
  let chaos1 = with_storage eng1 fs1 in
  let r1 = Llee.run chaos1 in
  check_eq "read chaos: output identical to baseline" outcome_pp r1 expected;
  (* exact containment accounting: one quarantine per damaged serve, one
     repair per damaged serve the run path rewrites (every entry except
     the whole-module one, which only offline translation writes) *)
  check_eq "read chaos: quarantined == damaged serves" string_of_int
    chaos1.Llee.stats.Llee.cache_quarantined fc1.Storage.damaged_serves;
  let module_damage =
    Option.value ~default:0
      (Hashtbl.find_opt fc1.Storage.damaged_names
         (Llee.entry_name eng1 Llee.Kind.whole_module))
  in
  check_eq "read chaos: repaired == damaged - module entry" string_of_int
    chaos1.Llee.stats.Llee.cache_repaired
    (fc1.Storage.damaged_serves - module_damage);
  t_quarantined := !t_quarantined + chaos1.Llee.stats.Llee.cache_quarantined;
  t_repaired := !t_repaired + chaos1.Llee.stats.Llee.cache_repaired;
  t_damaged := !t_damaged + fc1.Storage.damaged_serves;
  (* the repairs landed: a fault-free launch over the same storage is
     clean — nothing quarantined, nothing retranslated *)
  let healed1 = with_storage eng1 s1 in
  let h1 = Llee.run healed1 in
  check_eq "read chaos: healed launch correct" outcome_pp h1 expected;
  check "read chaos: healed launch quarantines nothing"
    (healed1.Llee.stats.Llee.cache_quarantined = 0);
  check "read chaos: healed launch retranslates nothing"
    (healed1.Llee.stats.Llee.translations = 0);

  (* ---- scenario 2: write chaos on a cold launch, bounded retry ---- *)
  let s2u = Storage.in_memory () in
  let fs2, fc2 =
    Storage.faulty
      {
        Storage.fault_seed = seed + 1;
        read_corrupt = 0.0;
        write_fail = 0.15;
        write_torn = 0.25;
        transient = 0.15;
      }
      s2u
  in
  let s2 = Storage.with_retry ~attempts:6 ~backoff:0.0 fs2 in
  let eng2 = Llee.load ~storage:s2 ~target:Llee.X86 bytes in
  let r2 = Llee.run eng2 in
  check_eq "write chaos: cold launch correct despite faults" outcome_pp r2
    expected;
  t_torn := !t_torn + fc2.Storage.torn_writes;
  t_failed_writes := !t_failed_writes + fc2.Storage.failed_writes;
  t_transient := !t_transient + fc2.Storage.transient_faults;
  t_retried := !t_retried + s2.Storage.counters.Storage.retried;
  (* whatever the write faults left behind self-heals: the first clean
     warm launch quarantines every torn entry it touches and repairs it,
     the second runs entirely from cache *)
  let warm2 = with_storage eng2 s2u in
  let rw = Llee.run warm2 in
  check_eq "write chaos: warm launch correct over damaged cache" outcome_pp rw
    expected;
  check "write chaos: torn entries were quarantined, not trusted"
    (warm2.Llee.stats.Llee.cache_quarantined
     >= warm2.Llee.stats.Llee.cache_repaired);
  t_quarantined := !t_quarantined + warm2.Llee.stats.Llee.cache_quarantined;
  t_repaired := !t_repaired + warm2.Llee.stats.Llee.cache_repaired;
  let warm3 = with_storage eng2 s2u in
  let rw3 = Llee.run warm3 in
  check_eq "write chaos: second warm launch correct" outcome_pp rw3 expected;
  check "write chaos: cache fully healed"
    (warm3.Llee.stats.Llee.cache_quarantined = 0
    && warm3.Llee.stats.Llee.translations = 0);
  Printf.printf "ok (quar %d+%d, rep %d+%d, torn %d, failed %d, transient %d)\n%!"
    chaos1.Llee.stats.Llee.cache_quarantined
    warm2.Llee.stats.Llee.cache_quarantined
    chaos1.Llee.stats.Llee.cache_repaired warm2.Llee.stats.Llee.cache_repaired
    fc2.Storage.torn_writes fc2.Storage.failed_writes
    fc2.Storage.transient_faults

(* ---- scenario 3: the superoptimized peephole table under chaos ----
   The [#peep#] rewrite-table entry rides the same checksummed frame as
   every other cache entry, so a damaged serve must be quarantined, the
   table re-searched exactly once (deterministically — same table, same
   fingerprint, so the populated native entries stay reachable), and the
   fresh write-back counted as a repair. *)
let run_peep_chaos () =
  Printf.printf "%-17s %!" "peephole-chaos";
  let w = Option.get (Workloads.find "ptrdist-anagram") in
  let m = Workloads.compile_optimized ~level:1 w in
  let bytes = Llva.Encode.encode m in
  (* fault-free peephole baseline; behavior must match the pass-off run *)
  let s0 = Storage.in_memory () in
  let base = Llee.load ~storage:s0 ~peephole:true ~target:Llee.X86 bytes in
  let expected = Llee.run base in
  check "peephole baseline exits normally"
    (match expected with Llee.Outcome.Exit _, _ -> true | _ -> false);
  let plain = Llee.load ~target:Llee.X86 bytes in
  check_eq "peephole: behavior identical to pass-off" outcome_pp
    (Llee.run plain) expected;
  (* offline-populated cache (native entries + #peep# + #lint#), reads
     corrupted in flight *)
  let s1 = Storage.in_memory () in
  let eng1 = Llee.load ~storage:s1 ~peephole:true ~target:Llee.X86 bytes in
  Llee.translate_offline eng1;
  let fs1, fc1 =
    Storage.faulty
      {
        Storage.fault_seed = seed + 2;
        read_corrupt = 0.75;
        write_fail = 0.0;
        write_torn = 0.0;
        transient = 0.0;
      }
      s1
  in
  let chaos = with_storage eng1 fs1 in
  let r1 = Llee.run chaos in
  check_eq "peep chaos: output identical to baseline" outcome_pp r1 expected;
  check_eq "peep chaos: quarantined == damaged serves" string_of_int
    chaos.Llee.stats.Llee.cache_quarantined fc1.Storage.damaged_serves;
  let module_damage =
    Option.value ~default:0
      (Hashtbl.find_opt fc1.Storage.damaged_names
         (Llee.entry_name eng1 Llee.Kind.whole_module))
  in
  (* the run path rewrites every quarantined entry it needs — the
     re-searched #peep# table included — except the whole-module one *)
  check_eq "peep chaos: repaired == damaged - module entry" string_of_int
    chaos.Llee.stats.Llee.cache_repaired
    (fc1.Storage.damaged_serves - module_damage);
  let peep_damage =
    Option.value ~default:0
      (Hashtbl.find_opt fc1.Storage.damaged_names
         (Llee.entry_name eng1 Llee.Kind.peep))
  in
  check "peep chaos: damaged table re-searched, intact table loaded"
    (if peep_damage > 0 then
       chaos.Llee.stats.Llee.peep_searches = 1
       && chaos.Llee.stats.Llee.peep_table_loads = 0
     else
       chaos.Llee.stats.Llee.peep_searches = 0
       && chaos.Llee.stats.Llee.peep_table_loads = 1);
  t_quarantined := !t_quarantined + chaos.Llee.stats.Llee.cache_quarantined;
  t_repaired := !t_repaired + chaos.Llee.stats.Llee.cache_repaired;
  t_damaged := !t_damaged + fc1.Storage.damaged_serves;
  (* after the repairs: a clean launch loads the table, searches nothing,
     translates nothing *)
  let healed = with_storage eng1 s1 in
  let h = Llee.run healed in
  check_eq "peep chaos: healed launch correct" outcome_pp h expected;
  check "peep chaos: healed launch loads the table"
    (healed.Llee.stats.Llee.peep_table_loads = 1
    && healed.Llee.stats.Llee.peep_searches = 0
    && healed.Llee.stats.Llee.cache_quarantined = 0
    && healed.Llee.stats.Llee.translations = 0);
  Printf.printf "ok (quar %d, rep %d, peep damage %d)\n%!"
    chaos.Llee.stats.Llee.cache_quarantined
    chaos.Llee.stats.Llee.cache_repaired peep_damage

(* ---- scenario 4: a damaged per-module [#lint#] verdict entry ----
   The recorded verdict rides the same checksummed frame as native code.
   Flip one payload byte and the next launch must quarantine the entry,
   re-run llva-lint exactly once, and write the repaired verdict back —
   while every native entry is still served from cache (zero
   retranslations). The launch after that reuses the repaired verdict. *)
let run_lint_chaos () =
  Printf.printf "%-17s %!" "lint-chaos";
  let w = Option.get (Workloads.find "ptrdist-anagram") in
  let m = Workloads.compile_optimized ~level:1 w in
  let bytes = Llva.Encode.encode m in
  let s = Storage.in_memory () in
  let eng = Llee.load ~storage:s ~target:Llee.X86 bytes in
  Llee.translate_offline eng;
  let expected = Llee.run (with_storage eng s) in
  check "lint chaos: baseline exits normally"
    (match expected with Llee.Outcome.Exit _, _ -> true | _ -> false);
  let lname = Llee.entry_name eng Llee.Kind.lint in
  (match s.Storage.read lname with
  | None -> check "lint chaos: verdict entry recorded offline" false
  | Some e ->
      let d = Bytes.of_string e.Storage.data in
      let k = Bytes.length d - 1 in
      Bytes.set d k (Char.chr (Char.code (Bytes.get d k) lxor 0xff));
      s.Storage.write lname (Bytes.to_string d));
  let warm = with_storage eng s in
  let r = Llee.run warm in
  check_eq "lint chaos: launch correct over damaged verdict" outcome_pp r
    expected;
  check "lint chaos: damaged verdict quarantined, re-linted exactly once"
    (warm.Llee.stats.Llee.cache_quarantined = 1
    && warm.Llee.stats.Llee.cache_repaired = 1
    && warm.Llee.stats.Llee.lint_runs = 1
    && warm.Llee.stats.Llee.lint_skipped = 0);
  check "lint chaos: native entries still served from cache"
    (warm.Llee.stats.Llee.translations = 0
    && warm.Llee.stats.Llee.cache_hits > 0);
  t_quarantined := !t_quarantined + warm.Llee.stats.Llee.cache_quarantined;
  t_repaired := !t_repaired + warm.Llee.stats.Llee.cache_repaired;
  t_damaged := !t_damaged + 1;
  let healed = with_storage eng s in
  let h = Llee.run healed in
  check_eq "lint chaos: healed launch correct" outcome_pp h expected;
  check "lint chaos: healed launch reuses the repaired verdict"
    (healed.Llee.stats.Llee.lint_runs = 0
    && healed.Llee.stats.Llee.lint_skipped = 1
    && healed.Llee.stats.Llee.cache_quarantined = 0
    && healed.Llee.stats.Llee.translations = 0);
  Printf.printf "ok (re-lints %d, quar %d, rep %d)\n%!"
    warm.Llee.stats.Llee.lint_runs warm.Llee.stats.Llee.cache_quarantined
    warm.Llee.stats.Llee.cache_repaired

(* ---- scenario 6: a damaged per-module [#tv#] certification entry ----
   The lockstep-certification verdict rides the same checksummed frame as
   native code and lint verdicts. Flip one payload byte and the next
   [Llee.certify] must quarantine the entry, re-run the lockstep checker
   exactly once, and write the repaired verdict back; the launch after
   that reuses it without recertifying. *)
let run_tv_chaos () =
  Printf.printf "%-17s %!" "tv-chaos";
  let w = Option.get (Workloads.find "ptrdist-anagram") in
  let m = Workloads.compile_optimized ~level:1 w in
  let bytes = Llva.Encode.encode m in
  let s = Storage.in_memory () in
  let eng = Llee.load ~storage:s ~target:Llee.X86 bytes in
  let v0 = Llee.certify eng in
  check "tv chaos: baseline certifies clean" (Llee.Tv.clean v0);
  check "tv chaos: baseline computed the verdict"
    (eng.Llee.stats.Llee.tv_runs = 1 && eng.Llee.stats.Llee.tv_skipped = 0);
  let tname = Llee.entry_name eng Llee.Kind.tv in
  (match s.Storage.read tname with
  | None -> check "tv chaos: verdict entry recorded" false
  | Some e ->
      let d = Bytes.of_string e.Storage.data in
      let k = Bytes.length d - 1 in
      Bytes.set d k (Char.chr (Char.code (Bytes.get d k) lxor 0xff));
      s.Storage.write tname (Bytes.to_string d));
  let warm = with_storage eng s in
  let v1 = Llee.certify warm in
  check "tv chaos: recertified verdict clean" (Llee.Tv.clean v1);
  check "tv chaos: damaged verdict quarantined, recertified exactly once"
    (warm.Llee.stats.Llee.cache_quarantined = 1
    && warm.Llee.stats.Llee.cache_repaired = 1
    && warm.Llee.stats.Llee.tv_runs = 1
    && warm.Llee.stats.Llee.tv_skipped = 0);
  t_quarantined := !t_quarantined + warm.Llee.stats.Llee.cache_quarantined;
  t_repaired := !t_repaired + warm.Llee.stats.Llee.cache_repaired;
  t_damaged := !t_damaged + 1;
  let healed = with_storage eng s in
  let v2 = Llee.certify healed in
  check "tv chaos: healed launch reuses the repaired verdict"
    (healed.Llee.stats.Llee.tv_runs = 0
    && healed.Llee.stats.Llee.tv_skipped = 1
    && healed.Llee.stats.Llee.cache_quarantined = 0);
  check "tv chaos: repaired verdict identical" (v2 = v1);
  Printf.printf "ok (recertifications %d, quar %d, rep %d)\n%!"
    warm.Llee.stats.Llee.tv_runs warm.Llee.stats.Llee.cache_quarantined
    warm.Llee.stats.Llee.cache_repaired

(* ---- scenario 5: kill -9 mid-cache-write, on a real process ----
   Every other scenario injects faults through the storage API; this one
   makes the failure real. A child llva-run populates an on-disk cache
   with LLVA_CHAOS_SLOW_WRITE_US set, which turns its writes into slow,
   non-atomic chunked streams into the final file — then SIGKILL lands
   the moment a native entry grows past a threshold, guaranteeing the
   torn state the atomic write path can never produce. Post-mortem:

   - the cache really holds a damaged frame (classified off the bytes);
   - a clean relaunch self-heals (exit 0, torn entry quarantined and
     rewritten under its original name);
   - --cache-doctor reports the quarantined entry and classifies the
     damage as a checksum mismatch;
   - a further warm launch is byte-identical on stdout to the healing
     one (the repair really landed). *)

let rm_rf dir =
  let rec rm p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error _ -> ()
  in
  rm dir

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A module bulky enough that each per-function native cache entry takes
   many write chunks: three ~600-instruction chains plus a main that
   consumes their results (the lint gate must stay clean, or nothing
   would be cached at all). *)
let bulky_program () =
  let buf = Buffer.create (1 lsl 16) in
  for j = 0 to 2 do
    Buffer.add_string buf (Printf.sprintf "int %%f%d(int %%x) {\nentry:\n" j);
    for k = 0 to 599 do
      Buffer.add_string buf
        (Printf.sprintf "  %%a%d = add int %s, %d\n" k
           (if k = 0 then "%x" else Printf.sprintf "%%a%d" (k - 1))
           ((((j + 1) * k) mod 7) + 1))
    done;
    Buffer.add_string buf "  ret int %a599\n}\n\n"
  done;
  Buffer.add_string buf
    "int %main() {\nentry:\n  %r1 = call int %f0(int 1)\n  %r2 = call int \
     %f1(int %r1)\n  %r3 = call int %f2(int %r2)\n  %z = sub int %r3, %r3\n  \
     ret int %z\n}\n";
  Buffer.contents buf

(* Spawn [llva_run args], stdout captured to a file, and return the pid.
   [slow_us > 0] sets the chaos write knob in the child's environment. *)
let spawn_llva_run exe ~slow_us ~out args =
  let env =
    let base =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not (String.length kv >= 24
                 && String.sub kv 0 24 = "LLVA_CHAOS_SLOW_WRITE_US"))
    in
    Array.of_list
      (if slow_us > 0 then
         Printf.sprintf "LLVA_CHAOS_SLOW_WRITE_US=%d" slow_us :: base
       else base)
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.create_process_env exe
        (Array.of_list (exe :: args))
        env Unix.stdin fd Unix.stderr)

let run_kill9_chaos exe =
  Printf.printf "%-17s %!" "kill9-chaos";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "llva-kill9-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let input = Filename.concat dir "bulky.ll" in
      let oc = open_out input in
      output_string oc (bulky_program ());
      close_out oc;
      let cache = Filename.concat dir "cache" in
      let out n = Filename.concat dir n in
      let args = [ input; "--engine"; "llee-x86"; "--cache"; cache ] in
      (* victim launch: slow non-atomic writes, killed mid-entry *)
      let pid = spawn_llva_run exe ~slow_us:5000 ~out:(out "victim.out") args in
      let big_entry () =
        match Sys.readdir cache with
        | exception Sys_error _ -> false
        | files ->
            Array.exists
              (fun f ->
                (not (Filename.check_suffix f ".tmp"))
                &&
                match Unix.stat (Filename.concat cache f) with
                | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size >= 4096
                | _ -> false
                | exception Unix.Unix_error _ -> false)
              files
      in
      let deadline = Unix.gettimeofday () +. 30.0 in
      while (not (big_entry ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      check "kill9: a native entry started growing on disk" (big_entry ());
      Unix.kill pid Sys.sigkill;
      (match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s -> check "kill9: child died of SIGKILL" (s = Sys.sigkill)
      | _, _ -> check "kill9: child died of SIGKILL" false);
      (* the wreckage is real: at least one on-disk entry must fail its
         frame check (torn mid-write), classified straight off the bytes *)
      let damaged =
        Sys.readdir cache |> Array.to_list
        |> List.filter (fun f -> not (Filename.check_suffix f ".tmp"))
        |> List.filter (fun f ->
               match Llee.classify_frame (read_file (Filename.concat cache f)) with
               | s ->
                   String.length s >= 3
                   && (String.sub s 0 3 = "bad"
                      || String.sub s 0 8 = "checksum")
               | exception Sys_error _ -> false)
      in
      check "kill9: the kill left a torn entry behind" (damaged <> []);
      t_torn := !t_torn + List.length damaged;
      (* self-heal: a clean relaunch must succeed and repair in place *)
      let heal = spawn_llva_run exe ~slow_us:0 ~out:(out "heal.out") args in
      (match Unix.waitpid [] heal with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> check "kill9: healing relaunch exits 0" false);
      let quarantined =
        Sys.readdir cache |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".quarantined")
      in
      check "kill9: torn entry quarantined, not trusted" (quarantined <> []);
      t_quarantined := !t_quarantined + List.length quarantined;
      t_repaired := !t_repaired + List.length quarantined;
      (* the doctor classifies the post-mortem *)
      let doc =
        spawn_llva_run exe ~slow_us:0 ~out:(out "doctor.out")
          (args @ [ "--cache-doctor" ])
      in
      (match Unix.waitpid [] doc with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> check "kill9: cache doctor exits 0" false);
      let report = read_file (out "doctor.out") in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      check "kill9: doctor reports the quarantined entry"
        (contains report "quarantined entr");
      check "kill9: doctor classifies the torn frame"
        (contains report "checksum mismatch");
      (* the repair landed: one more launch, byte-identical stdout *)
      let warm = spawn_llva_run exe ~slow_us:0 ~out:(out "warm.out") args in
      (match Unix.waitpid [] warm with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> check "kill9: warm relaunch exits 0" false);
      check "kill9: warm stdout identical to healing stdout"
        (read_file (out "warm.out") = read_file (out "heal.out"));
      Printf.printf "ok (torn %d, quarantined %d)\n%!" (List.length damaged)
        (List.length quarantined))

(* ---- scenario 7: mutated virtual object code ----
   200 seeded mutants of each workload's -O1 encoding, in three kinds
   (one flipped bit, one byte set to a random value, a truncation), go
   through [Decode.decode] and then [Verify.verify_module]. Each must end
   as a decode error, a verifier reject or a verified module; any other
   exception is an escape and fails the campaign. The per-class counts
   are pinned line for line in mutants.expected. The verifier's full
   error lists are pinned too: per workload and kind, the MD5 of every
   rejected mutant's messages, in mutant order, against
   verify_errors.expected. The seed is fixed and independent of
   CHAOS_SEED, so the counts and digests are too. *)

let mutant_seed = 0x5EED
let mutants_per_encoding = 200
let mutant_kinds = [| "bit-flip"; "random-byte"; "truncate" |]

let mutate rng kind bytes =
  let n = String.length bytes in
  match kind with
  | 0 ->
      let b = Bytes.of_string bytes and p = Random.State.int rng n in
      Bytes.set_uint8 b p (Bytes.get_uint8 b p lxor (1 lsl Random.State.int rng 8));
      Bytes.to_string b
  | 1 ->
      let b = Bytes.of_string bytes and p = Random.State.int rng n in
      Bytes.set_uint8 b p (Random.State.int rng 256);
      Bytes.to_string b
  | _ -> String.sub bytes 0 (Random.State.int rng n)

type mutant_class = Decode_error | Verify_reject of string list | Verified

(* Ids count up across the whole process, so [classify] reports them
   relative to the first id its decode handed out: "(id N)" in a
   message becomes "(id N-base)". *)
let relative_ids base msg =
  let key = "(id " in
  let n = String.length msg and kl = String.length key in
  let b = Buffer.create n in
  let rec go i =
    if i + kl > n then Buffer.add_substring b msg i (n - i)
    else if String.sub msg i kl <> key then begin
      Buffer.add_char b msg.[i];
      go (i + 1)
    end
    else begin
      let j = ref (i + kl) in
      while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do incr j done;
      Buffer.add_string b key;
      (match int_of_string_opt (String.sub msg (i + kl) (!j - i - kl)) with
      | Some id -> Buffer.add_string b (string_of_int (id - base))
      | None -> ());
      go !j
    end
  in
  go 0;
  Buffer.contents b

let classify bytes =
  let base = Llva.Ir.next_id () in
  match Llva.Decode.decode bytes with
  | exception Llva.Decode.Error _ -> Ok Decode_error
  | exception e -> Error ("decode: " ^ Printexc.to_string e)
  | m -> (
      match Llva.Verify.verify_module m with
      | [] -> Ok Verified
      | errs -> Ok (Verify_reject (List.map (relative_ids base) errs))
      | exception e -> Error ("verify: " ^ Printexc.to_string e))

(* [got] against the non-comment lines of [path]; prints [got] when
   they differ *)
let check_pinned what path got =
  let expected =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""
  in
  if got <> expected then begin
    Printf.printf "\n%s" got;
    check (what ^ " differ from " ^ path) false
  end

let run_mutant_sweep expected_path errors_path =
  Printf.printf "mutant-sweep       %!";
  let rng = Random.State.make [| mutant_seed |] in
  let lines = Buffer.create 4096 and digests = Buffer.create 4096 in
  let escapes = ref 0 and total = ref 0 in
  List.iter
    (fun (w : Workloads.workload) ->
      let bytes = Llva.Encode.encode (Workloads.compile_optimized ~level:1 w) in
      let counts = Array.make_matrix (Array.length mutant_kinds) 3 0 in
      let errors = Array.init (Array.length mutant_kinds) (fun _ -> Buffer.create 1024) in
      for k = 0 to mutants_per_encoding - 1 do
        let kind = k mod Array.length mutant_kinds in
        let mutant = mutate rng kind bytes in
        incr total;
        match classify mutant with
        | Ok c ->
            let j =
              match c with
              | Decode_error -> 0
              | Verify_reject errs ->
                  Printf.bprintf errors.(kind) "mutant %d\n" k;
                  List.iter (fun e -> Printf.bprintf errors.(kind) "%s\n" e) errs;
                  1
              | Verified -> 2
            in
            counts.(kind).(j) <- counts.(kind).(j) + 1
        | Error msg ->
            incr escapes;
            check
              (Printf.sprintf "%s mutant %d (%s) escaped: %s" w.Workloads.name k
                 mutant_kinds.(kind) msg)
              false
      done;
      Array.iteri
        (fun kind c ->
          Printf.bprintf lines
            "%-17s %-11s decode-error %3d  verify-reject %3d  verified %3d\n"
            w.Workloads.name mutant_kinds.(kind) c.(0) c.(1) c.(2))
        counts;
      Array.iteri
        (fun kind b ->
          Printf.bprintf digests "%-17s %-11s %s\n" w.Workloads.name
            mutant_kinds.(kind)
            (Digest.to_hex (Digest.string (Buffer.contents b))))
        errors)
    Workloads.all;
  check_pinned "mutant class counts" expected_path (Buffer.contents lines);
  check_pinned "verifier error digests" errors_path (Buffer.contents digests);
  Printf.printf "ok (%d mutants, %d escapes)\n%!" !total !escapes

let () =
  Printf.printf "chaos campaign: %d workloads, fault seed %#x\n%!"
    (List.length Workloads.all) seed;
  List.iter run_workload Workloads.all;
  run_peep_chaos ();
  run_lint_chaos ();
  run_tv_chaos ();
  (if Array.length Sys.argv > 1 then run_kill9_chaos Sys.argv.(1)
   else Printf.printf "kill9-chaos        skipped (no llva-run path given)\n%!");
  (match Array.length Sys.argv with
   | n when n > 3 -> run_mutant_sweep Sys.argv.(2) Sys.argv.(3)
   | 3 ->
       prerr_endline
         "chaos_main: the mutant sweep needs both mutants.expected and \
          verify_errors.expected";
       exit 2
   | _ -> Printf.printf "mutant-sweep       skipped (no mutants.expected given)\n%!");
  Printf.printf
    "campaign totals: %d damaged serves, %d quarantined, %d repaired, %d torn \
     writes, %d failed writes, %d transient faults (%d retried)\n"
    !t_damaged !t_quarantined !t_repaired !t_torn !t_failed_writes !t_transient
    !t_retried;
  if !failures > 0 then begin
    Printf.printf "chaos campaign FAILED: %d assertion(s)\n" !failures;
    exit 1
  end
  else Printf.printf "chaos campaign passed\n"
