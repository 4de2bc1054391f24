(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

     table2       - the paper's Table 2 over the 17-workload suite
     fig2         - the paper's Fig. 2 C -> LLVA example
     llee         - cold/warm/offline launches through the LLEE manager
     trace        - software trace cache: relayout effect on dynamic counts
     ablation     - optimizer levels and register allocators
     portability  - one virtual object code on all four target configs
     micro        - bechamel micro-benchmarks of the translator pipeline
     static       - the static compiler (MiniC, -O1, encode) stage by stage

   Run with no arguments to execute everything. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* wall-clock of [f], best of [n] runs *)
let time_best ?(n = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

type row = {
  r_name : string;
  r_loc : int;
  r_native_kb : float;
  r_llva_kb : float;
  r_llva_n : int;
  r_x86_n : int;
  r_sparc_n : int;
  r_translate : float; (* seconds, wall clock, whole program JIT *)
  r_run : float; (* seconds, simulated cycles @ 1 GHz *)
}

let table2_row (w : Workloads.workload) : row =
  (* the paper applied the same LLVA optimizations to both the virtual and
     the native code; we optimize at -O2 once and measure both from it *)
  let m = Workloads.compile_optimized ~level:2 w in
  let llva_bytes = String.length (Llva.Encode.encode m) in
  let llva_n = Llva.Ir.module_instr_count m in
  (* global data is part of both images; count it into the native size
     the way a linked executable carries its .data segment *)
  let lt = Vmem.Layout.for_module m in
  (* initialized data only: zero-filled globals live in .bss, which takes
     no space in either image *)
  let data_bytes =
    List.fold_left
      (fun acc g ->
        match g.Llva.Ir.ginit with
        | Some { Llva.Ir.ckind = Llva.Ir.Czero; _ } | None -> acc
        | Some _ -> acc + Vmem.Layout.size_of lt g.Llva.Ir.gty)
      0 m.Llva.Ir.globals
  in
  (* translation time: JIT-compile the whole program (like the paper's
     X86 JIT timing column), wall clock, best of 3 *)
  let x86, translate =
    time_best (fun () ->
        X86lite.Compile.compile_module (Workloads.compile_optimized ~level:2 w))
  in
  (* the paper's static SPARC V9 back-end: simple register allocation,
     like its X86 JIT (its "higher quality" refers to instruction
     selection; see EXPERIMENTS.md) *)
  let sparc =
    Sparclite.Compile.compile_module ~alloc:Spill_everything
      (Workloads.compile_optimized ~level:2 w)
  in
  let x86_n = X86lite.Compile.module_instr_count x86 in
  let sparc_n = Sparclite.Compile.module_instr_count sparc in
  (* the paper's native size column is the statically compiled SPARC V9
     executable *)
  let native_bytes = Sparclite.Compile.module_code_size sparc + data_bytes in
  (* run time: the paper's run column is natively compiled optimized
     code (gcc -O3); ours is the linear-scan X86-lite build, simulated at
     1 GHz *)
  let best_x86 =
    X86lite.Compile.compile_module ~alloc:Linear_scan
      (Workloads.compile_optimized ~level:2 w)
  in
  let _, st = Codegen.Machine.run_main X86lite.Sim.machine best_x86 in
  let run = float_of_int st.Codegen.Machine.cycles /. 1e9 in
  {
    r_name = w.Workloads.name;
    r_loc = Workloads.loc w;
    r_native_kb = float_of_int native_bytes /. 1024.0;
    r_llva_kb = float_of_int llva_bytes /. 1024.0;
    r_llva_n = llva_n;
    r_x86_n = x86_n;
    r_sparc_n = sparc_n;
    r_translate = translate;
    r_run = run;
  }

let run_table2 () =
  section "Table 2: code size and low-level nature of the V-ISA";
  Printf.printf
    "%-17s %5s %10s %9s %7s %7s %6s %7s %6s %10s %9s %7s\n" "Program" "LOC"
    "Native KB" "LLVA KB" "#LLVA" "#X86" "Ratio" "#SPARC" "Ratio" "Trans (s)"
    "Run (s)" "Ratio";
  let rows = List.map table2_row Workloads.all in
  let tot = List.fold_left in
  List.iter
    (fun r ->
      Printf.printf
        "%-17s %5d %10.1f %9.1f %7d %7d %6.2f %7d %6.2f %10.4f %9.4f %7.4f\n"
        r.r_name r.r_loc r.r_native_kb r.r_llva_kb r.r_llva_n r.r_x86_n
        (float_of_int r.r_x86_n /. float_of_int r.r_llva_n)
        r.r_sparc_n
        (float_of_int r.r_sparc_n /. float_of_int r.r_llva_n)
        r.r_translate r.r_run
        (r.r_translate /. r.r_run))
    rows;
  let sum f = tot (fun acc r -> acc +. f r) 0.0 rows in
  let llva_total = sum (fun r -> float_of_int r.r_llva_n) in
  let x86_total = sum (fun r -> float_of_int r.r_x86_n) in
  let sparc_total = sum (fun r -> float_of_int r.r_sparc_n) in
  Printf.printf
    "\nSummary (shape checks against the paper):\n\
    \  native/LLVA size ratio : %.2fx   (paper: 1.3x-2x for its larger rows;\n\
    \                                    'smaller programs have even larger\n\
    \                                    ratios' -- all our rows are small)\n\
    \  LLVA->X86 expansion    : %.2fx   (paper: 2.2 - 3.3)\n\
    \  LLVA->SPARC expansion  : %.2fx   (paper: 2.3 - 4.2; RISC > CISC: %b)\n\
    \  translate/run ratio    : %.4f mean (paper: negligible 'except for\n\
    \                                    very short runs' -- our simulated\n\
    \                                    runs are milliseconds, i.e. all\n\
    \                                    short; see EXPERIMENTS.md)\n"
    (sum (fun r -> r.r_native_kb) /. sum (fun r -> r.r_llva_kb))
    (x86_total /. llva_total)
    (sparc_total /. llva_total)
    (sparc_total > x86_total)
    (sum (fun r -> r.r_translate /. r.r_run) /. float_of_int (List.length rows));
  rows

(* ------------------------------------------------------------------ *)
(* Fig. 2                                                              *)
(* ------------------------------------------------------------------ *)

let fig2_c =
  {|
typedef struct QuadTree {
  double Data;
  struct QuadTree *Children[4];
} QT;

void Sum3rdChildren(QT *T, double *Result) {
  double Ret;
  if (T == 0) {
    Ret = 0.0;
  } else {
    QT *Child3 = T[0].Children[3];
    double V;
    Sum3rdChildren(Child3, &V);
    Ret = V + T[0].Data;
  }
  *Result = Ret;
}

int main() { return 0; }
|}

let run_fig2 () =
  section "Fig. 2: C -> LLVA for the paper's QuadTree example";
  let m = Minic.Mcodegen.compile_and_verify ~name:"fig2" fig2_c in
  (* show the function after the compile-time pipeline, which is the
     form the paper's static compiler would emit *)
  ignore (Transform.Passmgr.optimize ~level:1 m);
  (match Llva.Ir.find_func m "Sum3rdChildren" with
  | Some f -> print_string (Llva.Pretty.func_to_string f)
  | None -> print_endline "(function missing!)");
  Printf.printf "module verifies: %b\n" (Llva.Verify.verify_module m = [])

(* ------------------------------------------------------------------ *)
(* LLEE: offline caching (Fig. 1 / Fig. 3 system organization)          *)
(* ------------------------------------------------------------------ *)

(* wrap a storage so we can count how many reads a launch performs *)
let counting_storage s =
  let reads = ref 0 in
  ( {
      s with
      Llee.Storage.read =
        (fun name ->
          incr reads;
          s.Llee.Storage.read name);
    },
    reads )

type llee_row = {
  l_name : string;
  l_cold_n : int; (* functions JITed on the cold launch *)
  l_cold_ms : float; (* cold-launch translate time *)
  l_warm_ms : float; (* warm-launch translate time (should be ~0) *)
  l_warm_hits : int;
  l_warm_reads : int; (* storage reads on a warm-after-offline launch *)
  l_off_seq : float; (* offline translation, seconds *)
  l_cycles : int64; (* simulated cycles of the workload *)
  l_lint_cold_ms : float; (* cold launch: full llva-lint analysis *)
  l_lint_warm_ms : float; (* warm launch: read + decode the verdict entry *)
  l_lint_runs : int; (* lint analyses on cold launch (1) *)
  l_lint_skipped : int; (* verdict reuses on warm launch (1) *)
  l_quarantined : int; (* entries quarantined on the damaged launch *)
  l_repaired : int; (* entries retranslated + rewritten on that launch *)
  l_cycles_peep : int64; (* cycles with the superoptimized peephole table *)
  l_peep_rewrites : int; (* rewrite sites the table fired on *)
  l_peep_table_load_ms : float; (* warm launch: loading the cached table *)
  l_range_ms : float; (* interprocedural value-range analysis, alone *)
  l_range_sweeps : int; (* abstract-interpretation sweeps to fixpoint *)
  l_rel_ms : float; (* relational (DBM) layer on top of a fresh analysis *)
  l_rel_facts : int; (* proven relational facts over the module *)
}

let llee_workloads = [ "255.vortex"; "164.gzip"; "181.mcf"; "ptrdist-anagram" ]

let llee_row name : llee_row =
  let w = Option.get (Workloads.find name) in
  (* level 1 keeps the call graph (no inlining), so several functions
     are translated on demand *)
  let m = Workloads.compile_optimized ~level:1 w in
  let bytes = Llva.Encode.encode m in
  let storage = Llee.Storage.in_memory () in
  (* cold launch: nothing cached, JIT everything called *)
  let cold = Llee.load ~storage ~target:Llee.X86 bytes in
  ignore (Llee.run cold);
  (* warm launch of the same object code *)
  let warm = Llee.fresh_run cold in
  ignore (Llee.run warm);
  (* offline translation into a fresh cache *)
  let s_seq = Llee.Storage.in_memory () in
  let eng_seq = Llee.load ~storage:s_seq ~target:Llee.X86 bytes in
  let _, off_seq =
    time_best ~n:1 (fun () -> Llee.translate_offline eng_seq)
  in
  (* warm-after-offline launch: the whole-module entry means O(1) reads *)
  let counted, reads = counting_storage s_seq in
  let warm_off = Llee.fresh_run { eng_seq with Llee.storage = counted } in
  ignore (Llee.run warm_off);
  (* lint-before-cache timings: cold = the full analysis (recorded by the
     cold launch above), warm = reading + decoding the verdict entry *)
  let _, lint_warm =
    time_best (fun () -> Llee.verdict (Llee.fresh_run cold))
  in
  (* self-healing: flip one byte in the whole-module entry and in main's
     per-function entry; the checksummed frame must quarantine both and
     the launch retranslates (repairs) the function it actually needs *)
  let corrupt n =
    let ename = Printf.sprintf "%s.%s.x86lite" eng_seq.Llee.key n in
    match s_seq.Llee.Storage.read ename with
    | Some e ->
        let b = Bytes.of_string e.Llee.Storage.data in
        let i = Bytes.length b - 1 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
        s_seq.Llee.Storage.write ename (Bytes.to_string b)
    | None -> ()
  in
  corrupt "#module#";
  corrupt "main";
  let heal = Llee.fresh_run eng_seq in
  ignore (Llee.run heal);
  (* superoptimized peephole table: a cold launch pays the enumerative
     search once and caches the [#peep#] entry; the warm launch loads it
     (peep_table_load_ms) and still gets the full cycle reduction *)
  let pstorage = Llee.Storage.in_memory () in
  let pcold = Llee.load ~storage:pstorage ~peephole:true ~target:Llee.X86 bytes in
  ignore (Llee.run pcold);
  let pwarm = Llee.fresh_run pcold in
  ignore (Llee.run pwarm);
  assert (pcold.Llee.stats.Llee.peep_searches = 1);
  assert (pwarm.Llee.stats.Llee.peep_table_loads = 1);
  assert (pwarm.Llee.stats.Llee.cycles = pcold.Llee.stats.Llee.cycles);
  (* value-range analysis on its own: the dominant cost inside lint cold,
     reported separately so regressions in the fixpoint loop are visible *)
  let ranges, range_dt = time_best (fun () -> Check.Ranges.compute m) in
  assert (Check.Ranges.fixpoint_reached ranges);
  (* relational layer alone: build + close the per-block DBMs the oob
     checker would consult, on a fresh analysis so nothing is cached *)
  let rel_ms, rel_facts =
    let best = ref infinity and facts = ref 0 in
    for _ = 1 to 3 do
      let t = Check.Ranges.compute m in
      let t0 = Unix.gettimeofday () in
      Check.Ranges.force_relations t;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      facts := Check.Ranges.rel_fact_count t
    done;
    (!best *. 1000.0, !facts)
  in
  {
    l_name = name;
    l_cold_n = cold.Llee.stats.Llee.translations;
    l_cold_ms = cold.Llee.stats.Llee.translate_time *. 1000.0;
    l_warm_ms = warm.Llee.stats.Llee.translate_time *. 1000.0;
    l_warm_hits = warm.Llee.stats.Llee.cache_hits;
    l_warm_reads = !reads;
    l_off_seq = off_seq;
    l_cycles = cold.Llee.stats.Llee.cycles;
    l_lint_cold_ms = cold.Llee.stats.Llee.lint_time *. 1000.0;
    l_lint_warm_ms = lint_warm *. 1000.0;
    l_lint_runs = cold.Llee.stats.Llee.lint_runs;
    l_lint_skipped = warm.Llee.stats.Llee.lint_skipped;
    l_quarantined = heal.Llee.stats.Llee.cache_quarantined;
    l_repaired = heal.Llee.stats.Llee.cache_repaired;
    (* rewrites count at translation time, so they come from the cold
       launch; the warm launch re-runs the cached rewritten code *)
    l_cycles_peep = pcold.Llee.stats.Llee.cycles;
    l_peep_rewrites = pcold.Llee.stats.Llee.peep_rewrites;
    l_peep_table_load_ms = pwarm.Llee.stats.Llee.peep_time *. 1000.0;
    l_range_ms = range_dt *. 1000.0;
    l_range_sweeps = Check.Ranges.total_sweeps ranges;
    l_rel_ms = rel_ms;
    l_rel_facts = rel_facts;
  }

let run_llee () =
  section "LLEE: program launch with and without the OS storage API";
  Printf.printf
    "%-17s %10s %12s %12s %10s %10s %11s %9s %9s %9s %6s %7s %6s %5s %4s \
     %12s %6s %7s %7s\n"
    "Program" "cold trans" "cold ms" "warm ms" "hits" "warm reads"
    "offline(s)" "lint cold" "lint warm"
    "range ms" "sweeps" "rel ms" "facts" "quar" "rep" "peep cycles" "rewr"
    "gain" "tbl ms";
  let rows = List.map llee_row llee_workloads in
  List.iter
    (fun r ->
      Printf.printf
        "%-17s %10d %12.3f %12.3f %10d %10d %11.4f %7.2fms %7.2fms %7.2fms \
         %6d %5.2fms %6d %5d %4d %12Ld %6d %6.2f%% %7.3f\n"
        r.l_name r.l_cold_n r.l_cold_ms r.l_warm_ms r.l_warm_hits r.l_warm_reads
        r.l_off_seq r.l_lint_cold_ms r.l_lint_warm_ms r.l_range_ms
        r.l_range_sweeps r.l_rel_ms r.l_rel_facts r.l_quarantined
        r.l_repaired r.l_cycles_peep r.l_peep_rewrites
        (100.0
        *. (Int64.to_float r.l_cycles -. Int64.to_float r.l_cycles_peep)
        /. Int64.to_float r.l_cycles)
        r.l_peep_table_load_ms)
    rows;
  Printf.printf
    "\n(cold launches translate online; warm launches read the offline\n\
    \ cache through the storage API and translate nothing - the paper's\n\
    \ central advantage over DAISY/Crusoe, which always translate online.\n\
    \ 'warm reads' counts storage reads on a warm-after-offline launch:\n\
    \ the whole-module cache entry makes it O(1). 'offline(s)' is one\n\
    \ translate_offline into a fresh cache, lint included. 'lint cold'\n\
    \ is the full llva-lint analysis a cold launch pays once; 'lint\n\
    \ warm' is reading the recorded verdict instead.\n\
    \ 'range ms' is the interprocedural value-range analysis alone (the\n\
    \ dominant cost inside lint cold) and 'sweeps' its abstract-\n\
    \ interpretation sweep count to fixpoint. 'rel ms' is the relational\n\
    \ (difference-bound) layer alone: building and closing the per-block\n\
    \ DBMs the oob checker consults, over 'facts' proven relations.\n\
    \ 'quar'/'rep' exercise the self-healing cache: with one byte flipped\n\
    \ in the whole-module entry and in main's entry, the checksummed\n\
    \ frame quarantines both and the launch retranslates what it needs.\n\
    \ 'peep cycles' re-runs the workload with the superoptimized peephole\n\
    \ table enabled ('rewr' rewrite sites, 'gain' vs the plain cycles\n\
    \ column); the cold launch searched for the table once, the warm\n\
    \ launch loaded the cached #peep# entry in 'tbl ms'.)\n";
  rows

(* ------------------------------------------------------------------ *)
(* Memory fast paths: word vs byte throughput                          *)
(* ------------------------------------------------------------------ *)

type mem_row = {
  mt_byte_write : float; (* MB/s *)
  mt_word_write : float;
  mt_byte_read : float;
  mt_word_read : float;
}

let mem_throughput () : mem_row =
  let mem = Vmem.Memory.create Llva.Target.default in
  let base = Vmem.Memory.heap_base in
  let n = 1 lsl 22 in
  (* 4 MiB *)
  let mb = float_of_int n /. (1024.0 *. 1024.0) in
  let rate dt = mb /. dt in
  let _, byte_w =
    time_best (fun () ->
        for k = 0 to n - 1 do
          Vmem.Memory.write_u8 mem (Int64.add base (Int64.of_int k)) (k land 0xFF)
        done)
  in
  let _, word_w =
    time_best (fun () ->
        for k = 0 to (n / 8) - 1 do
          Vmem.Memory.write_u64 mem
            (Int64.add base (Int64.of_int (8 * k)))
            (Int64.of_int k)
        done)
  in
  let sink = ref 0L in
  let _, byte_r =
    time_best (fun () ->
        for k = 0 to n - 1 do
          sink :=
            Int64.add !sink
              (Int64.of_int
                 (Vmem.Memory.read_u8 mem (Int64.add base (Int64.of_int k))))
        done)
  in
  let _, word_r =
    time_best (fun () ->
        for k = 0 to (n / 8) - 1 do
          sink :=
            Int64.add !sink
              (Vmem.Memory.read_u64 mem (Int64.add base (Int64.of_int (8 * k))))
        done)
  in
  ignore !sink;
  {
    mt_byte_write = rate byte_w;
    mt_word_write = rate word_w;
    mt_byte_read = rate byte_r;
    mt_word_read = rate word_r;
  }

let run_memtp () =
  section "Memory: word-granularity fast paths vs the byte loop (4 MiB sweep)";
  let r = mem_throughput () in
  Printf.printf "%-12s %14s %14s %9s\n" "access" "byte MB/s" "word MB/s"
    "speedup";
  Printf.printf "%-12s %14.1f %14.1f %8.2fx\n" "write" r.mt_byte_write
    r.mt_word_write
    (r.mt_word_write /. r.mt_byte_write);
  Printf.printf "%-12s %14.1f %14.1f %8.2fx\n" "read" r.mt_byte_read
    r.mt_word_read
    (r.mt_word_read /. r.mt_byte_read);
  r

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json)                                    *)
(* ------------------------------------------------------------------ *)

(* BENCH_llee.json: each value rounded to the decimals the tables print *)
let write_bench_json ~path (rows : llee_row list) (mt : mem_row) =
  let open Benchsuite.Jsonf in
  let dec d x =
    let p = 10.0 ** float_of_int d in
    Num (Float.round (x *. p) /. p)
  in
  let int n = Num (float_of_int n) and int64 n = Num (Int64.to_float n) in
  let row r =
    Obj
      [
        ("name", Str r.l_name);
        ("cold_translations", int r.l_cold_n);
        ("cold_translate_ms", dec 3 r.l_cold_ms);
        ("warm_translate_ms", dec 3 r.l_warm_ms);
        ("warm_cache_hits", int r.l_warm_hits);
        ("warm_storage_reads", int r.l_warm_reads);
        ("offline_seq_s", dec 4 r.l_off_seq);
        ("cycles", int64 r.l_cycles);
        ("lint_cold_ms", dec 3 r.l_lint_cold_ms);
        ("lint_warm_ms", dec 3 r.l_lint_warm_ms);
        ("lint_runs", int r.l_lint_runs);
        ("lint_skipped", int r.l_lint_skipped);
        ("range_ms", dec 3 r.l_range_ms);
        ("range_sweeps", int r.l_range_sweeps);
        ("rel_ms", dec 3 r.l_rel_ms);
        ("rel_facts", int r.l_rel_facts);
        ("quarantined", int r.l_quarantined);
        ("repaired", int r.l_repaired);
        ("cycles_peep", int64 r.l_cycles_peep);
        ("peep_rewrites", int r.l_peep_rewrites);
        ("peep_table_load_ms", dec 3 r.l_peep_table_load_ms);
      ]
  in
  let doc =
    Obj
      [
        ( "memory_throughput_mb_s",
          Obj
            [
              ("byte_write", dec 1 mt.mt_byte_write);
              ("word_write", dec 1 mt.mt_word_write);
              ("byte_read", dec 1 mt.mt_byte_read);
              ("word_read", dec 1 mt.mt_word_read);
            ] );
        ("workloads", List (List.map row rows));
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc ^ "\n");
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Trace cache                                                         *)
(* ------------------------------------------------------------------ *)

let run_trace () =
  section "Software trace cache: profile-guided relayout (paper S4.2)";
  Printf.printf "%-17s %12s %12s %12s %8s\n" "Program" "cycles" "reopt cycles"
    "dyn instrs" "gain";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let m = Workloads.compile_optimized ~level:2 w in
      let eng = Llee.of_module ~target:Llee.Sparc m in
      ignore (Llee.run eng);
      let before = eng.Llee.stats.Llee.cycles in
      let eng2, moved = Llee.reoptimize eng in
      ignore (Llee.run eng2);
      let after = eng2.Llee.stats.Llee.cycles in
      Printf.printf "%-17s %12Ld %12Ld %12Ld %7.2f%% (moved %d blocks)\n" name
        before after eng2.Llee.stats.Llee.native_instrs
        (100.0 *. (Int64.to_float before -. Int64.to_float after)
         /. Int64.to_float before)
        moved)
    [ "256.bzip2"; "197.parser"; "181.mcf"; "300.twolf" ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  section "Ablation: optimization levels (static/dynamic LLVA, SPARC cycles)";
  Printf.printf "%-17s %6s %9s %9s %12s\n" "Program" "level" "#LLVA" "dynamic"
    "SPARC cycles";
  let subset = [ "ptrdist-anagram"; "181.mcf"; "164.gzip"; "183.equake" ] in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      List.iter
        (fun level ->
          let m = Workloads.compile_optimized ~level w in
          let static = Llva.Ir.module_instr_count m in
          let st = Interp.create ~fuel:100_000_000 m in
          ignore (Interp.run_main st);
          let sparc = Sparclite.Compile.compile_module m in
          let _, sst = Codegen.Machine.run_main Sparclite.Sim.machine sparc in
          Printf.printf "%-17s %6d %9d %9d %12d\n" name level static
            st.Interp.stats.Interp.steps sst.Codegen.Machine.cycles)
        [ 0; 1; 2 ])
    subset;
  section "Ablation: the compact 32-bit instruction form (object-code bytes)";
  Printf.printf "%-17s %10s %12s %8s\n" "Program" "compact" "self-ext only"
    "saving";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let m = Workloads.compile_optimized ~level:2 w in
      let with_c = String.length (Llva.Encode.encode ~compact:true m) in
      let without = String.length (Llva.Encode.encode ~compact:false m) in
      Printf.printf "%-17s %10d %12d %7.1f%%\n" name with_c without
        (100.0 *. float_of_int (without - with_c) /. float_of_int without))
    subset;
  section "Ablation: register allocation on X86-lite (cycles)";
  Printf.printf "%-17s %14s %14s %8s\n" "Program" "spill-all" "linear-scan"
    "speedup";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let naive =
        X86lite.Compile.compile_module ~alloc:Spill_everything
          (Workloads.compile_optimized ~level:2 w)
      in
      let _, nst = Codegen.Machine.run_main X86lite.Sim.machine naive in
      let ls =
        X86lite.Compile.compile_module ~alloc:Linear_scan
          (Workloads.compile_optimized ~level:2 w)
      in
      let _, lst = Codegen.Machine.run_main X86lite.Sim.machine ls in
      Printf.printf "%-17s %14d %14d %7.2fx\n" name nst.Codegen.Machine.cycles
        lst.Codegen.Machine.cycles
        (float_of_int nst.Codegen.Machine.cycles
        /. float_of_int lst.Codegen.Machine.cycles))
    subset

(* ------------------------------------------------------------------ *)
(* Portability (paper S3.2)                                            *)
(* ------------------------------------------------------------------ *)

let run_portability () =
  section "Portability: identical behaviour on all four target configs";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let outputs =
        List.map
          (fun target ->
            let m =
              Minic.Mcodegen.compile_and_verify ~name ~target ~optimize:1
                w.Workloads.source
            in
            let st = Interp.create ~fuel:100_000_000 m in
            let code = Interp.run_main st in
            (Llva.Target.to_string target, code, Interp.output st))
          Llva.Target.all
      in
      let _, c0, o0 = List.hd outputs in
      let agree =
        List.for_all (fun (_, c, o) -> c = c0 && o = o0) outputs
      in
      Printf.printf "%-17s agree=%b  %s" name agree o0;
      if not agree then
        List.iter
          (fun (t, c, o) -> Printf.printf "    %s: code=%d %s" t c o)
          outputs)
    [ "ptrdist-anagram"; "ptrdist-bc"; "186.crafty" ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Simulator and interpreter throughput: all 17 workloads at -O1,
   compiled once per target without a peephole table, then run twice
   with [Codegen.Machine.run_main], each run on a freshly loaded memory
   image. Guest instructions per second of wall-clock time, image load
   included. The interpreter row runs the same modules with
   [Interp.run_main] on a fresh [Interp.create] state and counts LLVA
   instructions (steps). *)
let run_sims () =
  section "Native simulator and interpreter throughput (17 workloads, -O1, no table)";
  let mods = List.map (Workloads.compile_optimized ~level:1) Workloads.all in
  let measure ?(what = "guest instrs") ?(rate = "MIPS") name
      (runs : (unit -> int) list) =
    let instrs = ref 0 and secs = ref 0.0 in
    for pass = 1 to 2 do
      let t0 = Unix.gettimeofday () in
      let n = List.fold_left (fun acc run -> acc + run ()) 0 runs in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "%-9s pass %d: %11d %s, %6.2f s, %5.1f %s\n%!" name pass n
        what dt (float_of_int n /. dt /. 1e6) rate;
      instrs := !instrs + n;
      secs := !secs +. dt
    done;
    Printf.printf "%-9s both:   %11d %s, %6.2f s, %5.1f %s\n%!" name !instrs
      what !secs (float_of_int !instrs /. !secs /. 1e6) rate
  in
  measure "x86lite"
    (List.map
       (fun m ->
         let c = X86lite.Compile.compile_module m in
         fun () ->
           let c = { c with Codegen.Native.image = Vmem.Image.load m } in
           let _, st = Codegen.Machine.run_main X86lite.Sim.machine c in
           st.Codegen.Machine.icount)
       mods);
  measure "sparclite"
    (List.map
       (fun m ->
         let c = Sparclite.Compile.compile_module m in
         fun () ->
           let c = { c with Codegen.Native.image = Vmem.Image.load m } in
           let _, st = Codegen.Machine.run_main Sparclite.Sim.machine c in
           st.Codegen.Machine.icount)
       mods);
  measure "interp" ~what:"LLVA steps" ~rate:"Msteps/s"
    (List.map
       (fun m () ->
         let st = Interp.create m in
         ignore (Interp.run_main st);
         st.Interp.stats.Interp.steps)
       mods)

(* The static compiler stage by stage, as the benchmark's set-up runs it
   (MiniC, verify, -O1, verify, encode) over all 17 workloads: per stage,
   the median over [reps] builds of the summed wall-clock time and the
   minor words allocated (deterministic). "codegen" is the whole MiniC
   compile less the parse, "parse" the parse less the lexing. *)
let run_static () =
  let reps = 21 in
  section
    (Printf.sprintf
       "Static compiler stages (17 workloads, -O1; median of %d builds)" reps);
  let stages = ref [] in
  let rec_ tbl name t w =
    match Hashtbl.find_opt tbl name with
    | Some (t0, w0) -> Hashtbl.replace tbl name (t0 +. t, w0 +. w)
    | None ->
        Hashtbl.replace tbl name (t, w);
        if not (List.mem name !stages) then stages := !stages @ [ name ]
  in
  let measure f =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t = Unix.gettimeofday () -. t0 in
    (r, t, Gc.minor_words () -. w0)
  in
  let lex src () =
    let lx = Minic.Mlexer.create src in
    while Minic.Mlexer.next lx <> Minic.Mlexer.Teof do
      ()
    done
  in
  let verify m () =
    match Llva.Verify.verify_module m with
    | [] -> ()
    | e :: _ -> failwith e
  in
  let build () =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (w : Workloads.workload) ->
        let (), tl, wl = measure (lex w.source) in
        let _, tp, wp = measure (fun () -> Minic.Mparser.parse w.source) in
        let m, tc, wc =
          measure (fun () -> Minic.Mcodegen.compile ~name:w.name w.source)
        in
        rec_ tbl "lex" tl wl;
        rec_ tbl "parse" (tp -. tl) (wp -. wl);
        rec_ tbl "codegen" (tc -. tp) (wc -. wp);
        let (), t, wv = measure (verify m) in
        rec_ tbl "verify" t wv;
        List.iteri
          (fun k name ->
            let _, t, wd =
              measure (fun () -> Transform.Passmgr.run_pass m name)
            in
            rec_ tbl (Printf.sprintf "%d.%s" (k + 1) name) t wd)
          Transform.Passmgr.o1_pipeline;
        let (), t, wv = measure (verify m) in
        rec_ tbl "verify" t wv;
        let _, t, we = measure (fun () -> Llva.Encode.encode m) in
        rec_ tbl "encode" t we)
      Workloads.all;
    tbl
  in
  let builds = List.init reps (fun _ -> build ()) in
  let median xs =
    let a = Array.of_list (List.sort compare xs) in
    a.(Array.length a / 2)
  in
  let total_t = ref 0.0 and total_w = ref 0.0 in
  Printf.printf "%-16s %9s %12s\n" "stage" "ms" "minor words";
  List.iter
    (fun name ->
      let t = median (List.map (fun b -> fst (Hashtbl.find b name)) builds) in
      let w = median (List.map (fun b -> snd (Hashtbl.find b name)) builds) in
      total_t := !total_t +. t;
      total_w := !total_w +. w;
      Printf.printf "%-16s %9.3f %12.0f\n" name (t *. 1000.0) w)
    !stages;
  Printf.printf "%-16s %9.3f %12.0f\n" "sum" (!total_t *. 1000.0) !total_w

let run_micro () =
  section "Micro-benchmarks: translator pipeline stages (bechamel, OLS)";
  let open Bechamel in
  let w = Option.get (Workloads.find "164.gzip") in
  let m = Workloads.compile_optimized ~level:2 w in
  let bytes = Llva.Encode.encode m in
  let tests =
    Test.make_grouped ~name:"pipeline"
      [
        Test.make ~name:"table2/x86-translate"
          (Staged.stage (fun () -> X86lite.Compile.compile_module m));
        Test.make ~name:"table2/sparc-translate"
          (Staged.stage (fun () -> Sparclite.Compile.compile_module m));
        Test.make ~name:"fig2/minic-frontend"
          (Staged.stage (fun () ->
               Minic.Mcodegen.compile ~name:"fig2" fig2_c));
        Test.make ~name:"llee/encode"
          (Staged.stage (fun () -> Llva.Encode.encode m));
        Test.make ~name:"llee/decode"
          (Staged.stage (fun () -> Llva.Decode.decode bytes));
        Test.make ~name:"verify"
          (Staged.stage (fun () -> Llva.Verify.verify_module m));
        Test.make ~name:"optimize-O2"
          (Staged.stage (fun () ->
               Transform.Passmgr.optimize ~level:2
                 (Llva.Decode.decode bytes)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let t = Hashtbl.find results name in
      match Analyze.OLS.estimates t with
      | Some (est :: _) ->
          Printf.printf "%-32s %12.1f ns/run  (%.3f ms)\n" name est
            (est /. 1e6)
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort compare names)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let which =
    match List.filter (fun a -> a <> "--json") args with
    | [] -> "all"
    | w :: _ -> w
  in
  (* [--json] additionally writes BENCH_llee.json next to the working
     directory so the perf trajectory is machine-readable across PRs *)
  let llee_and_mem () =
    let rows = run_llee () in
    let mt = run_memtp () in
    if json then
      write_bench_json ~path:"BENCH_llee.json" rows mt
  in
  (match which with
  | "table2" -> ignore (run_table2 ())
  | "fig2" -> run_fig2 ()
  | "llee" -> llee_and_mem ()
  | "memtp" -> ignore (run_memtp ())
  | "trace" -> run_trace ()
  | "ablation" -> run_ablation ()
  | "portability" -> run_portability ()
  | "micro" -> run_micro ()
  | "sims" -> run_sims ()
  | "static" -> run_static ()
  | "all" ->
      ignore (run_table2 ());
      run_fig2 ();
      llee_and_mem ();
      run_trace ();
      run_ablation ();
      run_portability ();
      run_sims ();
      run_static ();
      run_micro ()
  | other ->
      Printf.eprintf
        "unknown benchmark %S (try: table2 fig2 llee memtp trace ablation \
         portability sims static micro all; add --json for BENCH_llee.json)\n"
        other;
      exit 1);
  print_newline ()
