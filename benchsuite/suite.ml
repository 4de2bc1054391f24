(* The repository benchmark: one named workload per process.

     suite.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--json OUT]
     suite.exe --compare A.json B.json

   Inputs are the 17 lib/workloads programs at -O1, built once per
   process (set-up) and handed to the layers as virtual object code, the
   way LLEE launches them. Load is a closed loop: one client, back to
   back, in this process, with at most 2 domains. Rounds repeat until
   [--seconds] have passed; each end-to-end metric is the median over
   rounds. Every program output is checked against benchsuite/expected.tsv
   and every failed operation is counted. With [--trace 1] the run
   records spans around its calls into each layer, prints the per-layer
   metrics and writes a Chrome trace to .benchsuite/. The last line of
   stdout is one JSON object with the metrics BENCHMARK.json names. See
   benchsuite/README.md. *)

open Benchsuite

type prog = { name : string; bytes : string; exit : int; output : string }

(* Split once by x86lite guest instruction count at -O1: short runs
   execute fewer than 10M instructions, long runs at least 10M. *)
let short =
  [
    "ptrdist-anagram"; "183.equake"; "181.mcf"; "256.bzip2"; "164.gzip";
    "197.parser"; "188.ammp"; "186.crafty"; "255.vortex";
  ]

let long =
  [
    "ptrdist-ks"; "ptrdist-ft"; "ptrdist-yacr2"; "ptrdist-bc"; "179.art";
    "175.vpr"; "300.twolf"; "254.gap";
  ]

(* certifying 186.crafty alone takes ~45 s per target *)
let certified = List.filter (( <> ) "186.crafty") short
let targets = [ Llee.X86; Llee.Sparc ]
let setup_reps = 7
let work_root = ".benchsuite"

type launch = { id : int; target : Llee.target; stats : Llee.stats }

type ctx = {
  spans : Spans.t;
  seed : int;
  rng : Random.State.t;
  progs : prog list;
  work : string; (* cache directories of this process *)
  mutable ops : int;
  mutable failed : int;
  mutable next_launch : int;
  (* the current round's launches and layer values *)
  mutable launches : launch list;
  layer : (string, float) Hashtbl.t;
}

let now = Spans.now
let get tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
let bump tbl name v = Hashtbl.replace tbl name (v +. get tbl name)
let add ctx = bump ctx.layer

let add_max ctx name v =
  Hashtbl.replace ctx.layer name (Float.max v (get ctx.layer name))

let span ctx ?launch ?detail name f =
  Spans.record ctx.spans ?launch ?detail name f

(* One operation: it fails on an exception, including the [Failure] a
   check raises. Returns whether it succeeded. *)
let op ctx what f =
  ctx.ops <- ctx.ops + 1;
  match f () with
  | () -> true
  | exception e ->
      ctx.failed <- ctx.failed + 1;
      Printf.eprintf "FAILED %s: %s\n%!" what (Printexc.to_string e);
      false

let check_output p outcome out =
  if Llee.Outcome.exit_code outcome <> p.exit || out <> p.output then
    failwith
      (Printf.sprintf "%s: %s, output %S; expected exit %d, output %S" p.name
         (Llee.Outcome.to_string outcome)
         out p.exit p.output)

let find ctx names =
  List.map (fun n -> List.find (fun p -> p.name = n) ctx.progs) names
let pairs ps = List.concat_map (fun p -> List.map (fun t -> (p, t)) targets) ps

let shuffle ctx xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int ctx.rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let label p target = p.name ^ "/" ^ Llee.target_name target

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Counts and times every read and write the layers above make. *)
let observed ctx ?(on_write = fun _ _ -> ()) (s : Llee.Storage.t) =
  {
    s with
    Llee.Storage.read =
      (fun name ->
        add ctx "llee.storage.reads" 1.0;
        span ctx ~detail:name "llee.storage.read" (fun () -> s.read name));
    write =
      (fun name data ->
        add ctx "llee.storage.writes" 1.0;
        add ctx "llee.storage.write_bytes" (float_of_int (String.length data));
        on_write name data;
        span ctx ~detail:name "llee.storage.write" (fun () -> s.write name data));
  }

(* ---------- set-up ---------- *)

let load_expected path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.split_on_char '\t' l with
           | [ name; code; out ] -> Some (name, (int_of_string code, out ^ "\n"))
           | _ -> failwith ("malformed line in expected.tsv: " ^ l))

let verified (m : Llva.Ir.modl) =
  match Llva.Verify.verify_module m with
  | [] -> ()
  | errs -> failwith (m.Llva.Ir.mname ^ ": " ^ String.concat "; " errs)

(* Object code for all 17 programs, as the static compiler emits it. *)
let build_all spans =
  List.map
    (fun (w : Workloads.workload) ->
      let rec_ name f = Spans.record spans name f in
      let m =
        rec_ "minic.compile" (fun () ->
            Minic.Mcodegen.compile ~name:w.name w.source)
      in
      rec_ "setup.verify" (fun () -> verified m);
      ignore
        (rec_ "transform.optimize" (fun () ->
             Transform.Passmgr.optimize ~level:1 m));
      rec_ "setup.verify" (fun () -> verified m);
      (w.name, rec_ "llva.encode" (fun () -> Llva.Encode.encode m)))
    Workloads.all

(* ---------- the four workloads ---------- *)

let has_part part name = List.mem part (String.split_on_char '.' name)

(* install: idle-time offline translation of every program for both
   targets into one fresh cache. Round 1's cache writes are the
   reference: every later round must write byte-identical entries. The
   cache is in memory: on disk, deleting each run's cache files slowed
   the next runs' cache writes up to twelvefold, and round times drifted
   by three quarters over ten runs. [launch] keeps an on-disk cache. *)
let install_round () =
  let reference = Hashtbl.create 64 in
  fun ctx _dir ->
    let written = ref [] in
    let storage =
      observed ctx
        ~on_write:(fun name data -> written := (name, data) :: !written)
        (Llee.Storage.in_memory ())
    in
    let results = ref [] in
    let round () =
      List.iter
        (fun (p, target) ->
          written := [];
          let ok =
            op ctx (label p target) (fun () ->
                let eng =
                  span ctx "llva.decode" (fun () ->
                      Llee.load ~storage ~target p.bytes)
                in
                span ctx "llva.verify" (fun () -> verified eng.Llee.m);
                let v = span ctx "check.lint" (fun () -> Llee.verdict eng) in
                if not (Check.Lint.verdict_clean v) then
                  failwith "lint verdict has errors";
                span ctx
                  (Llee.target_name target ^ ".translate")
                  (fun () -> Llee.translate_offline ~domains:2 eng);
                add ctx "llee.translations"
                  (float_of_int eng.Llee.stats.translations))
          in
          results := (label p target, ok, !written) :: !results)
        (shuffle ctx (pairs ctx.progs))
    in
    (* The lint verdict is target-independent, so whichever target comes
       first in the shuffled order writes it: it is keyed by entry name,
       every other entry by the operation that wrote it. *)
    let after () =
      List.iter
        (fun (what, ok, writes) ->
          let digests = List.map (fun (n, d) -> (n, Digest.string d)) writes in
          let shared, own =
            List.partition (fun (n, _) -> has_part "#lint#" n) digests
          in
          let keys =
            ("op " ^ what, List.sort compare own)
            :: List.map (fun (n, d) -> (n, [ (n, d) ])) shared
          in
          let same =
            List.for_all
              (fun (k, v) ->
                match Hashtbl.find_opt reference k with
                | None -> Hashtbl.replace reference k v; true
                | Some v' -> v = v')
              keys
          in
          if ok && not same then begin
            ctx.failed <- ctx.failed + 1;
            Printf.eprintf "FAILED %s: cache writes differ from round 1\n%!" what
          end)
        !results
    in
    (round, after)

(* launch: every short program on both targets, launched cold into a
   fresh on-disk cache (lint, superoptimizer search, JIT, write-back,
   execute), then relaunched warm (verdict, table and code reads,
   execute). Warm cycles must equal cold cycles. *)
let launch_round ctx dir =
  let storage = observed ctx (Llee.Storage.on_disk ~dir) in
  let tname t = Llee.target_name t in
  let record kind target (st : Llee.stats) =
    add ctx (tname target ^ ".jit_ms") (st.translate_time *. 1000.0);
    add ctx "check.lint_ms" (st.lint_time *. 1000.0);
    add ctx
      (if st.peep_searches > 0 then "superopt.search_ms"
       else "superopt.table_load_ms")
      (st.peep_time *. 1000.0);
    add ctx "llee.translations" (float_of_int st.translations);
    add ctx "llee.cache_hits" (float_of_int st.cache_hits);
    if kind = `Cold then begin
      add ctx (tname target ^ ".cycles") (Int64.to_float st.cycles);
      add ctx (tname target ^ ".guest_instrs") (Int64.to_float st.native_instrs);
      add ctx (tname target ^ ".peep_rewrites") (float_of_int st.peep_rewrites)
    end
  in
  let launch kind p target run =
    let id = ctx.next_launch in
    ctx.next_launch <- id + 1;
    let kname = if kind = `Cold then "cold" else "warm" in
    let t0 = now () in
    let eng = ref None in
    ignore
      (op ctx
         (kname ^ " " ^ label p target)
         (fun () ->
           span ctx ~launch:id ("launch." ^ kname) (fun () ->
               let e = run () in
               let o, out = span ctx "llee.run" (fun () -> Llee.run e) in
               check_output p o out;
               eng := Some e)));
    add ctx ("launch." ^ kname ^ "_ms") ((now () -. t0) *. 1000.0);
    Option.iter
      (fun e ->
        record kind target e.Llee.stats;
        ctx.launches <- { id; target; stats = e.Llee.stats } :: ctx.launches)
      !eng;
    !eng
  in
  let round () =
    let order = shuffle ctx (pairs (find ctx short)) in
    let cold =
      List.map
        (fun (p, target) ->
          ( p,
            target,
            launch `Cold p target (fun () ->
                span ctx "llva.decode" (fun () ->
                    Llee.load ~storage ~peephole:true ~target p.bytes)) ))
        order
    in
    List.iter
      (fun (p, target, cold) ->
        match cold with
        | None ->
            ctx.ops <- ctx.ops + 1;
            ctx.failed <- ctx.failed + 1
        | Some c -> (
            match launch `Warm p target (fun () -> Llee.fresh_run c) with
            | Some w when w.Llee.stats.cycles <> c.Llee.stats.cycles ->
                ctx.failed <- ctx.failed + 1;
                Printf.eprintf "FAILED warm %s: %Ld cycles, cold took %Ld\n%!"
                  (label p target) w.Llee.stats.cycles c.Llee.stats.cycles
            | _ -> ()))
      cold
  in
  (round, ignore)

(* interp: sustained tier-0 throughput on the long programs; no
   translation and no storage. *)
let interp_round ctx _dir =
  let round () =
    List.iter
      (fun p ->
        ignore
          (op ctx p.name (fun () ->
               let m = span ctx "llva.decode" (fun () -> Llva.Decode.decode p.bytes) in
               let st = span ctx "vmem.image_load" (fun () -> Interp.create m) in
               let o =
                 span ctx "interp.run" (fun () ->
                     Llee.Outcome.protect ~engine:"interp"
                       ~current:(fun () -> st.Interp.current)
                       (fun () -> Interp.run_main st))
               in
               check_output p o (Interp.output st);
               let s = st.Interp.stats in
               add ctx "interp.steps" (float_of_int s.Interp.steps);
               add ctx "interp.calls" (float_of_int s.Interp.calls);
               add_max ctx "interp.max_depth" (float_of_int s.Interp.max_depth))))
      (shuffle ctx (find ctx long))
  in
  (round, ignore)

(* certify: lockstep certification of the short programs on both
   targets with in-memory storage, so every round certifies afresh. *)
let certify_round ctx _dir =
  let round () =
    List.iter
      (fun (p, target) ->
        ignore
          (op ctx (label p target) (fun () ->
               let storage = observed ctx (Llee.Storage.in_memory ()) in
               let eng =
                 span ctx "llva.decode" (fun () -> Llee.load ~storage ~target p.bytes)
               in
               let v =
                 span ctx
                   ("tv." ^ Llee.target_name target ^ ".certify")
                   (fun () -> Llee.certify ~seed:ctx.seed eng)
               in
               let certified = Llee.Tv.certified v in
               add ctx "tv.certified_funcs" (float_of_int certified);
               add ctx "tv.skipped_funcs"
                 (float_of_int
                    (List.length v.Llee.Tv.v_results - certified
                   - Llee.Tv.mismatches v));
               List.iter
                 (function
                   | _, Llee.Tv.Certified { vectors } ->
                       add ctx "tv.vectors" (float_of_int vectors)
                   | _ -> ())
                 v.Llee.Tv.v_results;
               if not (Llee.Tv.clean v) then
                 failwith (String.concat "\n" (Llee.Tv.report v)))))
      (shuffle ctx (pairs (find ctx certified)))
  in
  (round, ignore)

(* ---------- rounds and metrics ---------- *)

(* Per-layer values a traced round's spans give: every layer span's self
   time, the share of the round the layer spans cover, and execution
   time per launch as the run span minus lint, JIT, superoptimizer and
   storage. *)
let span_metrics ctx spans =
  let selfs = Spans.self_times spans in
  List.iter
    (fun ((s : Spans.span), self) ->
      if s.name = "round" then begin
        add ctx "trace.round_ms" (Spans.duration s *. 1000.0);
        add ctx "trace.coverage_pct" (100.0 *. (1.0 -. (self /. Spans.duration s)))
      end
      else if not (String.starts_with ~prefix:"launch." s.name) then
        add ctx (s.name ^ "_ms") (self *. 1000.0))
    selfs;
  List.iter
    (fun l ->
      let sum f =
        List.fold_left
          (fun acc ((s : Spans.span), self) ->
            if s.launch = l.id then acc +. f s self else acc)
          0.0 selfs
      in
      let run = sum (fun s self -> if s.name = "llee.run" then self else 0.0) in
      let peep_io =
        sum (fun s _ ->
            if
              String.starts_with ~prefix:"llee.storage." s.name
              && has_part "#peep#" s.detail
            then Spans.duration s
            else 0.0)
      in
      let st = l.stats in
      add ctx
        (Llee.target_name l.target ^ ".exec_ms")
        ((run -. st.lint_time -. st.translate_time -. (st.peep_time -. peep_io))
        *. 1000.0))
    ctx.launches;
  let get = get ctx.layer in
  List.iter
    (fun t ->
      let t = Llee.target_name t in
      if get (t ^ ".exec_ms") > 0.0 then
        (* cold and warm launches execute the same instructions *)
        add ctx (t ^ ".mips")
          (2.0 *. get (t ^ ".guest_instrs") /. (get (t ^ ".exec_ms") *. 1000.0)))
    targets;
  if get "interp.run_ms" > 0.0 then
    add ctx "interp.msteps_per_s"
      (get "interp.steps" /. (get "interp.run_ms" *. 1000.0))

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run rounds back to back until [seconds] have passed (at least one).
   Each round gets a fresh cache directory, made before its timed part.
   The directories are removed when the process exits, not between
   rounds: deleting cache files while rounds ran slowed later cache
   writes up to tenfold. Returns each
   round's wall time and layer values, and the peak heap after the first
   round: the heap grows with the number of rounds that spawn domains,
   so only the first round measures the same work on every run. *)
let run_rounds ctx ~seconds make_round =
  let t_start = now () in
  let rec go k heap acc =
    Hashtbl.reset ctx.layer;
    ctx.launches <- [];
    let dir = Filename.concat ctx.work (Printf.sprintf "round%d" k) in
    let round, after = make_round ctx dir in
    let gc0 = Gc.quick_stat () and cpu0 = Unix.times () in
    let t0 = now () in
    span ctx "round" round;
    let dt = now () -. t0 in
    let gc1 = Gc.quick_stat () and cpu1 = Unix.times () in
    after ();
    add ctx "ocaml.minor_mwords" ((gc1.minor_words -. gc0.minor_words) /. 1e6);
    add ctx "ocaml.major_collections"
      (float_of_int (gc1.major_collections - gc0.major_collections));
    add ctx "process.cpu_s"
      (cpu1.tms_utime +. cpu1.tms_stime -. cpu0.tms_utime -. cpu0.tms_stime);
    if ctx.spans.enabled then span_metrics ctx (Spans.take ctx.spans);
    let heap = if k = 1 then top_heap_mb () else heap in
    let acc = (dt, Hashtbl.copy ctx.layer) :: acc in
    if now () -. t_start < seconds then go (k + 1) heap acc
    else (List.rev acc, heap)
  in
  go 1 0.0 []

(* ---------- metrics, output and the command line ---------- *)

(* Every metric the suite computes, with its unit. BENCHMARK.json picks
   the ones a run reports and must agree with these units. *)
let end_to_end = [ ("round_ms", "ms"); ("setup_s", "s"); ("heap_mb", "MB") ]

let per_layer =
  let ms = List.map (fun n -> (n ^ "_ms", "ms")) in
  ms
    [
      "minic.compile"; "transform.optimize"; "llva.encode"; "llva.decode";
      "llva.verify"; "check.lint"; "x86lite.translate"; "sparclite.translate";
      "x86lite.jit"; "sparclite.jit"; "superopt.search"; "superopt.table_load";
      "llee.storage.write"; "llee.storage.read"; "x86lite.exec";
      "sparclite.exec"; "launch.cold"; "launch.warm"; "vmem.image_load";
      "interp.run"; "tv.x86lite.certify"; "tv.sparclite.certify"; "trace.round";
    ]
  @ [
      ("llva.object_bytes", "bytes"); ("llee.translations", "count");
      ("llee.storage.writes", "count"); ("llee.storage.write_bytes", "bytes");
      ("llee.storage.reads", "count"); ("llee.cache_hits", "count");
      ("x86lite.guest_instrs", "count"); ("sparclite.guest_instrs", "count");
      ("x86lite.mips", "MIPS"); ("sparclite.mips", "MIPS");
      ("x86lite.cycles", "cycles"); ("sparclite.cycles", "cycles");
      ("x86lite.peep_rewrites", "count"); ("sparclite.peep_rewrites", "count");
      ("interp.steps", "count"); ("interp.calls", "count");
      ("interp.max_depth", "count"); ("interp.msteps_per_s", "Msteps/s");
      ("tv.certified_funcs", "count"); ("tv.skipped_funcs", "count");
      ("tv.vectors", "count"); ("ocaml.minor_mwords", "Mwords");
      ("ocaml.major_collections", "collections"); ("process.cpu_s", "s");
      ("trace.coverage_pct", "%");
    ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* The metrics BENCHMARK.json names for this mode, in its order. *)
let reported ~traced =
  List.filter_map
    (fun (name, (spec : Results.spec)) ->
      (match List.assoc_opt name (end_to_end @ per_layer) with
      | Some u when u = spec.unit -> ()
      | Some u ->
          die "BENCHMARK.json: %s is in %s, the suite measures %s" name
            spec.unit u
      | None -> die "BENCHMARK.json: the suite does not measure %s" name);
      if (spec.bound = None) = traced then Some (name, spec.unit) else None)
    (Results.load_specs "BENCHMARK.json")

let workloads =
  [
    ("install", install_round ());
    ("launch", launch_round);
    ("interp", interp_round);
    ("certify", certify_round);
  ]

let run_workload ~workload ~seed ~seconds ~traced ~json =
  let make_round =
    match List.assoc_opt workload workloads with
    | Some r -> r
    | None -> die "unknown workload %S (install, launch, interp, certify)" workload
  in
  let reported = reported ~traced in
  let expected = load_expected "benchsuite/expected.tsv" in
  let work = Filename.concat work_root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ work_root; work ];
  at_exit (fun () -> if Sys.file_exists work then remove_tree work);
  let spans = Spans.create ~enabled:traced in
  (* set-up, several times for a steady median *)
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let objs = Spans.record spans "setup" (fun () -> build_all spans) in
        let dt = now () -. t0 in
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun ((s : Spans.span), self) ->
            if s.name <> "setup" then bump tbl (s.name ^ "_ms") (self *. 1000.0))
          (Spans.self_times (Spans.take spans));
        List.iter
          (fun (_, b) -> bump tbl "llva.object_bytes" (float_of_int (String.length b)))
          objs;
        (objs, dt, tbl))
  in
  let objs, _, _ = List.hd setups in
  if List.exists (fun (o, _, _) -> o <> objs) setups then
    die "set-up is not deterministic: object code differs between builds";
  let progs =
    List.map
      (fun (name, bytes) ->
        match List.assoc_opt name expected with
        | Some (exit, output) -> { name; bytes; exit; output }
        | None -> die "benchsuite/expected.tsv has no line for %s" name)
      objs
  in
  let ctx =
    {
      spans;
      seed;
      rng = Random.State.make [| seed |];
      progs;
      work;
      ops = 0;
      failed = 0;
      next_launch = 1;
      launches = [];
      layer = Hashtbl.create 64;
    }
  in
  let rounds, heap = run_rounds ctx ~seconds make_round in
  let value name =
    match name with
    | "round_ms" -> List.map (fun (dt, _) -> dt *. 1000.0) rounds
    | "setup_s" -> List.map (fun (_, dt, _) -> dt) setups
    | "heap_mb" -> [ heap ]
    | _ ->
        let _, _, setup = List.hd setups in
        if Hashtbl.mem setup name then List.map (fun (_, _, t) -> get t name) setups
        else List.map (fun (_, t) -> get t name) rounds
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let samples = value name in
        { Results.name; unit; summary = Quant.summarize samples; samples })
      reported
  in
  Printf.printf "# workload %s, seed %d, %d rounds, traced %b\n" workload seed
    (List.length rounds) traced;
  List.iter
    (fun (m : Results.metric) ->
      Printf.printf "%s %.6g %s  (q1 %.6g, q3 %.6g, n %d)\n" m.name
        m.summary.median m.unit m.summary.q1 m.summary.q3 m.summary.n)
    metrics;
  Printf.printf "ops %d\nops_failed %d\n" ctx.ops ctx.failed;
  if traced then begin
    let path = Filename.concat work_root (Printf.sprintf "trace-%s.json" workload) in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Check.Json.to_string (Spans.to_json spans)));
    Printf.printf "# trace written to %s\n" path
  end;
  Option.iter
    (fun path ->
      Results.append path
        { workload; seed; traced; ops = ctx.ops; ops_failed = ctx.failed; metrics })
    json;
  print_endline
    (Jsonf.to_string
       (Obj
          [
            ("correct", Bool (ctx.failed = 0));
            ("attempted", Num (float_of_int ctx.ops));
            ("failed", Num (float_of_int ctx.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun (m : Results.metric) ->
                     ( m.name,
                       Jsonf.Obj
                         [ ("value", Num m.summary.median); ("unit", Str m.unit) ]
                     ))
                   metrics) );
          ]));
  if ctx.failed > 0 then exit 1

let compare_files a b =
  let rows =
    Results.compare_runs (Results.load_specs "BENCHMARK.json") (Results.load a)
      (Results.load b)
  in
  Results.print_rows rows;
  if List.exists (fun (r : Results.row) -> Results.fails r.r_verdict) rows then exit 1

let usage () =
  die
    "usage: suite.exe --workload install|launch|interp|certify [--seed N] \
     [--seconds S] [--trace 0|1] [--json OUT]\n\
    \       suite.exe --compare A.json B.json"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; a; b ] -> compare_files a b
  | args ->
      let rec options acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            options ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = options [] args in
      List.iter
        (fun (k, _) ->
          if
            not
              (List.mem k
                 [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json" ])
          then usage ())
        opts;
      let opt k conv default =
        match List.assoc_opt k opts with
        | None -> default
        | Some v -> ( try conv v with _ -> usage ())
      in
      run_workload
        ~workload:(opt "--workload" Fun.id "")
        ~seed:(opt "--seed" int_of_string 1)
        ~seconds:(opt "--seconds" float_of_string 20.0)
        ~traced:
          (opt "--trace"
             (function "0" -> false | "1" -> true | _ -> raise Exit)
             false)
        ~json:(opt "--json" Option.some None)
