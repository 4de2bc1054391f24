(* Host instructions per LLVA step or per guest instruction, counted by
   single-stepping a window of one workload with ptrace (the [stepper]
   built beside this program; x86-64 Linux).

     dune exec bench/stepcount.exe -- [--runs K] [WINDOW ...]

   A window is ENGINE:WORKLOAD:S:N with ENGINE one of interp, x86lite,
   sparclite: the N units (LLVA steps, or guest instructions) from unit S
   of WORKLOAD compiled at -O1, or one of the names in [named] below;
   with no window, all of [named]. For each window this program runs
   itself under the stepper, once per run ([--runs], default 1), in a
   mode that runs the workload and calls [getppid] at the first
   boundary at or past unit S and again at the first at or past S + N:
   for the interpreter at a taken CFG edge ([Interp.on_edge]), for a
   simulator at a call ([Codegen.Machine.lookup]). The hook costs every
   side of a comparison the same. It prints the units the window holds,
   the host instructions counted, their number per unit, the wall time
   of each run, whether the runs counted the same, and the symbols that
   took the most instructions per unit (through [nm]). *)

(* the windows of the interpreter and simulator ablation (EXPERIMENTS.md):
   each is one of the windows where some family runs most often *)
let named =
  let on engine prefix =
    List.map
      (fun (name, w) -> (prefix ^ "-" ^ name, engine ^ ":" ^ w))
  in
  on "interp" "interp"
    [
      ("ks", "ptrdist-ks:1000000:20000");
      ("vortex", "255.vortex:200000:20000");
      ("crafty", "186.crafty:300000:20000");
      ("ammp", "188.ammp:500000:20000");
      ("bc", "ptrdist-bc:1000000:20000");
    ]
  @ List.concat_map
      (fun (engine, prefix) ->
        on engine prefix
          [
            ("ks", "ptrdist-ks:2000000:20000");
            ("crafty", "186.crafty:1000000:20000");
            ("vortex", "255.vortex:500000:20000");
            ("anagram", "ptrdist-anagram:2000000:20000");
            ("gzip", "164.gzip:2000000:20000");
          ])
      [ ("x86lite", "x86"); ("sparclite", "sparc") ]

type window = { engine : string; workload : string; start : int; len : int }

let parse_window spec =
  let spec = Option.value ~default:spec (List.assoc_opt spec named) in
  match String.split_on_char ':' spec with
  | [ engine; workload; s; n ]
    when List.mem engine [ "interp"; "x86lite"; "sparclite" ]
         && Option.is_some (Workloads.find workload) -> (
      match (int_of_string_opt s, int_of_string_opt n) with
      | Some start, Some len when start >= 0 && len > 0 -> { engine; workload; start; len }
      | _ -> failwith ("bad window " ^ spec))
  | _ -> failwith ("bad window " ^ spec ^ " (ENGINE:WORKLOAD:S:N or a name)")

let spec w = Printf.sprintf "%s:%s:%d:%d" w.engine w.workload w.start w.len

(* ---------- the traced side ---------- *)

(* [mark count] at each boundary: the first call at or past [start]
   opens the window, the first at or past [start + len] closes it; each
   calls [getppid], which the stepper watches for. *)
let marker w =
  let next = ref w.start and opened = ref (-1) and units = ref (-1) in
  let mark count =
    if count >= !next then begin
      ignore (Unix.getppid ());
      if !opened < 0 then begin
        opened := count;
        next := w.start + w.len
      end
      else begin
        units := count - !opened;
        next := max_int
      end
    end
  in
  (mark, units)

let run_native w isa compile m =
  let mark, units = marker w in
  let st = Codegen.Machine.create isa (compile m) in
  Codegen.Machine.init_stack st;
  st.Codegen.Machine.lookup <-
    (fun st name ->
      mark st.Codegen.Machine.icount;
      Codegen.Machine.default_lookup st name);
  (try ignore (Codegen.Machine.call_function st "main" [])
   with Vmem.Runtime.Exit_called _ -> ());
  !units

let child w =
  let m = Workloads.compile_optimized ~level:1 (Option.get (Workloads.find w.workload)) in
  let units =
    match w.engine with
    | "interp" ->
        let mark, units = marker w in
        let st = Interp.create m in
        st.Interp.on_edge <- Some (fun _ _ -> mark st.Interp.stats.Interp.steps);
        (try ignore (Interp.run_main st) with Interp.Trap _ | Interp.Unwound -> ());
        !units
    | "x86lite" -> run_native w X86lite.Sim.machine X86lite.Compile.compile_module m
    | _ -> run_native w Sparclite.Sim.machine Sparclite.Compile.compile_module m
  in
  if units < 0 then begin
    prerr_endline "stepcount: the run ended before the window closed";
    exit 3
  end;
  Printf.printf "units %d\n" units

(* ---------- the counting side ---------- *)

let read_lines ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

(* defined symbols of [exe] by address, ascending *)
let symbols exe =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; "--defined-only"; exe |] in
  let syms =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ a; _; name ] -> Option.map (fun a -> (a, name)) (Int64.of_string_opt ("0x" ^ a))
        | _ -> None)
      (read_lines ic)
  in
  ignore (Unix.close_process_in ic);
  Array.of_list syms

(* a position-independent executable runs at its load address *)
let is_pie exe =
  let ic = open_in_bin exe in
  let h = really_input_string ic 18 in
  close_in ic;
  Char.code h.[16] = 3 (* ET_DYN *)

let symbol_of syms a =
  let rec go lo hi =
    (* the last symbol at or below [a] lies in [lo, hi) *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= a then go mid hi else go lo mid
  in
  if Array.length syms = 0 || a < fst syms.(0) then "[outside the image]" else snd syms.(go 0 (Array.length syms))

type count = { units : int; total : int; by_addr : (int64 * int) list; base : int64; secs : float }

let count_once stepper w =
  let out = Filename.temp_file "stepcount" ".txt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists out then Sys.remove out) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let ic =
    Unix.open_process_args_in stepper
      [| stepper; out; Sys.executable_name; "--child"; spec w |]
  in
  let lines = read_lines ic in
  let status = Unix.close_process_in ic in
  let secs = Unix.gettimeofday () -. t0 in
  if status <> Unix.WEXITED 0 then failwith ("stepcount: the traced run failed on " ^ spec w);
  let units =
    List.find_map (fun l -> Scanf.sscanf_opt l "units %d" Fun.id) lines |> Option.get
  in
  let ic = open_in out in
  let counted = read_lines ic in
  close_in ic;
  let base = ref 0L and total = ref 0 and by_addr = ref [] in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "base"; b ] -> base := Int64.of_string b
      | [ "total"; n ] -> total := int_of_string n
      | [ a; n ] -> by_addr := (Int64.of_string a, int_of_string n) :: !by_addr
      | _ -> ())
    counted;
  { units; total = !total; by_addr = !by_addr; base = !base; secs }

let report ~top syms pie w counts =
  let c = List.hd counts in
  let per n = float_of_int n /. float_of_int c.units in
  Printf.printf "%s: %d units, %d instructions, %.2f per unit; wall %s s; %s\n" (spec w)
    c.units c.total (per c.total)
    (String.concat ", " (List.map (fun c -> Printf.sprintf "%.1f" c.secs) counts))
    (if List.length counts < 2 then "one run"
     else if List.for_all (fun d -> d.total = c.total && d.units = c.units) counts then
       "runs agree"
     else
       "runs differ: "
       ^ String.concat ", " (List.map (fun d -> string_of_int d.total) counts));
  let by_sym = Hashtbl.create 64 in
  List.iter
    (fun (a, n) ->
      let a = if pie then Int64.sub a c.base else a in
      let s = symbol_of syms a in
      Hashtbl.replace by_sym s (n + Option.value ~default:0 (Hashtbl.find_opt by_sym s)))
    c.by_addr;
  let ranked = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq by_sym)) in
  List.iteri
    (fun k (s, n) -> if k < top then Printf.printf "  %7.2f  %s\n" (per n) s)
    ranked;
  print_newline ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--child"; s ] -> child (parse_window s)
  | args ->
      let rec opts runs = function
        | "--runs" :: k :: rest -> opts (int_of_string k) rest
        | rest -> (runs, rest)
      in
      let runs, specs = opts 1 args in
      let windows = List.map parse_window (if specs = [] then List.map fst named else specs) in
      let stepper = Filename.concat (Filename.dirname Sys.executable_name) "stepper" in
      let syms = symbols Sys.executable_name and pie = is_pie Sys.executable_name in
      List.iter
        (fun w ->
          let counts = List.init (max 1 runs) (fun _ -> count_once stepper w) in
          report ~top:15 syms pie w counts)
        windows
