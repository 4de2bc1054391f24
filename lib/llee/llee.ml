(* LLEE: the Low-Level Execution Environment (paper §4.1).

   "Offline translation when possible, online translation whenever
   necessary": given virtual object code, LLEE looks for cached native
   translations through the OS-independent storage API, validates their
   timestamps, and falls back to JIT-compiling functions on demand; any
   newly translated code is written back to the cache when storage is
   available. During idle time the OS may request offline translation
   ([translate_offline]) so later launches need no JIT at all; offline
   translation also writes one whole-module cache entry, so a warm
   launch costs a single storage read + unmarshal instead of one per
   function.

   Profiles collected during execution drive the software trace cache
   ([reoptimize]): hot traces re-lay-out the code and the program is
   retranslated. Self-modifying code (the §3.4 intrinsics) invalidates
   per-function cache entries. *)

open Llva

(* re-export the library's submodules (llee.ml is the library interface) *)
module Storage = Storage
module Profile = Profile
module Trace = Trace
module Pool = Pool
module Outcome = Outcome
module Crc32 = Crc32
module Tv = Tv

type target = X86 | Sparc

let backend : target -> (module Superopt.Backend.S) = function
  | X86 -> (module Superopt.Backend.X86)
  | Sparc -> (module Superopt.Backend.Sparc)

let target_name target =
  let (module B) = backend target in
  B.name

type stats = {
  mutable translations : int; (* functions JIT-compiled this run *)
  mutable cache_hits : int; (* functions loaded from offline storage *)
  mutable translate_time : float; (* seconds spent translating *)
  mutable cycles : int64; (* simulated execution cycles *)
  mutable native_instrs : int64; (* dynamic native instruction count *)
  mutable invalidations : int; (* SMC-triggered cache invalidations *)
  mutable cache_corrupt : int; (* undecodable cache entries dropped *)
  mutable cache_quarantined : int; (* checksum-failed entries moved aside *)
  mutable cache_repaired : int; (* quarantined entries rewritten fresh *)
  mutable storage_errors : int; (* storage ops contained as miss/no-op *)
  mutable lint_runs : int; (* llva-lint analyses actually computed *)
  mutable lint_skipped : int; (* recorded verdicts reused instead *)
  mutable lint_rejected : int; (* cache installs refused by an Error verdict *)
  mutable lint_blocked_funcs : int;
      (* functions barred from the native cache by a per-function verdict
         while the rest of the module kept its cached code *)
  mutable lint_time : float; (* seconds spent in the analyzer *)
  mutable peep_rewrites : int; (* peephole rewrites applied while translating *)
  mutable peep_cycles_saved : int; (* static cycles removed by those rewrites *)
  mutable peep_searches : int; (* superoptimizer searches actually run *)
  mutable peep_table_loads : int; (* rewrite tables loaded from storage *)
  mutable peep_time : float; (* seconds acquiring the table (search or load) *)
  mutable tv_runs : int; (* lockstep certifications actually computed *)
  mutable tv_skipped : int; (* recorded #tv# verdicts reused instead *)
  mutable tv_mismatches : int; (* mismatching functions in the verdict *)
  mutable tv_time : float; (* seconds spent in the lockstep checker *)
}

let fresh_stats () =
  {
    translations = 0;
    cache_hits = 0;
    translate_time = 0.0;
    cycles = 0L;
    native_instrs = 0L;
    invalidations = 0;
    cache_corrupt = 0;
    cache_quarantined = 0;
    cache_repaired = 0;
    storage_errors = 0;
    lint_runs = 0;
    lint_skipped = 0;
    lint_rejected = 0;
    lint_blocked_funcs = 0;
    lint_time = 0.0;
    peep_rewrites = 0;
    peep_cycles_saved = 0;
    peep_searches = 0;
    peep_table_loads = 0;
    peep_time = 0.0;
    tv_runs = 0;
    tv_skipped = 0;
    tv_mismatches = 0;
    tv_time = 0.0;
  }

type t = {
  bytes : string; (* the virtual object code as shipped *)
  m : Ir.modl;
  key : string; (* content hash: identifies the program version *)
  storage : Storage.t;
  target : target;
  program_timestamp : float;
  stats : stats;
  funcs_by_name : (string, Ir.func) Hashtbl.t; (* defined functions *)
  (* entries quarantined this launch; a successful rewrite under the same
     name counts as a repair *)
  quarantined : (string, unit) Hashtbl.t;
  peephole : bool; (* apply the superoptimized rewrite table *)
  (* the table for this launch and its fingerprint, acquired lazily by
     [ensure_peep_table]: loaded from the [#peep#] cache entry or learned
     by a fresh search *)
  mutable peep_table : (Superopt.Table.t * string) option;
}

(* "Load the executable": decode virtual object code, remember its content
   hash (this plays the role of the program timestamp check: a changed
   program never matches stale cache entries, and an explicitly newer
   [timestamp] invalidates older ones). *)
let load ?(storage = Storage.none) ?(timestamp = 0.0) ?(peephole = false)
    ~target bytes =
  let m = Decode.decode bytes in
  let funcs_by_name = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      if not (Ir.is_declaration f) then
        Hashtbl.replace funcs_by_name f.Ir.fname f)
    m.Ir.funcs;
  {
    bytes;
    m;
    key = Digest.to_hex (Digest.string bytes);
    storage;
    target;
    program_timestamp = timestamp;
    stats = fresh_stats ();
    funcs_by_name;
    quarantined = Hashtbl.create 8;
    peephole;
    peep_table = None;
  }

let of_module ?(storage = Storage.none) ?(timestamp = 0.0) ?(peephole = false)
    ~target m =
  load ~storage ~timestamp ~peephole ~target (Encode.encode m)

(* Native-code entry identity includes the peephole table fingerprint:
   code compiled under different rewrite tables (or with the pass off —
   no suffix) never shares a cache entry. *)
let cache_name t fname =
  let base = Printf.sprintf "%s.%s.%s" t.key fname (target_name t.target) in
  match t.peep_table with
  | Some (_, fingerprint) -> base ^ ".p" ^ fingerprint
  | None -> base

(* Reserved (non-function) cache entries are framed with '#', a character
   the LLVA identifier grammar excludes ([a-zA-Z0-9._$-] only), so no
   function name — not even one literally called "__module__" — can ever
   collide with them. *)
let module_entry_name t = cache_name t "#module#"

(* The llva-lint verdict entry: keyed by the module content hash and the
   analyzer version stamp, with no target component — findings are
   target-independent, so both back-ends share one verdict. A
   [Check.Lint.version] bump changes the name, orphaning old verdicts. *)
let lint_entry_name t =
  Printf.sprintf "%s.#lint#.v%d" t.key Check.Lint.version

(* The superoptimizer's rewrite-table entry: keyed by the module content
   hash, the target (tables encode target instructions, so the back-ends
   cannot share one) and the table format version — a
   [Superopt.Table.version] bump orphans old tables. *)
let peep_entry_name t =
  Printf.sprintf "%s.#peep#.%s.v%d" t.key (target_name t.target)
    Superopt.Table.version

(* The translation-validation verdict entry: keyed by the module content
   hash, the target (certification is of one translation) and the
   checker version — a [Tv.version] bump orphans recorded verdicts. *)
let tv_entry_name t =
  Printf.sprintf "%s.#tv#.%s.v%d" t.key (target_name t.target) Tv.version

(* ---------- contained storage operations ---------- *)

(* The storage API may throw — injected faults, transient I/O errors that
   outlasted the retry budget, a hostile filesystem. None of that may
   take the launch down: a throwing read is a miss, a throwing write or
   delete is a no-op, and each is counted in [storage_errors]. *)
let storage_read t name : Storage.entry option =
  try t.storage.Storage.read name
  with _ ->
    t.stats.storage_errors <- t.stats.storage_errors + 1;
    None

let storage_delete t name =
  try t.storage.Storage.delete name
  with _ -> t.stats.storage_errors <- t.stats.storage_errors + 1

(* A successful write under a name quarantined this launch is a repair:
   the damaged entry was moved aside and a freshly translated (or
   re-linted) replacement has landed. *)
let storage_write t name data =
  match t.storage.Storage.write name data with
  | () ->
      if Hashtbl.mem t.quarantined name then begin
        Hashtbl.remove t.quarantined name;
        t.stats.cache_repaired <- t.stats.cache_repaired + 1
      end
  | exception _ -> t.stats.storage_errors <- t.stats.storage_errors + 1

(* A checksum-failed entry is damaged but was certainly ours (the magic
   matched): move it aside on the storage medium — renamed, never
   re-read — so the retranslation about to happen can write a repaired
   entry under the original name. *)
let quarantine_entry t name =
  t.stats.cache_quarantined <- t.stats.cache_quarantined + 1;
  Hashtbl.replace t.quarantined name ();
  try t.storage.Storage.quarantine name
  with _ -> t.stats.storage_errors <- t.stats.storage_errors + 1

let read_cached t name : string option =
  match storage_read t name with
  | Some entry when entry.Storage.timestamp >= t.program_timestamp ->
      Some entry.Storage.data
  | Some _ ->
      (* stale translation: drop it *)
      storage_delete t name;
      None
  | None -> None

(* ---------- checksummed entry framing ---------- *)

(* Cached entries are framed with a magic prefix plus a CRC-32 of the
   payload (8 lowercase hex digits). The magic rejects foreign or
   truncated-into-the-header files; the checksum catches any damage to
   the payload itself, which is the self-healing trigger: quarantine,
   retranslate, write back. *)
let cache_magic = "LLEE2\x00"

let frame_entry payload = cache_magic ^ Crc32.hex payload ^ payload

type framed = Payload of string | Bad_magic | Bad_checksum

(* strict fixed-width hex: [int_of_string "0x…"] would accept OCaml
   literal syntax like underscores *)
let hex8 s =
  let v = ref 0 in
  let ok = ref (String.length s = 8) in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> v := (!v * 16) + (Char.code c - Char.code '0')
      | 'a' .. 'f' -> v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
      | _ -> ok := false)
    s;
  if !ok then Some !v else None

let unframe_entry data : framed =
  let n = String.length cache_magic in
  if String.length data < n + 8 || String.sub data 0 n <> cache_magic then
    Bad_magic
  else
    let payload = String.sub data (n + 8) (String.length data - n - 8) in
    match hex8 (String.sub data n 8) with
    | Some crc when crc = Crc32.string payload -> Payload payload
    | Some _ | None ->
        (* ours for sure (the magic matched) but damaged — in the payload
           or in the checksum field itself *)
        Bad_checksum

(* Read the recorded artifact [name] and decode its payload. A failed
   checksum quarantines the entry (it was valid once and rotted); a bad
   magic, or a payload that passed its checksum but that [decode]
   refuses ([None]), counts as plain corruption — a foreign or garbage
   file that was never a valid entry. Either way the read is a miss and
   the caller recomputes and writes the artifact back. *)
let read_artifact t name ~decode =
  let corrupt () =
    t.stats.cache_corrupt <- t.stats.cache_corrupt + 1;
    None
  in
  match read_cached t name with
  | None -> None
  | Some data -> (
      match unframe_entry data with
      | Bad_magic -> corrupt ()
      | Bad_checksum ->
          quarantine_entry t name;
          None
      | Payload payload -> (
          match decode payload with Some _ as v -> v | None -> corrupt ()))

(* a marshaled payload, or [None] if it does not unmarshal *)
let unmarshal payload =
  try Some (Marshal.from_string payload 0)
  with Failure _ | Invalid_argument _ -> None

let timed t f =
  let start = Unix.gettimeofday () in
  let result = f () in
  t.stats.translate_time <-
    t.stats.translate_time +. (Unix.gettimeofday () -. start);
  result

(* ---------- superoptimized peephole tables ---------- *)

let learn_table t = Superopt.Search.learn (backend t.target) [ t.m ]

(* Acquire this launch's rewrite table, reusing a recorded one when the
   storage cache holds a fresh, well-formed [#peep#] entry for this
   module hash, target and table version ([peep_table_loads] counts the
   reuse). A missing, stale, or corrupt entry runs the enumerative
   search exactly once ([peep_searches]) and writes the winning table
   back through the storage API — so the search cost is paid once per
   program version and amortized across every later launch. Without
   storage the table is re-learned every launch. The table's
   fingerprint, which every native entry name carries, is computed here
   once. Either way the time spent here lands in [peep_time], never in
   [translate_time]. *)
let ensure_peep_table t : Superopt.Table.t option =
  if not t.peephole then None
  else
    match t.peep_table with
    | Some (tb, _) -> Some tb
    | None ->
        let t0 = Unix.gettimeofday () in
        let name = peep_entry_name t in
        let recorded =
          (* strict decode: wrong magic/version, undecodable payload,
             target mismatch or a rule that disagrees with the current
             cycle model all count as plain corruption — re-search rather
             than apply *)
          read_artifact t name ~decode:(fun payload ->
              match
                Superopt.Table.of_string
                  ~expect_target:(target_name t.target) payload
              with
              | tb -> Some tb
              | exception Superopt.Table.Invalid_table _ -> None)
        in
        let tb =
          match recorded with
          | Some tb ->
              t.stats.peep_table_loads <- t.stats.peep_table_loads + 1;
              tb
          | None ->
              let tb = learn_table t in
              t.stats.peep_searches <- t.stats.peep_searches + 1;
              storage_write t name (frame_entry (Superopt.Table.to_string tb));
              tb
        in
        t.peep_table <- Some (tb, Superopt.Table.fingerprint tb);
        t.stats.peep_time <- t.stats.peep_time +. (Unix.gettimeofday () -. t0);
        Some tb

(* ---------- lint-before-cache ---------- *)

(* Obtain the module's llva-lint verdict, reusing a recorded one when the
   storage cache holds a fresh, well-formed verdict for this exact module
   hash and analyzer version ([lint_skipped] counts the reuse). A
   missing, stale (program timestamp or version stamp), or corrupt
   verdict entry re-analyzes exactly once ([lint_runs]) and writes the
   verdict back through the storage API. *)
let verdict t : Check.Lint.verdict =
  let name = lint_entry_name t in
  let recorded =
    read_artifact t name ~decode:(fun payload ->
        match Check.Lint.verdict_of_json (Check.Json.parse payload) with
        | v -> Some v
        | exception Check.Json.Parse_error _ -> None)
  in
  match recorded with
  | Some v ->
      t.stats.lint_skipped <- t.stats.lint_skipped + 1;
      v
  | None ->
      let t0 = Unix.gettimeofday () in
      let v = Check.Lint.verdict t.m in
      t.stats.lint_time <- t.stats.lint_time +. (Unix.gettimeofday () -. t0);
      t.stats.lint_runs <- t.stats.lint_runs + 1;
      storage_write t name
        (frame_entry
           (Check.Json.to_string ~pretty:false
              (Check.Lint.verdict_to_json v)));
      v

(* ---------- translation validation (lockstep certification) ---------- *)

(* Obtain the module's lockstep-certification verdict for this target,
   reusing a recorded one when the storage cache holds a fresh,
   well-formed [#tv#] entry for this exact module hash, target and
   checker version ([tv_skipped] counts the reuse — a warm launch never
   re-runs the checker). A missing, stale, or corrupt entry certifies
   exactly once ([tv_runs]) and writes the verdict back through the
   storage API, with the same quarantine / re-check / repair self-healing
   as every other entry. Mismatching verdicts are recorded too — they
   document the divergence — and [tv_mismatches] counts the mismatching
   functions in whichever verdict this launch ends up holding. *)
let certify ?seed ?vectors t : Tv.verdict =
  let name = tv_entry_name t in
  let recorded =
    read_artifact t name ~decode:(fun payload ->
        match Tv.verdict_of_json (Check.Json.parse payload) with
        (* a verdict for the other target under this target's name was
           never valid *)
        | v when v.Tv.v_target = target_name t.target -> Some v
        | _ | (exception Check.Json.Parse_error _) -> None)
  in
  match recorded with
  | Some v ->
      t.stats.tv_skipped <- t.stats.tv_skipped + 1;
      t.stats.tv_mismatches <- t.stats.tv_mismatches + Tv.mismatches v;
      v
  | None ->
      let t0 = Unix.gettimeofday () in
      let v =
        Tv.certify_module ?seed ?vectors ~target:(target_name t.target) t.m
      in
      t.stats.tv_time <- t.stats.tv_time +. (Unix.gettimeofday () -. t0);
      t.stats.tv_runs <- t.stats.tv_runs + 1;
      t.stats.tv_mismatches <- t.stats.tv_mismatches + Tv.mismatches v;
      storage_write t name
        (frame_entry
           (Check.Json.to_string ~pretty:false (Tv.verdict_to_json v)));
      v

(* The gate itself: with no storage there is nothing to protect (nothing
   is ever cached), so no lint runs — the pure-JIT path is unchanged.
   With storage the verdict is read per function:

   - [Gate_clean] — no error-severity findings; caching is unrestricted;
   - [Gate_partial] — errors exist, but none in a function call-reachable
     from [main]: execution proceeds, clean functions still install and
     serve cached native code, and only the tainted set (the reporting
     function plus every [related] SCC member) is barred from the cache
     ([lint_blocked_funcs]);
   - [Gate_refused] — an error taints [main]'s call-reachable set (or the
     module has no defined [main], or carries a module-level error), so
     the launch is refused outright ([lint_rejected], exit 125). *)
type gate =
  | Gate_clean
  | Gate_partial of Check.Lint.verdict * (string, unit) Hashtbl.t
  | Gate_refused of Check.Lint.verdict

let lint_gate t : gate =
  if not t.storage.Storage.available then Gate_clean
  else
    let v = verdict t in
    if Check.Lint.verdict_clean v then Gate_clean
    else
      let refuse () =
        t.stats.lint_rejected <- t.stats.lint_rejected + 1;
        Gate_refused v
      in
      let module_level_error =
        List.exists
          (fun (d : Check.Diag.t) ->
            d.Check.Diag.sev = Check.Diag.Error && d.Check.Diag.func = "")
          (Check.Lint.verdict_diags v)
      in
      match Hashtbl.find_opt t.funcs_by_name "main" with
      | None -> refuse () (* nothing executable to salvage *)
      | Some _ when module_level_error -> refuse ()
      | Some main_f ->
          let cg = Analysis.Callgraph.compute t.m in
          let reach = Analysis.Callgraph.reachable_from cg [ main_f ] in
          let tainted = Check.Lint.verdict_tainted v in
          let reachable name =
            match Hashtbl.find_opt t.funcs_by_name name with
            | Some f -> Hashtbl.mem reach f.Ir.fid
            | None -> false (* a declaration: it has no cache entry *)
          in
          if List.exists reachable tainted then refuse ()
          else begin
            let blocked = Hashtbl.create 8 in
            List.iter (fun n -> Hashtbl.replace blocked n ()) tainted;
            t.stats.lint_blocked_funcs <- Hashtbl.length blocked;
            Gate_partial (v, blocked)
          end

(* Exit code reported when the gate refuses a poisoned module. *)
let lint_rejected_code = 125

let lint_rejected_report t v =
  Printf.sprintf
    "llee: refusing execution of module %s: llva-lint recorded %d error(s) \
     (verdict v%d)\n%s\n"
    t.key
    (Check.Lint.verdict_errors v)
    Check.Lint.version
    (Check.Diag.render_text (Check.Lint.verdict_diags v))

(* ---------- launching on a back-end ---------- *)

let find_function t name = Hashtbl.find_opt t.funcs_by_name name

(* The cached-translation resolver shared by both back-ends. [compile]
   JIT-compiles one IR function (timed and counted); [installed] is the
   back-end's compiled-function table. Resolution order: already
   installed, then the whole-module cache entry (read once, up front),
   then the per-function cache entry, then JIT + write-back. Functions in
   [blocked] (tainted by a per-function lint verdict) bypass the cache in
   both directions: they are JIT-compiled on demand and never written
   back, so a poisoned translation can neither be served nor recorded. *)
let no_blocked : (string, unit) Hashtbl.t = Hashtbl.create 0

let make_resolver (type cf) ?(blocked = no_blocked) t
    ~(compile : Ir.func -> cf) ~(installed : (string, cf) Hashtbl.t) :
    string -> cf option =
  let preloaded : (string, cf) Hashtbl.t = Hashtbl.create 16 in
  (let mname = module_entry_name t in
   match read_artifact t mname ~decode:unmarshal with
   | Some (pairs : (string * cf) list) ->
       List.iter (fun (n, cf) -> Hashtbl.replace preloaded n cf) pairs
   | None -> ());
  fun name ->
    match Hashtbl.find_opt installed name with
    | Some cf -> Some cf
    | None -> (
        match find_function t name with
        | None -> None (* external: the simulator dispatches by name *)
        | Some f -> (
            let cached =
              if Hashtbl.mem blocked name then None
              else
                match Hashtbl.find_opt preloaded name with
                | Some cf -> Some cf
                | None ->
                    let cname = cache_name t name in
                    read_artifact t cname ~decode:unmarshal
            in
            match cached with
            | Some cf ->
                t.stats.cache_hits <- t.stats.cache_hits + 1;
                Hashtbl.replace installed name cf;
                Some cf
            | None ->
                (* JIT: translate on demand, write back to the cache —
                   which is also the repair path for an entry the
                   checksum just quarantined *)
                let cf = timed t (fun () -> compile f) in
                t.stats.translations <- t.stats.translations + 1;
                if not (Hashtbl.mem blocked name) then
                  storage_write t (cache_name t name)
                    (frame_entry (Marshal.to_string cf []));
                Hashtbl.replace installed name cf;
                Some cf))

(* This launch's rewrite rules for back-end [B], none with the pass off.
   Acquire them first: cache identities include the table's
   fingerprint. *)
let peep_rules (type i) (module B : Superopt.Backend.S with type instr = i) t
    =
  match ensure_peep_table t with
  | Some tb -> Superopt.Table.pairs (module B) tb
  | None -> []

let run_native ?blocked t ?fuel () =
  let (module B) = backend t.target in
  let peep = peep_rules (module B) t in
  let ps = Codegen.Peephole.fresh_stats () in
  let image = Vmem.Image.load t.m in
  let cmod = { Codegen.Native.cm = t.m; image; funcs = Hashtbl.create 32 } in
  let resolve =
    make_resolver ?blocked t
      ~compile:(fun f -> B.compile_function t.m image ~peep ~peep_stats:ps f)
      ~installed:cmod.Codegen.Native.funcs
  in
  let module M = Codegen.Machine in
  let st = M.create ?fuel B.machine cmod in
  st.M.lookup <- (fun _ name -> resolve name);
  let outcome = Outcome.run_native ~engine:("llee-" ^ B.name) st in
  t.stats.cycles <- Int64.of_int st.M.cycles;
  t.stats.native_instrs <- Int64.of_int st.M.icount;
  t.stats.invalidations <- Hashtbl.length st.M.redirects;
  t.stats.peep_rewrites <- t.stats.peep_rewrites + ps.Codegen.Peephole.rewrites;
  t.stats.peep_cycles_saved <-
    t.stats.peep_cycles_saved + ps.Codegen.Peephole.cycles_saved;
  (outcome, M.output st)

(* Launch the program: JIT with transparent offline caching. When a
   storage cache is attached, the module is linted first (once — warm
   launches reuse the recorded verdict) and the verdict applies per
   function: an error in [main]'s call-reachable set degrades the launch
   to a reported failure, while errors confined to unreachable functions
   merely bar those functions from the cache — the rest of the module
   still executes from (and populates) cached native code. Returns a
   structured [Outcome.t] — traps, fuel exhaustion and lint refusals
   come back as data, never as escaping exceptions. *)
let run ?fuel t : Outcome.t * string =
  match lint_gate t with
  | Gate_refused v ->
      ( Outcome.Cache_degraded
          { reason =
              Printf.sprintf "llva-lint recorded %d error(s) for module %s"
                (Check.Lint.verdict_errors v)
                t.key
          },
        lint_rejected_report t v )
  | (Gate_clean | Gate_partial _) as g -> (
      let blocked =
        match g with Gate_partial (_, b) -> Some b | _ -> None
      in
      run_native ?blocked t ?fuel ())

(* Idle-time offline translation: translate every function and populate
   the cache without executing (paper: "flagging it for translation and
   not actual execution"). Functions compile on the calling domain and
   are then written back in source order. A module has a handful
   of functions and its [main] is often most of the work, so fanning
   them out over [Pool] domains was no faster and kept a second domain's
   heap. Finally one whole-module entry is written so warm launches need
   a single storage read. SMC invalidation still operates per function:
   the redirect mechanism resolves the replacement function by name,
   whichever entry it was loaded from. *)
let translate_offline_unchecked ?(blocked = no_blocked) t =
  let (module B) = backend t.target in
  let peep = peep_rules (module B) t in
  let fns =
    List.filter
      (fun (f : Ir.func) ->
        (not (Ir.is_declaration f)) && not (Hashtbl.mem blocked f.Ir.fname))
      t.m.Ir.funcs
  in
  let image = Vmem.Image.load t.m in
  let compiled =
    List.map
      (fun (f : Ir.func) ->
        let t0 = Unix.gettimeofday () in
        let ps = Codegen.Peephole.fresh_stats () in
        let cf = B.compile_function t.m image ~peep ~peep_stats:ps f in
        (f.Ir.fname, cf, ps, Unix.gettimeofday () -. t0))
      fns
  in
  List.iter
    (fun (name, cf, (ps : Codegen.Peephole.stats), dt) ->
      t.stats.translations <- t.stats.translations + 1;
      t.stats.translate_time <- t.stats.translate_time +. dt;
      t.stats.peep_rewrites <- t.stats.peep_rewrites + ps.rewrites;
      t.stats.peep_cycles_saved <- t.stats.peep_cycles_saved + ps.cycles_saved;
      storage_write t (cache_name t name)
        (frame_entry (Marshal.to_string cf [])))
    compiled;
  storage_write t (module_entry_name t)
    (frame_entry
       (Marshal.to_string
          (List.map (fun (name, cf, _, _) -> (name, cf)) compiled)
          []))

(* [?domains] is accepted and ignored: translation runs on the calling
   domain (see above), and existing callers still pass a domain count. *)
let translate_offline ?domains:(_ : int option) t =
  if not t.storage.Storage.available then
    invalid_arg "Llee.translate_offline: no storage API registered";
  match lint_gate t with
  | Gate_refused _ ->
      (* poisoned module: the verdict entry is recorded (so the refusal
         itself is amortized across launches) but no native translations
         ever enter the cache *)
      ()
  | Gate_clean -> translate_offline_unchecked t
  | Gate_partial (_, blocked) ->
      (* the clean remainder of the module is still translated and
         cached; tainted functions are left out of both the per-function
         entries and the whole-module entry *)
      translate_offline_unchecked ~blocked t

(* ---------- cache forensics (llva-run --cache-doctor) ---------- *)

(* The self-healing path never re-reads a quarantined entry; these
   functions exist for the human operating the cache. They inspect and
   dispose of the moved-aside files without touching live entries. *)

let classify_frame data =
  match unframe_entry data with
  | Bad_magic -> "bad magic: foreign file or header truncated"
  | Bad_checksum -> "checksum mismatch: payload damaged at rest"
  | Payload _ -> "frame intact (entry was readable when quarantined)"

(* The recorded lockstep-certification state for this module and target,
   read without stats side effects: the doctor reports, it never heals. *)
let tv_doctor_line t : string =
  match t.storage.Storage.read (tv_entry_name t) with
  | None -> "tv verdict: none recorded for this module/target"
  | exception _ -> "tv verdict: storage unavailable"
  | Some e -> (
      match unframe_entry e.Storage.data with
      | Bad_magic | Bad_checksum ->
          "tv verdict: recorded entry damaged (next certify quarantines it)"
      | Payload p -> (
          match Tv.verdict_of_json (Check.Json.parse p) with
          | v ->
              Printf.sprintf
                "tv verdict: %d certified, %d skipped, %d mismatched (%s, tv \
                 v%d)"
                (Tv.certified v)
                (List.length v.Tv.v_results - Tv.certified v - Tv.mismatches v)
                (Tv.mismatches v) v.Tv.v_target v.Tv.v_version
          | exception Check.Json.Parse_error _ ->
              "tv verdict: recorded entry undecodable (stale version?)"))

(* One line per quarantined file: name as stored, size, age relative to
   [now] (a parameter so reports are reproducible in tests). *)
let cache_doctor ?now t : string list =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  match t.storage.Storage.list_quarantined () with
  | [] -> [ "cache doctor: no quarantined entries"; tv_doctor_line t ]
  | exception _ ->
      t.stats.storage_errors <- t.stats.storage_errors + 1;
      [ "cache doctor: storage unavailable" ]
  | qs ->
      Printf.sprintf "cache doctor: %d quarantined entr%s" (List.length qs)
        (if List.length qs = 1 then "y" else "ies")
      :: List.map
           (fun (name, ts, size) ->
             (* post-mortem classification straight off the moved-aside
                bytes: torn and bit-rotted entries both land here, and the
                frame verdict tells a human which failure it was *)
             let verdict =
               match t.storage.Storage.open_quarantined name with
               | Some e -> classify_frame e.Storage.data
               | None -> "unreadable: quarantined bytes lost"
               | exception _ ->
                   t.stats.storage_errors <- t.stats.storage_errors + 1;
                   "unreadable: quarantined bytes lost"
             in
             Printf.sprintf "  %-40s %6d bytes  age %.0fs  %s" name size
               (Float.max 0.0 (now -. ts))
               verdict)
           qs
      @ [ tv_doctor_line t ]

let purge_quarantined t : int =
  try t.storage.Storage.purge_quarantined ()
  with _ ->
    t.stats.storage_errors <- t.stats.storage_errors + 1;
    0

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i =
    if i >= n then if String.length a = String.length b then None else Some n
    else if a.[i] <> b.[i] then Some i
    else go (i + 1)
  in
  go 0

(* Autopsy of one quarantined per-function entry: classify the frame
   damage, then retranslate the function exactly as the JIT would and
   report where the quarantined bytes diverge from a fresh entry. *)
let diff_quarantined t fname : string list =
  let cname = cache_name t fname in
  let entry =
    try t.storage.Storage.read_quarantined cname
    with _ ->
      t.stats.storage_errors <- t.stats.storage_errors + 1;
      None
  in
  match entry with
  | None ->
      [
        Printf.sprintf "no quarantined entry for function %%%s (cache name %s)"
          fname cname;
      ]
  | Some e -> (
      let header =
        Printf.sprintf "quarantined %s: %d bytes — %s" cname
          (String.length e.Storage.data)
          (classify_frame e.Storage.data)
      in
      match find_function t fname with
      | None -> [ header; "function is not defined in this module" ]
      | Some f ->
          let (module B) = backend t.target in
          let peep = peep_rules (module B) t in
          let payload =
            Marshal.to_string
              (B.compile_function t.m (Vmem.Image.load t.m) ~peep
                 ~peep_stats:(Codegen.Peephole.fresh_stats ())
                 f)
              []
          in
          let fresh = frame_entry payload in
          let diff_line =
            match first_difference e.Storage.data fresh with
            | None -> "byte-identical to a fresh translation"
            | Some i ->
                Printf.sprintf "first difference at byte %d of %d (fresh: %d)"
                  i
                  (String.length e.Storage.data)
                  (String.length fresh)
          in
          [ header; Printf.sprintf "fresh translation: %d bytes" (String.length fresh); diff_line ])

(* Collect a profile with the instrumented reference engine, then apply
   the software trace cache: hot-trace relayout + retranslation. Returns
   the relaid-out engine (cache entries of the old layout are unreachable
   through the new content hash). *)
let fresh_run t =
  {
    t with
    stats = fresh_stats ();
    quarantined = Hashtbl.create 8;
    peep_table = None (* re-acquired (cache load, normally) on next use *);
  }

let reoptimize ?fuel ?(validate = true) ?domains t : t * int =
  (* profile and relayout the same decoded copy so block ids line up *)
  let m = Decode.decode t.bytes in
  let prof, _, _ = Profile.collect ?fuel m in
  let moved = Trace.relayout_module prof m in
  let t' =
    of_module ~storage:t.storage ~timestamp:t.program_timestamp
      ~peephole:t.peephole ~target:t.target m
  in
  if moved = 0 then (t', 0)
  else if not validate then (t', moved)
  else begin
    (* idle-time validation: block reordering also perturbs downstream
       register allocation, so measure both translations and keep the
       faster one (this is exactly the offline feedback loop the storage
       API enables, §4.2). The two validation runs are independent whole
       programs, so they run on separate domains; the shared storage is
       serialized behind a mutex. *)
    let vstorage = Storage.locked t.storage in
    let baseline = { (fresh_run t) with storage = vstorage } in
    let candidate = { (fresh_run t') with storage = vstorage } in
    let validate_run eng () =
      ignore (run ?fuel:(Option.map (fun f -> f * 8) fuel) eng)
    in
    let (), () =
      Pool.both ?domains (validate_run baseline) (validate_run candidate)
    in
    if
      Int64.compare candidate.stats.cycles baseline.stats.cycles < 0
    then (fresh_run t', moved)
    else (fresh_run t, 0)
  end
