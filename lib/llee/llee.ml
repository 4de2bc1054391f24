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

(* ---------- checksummed entry framing ---------- *)

(* Cached entries are framed with a magic prefix plus a CRC-32 of the
   payload (8 lowercase hex digits). The magic rejects foreign or
   truncated-into-the-header files; the checksum catches any damage to
   the payload itself, which is the self-healing trigger: quarantine,
   retranslate, write back. *)
let cache_magic = "LLEE2\x00"

let frame_entry payload = String.concat "" [ cache_magic; Crc32.hex payload; payload ]

type framed = Payload of string | Bad_magic | Bad_checksum

let unframe_entry data : framed =
  let n = String.length cache_magic in
  if String.length data < n + 8 || String.sub data 0 n <> cache_magic then
    Bad_magic
  else
    let off = n + 8 in
    let len = String.length data - off in
    (* the field must be exactly the canonical lowercase hex [frame_entry]
       writes; otherwise the entry is ours for sure (the magic matched)
       but damaged, in the payload or in the checksum field itself. The
       payload is checked in place and copied out only when it passes. *)
    if String.sub data n 8 = Crc32.to_hex (Crc32.sub data ~off ~len) then
      Payload (String.sub data off len)
    else Bad_checksum

(* Read the recorded artifact [name] and decode its payload. An entry
   older than the program is stale and deleted. A failed checksum
   quarantines the entry (it was valid once and rotted); a bad magic, or
   a payload that passed its checksum but that [decode] refuses
   ([None]), counts as plain corruption — a foreign or garbage file that
   was never a valid entry. Either way the read is a miss and the caller
   recomputes and writes the artifact back. *)
let read_artifact t name ~decode =
  let corrupt () =
    t.stats.cache_corrupt <- t.stats.cache_corrupt + 1;
    None
  in
  match storage_read t name with
  | None -> None
  | Some e when e.Storage.timestamp < t.program_timestamp ->
      storage_delete t name;
      None
  | Some e -> (
      match unframe_entry e.Storage.data with
      | Bad_magic -> corrupt ()
      | Bad_checksum ->
          quarantine_entry t name;
          None
      | Payload payload -> (
          match decode payload with Some _ as v -> v | None -> corrupt ()))

(* ---------- cached artifacts ---------- *)

(* The last component of an entry name. A version stamp orphans every
   entry of its kind recorded before a format or analyzer bump. Native
   code carries this launch's peephole-table fingerprint instead, so code
   compiled under different rewrite tables (or with the pass off: no
   suffix) never shares an entry. *)
type stamp = Version of int | Table_fingerprint

(* One record per kind of artifact LLEE keeps in the storage cache: how
   its entry is named, how its payload is encoded and strictly decoded,
   and which [stats] counters a reuse and a computation bump. A new kind
   costs one more such record; [obtain] does the rest. *)
type 'a kind = {
  tag : string; (* a function name, or a reserved '#'-framed tag *)
  per_target : bool; (* the target is part of the name *)
  stamp : stamp;
  encode : 'a -> string;
  decode : t -> string -> 'a option; (* [None] rejects the payload *)
  hit : stats -> 'a -> unit; (* a recorded entry was reused *)
  computed : stats -> 'a -> float -> unit; (* computed afresh, in seconds *)
}

let entry_name t k =
  String.concat "."
    ((t.key :: k.tag :: (if k.per_target then [ target_name t.target ] else []))
    @
    match (k.stamp, t.peep_table) with
    | Version v, _ -> [ "v" ^ string_of_int v ]
    | Table_fingerprint, Some (_, fingerprint) -> [ "p" ^ fingerprint ]
    | Table_fingerprint, None -> [])

module Kind = struct
  let marshal v = Marshal.to_string v []

  (* a marshaled payload, or [None] if it does not unmarshal *)
  let unmarshal _ payload =
    try Some (Marshal.from_string payload 0)
    with Failure _ | Invalid_argument _ -> None

  let of_json decode payload =
    match decode (Check.Json.parse payload) with
    | v -> Some v
    | exception Check.Json.Parse_error _ -> None

  (* The native code of the whole module as (name, code) pairs, written
     by offline translation so a warm launch costs one storage read. Its
     functions count as hits one by one, when they are installed.
     Reserved tags are framed with '#', a character the LLVA identifier
     grammar excludes ([a-zA-Z0-9._$-] only), so no function — not even
     one literally called "__module__" — can collide with them. *)
  let whole_module =
    {
      tag = "#module#";
      per_target = true;
      stamp = Table_fingerprint;
      encode = marshal;
      decode = unmarshal;
      hit = (fun _ _ -> ());
      computed = (fun _ _ _ -> ());
    }

  (* One function's native code, keyed by its name. *)
  let code fname =
    {
      whole_module with
      tag = fname;
      hit = (fun s _ -> s.cache_hits <- s.cache_hits + 1);
      computed =
        (fun s _ dt ->
          s.translations <- s.translations + 1;
          s.translate_time <- s.translate_time +. dt);
    }

  (* The llva-lint verdict. Findings are target-independent, so both
     back-ends share one verdict. *)
  let lint =
    {
      tag = "#lint#";
      per_target = false;
      stamp = Version Check.Lint.version;
      encode =
        (fun v ->
          Check.Json.to_string ~pretty:false (Check.Lint.verdict_to_json v));
      decode = (fun _ -> of_json Check.Lint.verdict_of_json);
      hit = (fun s _ -> s.lint_skipped <- s.lint_skipped + 1);
      computed =
        (fun s _ dt ->
          s.lint_time <- s.lint_time +. dt;
          s.lint_runs <- s.lint_runs + 1);
    }

  (* The superoptimizer's rewrite table. Tables encode target
     instructions, so the back-ends cannot share one. The strict reader
     rejects a wrong magic or version, a target mismatch or a rule that
     disagrees with the current cycle model: re-search rather than
     apply. *)
  let peep =
    {
      tag = "#peep#";
      per_target = true;
      stamp = Version Superopt.Table.version;
      encode = Superopt.Table.to_string;
      decode =
        (fun t payload ->
          match
            Superopt.Table.of_string ~expect_target:(target_name t.target)
              payload
          with
          | tb -> Some tb
          | exception Superopt.Table.Invalid_table _ -> None);
      hit = (fun s _ -> s.peep_table_loads <- s.peep_table_loads + 1);
      computed = (fun s _ _ -> s.peep_searches <- s.peep_searches + 1);
    }

  (* The lockstep-certification verdict of one translation. Mismatching
     verdicts are recorded too (they document the divergence), and
     [tv_mismatches] counts the mismatching functions of whichever
     verdict the launch ends up holding. *)
  let tv =
    let mismatches s v = s.tv_mismatches <- s.tv_mismatches + Tv.mismatches v in
    {
      tag = "#tv#";
      per_target = true;
      stamp = Version Tv.version;
      encode =
        (fun v -> Check.Json.to_string ~pretty:false (Tv.verdict_to_json v));
      decode =
        (fun t payload ->
          match of_json Tv.verdict_of_json payload with
          (* a verdict for the other target under this target's name was
             never valid *)
          | Some v when v.Tv.v_target = target_name t.target -> Some v
          | _ -> None);
      hit =
        (fun s v ->
          s.tv_skipped <- s.tv_skipped + 1;
          mismatches s v);
      computed =
        (fun s v dt ->
          s.tv_time <- s.tv_time +. dt;
          s.tv_runs <- s.tv_runs + 1;
          mismatches s v);
    }
end

(* The one path to a cached artifact of kind [k]. Read its entry — a
   stale one is deleted, a failed checksum quarantined, a bad magic or a
   payload [k.decode] rejects counted as corruption — and count a valid
   one as a hit. Otherwise [compute] the artifact, time and count that,
   and write it back framed, which also repairs an entry quarantined just
   now. [~read:false] skips the lookup (offline translation overwrites);
   [~write:false] keeps the result out of the cache. *)
let obtain ?(read = true) ?(write = true) t k ~compute =
  let name = entry_name t k in
  match if read then read_artifact t name ~decode:(k.decode t) else None with
  | Some v ->
      k.hit t.stats v;
      v
  | None ->
      let t0 = Unix.gettimeofday () in
      let v = compute () in
      k.computed t.stats v (Unix.gettimeofday () -. t0);
      if write then storage_write t name (frame_entry (k.encode v));
      v

(* ---------- superoptimized peephole tables ---------- *)

(* Acquire this launch's rewrite table: the recorded [#peep#] table when
   the cache holds a valid one, else one enumerative search whose table
   is recorded, so the search is paid once per program version. Without
   storage the table is re-learned every launch. The table's
   fingerprint, which every native entry name carries, is computed here
   once, and the whole acquisition (load or search) lands in
   [peep_time], never in [translate_time]. *)
let ensure_peep_table t : Superopt.Table.t option =
  if not t.peephole then None
  else
    match t.peep_table with
    | Some (tb, _) -> Some tb
    | None ->
        let t0 = Unix.gettimeofday () in
        let tb =
          obtain t Kind.peep ~compute:(fun () ->
              Superopt.Search.learn (backend t.target) [ t.m ])
        in
        t.peep_table <- Some (tb, Superopt.Table.fingerprint tb);
        t.stats.peep_time <- t.stats.peep_time +. (Unix.gettimeofday () -. t0);
        Some tb

(* ---------- lint-before-cache ---------- *)

(* The module's llva-lint verdict: recorded once, reused by every later
   launch of the same module hash and analyzer version. *)
let verdict t : Check.Lint.verdict =
  obtain t Kind.lint ~compute:(fun () -> Check.Lint.verdict t.m)

(* ---------- translation validation (lockstep certification) ---------- *)

(* The module's lockstep-certification verdict for this target: a warm
   launch reuses the recorded one and never re-runs the checker. *)
let certify ?seed ?vectors t : Tv.verdict =
  obtain t Kind.tv ~compute:(fun () ->
      Tv.certify_module ?seed ?vectors ~target:(target_name t.target) t.m)

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
  (* a missing or rejected module entry preloads nothing *)
  List.iter
    (fun (n, cf) -> Hashtbl.replace preloaded n cf)
    (obtain t Kind.whole_module ~write:false ~compute:(fun () -> []));
  fun name ->
    match Hashtbl.find_opt installed name with
    | Some cf -> Some cf
    | None -> (
        match find_function t name with
        | None -> None (* external: the simulator dispatches by name *)
        | Some f ->
            let kind = Kind.code name in
            let cached = not (Hashtbl.mem blocked name) in
            let cf =
              match Hashtbl.find_opt preloaded name with
              | Some cf when cached ->
                  kind.hit t.stats cf;
                  cf
              | _ ->
                  obtain t kind ~read:cached ~write:cached ~compute:(fun () ->
                      compile f)
            in
            Hashtbl.replace installed name cf;
            Some cf)

(* This launch's rewrite rules for back-end [B], none with the pass off.
   Acquire them first: cache identities include the table's
   fingerprint. *)
let peep_rules (type i) (module B : Superopt.Backend.S with type instr = i) t
    =
  match ensure_peep_table t with
  | Some tb -> Superopt.Table.pairs (module B) tb
  | None -> []

let count_rewrites t (ps : Codegen.Peephole.stats) =
  t.stats.peep_rewrites <- t.stats.peep_rewrites + ps.rewrites;
  t.stats.peep_cycles_saved <- t.stats.peep_cycles_saved + ps.cycles_saved

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
  count_rewrites t ps;
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
  | Gate_clean -> run_native t ?fuel ()
  | Gate_partial (_, blocked) -> run_native ~blocked t ?fuel ()

(* Idle-time offline translation: translate every function and populate
   the cache without executing (paper: "flagging it for translation and
   not actual execution"). Functions compile on the calling domain, in
   source order, each written back as it is done: a module has a handful
   of functions and its [main] is often most of the work, so fanning
   them out over domains was no faster and kept a second domain's heap.
   Finally one whole-module entry is written so warm launches need a
   single storage read. SMC invalidation still operates per function:
   the redirect mechanism resolves the replacement function by name,
   whichever entry it was loaded from. *)
let translate_offline_unchecked ?(blocked = no_blocked) t =
  let (module B) = backend t.target in
  let peep = peep_rules (module B) t in
  let ps = Codegen.Peephole.fresh_stats () in
  let image = Vmem.Image.load t.m in
  let compiled =
    List.filter_map
      (fun (f : Ir.func) ->
        let name = f.Ir.fname in
        if Ir.is_declaration f || Hashtbl.mem blocked name then None
        else
          Some
            ( name,
              obtain t (Kind.code name) ~read:false ~compute:(fun () ->
                  B.compile_function t.m image ~peep ~peep_stats:ps f) ))
      t.m.Ir.funcs
  in
  count_rewrites t ps;
  ignore (obtain t Kind.whole_module ~read:false ~compute:(fun () -> compiled))

(* [?domains] is ignored: translation runs on the calling domain (see
   above). It stays because benchsuite/suite.ml passes a domain count. *)
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

(* What the cache holds for kind [k]: read and decoded as [obtain] reads
   it, but with no side effect — no stale delete, no quarantine, no
   counter. The doctor reports, it never heals. *)
let inspect t k =
  match t.storage.Storage.read (entry_name t k) with
  | None -> Error "none recorded for this module/target"
  | exception _ -> Error "storage unavailable"
  | Some e -> (
      match unframe_entry e.Storage.data with
      | Bad_magic | Bad_checksum ->
          Error "recorded entry damaged (the next read replaces it)"
      | Payload p -> (
          match k.decode t p with
          | Some v -> Ok v
          | None ->
              Error
                "recorded entry rejected: undecodable, stale version or \
                 another target (the next read replaces it)"))

let tv_doctor_line t : string =
  match inspect t Kind.tv with
  | Ok v ->
      Printf.sprintf
        "tv verdict: %d certified, %d skipped, %d mismatched (%s, tv v%d)"
        (Tv.certified v)
        (List.length v.Tv.v_results - Tv.certified v - Tv.mismatches v)
        (Tv.mismatches v) v.Tv.v_target v.Tv.v_version
  | Error why -> "tv verdict: " ^ why

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
  let (module B) = backend t.target in
  (* with the pass on, the entry name carries the table's fingerprint *)
  let peep = peep_rules (module B) t in
  let cname = entry_name t (Kind.code fname) in
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

let reoptimize ?fuel t : t * int =
  (* profile and relayout the same decoded copy so block ids line up *)
  let m = Decode.decode t.bytes in
  let prof, _, _ = Profile.collect ?fuel m in
  let moved = Trace.relayout_module prof m in
  let t' =
    of_module ~storage:t.storage ~timestamp:t.program_timestamp
      ~peephole:t.peephole ~target:t.target m
  in
  if moved = 0 then (t', 0)
  else begin
    (* idle-time validation: block reordering also perturbs downstream
       register allocation, so measure both translations and keep the
       faster one (this is exactly the offline feedback loop the storage
       API enables, §4.2). The two runs go in sequence: on two domains
       they were no faster. *)
    let baseline = fresh_run t and candidate = fresh_run t' in
    List.iter
      (fun eng -> ignore (run ?fuel:(Option.map (fun f -> f * 8) fuel) eng))
      [ baseline; candidate ];
    if Int64.compare candidate.stats.cycles baseline.stats.cycles < 0 then
      (fresh_run t', moved)
    else (fresh_run t, 0)
  end
