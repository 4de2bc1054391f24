(* llva-lint driver: the check catalogue, enable/disable handling, and the
   module-level entry point. The input module must already verify; lint
   diagnoses code that is well-formed but provably wrong (or wasteful),
   which is exactly the analysis leverage §3.3/§5.1 claim for the V-ISA
   over an opaque binary ISA. *)

open Llva

type check_info = {
  id : string;
  default_on : bool; (* part of the default set? *)
  descr : string;
}

let catalogue : check_info list =
  [
    {
      id = "uninit-load";
      default_on = true;
      descr =
        "load of a stack allocation that is uninitialized on every path \
         (forward init dataflow over the CFG)";
    };
    {
      id = "maybe-uninit-load";
      default_on = false;
      descr =
        "load of a stack allocation that a must-init dataflow cannot prove \
         initialized on all paths (opt-in; may flag correlated branches)";
    };
    {
      id = "oob-access";
      default_on = true;
      descr =
        "out-of-bounds getelementptr/load/store, computed against the \
         target data layout from constant, range-analyzed or relational \
         (symbolic-length) offsets";
    };
    {
      id = "null-deref";
      default_on = true;
      descr = "load, store or call through a provably null pointer";
    };
    {
      id = "null-arg";
      default_on = true;
      descr =
        "constant null passed to an argument the callee provably \
         dereferences (bottom-up call-graph summaries)";
    };
    {
      id = "dangling-pointer";
      default_on = true;
      descr =
        "stack address returned to the caller or stored into a global";
    };
    {
      id = "div-by-zero";
      default_on = true;
      descr =
        "integer division or remainder by a constant or provably-zero \
         divisor (warning when its range merely includes zero)";
    };
    {
      id = "shift-range";
      default_on = true;
      descr =
        "shift whose amount provably reaches (error) or may reach \
         (warning) the bit width of the shifted type";
    };
    {
      id = "trunc-range";
      default_on = true;
      descr =
        "integer truncation whose source range provably cannot (error) or \
         may not (warning) fit the destination type";
    };
    {
      id = "unreachable-block";
      default_on = true;
      descr = "basic block unreachable from the function entry";
    };
    {
      id = "dead-store";
      default_on = true;
      descr = "store to a stack allocation that is never read";
    };
    {
      id = "unused-result";
      default_on = true;
      descr = "unused result of a call to a side-effect-free function";
    };
  ]

let check_ids = List.map (fun c -> c.id) catalogue
let default_checks = List.filter_map (fun c -> if c.default_on then Some c.id else None) catalogue

exception Unknown_check of string

let validate_checks names =
  List.iter
    (fun n -> if not (List.mem n check_ids) then raise (Unknown_check n))
    names

(* Run the analyzer over a verified module. [checks] selects check ids
   (defaults to the default-on set; the special name "all" in the CLI
   expands to every id). Diagnostics come back deterministically ordered.
   @raise Unknown_check for an unrecognized check id. *)
let run ?checks (m : Ir.modl) : Diag.t list =
  let enabled =
    match checks with
    | None -> default_checks
    | Some names ->
        validate_checks names;
        names
  in
  let acc = ref [] in
  (* one call graph for the whole run *)
  let cg = Analysis.Callgraph.compute m in
  let sccs : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun scc ->
      let names = List.map (fun (f : Ir.func) -> f.Ir.fname) scc in
      List.iter (fun n -> Hashtbl.replace sccs n names) names)
    (Analysis.Callgraph.sccs cg);
  (* each function's CFG, dominators and numbering, once for the run *)
  let facts = Facts.create () in
  let summaries = Summaries.compute ~cg ~facts m in
  let ranges = Ranges.compute ~cg ~facts m in
  (* publish the relational argument facts: the oob checker keys its
     symbolic-length reasoning off their presence *)
  Summaries.set_relations summaries (Ranges.export_relations ranges);
  let ctx =
    {
      Checks.m;
      env = Ir.type_env m;
      lt = Vmem.Layout.for_module m;
      summaries;
      ranges;
      facts;
      sccs;
      emit = (fun d -> acc := d :: !acc);
    }
  in
  List.iteri (fun k_func f -> Checks.run_function ctx ~k_func f) m.Ir.funcs;
  !acc
  |> List.filter (fun (d : Diag.t) -> List.mem d.Diag.check enabled)
  |> Diag.sort

(* ---------- cacheable verdicts (lint-before-cache) ---------- *)

(* A verdict is the recordable outcome of one analyzer run: the analysis
   version that produced it, the checks that ran, and the findings. The
   execution manager stores verdicts next to cached translations so a
   module is linted once — warm launches reuse the recorded verdict
   instead of re-analyzing (paper §4.1: idle-time work is done once and
   amortized across launches).

   [version] stamps every recorded verdict. Bump it whenever the analyzer
   can produce different findings for the same module (new checks, fixed
   false negatives, changed severities): recorded verdicts with another
   stamp are rejected by [verdict_of_json] and force a re-lint. *)

(* v2: range-upgraded oob-access/div-by-zero, shift-range and trunc-range
   checks, Error-severity null-arg, and per-diagnostic related-function
   lists (diag schema 2) for per-function verdict granularity.
   v3: relational range analysis — difference-bound and symbolic-length
   facts upgrade oob-access over variable-length objects, merge-point
   guard refinement sharpens intervals, and diagnostics carry a
   "relation" field (diag schema 3). Recorded v2 verdicts are orphaned
   and re-linted. *)
let version = 3

type verdict = {
  v_version : int; (* analysis version that produced this verdict *)
  v_checks : string list; (* check ids that ran *)
  v_diags : Diag.t list; (* recorded findings, deterministically ordered *)
}

let verdict ?checks (m : Ir.modl) : verdict =
  let enabled =
    match checks with
    | None -> default_checks
    | Some names ->
        validate_checks names;
        names
  in
  { v_version = version; v_checks = enabled; v_diags = run ~checks:enabled m }

let verdict_diags v = v.v_diags
let verdict_errors v = Diag.count_severity Diag.Error v.v_diags
let verdict_warnings v = Diag.count_severity Diag.Warning v.v_diags

(* Clean means no error-severity findings: warnings never gate caching,
   matching the CLI's exit-code policy (without --werror). *)
let verdict_clean v = verdict_errors v = 0

(* Functions implicated by at least one error-severity finding: the
   reporting function plus every function it names as related (callee
   SCCs of interprocedural findings). Sorted, unique, no "" entries —
   the execution manager blocks exactly these from the native cache. *)
let verdict_tainted v : string list =
  List.concat_map
    (fun (d : Diag.t) ->
      if d.Diag.sev = Diag.Error then d.Diag.func :: d.Diag.related else [])
    v.v_diags
  |> List.filter (fun n -> n <> "")
  |> List.sort_uniq compare

let verdict_to_json (v : verdict) : Json.t =
  Json.Obj
    [
      ("lint_version", Json.Int v.v_version);
      ("checks", Json.List (List.map (fun c -> Json.Str c) v.v_checks));
      ("report", Diag.to_json v.v_diags);
    ]

(* Strict reader: raises [Json.Parse_error] on any schema violation, an
   unknown check id (the catalogue changed under the verdict), or a
   version stamp other than the current [version] — a stale verdict must
   never be trusted, it forces a re-lint instead. *)
let verdict_of_json (j : Json.t) : verdict =
  let stamp =
    Json.get_int "lint_version" (Json.get_member "verdict" "lint_version" j)
  in
  if stamp <> version then
    raise
      (Json.Parse_error
         (Printf.sprintf "stale lint version %d (current %d)" stamp version));
  let checks =
    List.map
      (Json.get_string "checks")
      (Json.get_list "checks" (Json.get_member "verdict" "checks" j))
  in
  (try validate_checks checks
   with Unknown_check c -> raise (Json.Parse_error ("unknown check " ^ c)));
  {
    v_version = stamp;
    v_checks = checks;
    v_diags = Diag.of_json (Json.get_member "verdict" "report" j);
  }
