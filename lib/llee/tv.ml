(* Translation validation: per-function lockstep certification of the
   native translation against the reference interpreter (ROADMAP's
   "translation validation" item — the paper trusts the translator, we
   check it instead).

   For each defined function with scalar (bool / integer / float)
   parameters, both engines run the same argument vectors — exhaustive
   small-domain tuples when the cross product stays tiny, per-parameter
   boundary sweeps, and seeded random vectors — and must agree on the
   return value, the trap outcome, the runtime output, and the bytes of
   the globals region afterwards. Stack and fault *addresses* are
   engine-specific (native frames are laid out differently from the
   interpreter's), so pointer-returning functions are skipped and memory
   faults compare by kind, not address.

   A vector on which either engine runs out of fuel or hits an
   engine-internal limit (e.g. the call-depth guard) is inconclusive and
   ignored; a function whose every vector is inconclusive is skipped,
   not certified. The verdict serializes to JSON for the [#tv#] cache
   entry (see Llee.certify). *)

open Llva

(* Stamped into entry names and the verdict payload; bump on any change
   to the checker's semantics, vector generation, or a backend fix that
   invalidates recorded verdicts. *)
let version = 1

let default_vectors = 10
let default_seed = 0x51ED
(* Generous enough that a workload's whole [main] still finishes
   conclusively under the reference interpreter; a vector that exhausts
   either budget is inconclusive, so tight budgets silently shrink
   coverage rather than failing loudly. *)
let default_interp_fuel = 60_000_000
let default_native_fuel = 300_000_000

type func_verdict =
  | Certified of { vectors : int } (* conclusive vectors, all agreeing *)
  | Skipped of { reason : string }
  | Mismatch of { vector : string; detail : string }

type verdict = {
  v_version : int;
  v_target : string; (* "x86lite" | "sparclite" *)
  v_results : (string * func_verdict) list; (* per defined function *)
}

let mismatches v =
  List.length
    (List.filter (fun (_, r) -> match r with Mismatch _ -> true | _ -> false)
       v.v_results)

let certified v =
  List.length
    (List.filter
       (fun (_, r) -> match r with Certified _ -> true | _ -> false)
       v.v_results)

let clean v = mismatches v = 0

(* ---------- JSON round-trip (the #tv# cache payload) ---------- *)

let func_verdict_to_json = function
  | Certified { vectors } ->
      Check.Json.Obj
        [
          ("status", Check.Json.Str "certified");
          ("vectors", Check.Json.Int vectors);
        ]
  | Skipped { reason } ->
      Check.Json.Obj
        [
          ("status", Check.Json.Str "skipped");
          ("reason", Check.Json.Str reason);
        ]
  | Mismatch { vector; detail } ->
      Check.Json.Obj
        [
          ("status", Check.Json.Str "mismatch");
          ("vector", Check.Json.Str vector);
          ("detail", Check.Json.Str detail);
        ]

let verdict_to_json (v : verdict) : Check.Json.t =
  Check.Json.Obj
    [
      ("tv_version", Check.Json.Int v.v_version);
      ("target", Check.Json.Str v.v_target);
      ( "results",
        Check.Json.List
          (List.map
             (fun (name, r) ->
               Check.Json.Obj
                 (("func", Check.Json.Str name)
                 ::
                 (match func_verdict_to_json r with
                 | Check.Json.Obj fields -> fields
                 | _ -> assert false)))
             v.v_results) );
    ]

(* Strict reader: any schema violation or a version stamp other than the
   current [version] raises [Check.Json.Parse_error] — a stale verdict
   must never count as a certification. *)
let verdict_of_json (j : Check.Json.t) : verdict =
  let open Check.Json in
  let stamp = get_int "tv_version" (get_member "verdict" "tv_version" j) in
  if stamp <> version then
    raise
      (Parse_error
         (Printf.sprintf "stale tv version %d (current %d)" stamp version));
  let target = get_string "target" (get_member "verdict" "target" j) in
  let results =
    List.map
      (fun entry ->
        let name = get_string "func" (get_member "result" "func" entry) in
        let r =
          match get_string "status" (get_member "result" "status" entry) with
          | "certified" ->
              Certified
                {
                  vectors =
                    get_int "vectors" (get_member "result" "vectors" entry);
                }
          | "skipped" ->
              Skipped
                {
                  reason =
                    get_string "reason" (get_member "result" "reason" entry);
                }
          | "mismatch" ->
              Mismatch
                {
                  vector =
                    get_string "vector" (get_member "result" "vector" entry);
                  detail =
                    get_string "detail" (get_member "result" "detail" entry);
                }
          | s -> raise (Parse_error ("unknown tv status " ^ s))
        in
        (name, r))
      (get_list "results" (get_member "verdict" "results" j))
  in
  { v_version = stamp; v_target = target; v_results = results }

(* ---------- argument-vector generation (seeded, deterministic) ------ *)

let dedupe_vectors vecs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun vec ->
      let key = String.concat "," (List.map Eval.to_string vec) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    vecs

let int_domain ty =
  let w = Types.bitwidth ty in
  let n v = Ir.normalize_int ty v in
  let extremes =
    if Types.is_signed ty then
      let minv = Int64.neg (Int64.shift_left 1L (w - 1)) in
      [ minv; Int64.add minv 1L; Int64.sub (Int64.neg minv) 1L; -1L; -2L ]
    else [ n (-1L); n (Int64.shift_left 1L (w - 1)) ]
  in
  List.map n ([ 0L; 1L; 2L; 3L; 7L; 42L ] @ extremes)

let float_domain fty =
  List.map
    (Eval.round_float fty)
    [
      0.0;
      1.0;
      -1.0;
      0.5;
      -2.5;
      1234.0;
      1e9;
      Float.infinity;
      Float.neg_infinity;
      Float.nan;
    ]

(* The full per-type boundary domain used for sweeps. *)
let domain env ty : Eval.scalar list =
  match Types.resolve env ty with
  | Types.Bool -> [ Eval.B false; Eval.B true ]
  | rty when Types.is_fp rty ->
      List.map (fun f -> Eval.F (rty, f)) (float_domain rty)
  | rty when Types.is_integer rty ->
      List.map (fun v -> Eval.I (rty, v)) (int_domain rty)
  | _ -> []

(* A tiny per-type domain for the exhaustive cross product. *)
let small_domain env ty : Eval.scalar list =
  match Types.resolve env ty with
  | Types.Bool -> [ Eval.B false; Eval.B true ]
  | rty when Types.is_fp rty ->
      List.map (fun f -> Eval.F (rty, Eval.round_float rty f)) [ 0.0; 1.0 ]
  | rty when Types.is_integer rty ->
      let lo, hi = if Types.is_signed rty then (-2, 3) else (0, 5) in
      List.init
        (hi - lo + 1)
        (fun k -> Eval.I (rty, Ir.normalize_int rty (Int64.of_int (lo + k))))
  | _ -> []

let random_scalar rand env ty : Eval.scalar =
  match Types.resolve env ty with
  | Types.Bool -> Eval.B (Random.State.bool rand)
  | rty when Types.is_fp rty ->
      let f =
        match Random.State.int rand 10 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> Float.neg_infinity
        | 3 -> 0.0
        | _ ->
            let mag = Random.State.float rand 1e6 -. 5e5 in
            if Random.State.bool rand then mag
            else mag /. 1024.0
      in
      Eval.F (rty, Eval.round_float rty f)
  | rty when Types.is_integer rty ->
      let bits =
        Int64.logxor
          (Random.State.int64 rand Int64.max_int)
          (if Random.State.bool rand then -1L else 0L)
      in
      Eval.I (rty, Ir.normalize_int rty bits)
  | _ -> Eval.Undef ty

let cross_product (domains : Eval.scalar list list) : Eval.scalar list list =
  List.fold_right
    (fun dom acc ->
      List.concat_map (fun v -> List.map (fun rest -> v :: rest) acc) dom)
    domains [ [] ]

(* All argument vectors for one function: exhaustive small-domain cross
   product (when it stays under 64 tuples), per-parameter boundary
   sweeps with the other parameters at their first domain value, and
   [extra] seeded random vectors. *)
let vectors_for env rand ~extra (param_tys : Types.t list) :
    Eval.scalar list list =
  if param_tys = [] then [ [] ]
  else
    let small = List.map (small_domain env) param_tys in
    let product =
      List.fold_left (fun acc d -> acc * max 1 (List.length d)) 1 small
    in
    let exhaustive = if product <= 64 then cross_product small else [] in
    let doms = List.map (domain env) param_tys in
    let defaults = List.map List.hd doms in
    let sweeps =
      List.concat
        (List.mapi
           (fun k dom ->
             List.map
               (fun v -> List.mapi (fun j d -> if j = k then v else d) defaults)
               dom)
           doms)
    in
    let randoms =
      List.init extra (fun _ ->
          List.map (fun ty -> random_scalar rand env ty) param_tys)
    in
    dedupe_vectors (exhaustive @ sweeps @ randoms)

let render_vector vec =
  "(" ^ String.concat ", " (List.map Eval.to_string vec) ^ ")"

(* ---------- observations ---------- *)

(* What a run observably did: how it stopped, what it printed, and what
   the globals region holds afterwards. *)
type observation = { oc : string; out : string; glob : string }

type obs = Conclusive of observation | Inconclusive of string

(* Memory-fault addresses are engine-specific (native frame layout), so
   traps compare by kind only. *)
let trap_class = function
  | Outcome.Division_by_zero -> "div0"
  | Outcome.Overflow -> "overflow"
  | Outcome.Memory_fault _ -> "memfault"
  | Outcome.Privilege_violation -> "priv"
  | Outcome.Uncaught_unwind -> "unwind"
  | Outcome.Invalid_operation _ -> "invalid"

let obs_of ~normal ~ret (o : Outcome.t) out glob : obs =
  match o with
  | Outcome.Exit _ when normal -> Conclusive { oc = "ret:" ^ ret; out; glob }
  | Outcome.Exit c ->
      Conclusive { oc = Printf.sprintf "exit:%d" c; out; glob }
  | Outcome.Trapped { kind = Outcome.Invalid_operation msg; _ } ->
      (* engine-internal guards (call-depth limits, ill-typed corners)
         carry engine-specific messages; not a semantic verdict *)
      Inconclusive ("engine limit: " ^ msg)
  | Outcome.Trapped { kind; _ } ->
      Conclusive { oc = "trap:" ^ trap_class kind; out; glob }
  | Outcome.Fuel_exhausted -> Inconclusive "fuel exhausted"
  | Outcome.Cache_degraded { reason } -> Inconclusive reason

(* Canonical rendering of a return value at the function's return type:
   integers through [Ir.normalize_int], floats by bit pattern (NaN
   canonicalized — payloads are not semantics). *)
let render_ret env rty ~(raw : int64) ~(f0 : float) : string =
  match Types.resolve env rty with
  | Types.Void -> ""
  | Types.Bool -> if Int64.equal (Int64.logand raw 1L) 0L then "0" else "1"
  | t when Types.is_fp t ->
      let f = Eval.round_float t f0 in
      if Float.is_nan f then "nan"
      else Printf.sprintf "f:%016Lx" (Int64.bits_of_float f)
  | t when Types.is_integer t ->
      Int64.to_string (Ir.normalize_int t raw)
  | _ -> Printf.sprintf "0x%Lx" raw

let render_ret_scalar env rty (s : Eval.scalar) : string =
  render_ret env rty ~raw:(Eval.to_int64 s) ~f0:(Eval.to_float s)

(* ---------- the observable globals region ---------- *)

let max_globals_snapshot = 1 lsl 20

let globals_extent (m : Ir.modl) (img : Vmem.Image.t) : int =
  let extent =
    List.fold_left
      (fun acc (g : Ir.global) ->
        match Hashtbl.find_opt img.Vmem.Image.global_addrs g.Ir.gname with
        | Some addr ->
            let sz =
              try Vmem.Layout.size_of img.Vmem.Image.layout g.Ir.gty
              with _ -> 0
            in
            max acc (Int64.to_int (Int64.sub addr Vmem.Memory.globals_base) + sz)
        | None -> acc)
      0 m.Ir.globals
  in
  min extent max_globals_snapshot

let snapshot_globals mem extent =
  if extent <= 0 then ""
  else Bytes.to_string (Vmem.Memory.read_bytes mem Vmem.Memory.globals_base extent)

(* ---------- engine runners (fresh state and memory per vector) ------ *)

(* Fresh image per vector: the decoded functions ([forms], one per
   certification) embed only the module's deterministic addresses, so
   they are shared while memory starts from scratch. *)
let run_interp ~forms (m : Ir.modl) env fname (args : Eval.scalar list) rty extent
    ~fuel : obs =
  let st = Interp.create ~fuel ~forms m in
  let ret = ref "" and normal = ref false in
  let o =
    Outcome.protect ~engine:"interp"
      ~current:(fun () -> st.Interp.current)
      (fun () ->
        let v = Interp.run_function st fname args in
        ret := render_ret_scalar env rty v;
        normal := true;
        0)
  in
  obs_of ~normal:!normal ~ret:!ret o (Interp.output st)
    (snapshot_globals st.Interp.mem extent)

(* Both back-ends pass scalar arguments as 8-byte slots, floats as the
   raw bits of the double (the callee prologue reloads them with an
   8-byte float load / register move). *)
let encode_arg = function
  | Eval.B b -> if b then 1L else 0L
  | Eval.I (_, v) -> v
  | Eval.F (_, v) -> Int64.bits_of_float v
  | Eval.P a -> a
  | Eval.Undef _ -> 0L

(* Fresh image per vector: compiled code embeds only deterministic
   addresses, so the code and its decoded form ([cache], one per
   certification) are shared while memory starts from scratch. *)
let run_native ~cache (isa : 'i Codegen.Machine.isa)
    (cmod : 'i Codegen.Native.cmodule) env fname args rty extent ~fuel : obs =
  let module M = Codegen.Machine in
  let cmod =
    { cmod with Codegen.Native.image = Vmem.Image.load cmod.Codegen.Native.cm }
  in
  let st = M.create ~fuel ~cache isa cmod in
  M.init_stack st;
  let ret = ref "" and normal = ref false in
  let o =
    Outcome.protect ~engine:isa.M.name
      ~current:(fun () -> M.current st)
      (fun () ->
        let r = M.call_function st fname (List.map encode_arg args) in
        ret := render_ret env rty ~raw:r ~f0:st.M.fregs.(0);
        normal := true;
        0)
  in
  obs_of ~normal:!normal ~ret:!ret o (M.output st)
    (snapshot_globals st.M.mem extent)

(* ---------- per-function certification ---------- *)

(* Which functions the lockstep checker can drive: defined, fixed-arity,
   at most 6 scalar parameters (the SPARC register-argument budget), and
   a non-pointer return (stack addresses are engine-specific). *)
let certifiable env (f : Ir.func) : (Types.t list, string) result =
  if f.Ir.fvarargs then Error "varargs"
  else if List.length f.Ir.fargs > 6 then Error "more than 6 parameters"
  else
    let resolve ty =
      try Some (Types.resolve env ty) with Types.Unresolved _ -> None
    in
    match resolve f.Ir.freturn with
    | None -> Error "unresolved return type"
    | Some (Types.Pointer _) -> Error "pointer return (addresses are engine-specific)"
    | Some rty
      when not
             (Types.equal rty Types.Void
             || Types.equal rty Types.Bool
             || Types.is_integer rty || Types.is_fp rty) ->
        Error ("unsupported return type " ^ Types.to_string rty)
    | Some _ ->
        let rec check_params = function
          | [] -> Ok (List.map (fun (a : Ir.arg) -> a.Ir.aty) f.Ir.fargs)
          | (a : Ir.arg) :: rest -> (
              match resolve a.Ir.aty with
              | Some rty
                when Types.equal rty Types.Bool
                     || Types.is_integer rty || Types.is_fp rty ->
                  check_params rest
              | Some rty ->
                  Error
                    (Printf.sprintf "parameter %%%s has unsupported type %s"
                       a.Ir.aname (Types.to_string rty))
              | None ->
                  Error
                    (Printf.sprintf "parameter %%%s has unresolved type"
                       a.Ir.aname))
        in
        check_params f.Ir.fargs

let describe_diff (a : observation) (b : observation) : string =
  if a.oc <> b.oc then
    Printf.sprintf "outcome: interp %s, native %s" a.oc b.oc
  else if a.out <> b.out then
    Printf.sprintf "runtime output differs (%d vs %d bytes)"
      (String.length a.out) (String.length b.out)
  else "globals region differs after the run"

(* How many times a certification ran each engine, one run per vector. *)
type runs = { mutable interp_runs : int; mutable native_runs : int }

(* Certify every defined function of [m] against its translation for
   [target] ("x86lite" | "sparclite"). [native] substitutes a different
   module for the native side — the translation being validated — which
   the tests use to prove the checker actually catches divergence. A
   vector the interpreter cannot finish is inconclusive whatever the
   native side does, so the native side does not run it. [runs], when
   given, counts the engine runs. *)
let certify_module ?(seed = default_seed) ?(vectors = default_vectors)
    ?(interp_fuel = default_interp_fuel)
    ?(native_fuel = default_native_fuel) ?native
    ?(runs = { interp_runs = 0; native_runs = 0 }) ~target (m : Ir.modl) :
    verdict =
  let nm = match native with Some n -> n | None -> m in
  (* the translation, and the decoded form its vectors share *)
  let (module B) = Superopt.Backend.of_name target in
  let run_native =
    run_native ~cache:(Codegen.Machine.new_cache ()) B.machine
      (B.compile_module nm)
  in
  let forms = Interp.new_forms m in
  let env = Ir.type_env m in
  let extent = globals_extent m (Vmem.Image.load m) in
  let results =
    List.filter_map
      (fun (f : Ir.func) ->
        if Ir.is_declaration f then None
        else
          let fname = f.Ir.fname in
          let r =
            match certifiable env f with
            | Error reason -> Skipped { reason }
            | Ok param_tys ->
                let rand =
                  Random.State.make [| seed; Hashtbl.hash fname |]
                in
                let vecs = vectors_for env rand ~extra:vectors param_tys in
                let rty = f.Ir.freturn in
                let rec go conclusive last = function
                  | [] ->
                      if conclusive = 0 then
                        Skipped
                          {
                            reason =
                              (match last with
                              | Some r -> "no conclusive vector: " ^ r
                              | None -> "no vectors");
                          }
                      else Certified { vectors = conclusive }
                  | vec :: rest -> (
                      runs.interp_runs <- runs.interp_runs + 1;
                      match
                        run_interp ~forms m env fname vec rty extent
                          ~fuel:interp_fuel
                      with
                      | Inconclusive r -> go conclusive (Some r) rest
                      | Conclusive a -> (
                          runs.native_runs <- runs.native_runs + 1;
                          match
                            run_native env fname vec rty extent
                              ~fuel:native_fuel
                          with
                          | Inconclusive r -> go conclusive (Some r) rest
                          | Conclusive b ->
                              if a = b then go (conclusive + 1) last rest
                              else
                                Mismatch
                                  {
                                    vector = render_vector vec;
                                    detail = describe_diff a b;
                                  }))
                in
                go 0 None vecs
          in
          Some (fname, r))
      m.Ir.funcs
  in
  { v_version = version; v_target = target; v_results = results }

(* ---------- human-readable report ---------- *)

let func_verdict_to_string = function
  | Certified { vectors } -> Printf.sprintf "certified (%d vectors)" vectors
  | Skipped { reason } -> "skipped: " ^ reason
  | Mismatch { vector; detail } ->
      Printf.sprintf "MISMATCH on %s — %s" vector detail

let report (v : verdict) : string list =
  Printf.sprintf "translation validation (%s, tv v%d): %d certified, %d skipped, %d mismatched"
    v.v_target v.v_version (certified v)
    (List.length v.v_results - certified v - mismatches v)
    (mismatches v)
  :: List.map
       (fun (name, r) ->
         Printf.sprintf "  %%%-24s %s" name (func_verdict_to_string r))
       v.v_results
