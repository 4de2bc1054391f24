(* The llva-lint checker suite: dataflow-based safety checks over verified
   LLVA modules, built on the existing analysis infrastructure (CFG,
   alias/escape, call graph summaries, target data layout).

   Every check is conservative in the "no false alarms" direction: a
   diagnostic is only emitted when the module provably misbehaves (or, for
   the opt-in maybe-* variants, when a must-analysis cannot prove safety).
   The acceptance bar is zero diagnostics across the optimized workload
   suite. *)

open Llva

type ctx = {
  m : Ir.modl;
  env : Types.env;
  lt : Vmem.Layout.t;
  summaries : Summaries.t;
  ranges : Ranges.t;
  facts : Facts.t;
  sccs : (string, string list) Hashtbl.t;
      (* function name -> names of every function in its call-graph SCC
         (singleton for non-recursive functions); interprocedural findings
         blame the whole offending SCC via [Diag.related] *)
  emit : Diag.t -> unit;
}

(* Every SCC member of [f] and [g] other than the reporting function
   itself — the [related] list for an interprocedural diagnostic. *)
let related_sccs ctx (f : Ir.func) (g : Ir.func) =
  let members name =
    match Hashtbl.find_opt ctx.sccs name with Some l -> l | None -> [ name ]
  in
  List.sort_uniq compare (members f.Ir.fname @ members g.Ir.fname)
  |> List.filter (fun n -> n <> f.Ir.fname)

let is_pointer ctx ty =
  match Types.resolve ctx.env ty with
  | Types.Pointer _ -> true
  | _ -> false
  | exception Types.Unresolved _ -> false

(* ---------- constant-null chasing ---------- *)

(* Is [v] provably the null pointer (possibly offset through geps or
   laundered through casts)? *)
let rec points_to_null ctx (v : Ir.value) =
  match v with
  | Ir.Const { ckind = Ir.Cnull; _ } -> true
  | Ir.Const { cty; ckind = Ir.Czero } -> is_pointer ctx cty
  | Ir.Const { cty; ckind = Ir.Cint 0L } -> is_pointer ctx cty
  | Ir.Vreg ({ Ir.op = Ir.Getelementptr; _ } as i) ->
      points_to_null ctx i.Ir.operands.(0)
  | Ir.Vreg ({ Ir.op = Ir.Cast; _ } as i) -> (
      match i.Ir.operands.(0) with
      | Ir.Const { ckind = Ir.Cint 0L; _ } -> is_pointer ctx i.Ir.ity
      | src -> is_pointer ctx (Ir.type_of_value src) && points_to_null ctx src)
  | _ -> false

(* ---------- per-alloca local use classification ---------- *)

(* What happens to an alloca's address within its function. [tracked]
   goes false the moment the address flows somewhere our model cannot
   follow (stored to memory, returned, merged through a phi, passed to an
   escaping callee position, recombined arithmetically); after that the
   initialization checks stay silent for this alloca. *)
type alloca_facts = {
  a_instr : Ir.instr;
  mutable tracked : bool;
  gens : (int, unit) Hashtbl.t; (* instr ids that (may) initialize it *)
  mutable loads : Ir.instr list; (* loads through the alloca *)
  mutable stores : Ir.instr list; (* direct stores through the alloca *)
  mutable read_by_callee : bool; (* passed to a callee proven to read it *)
}

let classify_alloca ctx (a : Ir.instr) : alloca_facts =
  let facts =
    {
      a_instr = a;
      tracked = true;
      gens = Hashtbl.create 8;
      loads = [];
      stores = [];
      read_by_callee = false;
    }
  in
  let seen = Hashtbl.create 8 in
  let rec walk_uses uses =
    List.iter
      (fun (u : Ir.use) ->
        let user = u.Ir.user in
        match user.Ir.op with
        | Ir.Load -> facts.loads <- user :: facts.loads
        | Ir.Store ->
            if u.Ir.uidx = 1 then begin
              Hashtbl.replace facts.gens user.Ir.iid ();
              facts.stores <- user :: facts.stores
            end
            else facts.tracked <- false (* address stored to memory *)
        | Ir.Getelementptr when u.Ir.uidx = 0 -> follow user
        | Ir.Cast ->
            if is_pointer ctx user.Ir.ity then follow user
            else facts.tracked <- false
        | Ir.Call | Ir.Invoke -> (
            match Summaries.call_arg_index user u.Ir.uidx with
            | Some j -> (
                match Ir.call_callee user with
                | Ir.Vfunc g ->
                    let s =
                      Summaries.arg_summary
                        (Summaries.func_summary ctx.summaries g)
                        j
                    in
                    if s.Summaries.escapes then facts.tracked <- false
                    else begin
                      if s.Summaries.writes then
                        Hashtbl.replace facts.gens user.Ir.iid ();
                      if s.Summaries.derefs then facts.read_by_callee <- true
                    end
                | _ -> facts.tracked <- false)
            | None -> facts.tracked <- false (* called through the pointer *))
        | Ir.Setcc _ -> () (* address comparison is harmless *)
        | _ -> facts.tracked <- false)
      uses
  and follow (derived : Ir.instr) =
    if not (Hashtbl.mem seen derived.Ir.iid) then begin
      Hashtbl.replace seen derived.Ir.iid ();
      walk_uses derived.Ir.iuses
    end
  in
  walk_uses a.Ir.iuses;
  facts

(* ---------- uninitialized loads (forward init dataflow) ---------- *)

(* Two forward dataflow problems over the CFG, both with the alloca
   instruction as a kill (an alloca inside a loop yields fresh memory each
   iteration) and stores/initializing calls as gens:

   - MAY-init (union at joins): a load of an alloca not in the may-set
     reads uninitialized memory on EVERY path — a definite bug, check id
     "uninit-load";
   - MUST-init (intersection at joins): a load of an alloca not in the
     must-set has SOME path on which it is uninitialized — the opt-in
     "maybe-uninit-load" check. *)
let check_uninit ctx ~k_func (f : Ir.func) (cfg : Analysis.Cfg.t) allocas =
  let tracked =
    Array.of_list (List.filter (fun a -> a.tracked && a.loads <> []) allocas)
  in
  let n_allocas = Array.length tracked in
  if n_allocas > 0 then begin
    (* instr id -> events; one instruction can affect several allocas
       (e.g. a call handed two buffers gens both) *)
    let events : (int, (int * [ `Kill | `Gen | `Load ]) list) Hashtbl.t =
      Hashtbl.create 32
    in
    let add_event iid ev =
      let cur =
        match Hashtbl.find_opt events iid with Some l -> l | None -> []
      in
      Hashtbl.replace events iid (ev :: cur)
    in
    Array.iteri
      (fun k a ->
        add_event a.a_instr.Ir.iid (k, `Kill);
        Hashtbl.iter (fun iid () -> add_event iid (k, `Gen)) a.gens;
        List.iter
          (fun (l : Ir.instr) -> add_event l.Ir.iid (k, `Load))
          a.loads)
      tracked;
    let events_of (i : Ir.instr) =
      match Hashtbl.find_opt events i.Ir.iid with Some l -> l | None -> []
    in
    let nb = Analysis.Cfg.n_blocks cfg in
    (* block-entry states; must-init starts at top off the entry *)
    let may_in = Array.init nb (fun _ -> Array.make n_allocas false) in
    let must_in = Array.init nb (fun k -> Array.make n_allocas (k <> 0)) in
    let transfer state (b : Ir.block) =
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun (k, ev) ->
              match ev with
              | `Kill -> state.(k) <- false
              | `Gen -> state.(k) <- true
              | `Load -> ())
            (events_of i))
        b.Ir.instrs
    in
    let run_dataflow states ~join_union =
      let changed = ref true in
      while !changed do
        changed := false;
        for bk = 1 to nb - 1 do
          let preds = cfg.Analysis.Cfg.preds.(bk) in
          let acc = Array.make n_allocas (not join_union) in
          (* out-states of predecessors, recomputed on the fly *)
          List.iter
            (fun p ->
              let out = Array.copy states.(p) in
              transfer out (Analysis.Cfg.block cfg p);
              for k = 0 to n_allocas - 1 do
                if join_union then acc.(k) <- acc.(k) || out.(k)
                else acc.(k) <- acc.(k) && out.(k)
              done)
            preds;
          let inn = if preds = [] then Array.make n_allocas false else acc in
          if inn <> states.(bk) then begin
            states.(bk) <- inn;
            changed := true
          end
        done
      done
    in
    run_dataflow may_in ~join_union:true;
    run_dataflow must_in ~join_union:false;
    (* reporting walk, tracking both states through each block *)
    for bk = 0 to nb - 1 do
      let b = Analysis.Cfg.block cfg bk in
      let may = Array.copy may_in.(bk) and must = Array.copy must_in.(bk) in
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun (k, ev) ->
              match ev with
              | `Load ->
                  let a = tracked.(k).a_instr in
                  let name =
                    if a.Ir.iname = "" then "stack allocation"
                    else "%" ^ a.Ir.iname
                  in
                  if not may.(k) then
                    ctx.emit
                      (Diag.at_instr ~check:"uninit-load" ~sev:Diag.Error
                         ~k_func f i
                         (Printf.sprintf
                            "load of %s, which is uninitialized on every \
                             path to this point"
                            name))
                  else if not must.(k) then
                    ctx.emit
                      (Diag.at_instr ~check:"maybe-uninit-load"
                         ~sev:Diag.Warning ~k_func f i
                         (Printf.sprintf
                            "load of %s, which is uninitialized on some \
                             path to this point"
                            name))
              | `Kill -> may.(k) <- false; must.(k) <- false
              | `Gen -> may.(k) <- true; must.(k) <- true)
            (events_of i))
        b.Ir.instrs
    done
  end

(* ---------- dead stores ---------- *)

(* A tracked alloca whose value is never read — no loads through it, never
   passed to a callee that reads it — makes every store to it dead. *)
let check_dead_store ctx ~k_func (f : Ir.func) allocas =
  List.iter
    (fun a ->
      if a.tracked && a.loads = [] && (not a.read_by_callee) && a.stores <> []
      then
        let name =
          if a.a_instr.Ir.iname = "" then "<alloca>"
          else "%" ^ a.a_instr.Ir.iname
        in
        List.iter
          (fun (s : Ir.instr) ->
            ctx.emit
              (Diag.at_instr ~check:"dead-store" ~sev:Diag.Warning ~k_func f s
                 (Printf.sprintf
                    "store to %s, which is never read (%d store%s, no loads)"
                    name (List.length a.stores)
                    (if List.length a.stores = 1 then "" else "s"))))
          a.stores)
    allocas

(* ---------- constant out-of-bounds accesses ---------- *)

(* Byte size of the object behind an identified base, when it is a
   compile-time constant. *)
let object_size ctx (b : Analysis.Alias.base) : int option =
  match b with
  | Analysis.Alias.Balloca a -> (
      match Types.resolve ctx.env a.Ir.ity with
      | Types.Pointer elem -> (
          let elem_size =
            try Some (Vmem.Layout.size_of ctx.lt elem)
            with Invalid_argument _ | Types.Unresolved _ -> None
          in
          match elem_size with
          | None -> None
          | Some es -> (
              match a.Ir.operands with
              | [||] -> Some es
              | [| Ir.Const { ckind = Ir.Cint n; _ } |] ->
                  Some (Int64.to_int n * es)
              | _ -> None))
      | _ -> None
      | exception Types.Unresolved _ -> None)
  | Analysis.Alias.Bglobal g -> (
      try Some (Vmem.Layout.size_of ctx.lt g.Ir.gty)
      with Invalid_argument _ | Types.Unresolved _ -> None)
  | _ -> None

let base_name (b : Analysis.Alias.base) =
  match b with
  | Analysis.Alias.Balloca a ->
      if a.Ir.iname = "" then "alloca" else "%" ^ a.Ir.iname
  | Analysis.Alias.Bglobal g -> "%" ^ g.Ir.gname
  | _ -> "object"

(* Is [r] better than knowing nothing about a value of (unresolved) [ty]?
   Straddle warnings are gated on this so a completely unknown index or
   divisor never produces noise. *)
let informative ctx ty (r : Ranges.itv) =
  match Types.resolve ctx.env ty with
  | rty -> not (Ranges.is_top rty r)
  | exception Types.Unresolved _ -> false

(* Interval of byte offsets [v] may address within its base object —
   [Alias.const_offset] generalized to ranges: every gep in the chain
   contributes [index range × element size]. Also returns a precision
   bit, [true] only when every variable index had an informative range
   (the gate for straddle warnings; a provably-bad range is reported
   regardless). *)
let offset_range ctx (f : Ir.func) (v : Ir.value) : Ranges.itv * bool =
  let idx_range i (idx : Ir.value) =
    match idx with
    | Ir.Const { ckind = Ir.Cint n; _ } -> (Ranges.Itv (n, n), true)
    | Ir.Const { ckind = Ir.Czero; _ } -> (Ranges.Itv (0L, 0L), true)
    | idx ->
        let r = Ranges.range_at ctx.ranges f i idx in
        (r, informative ctx (Ir.type_of_value idx) r)
  in
  let gep acc i =
    try
      match Vmem.Layout.gep_strides ctx.lt i with
      | Error _ -> None
      | Ok (strides, _) ->
          Some
            (List.fold_left
               (fun (acc, prec) -> function
                 | Vmem.Layout.Scaled (idx, size) ->
                     let r, p = idx_range i idx in
                     (Ranges.itv_add acc (Ranges.itv_scale (Int64.of_int size) r), prec && p)
                 | Vmem.Layout.Offset off ->
                     let off = Int64.of_int off in
                     (Ranges.itv_add acc (Ranges.Itv (off, off)), prec))
               acc strides)
    with Invalid_argument _ | Types.Unresolved _ -> None
  in
  Analysis.Alias.fold_chain v ~gep ~base:(function
    | Ir.Vreg { Ir.op = Ir.Alloca; _ } | Ir.Vglobal _ -> Some (Ranges.Itv (0L, 0L), true)
    | _ -> None)
  |> Option.value ~default:(Ranges.Top, false)

(* ---------- symbolic object lengths (relational layer) ---------- *)

(* The length symbol of a variable-length object, with the element size it
   counts and a display form for relation texts: the element count of a
   variable-count alloca is that count's own symbol; a pointer argument
   gets its length symbol, but only when the interprocedural summary
   proved at least one bound mentioning it — an unconstrained length
   symbol can never prove anything, so we do not even build the DBM. *)
let symbolic_len ctx (f : Ir.func) (b : Analysis.Alias.base) :
    (Ranges.sym * int * string) option =
  let elem_size (ty : Types.t) =
    match Types.resolve ctx.env ty with
    | Types.Pointer elem -> (
        try Some (Vmem.Layout.size_of ctx.lt elem)
        with Invalid_argument _ | Types.Unresolved _ -> None)
    | _ -> None
    | exception Types.Unresolved _ -> None
  in
  match b with
  | Analysis.Alias.Balloca a -> (
      match (elem_size a.Ir.ity, a.Ir.operands) with
      | Some es, [| cnt |] -> (
          match Ranges.value_sym ctx.ranges cnt with
          | Some s -> Some (s, es, Printf.sprintf "len(%s)" (base_name b))
          | None -> None)
      | _ -> None)
  | Analysis.Alias.Barg a -> (
      match elem_size a.Ir.aty with
      | Some es ->
          let pos = ref (-1) in
          List.iteri
            (fun k (fa : Ir.arg) -> if fa.Ir.aid = a.Ir.aid then pos := k)
            f.Ir.fargs;
          let mentioned =
            List.exists
              (fun (_, bound) ->
                match bound with
                | Summaries.Ble_len (p, _) -> p = !pos
                | Summaries.Ble_arg _ -> false)
              (Summaries.arg_bounds ctx.summaries f)
          in
          if mentioned then
            let n = if a.Ir.aname = "" then "arg" else "%" ^ a.Ir.aname in
            Some (Ranges.arg_len_sym a, es, Printf.sprintf "len(%s)" n)
          else None
      | None -> None)
  | _ -> None

(* Decompose a pointer into [base + var*scale + cb]: a gep chain with
   exactly one variable index (an element index at gep operand 1), every
   other contribution constant. The symbolic proofs relate that single
   variable to the object's length symbol. Constant folding is
   overflow-checked — a wrapped decomposition proves nothing. *)
let sym_offset ctx (v : Ir.value) : (Ir.value * int64 * int64) option =
  let bump cb n es =
    match Ranges.mul64 n es with
    | Some p -> ( match Ranges.add64 cb p with Some c -> c | None -> raise Exit)
    | None -> raise Exit
  in
  let gep acc i =
    try
      match Vmem.Layout.gep_strides ctx.lt i with
      | Error _ -> None
      | Ok (strides, _) ->
          Some
            (List.fold_left
               (fun (var, scale, cb) -> function
                 | Vmem.Layout.Scaled (Ir.Const { ckind = Ir.Cint n; _ }, size) ->
                     (var, scale, bump cb n (Int64.of_int size))
                 | Vmem.Layout.Scaled (Ir.Const { ckind = Ir.Czero; _ }, _) ->
                     (var, scale, cb)
                 | Vmem.Layout.Scaled (idx, size) ->
                     (* the single variable may equally be an array index
                        (gep [N x t]* %g, 0, %i) *)
                     if Option.is_some var then raise Exit;
                     (Some idx, Int64.of_int size, cb)
                 | Vmem.Layout.Offset off -> (var, scale, bump cb (Int64.of_int off) 1L))
               acc strides)
    with Invalid_argument _ | Types.Unresolved _ | Exit -> None
  in
  match
    Analysis.Alias.fold_chain v ~gep ~base:(function
      | Ir.Vreg { Ir.op = Ir.Alloca; _ } | Ir.Vglobal _ | Ir.Varg _ -> Some (None, 0L, 0L)
      | _ -> None)
  with
  | Some (Some var, scale, cb) when scale > 0L -> Some (var, scale, cb)
  | _ -> None

let value_name (v : Ir.value) =
  match v with
  | Ir.Vreg i when i.Ir.iname <> "" -> "%" ^ i.Ir.iname
  | Ir.Varg a when a.Ir.aname <> "" -> "%" ^ a.Ir.aname
  | _ -> "index"

(* For a const-size object whose interval straddles: is the access
   relationally proven inside after all? The DBM can beat the raw
   interval through closure (flow equations, merge-point guards), so this
   retires straddle warnings the commensurate-width gate used to be the
   only defence against. Bounds against the zero node are constants. *)
let relationally_inside ctx (f : Ir.func) (i : Ir.instr) (ptr : Ir.value)
    ~size ~access : bool =
  match sym_offset ctx ptr with
  | None -> false
  | Some (var, scale, cb) -> (
      let fits k =
        (* cb + k*scale + access <= size *)
        match Ranges.mul64 k scale with
        | Some p -> (
            match Ranges.add64 cb p with
            | Some o ->
                Int64.add o (Int64.of_int access) <= Int64.of_int size
            | None -> false)
        | None -> false
      and nonneg k =
        match Ranges.mul64 k scale with
        | Some p -> (
            match Ranges.add64 cb p with Some o -> o >= 0L | None -> false)
        | None -> false
      in
      match
        ( Ranges.rel_upper_at ctx.ranges f i var Ranges.zero_sym,
          Ranges.rel_lower_at ctx.ranges f i var Ranges.zero_sym )
      with
      | Some hi, Some lo -> fits hi && nonneg lo
      | _ -> false)

let check_oob ctx ~k_func (f : Ir.func) =
  (* Variable-length object (no constant size): prove the access against
     the object's length symbol. Provably past the end — the single
     variable index sits at or beyond the element count on every
     execution — is an error carrying the relational fact. A relational
     safety proof (interval lower bound on the offset, difference bound
     [var <= len + c] with [c*scale + cb + access <= 0] on the upper side)
     short-circuits; anything unproven stays silent, exactly as these
     objects were before the relational layer. *)
  let check_symbolic (i : Ir.instr) ptr what base access =
    match (symbolic_len ctx f base, sym_offset ctx ptr) with
    | Some (lsym, es, lname), Some (var, scale, cb)
      when scale = Int64.of_int es -> (
        let acc64 = Int64.of_int access in
        let proven_inside () =
          let nonneg =
            match Ranges.range_at ctx.ranges f i var with
            | Ranges.Itv (vl, _) -> (
                match Ranges.mul64 vl scale with
                | Some p -> (
                    match Ranges.add64 cb p with
                    | Some o -> o >= 0L
                    | None -> false)
                | None -> false)
            | _ -> false
          in
          nonneg
          &&
          match Ranges.rel_upper_at ctx.ranges f i var lsym with
          | Some c -> (
              (* var <= len + c: offset + access <= size + c*scale + cb
                 + access, inside when c*scale + cb + access <= 0 *)
              match Ranges.mul64 c scale with
              | Some p -> (
                  match Ranges.add64 p (Int64.add cb acc64) with
                  | Some s -> s <= 0L
                  | None -> false)
              | None -> false)
          | None -> false
        in
        if proven_inside () then ()
        else
          match Ranges.rel_lower_at ctx.ranges f i var lsym with
          | Some d
            when (match Ranges.mul64 d scale with
                 | Some p -> (
                     match Ranges.add64 cb p with
                     | Some o -> o >= 0L
                     | None -> false)
                 | None -> false) ->
              (* var >= len + d with d*scale + cb >= 0: the access starts
                 at or past the object's end on every execution *)
              ctx.emit
                (Diag.at_instr ~check:"oob-access" ~sev:Diag.Error ~k_func
                   ~relation:(Printf.sprintf "%s >= %s" (value_name var) lname)
                   f i
                   (Printf.sprintf
                      "%s of %d byte%s at index %s is provably at or past \
                       the end of %s"
                      what access
                      (if access = 1 then "" else "s")
                      (value_name var) (base_name base)))
          | _ -> ())
    | _ -> ()
  in
  let check_access (i : Ir.instr) (ptr : Ir.value) what =
    let base = Analysis.Alias.base_object ptr in
    match (object_size ctx base, Analysis.Alias.access_size ctx.lt ptr) with
    | Some size, Some access -> (
        match Analysis.Alias.const_offset ctx.lt ptr with
        | Some off ->
            if off < 0 || off + access > size then
              ctx.emit
                (Diag.at_instr ~check:"oob-access" ~sev:Diag.Error ~k_func f i
                   (Printf.sprintf
                      "%s of %d byte%s at offset %d is outside %s (%d bytes)"
                      what access
                      (if access = 1 then "" else "s")
                      off (base_name base) size))
        | None -> (
            (* variable offset: consult the range analysis *)
            match offset_range ctx f ptr with
            | Ranges.Itv (lo, hi), precise ->
                let size64 = Int64.of_int size
                and acc64 = Int64.of_int access in
                if hi < 0L || lo > Int64.sub size64 acc64 then
                  ctx.emit
                    (Diag.at_instr ~check:"oob-access" ~sev:Diag.Error ~k_func
                       f i
                       (Printf.sprintf
                          "%s of %d byte%s at offset %s is provably outside \
                           %s (%d bytes)"
                          what access
                          (if access = 1 then "" else "s")
                          (Ranges.to_string (Ranges.Itv (lo, hi)))
                          (base_name base) size))
                else if
                  (* straddle: only worth a warning when every index was
                     informative AND the offset range is commensurate with
                     the object — a widened loop counter spans billions of
                     bytes and proves nothing about real accesses — AND
                     the relational layer cannot prove the access inside
                     (its closed bounds can beat the raw interval) *)
                  precise
                  && (lo < 0L || Int64.add hi acc64 > size64)
                  && (match Ranges.sub64 hi lo with
                     | Some w -> w <= Int64.mul 2L size64
                     | None -> false)
                  && not (relationally_inside ctx f i ptr ~size ~access)
                then
                  ctx.emit
                    (Diag.at_instr ~check:"oob-access" ~sev:Diag.Warning
                       ~k_func f i
                       (Printf.sprintf
                          "%s of %d byte%s at offset %s may be outside %s \
                           (%d bytes)"
                          what access
                          (if access = 1 then "" else "s")
                          (Ranges.to_string (Ranges.Itv (lo, hi)))
                          (base_name base) size))
            | _ -> ()))
    | None, Some access -> check_symbolic i ptr what base access
    | _ -> ()
  in
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Load -> check_access i i.Ir.operands.(0) "load"
      | Ir.Store -> check_access i i.Ir.operands.(1) "store"
      | Ir.Getelementptr -> (
          (* allow the one-past-the-end idiom for geps themselves; loads
             and stores through them are caught above *)
          let v = Ir.Vreg i in
          let base = Analysis.Alias.base_object v in
          match object_size ctx base with
          | Some size -> (
              match Analysis.Alias.const_offset ctx.lt v with
              | Some off ->
                  if off < 0 || off > size then
                    ctx.emit
                      (Diag.at_instr ~check:"oob-access" ~sev:Diag.Warning
                         ~k_func f i
                         (Printf.sprintf
                            "getelementptr to offset %d is outside %s (%d \
                             bytes)"
                            off (base_name base) size))
              | None -> (
                  (* only report geps whose entire range is outside *)
                  match offset_range ctx f v with
                  | Ranges.Itv (lo, hi), _
                    when hi < 0L || lo > Int64.of_int size ->
                      ctx.emit
                        (Diag.at_instr ~check:"oob-access" ~sev:Diag.Warning
                           ~k_func f i
                           (Printf.sprintf
                              "getelementptr to offset %s is provably \
                               outside %s (%d bytes)"
                              (Ranges.to_string (Ranges.Itv (lo, hi)))
                              (base_name base) size))
                  | _ -> ()))
          | None -> (
              (* variable-length object: a gep provably *strictly past*
                 one-past-the-end (var >= len + d with d*scale + cb >= 1)
                 is worth the same warning as a constant-size overshoot *)
              match (symbolic_len ctx f base, sym_offset ctx v) with
              | Some (lsym, es, lname), Some (var, scale, cb)
                when scale = Int64.of_int es -> (
                  match Ranges.rel_lower_at ctx.ranges f i var lsym with
                  | Some d
                    when (match Ranges.mul64 d scale with
                         | Some p -> (
                             match Ranges.add64 cb p with
                             | Some o -> o >= 1L
                             | None -> false)
                         | None -> false) ->
                      ctx.emit
                        (Diag.at_instr ~check:"oob-access" ~sev:Diag.Warning
                           ~k_func
                           ~relation:
                             (Printf.sprintf "%s > %s" (value_name var) lname)
                           f i
                           (Printf.sprintf
                              "getelementptr to index %s is provably past \
                               the end of %s"
                              (value_name var) (base_name base)))
                  | _ -> ())
              | _ -> ()))
      | _ -> ())
    f

(* ---------- null and dangling pointers ---------- *)

let check_null ctx ~k_func (f : Ir.func) =
  Ir.iter_instrs
    (fun i ->
      let null_at what v =
        if points_to_null ctx v then
          ctx.emit
            (Diag.at_instr ~check:"null-deref" ~sev:Diag.Error ~k_func f i
               (Printf.sprintf "%s through null pointer" what))
      in
      match i.Ir.op with
      | Ir.Load -> null_at "load" i.Ir.operands.(0)
      | Ir.Store -> null_at "store" i.Ir.operands.(1)
      | Ir.Call | Ir.Invoke ->
          null_at "call" (Ir.call_callee i);
          (* interprocedural: constant null passed to an argument the
             callee provably dereferences *)
          (match Ir.call_callee i with
          | Ir.Vfunc g when not (Ir.is_declaration g) ->
              let s = Summaries.func_summary ctx.summaries g in
              List.iteri
                (fun j arg ->
                  if points_to_null ctx arg then
                    let aj = Summaries.arg_summary s j in
                    if aj.Summaries.must_derefs then
                      (* the callee dereferences the argument on every
                         path: the call provably faults, and the whole
                         callee SCC is implicated *)
                      ctx.emit
                        (Diag.at_instr ~check:"null-arg" ~sev:Diag.Error
                           ~related:(related_sccs ctx f g) ~k_func f i
                           (Printf.sprintf
                              "null passed as argument %d of %%%s, which \
                               dereferences it on every path"
                              j g.Ir.fname))
                    else if aj.Summaries.derefs then
                      ctx.emit
                        (Diag.at_instr ~check:"null-arg" ~sev:Diag.Warning
                           ~k_func f i
                           (Printf.sprintf
                              "null passed as argument %d of %%%s, which \
                               dereferences it"
                              j g.Ir.fname)))
                (Ir.call_args i)
          | _ -> ())
      | _ -> ())
    f

let check_dangling ctx ~k_func (f : Ir.func) =
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Ret when Array.length i.Ir.operands = 1 -> (
          match Analysis.Alias.base_object i.Ir.operands.(0) with
          | Analysis.Alias.Balloca a ->
              ctx.emit
                (Diag.at_instr ~check:"dangling-pointer" ~sev:Diag.Error
                   ~k_func f i
                   (Printf.sprintf
                      "returning the address of stack allocation %s"
                      (base_name (Analysis.Alias.Balloca a))))
          | _ -> ())
      | Ir.Store -> (
          (* the address of a stack slot stored into a global outlives
             the frame it points into *)
          match
            ( Analysis.Alias.base_object i.Ir.operands.(0),
              Analysis.Alias.base_object i.Ir.operands.(1) )
          with
          | Analysis.Alias.Balloca a, Analysis.Alias.Bglobal g ->
              ctx.emit
                (Diag.at_instr ~check:"dangling-pointer" ~sev:Diag.Warning
                   ~k_func f i
                   (Printf.sprintf
                      "address of stack allocation %s stored in global %%%s"
                      (base_name (Analysis.Alias.Balloca a))
                      g.Ir.gname))
          | _ -> ())
      | _ -> ())
    f

(* ---------- division by (provably or possibly) zero ---------- *)

let check_div_zero ctx ~k_func (f : Ir.func) =
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Binop ((Ir.Div | Ir.Rem) as op) ->
          let divisor = i.Ir.operands.(1) in
          let dividend = i.Ir.operands.(0) in
          let is_int_zero =
            match divisor with
            | Ir.Const { ckind = Ir.Cint 0L; cty } -> Types.is_integer cty
            | Ir.Const { ckind = Ir.Czero; cty } -> Types.is_integer cty
            | _ -> false
          in
          (if is_int_zero then
             ctx.emit
               (Diag.at_instr ~check:"div-by-zero" ~sev:Diag.Error ~k_func f i
                  (Printf.sprintf "%s by constant zero" (Ir.binop_name op)))
           else if
             match Types.resolve ctx.env (Ir.type_of_value divisor) with
             | rty -> Types.is_integer rty
             | exception Types.Unresolved _ -> false
           then
             match Ranges.range_at ctx.ranges f i divisor with
             | Ranges.Itv (0L, 0L) ->
                 ctx.emit
                   (Diag.at_instr ~check:"div-by-zero" ~sev:Diag.Error ~k_func
                      f i
                      (Printf.sprintf "%s by divisor that is provably zero"
                         (Ir.binop_name op)))
             | Ranges.Itv (lo, hi) as r
               when lo <= 0L && 0L <= hi
                    && informative ctx (Ir.type_of_value divisor) r ->
                 ctx.emit
                   (Diag.at_instr ~check:"div-by-zero" ~sev:Diag.Warning
                      ~k_func f i
                      (Printf.sprintf
                         "%s by divisor whose range %s includes zero"
                         (Ir.binop_name op) (Ranges.to_string r)))
             | _ -> ());
          (* the -1 divisor corner: signed INT_MIN / -1 overflows the
             quotient and traps (Eval.Overflow), exactly like a zero
             divisor *)
          (match Types.resolve ctx.env (Ir.type_of_value divisor) with
          | rty when Types.is_signed rty -> (
              let minv =
                Int64.neg (Int64.shift_left 1L (Types.bitwidth rty - 1))
              in
              let rb = Ranges.range_at ctx.ranges f i divisor
              and ra = Ranges.range_at ctx.ranges f i dividend in
              match (ra, rb) with
              | Ranges.Itv (al, ah), Ranges.Itv (-1L, -1L)
                when al = minv && ah = minv ->
                  ctx.emit
                    (Diag.at_instr ~check:"div-by-zero" ~sev:Diag.Error
                       ~k_func f i
                       (Printf.sprintf
                          "%s of %Ld by -1 provably overflows %s (traps)"
                          (Ir.binop_name op) minv (Types.to_string rty)))
              | (Ranges.Itv (al, ah) as ra), (Ranges.Itv (bl, bh) as rb)
                when al <= minv && minv <= ah && bl <= -1L && -1L <= bh
                     && informative ctx (Ir.type_of_value dividend) ra
                     && informative ctx (Ir.type_of_value divisor) rb ->
                  ctx.emit
                    (Diag.at_instr ~check:"div-by-zero" ~sev:Diag.Warning
                       ~k_func f i
                       (Printf.sprintf
                          "%s dividend range %s and divisor range %s admit \
                           the %Ld / -1 overflow"
                          (Ir.binop_name op) (Ranges.to_string ra)
                          (Ranges.to_string rb) minv))
              | _ -> ())
          | _ -> ()
          | exception Types.Unresolved _ -> ())
      | _ -> ())
    f

(* ---------- shift amounts beyond the bit width ---------- *)

(* The evaluator reduces shift amounts modulo the declared bit width of
   the operand type (see Eval), so a shift by [>= width] is well-defined
   but almost certainly not what the program meant (the C-source analog
   is undefined, and [shl x:int, 40] silently shifts by 8). Error when
   the amount provably always exceeds the width; warning when an
   informative range says it might. *)
let check_shift ctx ~k_func (f : Ir.func) =
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Binop ((Ir.Shl | Ir.Shr) as op) -> (
          match Types.resolve ctx.env i.Ir.ity with
          | rty when Types.is_integer rty -> (
              let w = Int64.of_int (Types.bitwidth rty) in
              let amount = i.Ir.operands.(1) in
              match Ranges.range_at ctx.ranges f i amount with
              | Ranges.Itv (lo, hi) as r ->
                  if lo >= w then
                    ctx.emit
                      (Diag.at_instr ~check:"shift-range" ~sev:Diag.Error
                         ~k_func f i
                         (Printf.sprintf
                            "%s amount %s is >= the %Ld-bit width of %s"
                            (Ir.binop_name op) (Ranges.to_string r) w
                            (Types.to_string rty)))
                  else if
                    hi >= w
                    && informative ctx (Ir.type_of_value amount) r
                    && (* only tight amount ranges whose out-of-width part
                          is the strict majority are worth a warning (a
                          mask like [0..63] on a 32-bit shift is half
                          in-range and almost always intentional) *)
                    (match Ranges.sub64 hi lo with
                    | Some wd ->
                        wd <= Int64.mul 2L w
                        && Int64.mul 2L (Int64.succ (Int64.sub hi w))
                           > Int64.succ wd
                    | None -> false)
                  then
                    ctx.emit
                      (Diag.at_instr ~check:"shift-range" ~sev:Diag.Warning
                         ~k_func f i
                         (Printf.sprintf
                            "%s amount %s may reach the %Ld-bit width of %s"
                            (Ir.binop_name op) (Ranges.to_string r) w
                            (Types.to_string rty)))
              | _ -> ())
          | _ -> ()
          | exception Types.Unresolved _ -> ())
      | _ -> ())
    f

(* ---------- provably value-losing truncations ---------- *)

let check_trunc ctx ~k_func (f : Ir.func) =
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Cast -> (
          let src = i.Ir.operands.(0) in
          match
            ( Types.resolve ctx.env (Ir.type_of_value src),
              Types.resolve ctx.env i.Ir.ity )
          with
          | sty, dty
            when Types.is_integer sty && Types.is_integer dty
                 && Types.bitwidth dty < Types.bitwidth sty -> (
              match
                (Ranges.range_at ctx.ranges f i src, Ranges.bounds dty)
              with
              | Ranges.Itv (lo, hi), Some (bl, bh) ->
                  if hi < bl || lo > bh then
                    ctx.emit
                      (Diag.at_instr ~check:"trunc-range" ~sev:Diag.Error
                         ~k_func f i
                         (Printf.sprintf
                            "truncation to %s provably loses the value: \
                             source range %s has no representable value"
                            (Types.to_string dty)
                            (Ranges.to_string (Ranges.Itv (lo, hi)))))
                  else if
                    (* straddle warnings fire only for upper-bound
                       overflow (a negative value into an unsigned type is
                       idiomatic wraparound) and only when the source
                       range is commensurate with the destination span — a
                       widened range covering the whole source type says
                       nothing about the values actually flowing here *)
                    hi > bh
                    && informative ctx (Ir.type_of_value src)
                         (Ranges.Itv (lo, hi))
                    && (match Ranges.sub64 hi lo with
                       | Some w ->
                           w <= Int64.mul 2L (Int64.succ (Int64.sub bh bl))
                       | None -> false)
                  then
                    ctx.emit
                      (Diag.at_instr ~check:"trunc-range" ~sev:Diag.Warning
                         ~k_func f i
                         (Printf.sprintf
                            "truncation to %s may lose the value: source \
                             range %s exceeds its bounds"
                            (Types.to_string dty)
                            (Ranges.to_string (Ranges.Itv (lo, hi)))))
              | _ -> ())
          | _ -> ()
          | exception Types.Unresolved _ -> ())
      | _ -> ())
    f

(* ---------- unreachable blocks ---------- *)

let check_unreachable ctx ~k_func (f : Ir.func) (cfg : Analysis.Cfg.t) =
  List.iter
    (fun (b : Ir.block) ->
      if not (Analysis.Cfg.is_reachable cfg b) then
        ctx.emit
          (Diag.at_block ~check:"unreachable-block" ~sev:Diag.Warning ~k_func
             f b
             (Printf.sprintf "block %%%s is unreachable from the entry"
                b.Ir.bname)))
    f.Ir.fblocks

(* ---------- unused results of pure calls ---------- *)

let check_unused_result ctx ~k_func (f : Ir.func) =
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Call | Ir.Invoke -> (
          match Ir.call_callee i with
          | Ir.Vfunc g
            when (not (Ir.is_declaration g))
                 && (not (Types.equal i.Ir.ity Types.Void))
                 && i.Ir.iuses = []
                 && (Summaries.func_summary ctx.summaries g).Summaries.pure ->
              ctx.emit
                (Diag.at_instr ~check:"unused-result" ~sev:Diag.Warning
                   ~k_func f i
                   (Printf.sprintf
                      "result of call to side-effect-free %%%s is unused"
                      g.Ir.fname))
          | _ -> ())
      | _ -> ())
    f

(* ---------- per-function driver ---------- *)

let run_function ctx ~k_func (f : Ir.func) =
  if not (Ir.is_declaration f) then begin
    let cfg = (Facts.get ctx.facts f).Facts.cfg in
    let allocas =
      Ir.fold_instrs
        (fun acc i ->
          if i.Ir.op = Ir.Alloca then classify_alloca ctx i :: acc else acc)
        [] f
      |> List.rev
    in
    check_uninit ctx ~k_func f cfg allocas;
    check_dead_store ctx ~k_func f allocas;
    check_oob ctx ~k_func f;
    check_null ctx ~k_func f;
    check_dangling ctx ~k_func f;
    check_div_zero ctx ~k_func f;
    check_shift ctx ~k_func f;
    check_trunc ctx ~k_func f;
    check_unreachable ctx ~k_func f cfg;
    check_unused_result ctx ~k_func f
  end
