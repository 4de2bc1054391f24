(* Interprocedural argument summaries, computed bottom-up over the call
   graph's SCCs (paper §3.3: the typed SSA form makes this kind of
   "sophisticated analysis" possible on virtual object code).

   Per pointer argument of every function we derive three facts:

   - [derefs]  — the function provably loads or stores through the
     argument (an existence proof: [false] means "not proven", so unknown
     callees report [false] and never trigger null-argument warnings);
   - [must_derefs] — the function dereferences the argument on EVERY
     finite execution path from entry to exit (a backward all-paths
     dataflow over the CFG); [true] upgrades a null argument from a
     warning to an error, so recursion and unknown callees stay [false];
   - [escapes] — the argument's address MAY outlive the call (stored to
     memory, returned, merged through a phi, or passed on to an escaping
     position); [false] is a guarantee;
   - [writes]  — the function MAY store through the argument; [false] is
     a guarantee, which lets the uninitialized-load checker refuse to
     treat a call as initializing the buffer it receives.

   A function is [pure] when it has no caller-observable side effects:
   no stores outside its own stack frame, no calls to impure or unknown
   code, no unwind. (Potential traps from @ee loads/divides are ignored;
   purity here backs a lint about discarded results, not a transform.)

   Facts for an SCC are iterated to a fixpoint so mutual recursion is
   handled; callees below the SCC are already final. *)

open Llva

type arg_summary = {
  derefs : bool;
  must_derefs : bool;
  escapes : bool;
  writes : bool;
}

type func_summary = { args : arg_summary array; pure : bool }

(* A relational bound on an integer argument, proven by the range engine's
   interprocedural rounds and keyed by argument position: the argument is
   at most another argument plus a constant, or at most the element count
   of the object behind a pointer argument plus a constant. The summary
   table carries them so checkers can ask "does this pointer argument
   have a usable length symbol at all?" without reaching into the range
   analysis state. *)
type arg_bound = Ble_arg of int * int64 | Ble_len of int * int64

type t = {
  table : (int, func_summary) Hashtbl.t;
  env : Types.env;
  mutable rel : (string * (int * arg_bound) list) list;
      (* function name -> (arg position, bound) facts; installed by the
         lint driver after the range analysis runs *)
}

let unknown_arg =
  { derefs = false; must_derefs = false; escapes = true; writes = true }

let unknown_summary (f : Ir.func) =
  { args = Array.make (List.length f.Ir.fargs) unknown_arg; pure = false }

let func_summary (t : t) (f : Ir.func) =
  match Hashtbl.find_opt t.table f.Ir.fid with
  | Some s -> s
  | None -> unknown_summary f

(* Summary for argument position [k]; varargs and out-of-range positions
   are unknown. *)
let arg_summary (s : func_summary) k =
  if k >= 0 && k < Array.length s.args then s.args.(k) else unknown_arg

let is_pointer env ty =
  match Types.resolve env ty with
  | Types.Pointer _ -> true
  | _ -> false
  | exception Types.Unresolved _ -> false

(* Argument index [j] a call operand position maps to, if it is an
   argument slot. *)
let call_arg_index (i : Ir.instr) uidx =
  match i.Ir.op with
  | Ir.Call when uidx >= 1 -> Some (uidx - 1)
  | Ir.Invoke when uidx >= 3 -> Some (uidx - 3)
  | _ -> None

(* Does every finite path from the entry to an exit pass through one of
   the [events] (deref sites, as instruction ids)? Least fixpoint of
     md(b) = event-in(b) \/ (succs(b) <> [] /\ forall s. md(s))
   starting from false, so a loop that can spin without dereferencing
   never proves the property — [true] really is "unavoidable". *)
let must_reach_events (cfg : Analysis.Cfg.t) (events : (int, unit) Hashtbl.t)
    : bool =
  Hashtbl.length events > 0
  && Analysis.Cfg.n_blocks cfg > 0
  &&
  let nb = Analysis.Cfg.n_blocks cfg in
  let has_event =
    Array.init nb (fun bk ->
        List.exists
          (fun (i : Ir.instr) -> Hashtbl.mem events i.Ir.iid)
          (Analysis.Cfg.block cfg bk).Ir.instrs)
  in
  let md = Array.make nb false in
  let changed = ref true in
  while !changed do
    changed := false;
    for bk = nb - 1 downto 0 do
      if not md.(bk) then
        let v =
          has_event.(bk)
          ||
          match cfg.Analysis.Cfg.succs.(bk) with
          | [] -> false
          | ss -> List.for_all (fun s -> md.(s)) ss
        in
        if v then begin
          md.(bk) <- true;
          changed := true
        end
    done
  done;
  md.(0)

(* Facts about one argument of [f], reading callee facts from [lookup]
   (in-progress for same-SCC callees). *)
let analyze_arg env lookup (cfg : Analysis.Cfg.t) (a : Ir.arg) : arg_summary =
  let derefs = ref false and escapes = ref false and writes = ref false in
  (* instruction ids that certainly dereference the argument when they
     execute, feeding the all-paths [must_derefs] dataflow *)
  let deref_sites = Hashtbl.create 8 in
  let seen = Hashtbl.create 8 in
  let rec walk_uses uses =
    List.iter
      (fun (u : Ir.use) ->
        let user = u.Ir.user in
        match user.Ir.op with
        | Ir.Load ->
            derefs := true;
            Hashtbl.replace deref_sites user.Ir.iid ()
        | Ir.Store ->
            if u.Ir.uidx = 1 then begin
              derefs := true;
              writes := true;
              Hashtbl.replace deref_sites user.Ir.iid ()
            end
            else escapes := true (* the pointer itself is stored away *)
        | Ir.Getelementptr when u.Ir.uidx = 0 -> follow user
        | Ir.Cast ->
            if is_pointer env user.Ir.ity then follow user else escapes := true
        | Ir.Call | Ir.Invoke -> (
            match call_arg_index user u.Ir.uidx with
            | Some j -> (
                match Ir.call_callee user with
                | Ir.Vfunc g ->
                    let s = arg_summary (lookup g) j in
                    if s.derefs then derefs := true;
                    if s.must_derefs then
                      Hashtbl.replace deref_sites user.Ir.iid ();
                    if s.escapes then escapes := true;
                    if s.writes then writes := true
                | _ ->
                    (* indirect call: no assumptions *)
                    escapes := true;
                    writes := true)
            | None ->
                (* the pointer is the callee: executing through it
                   dereferences it; anything may happen to it *)
                derefs := true;
                Hashtbl.replace deref_sites user.Ir.iid ();
                escapes := true;
                writes := true)
        | Ir.Ret -> escapes := true
        | Ir.Setcc _ -> () (* address comparison *)
        | Ir.Br | Ir.Mbr | Ir.Unwind | Ir.Alloca -> ()
        | Ir.Getelementptr ->
            () (* uidx > 0: pointers cannot be gep indexes; unreachable *)
        | Ir.Phi | Ir.Binop _ ->
            (* merged or arithmetically recombined: stop tracking *)
            escapes := true)
      uses
  and follow (derived : Ir.instr) =
    if not (Hashtbl.mem seen derived.Ir.iid) then begin
      Hashtbl.replace seen derived.Ir.iid ();
      walk_uses derived.Ir.iuses
    end
  in
  walk_uses a.Ir.auses;
  {
    derefs = !derefs;
    must_derefs = must_reach_events cfg deref_sites;
    escapes = !escapes;
    writes = !writes;
  }

let analyze_pure lookup (f : Ir.func) : bool =
  let pure = ref true in
  Ir.iter_instrs
    (fun i ->
      match i.Ir.op with
      | Ir.Store -> (
          match Analysis.Alias.base_object i.Ir.operands.(1) with
          | Analysis.Alias.Balloca _ -> () (* own frame; dies at return *)
          | _ -> pure := false)
      | Ir.Call | Ir.Invoke -> (
          match Ir.call_callee i with
          | Ir.Vfunc g -> if not (lookup g).pure then pure := false
          | _ -> pure := false)
      | Ir.Unwind -> pure := false
      | _ -> ())
    f;
  !pure

let analyze_function env lookup facts (f : Ir.func) : func_summary =
  if Ir.is_declaration f then unknown_summary f
  else
    let cfg = (Facts.get facts f).Facts.cfg in
    {
      args =
        Array.of_list
          (List.map (fun a -> analyze_arg env lookup cfg a) f.Ir.fargs);
      pure = analyze_pure lookup f;
    }

let summary_equal (a : func_summary) (b : func_summary) =
  a.pure = b.pure && a.args = b.args

let set_relations (t : t) rel = t.rel <- rel

(* Relational bounds for the arguments of [f] (empty until the driver
   installs the range engine's facts). *)
let arg_bounds (t : t) (f : Ir.func) : (int * arg_bound) list =
  match List.assoc_opt f.Ir.fname t.rel with Some l -> l | None -> []

(* [cg] is [m]'s call graph, computed here when the caller has none to
   share. *)
let compute ?cg ?(facts = Facts.create ()) (m : Ir.modl) : t =
  let env = Ir.type_env m in
  let t = { table = Hashtbl.create 32; env; rel = [] } in
  (* optimistic start for defined functions (greatest fixpoint for the
     guarantees, least for the existence facts); declarations are final *)
  List.iter
    (fun (f : Ir.func) ->
      let init =
        if Ir.is_declaration f then unknown_summary f
        else
          {
            args =
              Array.make (List.length f.Ir.fargs)
                {
                  derefs = false;
                  must_derefs = false;
                  escapes = false;
                  writes = false;
                };
            pure = true;
          }
      in
      Hashtbl.replace t.table f.Ir.fid init)
    m.Ir.funcs;
  let lookup (g : Ir.func) =
    match Hashtbl.find_opt t.table g.Ir.fid with
    | Some s -> s
    | None -> unknown_summary g
  in
  let cg =
    match cg with Some cg -> cg | None -> Analysis.Callgraph.compute m
  in
  (* Callgraph.sccs emits callees before callers *)
  List.iter
    (fun scc ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun f ->
            let next = analyze_function env lookup facts f in
            if not (summary_equal next (lookup f)) then begin
              Hashtbl.replace t.table f.Ir.fid next;
              changed := true
            end)
          scc
      done)
    (Analysis.Callgraph.sccs cg);
  t
