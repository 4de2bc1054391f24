(* Reference interpreter for the LLVA V-ISA.

   This is the semantic baseline of the whole system: the machine back-ends
   are differentially tested against it. It implements the paper's precise
   exception model (§3.3) — an instruction whose ExceptionsEnabled bit is
   false has its exceptions *ignored* (the result becomes undef); enabled
   exceptions are delivered either to a registered trap handler or to the
   caller as [Trap] — the §3.4 self-modification rule (replacement affects
   only future invocations), and the §3.5 OS-support mechanisms (intrinsic
   functions and the privileged bit).

   Each function is decoded once per form cache, on its first call, into
   one closure per instruction (see "the decoded form" below), and only
   those closures run. *)

open Llva

include Vmem.Guest

(* Raised internally by the unwind instruction; caught by invoke. *)
exception Unwinding

(* A trap for the registered handler. Only a frame's run loop catches it,
   and runs the handler once the run's counts are exact. *)
exception Deliver of trap_kind

type stats = {
  mutable steps : int; (* dynamic LLVA instructions *)
  by_opcode : int array; (* indexed by Ir.opcode_code *)
  mutable calls : int;
  mutable max_depth : int;
  mutable lowered : int; (* functions this state decoded *)
}

(* ---------- the decoded form ----------

   Every argument, instruction result and constant operand of a function
   has a dense slot in one [Eval.scalar array] per frame, copied on entry
   from a template: [Undef ty] for arguments and results, the value for
   constants (constants, global and function addresses). So every operand
   is a slot, decided at decoding. Types and layout facts are computed
   ahead, branch targets are positions carrying their phi moves, and
   getelementptr is folded over [Vmem.Layout.strides] to a constant
   offset plus scaled terms; no layout is walked at run time, so a gep
   the type walk refuses is one that cannot be resolved.
   Anything that cannot be resolved becomes an instruction that raises
   the exception when it executes, never at decoding; with several, the
   first operand's.

   Each instruction becomes one closure of the frame, [op]. The V-ISA is
   typed, so decoding picks the closure from the instruction's static
   types: integer arithmetic, [setcc] and casts to an integer call the
   function [Eval] stages on the operator and type, integer and pointer
   loads and stores have their width and normalization resolved, geps
   with at most one scaled term are one multiply-add, and a [setcc]
   whose only use is the [br] after it branches itself while its run is
   charged. Such a closure
   runs the runtime shape its static types predict ([I], [P] or [B]);
   any other shape (undef, a mismatched kind) goes to the generic [Eval]
   call. The formulas stay in [Eval].

   A function's instructions are laid out block after block and split
   into runs that end at a call, an invoke or a terminator. [runs.(p)],
   for the first position [p] of a run, holds the run's step count and
   per-opcode histogram, which the loop charges once and compares against
   the fuel once before running the run's closures. When less fuel is
   left than the run needs, the loop runs the same closures one at a
   time, counting and charging each before the budget check, so a budget
   stops at the instruction that exhausts it. An exception that leaves a
   run early refunds the instructions after the one that raised, which
   were charged but never ran; a trap with a registered handler raises
   [Deliver], and the handler runs only after that refund.

   Closures capture no state: addresses come from the module's
   deterministic [Vmem.Image.load], and registers, memory and counters
   from the frame. One form cache can serve every state over the same
   module (the certifier shares one across its vectors). *)

module Itbl = Hashtbl.Make (Int)

(* a taken CFG edge: report it, run the target's phis, continue at
   position [dst]; [moves] are the phi moves as single (destination,
   source) slot pairs, in an order that runs them simultaneously *)
type edge =
  | Edge of { from : Ir.block; target : Ir.block; dst : int; moves : int array }
  | Bad_edge of exn (* the label does not resolve; raised when taken *)
  | Bad_phi of { from : Ir.block; target : Ir.block; e : exn }
(* a phi source does not resolve; raised once the edge is reported *)

type state = {
  m : Ir.modl;
  img : Vmem.Image.t;
  mem : Vmem.Memory.t;
  rt : Vmem.Runtime.t;
  env : Types.env;
  layout : Vmem.Layout.t;
  mutable stack : int64;
  mutable depth : int;
  limit : int; (* the step budget; max_int = unlimited *)
  (* the function currently executing; on a trap that escapes to the
     caller it names the frame the trap fired in (best-effort) *)
  mutable current : string;
  mutable trap_handler : Ir.func option;
  mutable privileged : bool;
  (* §3.4 SMC: future invocations of key go to the replacement *)
  redirects : (string, Ir.func) Hashtbl.t;
  (* invalidation callbacks; LLEE hooks these to drop cached native code *)
  mutable on_smc : (Ir.func -> unit) list;
  (* profiling hook: called on every taken CFG edge (src, dst) *)
  mutable on_edge : (Ir.block -> Ir.block -> unit) option;
  forms : forms;
  stats : stats;
}

(* One activation of [df]. [pc] is the position running, or -1 once the
   function returned [result]. [last] is the last position charged
   ahead, or -1. *)
and frame = {
  st : state;
  df : form;
  regs : Eval.scalar array;
  mutable pc : int;
  mutable last : int;
  mutable result : Eval.scalar;
}

and op = frame -> unit

and form = {
  template : Eval.scalar array; (* arguments first *)
  nargs : int;
  code : op array; (* every block's instructions, entry block first *)
  codes : int array; (* Ir.opcode_code per position; 0 for none *)
  runs : run array; (* at each run's first position *)
  entry_phis : bool;
}

(* [hist] is the run's histogram as (opcode code, count) pairs *)
and run = { count : int; last_pos : int; hist : int array }

(* decoded functions by fid, for the states over [fmod] *)
and forms = { fmod : Ir.modl; by_fid : form Itbl.t }

let new_forms m = { fmod = m; by_fid = Itbl.create 16 }

let create ?(fuel = -1) ?forms (m : Ir.modl) : state =
  let forms =
    match forms with
    | None -> new_forms m
    | Some f when f.fmod == m -> f
    | Some _ -> invalid_arg "Interp.create: forms of another module"
  in
  let img = Vmem.Image.load m in
  let mem = img.Vmem.Image.mem in
  {
    m;
    img;
    mem;
    rt = Vmem.Runtime.create mem;
    env = Ir.type_env m;
    layout = img.Vmem.Image.layout;
    stack = Vmem.Memory.stack_top;
    depth = 0;
    limit = (if fuel < 0 then max_int else fuel);
    current = "main";
    trap_handler = None;
    privileged = false;
    redirects = Hashtbl.create 8;
    on_smc = [];
    on_edge = None;
    forms;
    stats =
      {
        steps = 0;
        by_opcode = Array.make (Ir.opcode_count + 1) 0;
        calls = 0;
        max_depth = 0;
        lowered = 0;
      };
  }

let output st = Vmem.Runtime.output st.rt

(* ---------- decoding helpers ---------- *)

(* constants by value, bit for bit *)
module Consts = Hashtbl.Make (struct
  type t = Eval.scalar

  let equal = Eval.equal
  let hash = Hashtbl.hash
end)

let defer f = match f () with v -> Ok v | exception e -> Error e
let force = function Ok v -> v | Error e -> raise e

let scalar_of_const st (c : Ir.const) : Eval.scalar =
  match c.Ir.ckind with
  | Ir.Cbool b -> Eval.of_bool b
  | Ir.Cint v -> Eval.I (c.Ir.cty, v)
  | Ir.Cfloat v -> Eval.F (c.Ir.cty, Eval.round_float c.Ir.cty v)
  | Ir.Cnull -> Eval.P 0L
  | Ir.Czero -> (
      match Types.resolve st.env c.Ir.cty with
      | Types.Bool -> Eval.b_false
      | t when Types.is_integer t -> Eval.I (t, 0L)
      | t when Types.is_fp t -> Eval.F (t, 0.0)
      | Types.Pointer _ -> Eval.P 0L
      | _ -> invalid_arg "Interp: aggregate zero in register context")
  | Ir.Cglobal_ref name -> (
      match Vmem.Image.symbol_address st.img name with
      | Some a -> Eval.P a
      | None -> invalid_arg ("Interp: unresolved symbol " ^ name))
  | Ir.Carray _ | Ir.Cstruct _ | Ir.Cstring _ ->
      invalid_arg "Interp: aggregate constant in register context"

(* The value of anything that is not a register of the function. *)
let constant_value st (v : Ir.value) : Eval.scalar =
  match v with
  | Ir.Const c -> scalar_of_const st c
  | Ir.Vreg i -> Eval.Undef i.Ir.ity (* never set in this frame *)
  | Ir.Varg a -> Eval.Undef a.Ir.aty
  | Ir.Vglobal g -> (
      match Vmem.Image.symbol_address st.img g.Ir.gname with
      | Some a -> Eval.P a
      | None -> invalid_arg ("Interp: global without address: " ^ g.Ir.gname))
  | Ir.Vfunc f -> (
      match Hashtbl.find_opt st.img.Vmem.Image.func_addrs f.Ir.fname with
      | Some a -> Eval.P a
      | None -> invalid_arg ("Interp: function without address: " ^ f.Ir.fname))
  | Ir.Vblock _ -> invalid_arg "Interp: label used as a value"
  | Ir.Vundef ty -> Eval.Undef ty

(* Instructions that leave no value in a register need no slot: reading
   them yields [Undef ty], as reading a never-set register does. *)
let has_slot (i : Ir.instr) =
  match i.Ir.op with
  | Ir.Store | Ir.Ret | Ir.Br | Ir.Mbr | Ir.Unwind -> false
  | Ir.Call -> not (Types.equal i.Ir.ity Types.Void)
  | _ -> true

(* Whether [i] ends a run: control leaves the straight line after it. *)
let ends_run (i : Ir.instr) = Ir.is_terminator i || i.Ir.op = Ir.Call

(* The simultaneous moves [d <- s] of [pairs] (distinct destinations) as
   a sequence of single moves, flattened to [d; s; d; s; ...]: a move is
   emitted once no pending move still reads its destination, and a cycle
   is broken by saving one destination in [scratch ()] first. *)
let sequentialize ~scratch pairs =
  let pending = ref (List.filter (fun (d, s) -> d <> s) pairs) and out = ref [] in
  let reads d = List.exists (fun (_, s) -> s = d) !pending in
  while !pending <> [] do
    match List.find_opt (fun (d, _) -> not (reads d)) !pending with
    | Some ((d, s) as mv) ->
        out := s :: d :: !out;
        pending := List.filter (fun m -> m <> mv) !pending
    | None ->
        let d, _ = List.hd !pending and t = scratch () in
        out := d :: t :: !out;
        pending := List.map (fun (d', s) -> (d', if s = d then t else s)) !pending
  done;
  Array.of_list (List.rev !out)

(* ---------- execution ---------- *)

let void = Eval.Undef Types.Void

let fall_through : op = fun _ -> invalid_arg "Interp: block fell through without terminator"

(* Registers are read and written unchecked: every operand and every
   destination of a decoded instruction is a slot of its function, and
   the frame is a copy of the template, which has one entry per slot. *)

(* The end of a closure that does not end its run: continue with the
   next instruction's closure, unless the loop is stepping ([last] is
   this instruction). *)
let[@inline] proceed fr pos (next : op) = if pos < fr.last then next fr

(* Start the run at [fr.pc]: when the fuel covers it, charge its steps
   and histogram once and tail-call its first closure, which threads
   through the rest and ends by dispatching the next run; else step it.
   A return leaves [pc] at -1 and dispatches nothing. *)
let rec dispatch fr =
  let st = fr.st and df = fr.df and p = fr.pc in
  let s = st.stats in
  let r = Array.unsafe_get df.runs p in
  let steps = s.steps + r.count in
  if steps <= st.limit then begin
    s.steps <- steps;
    let by = s.by_opcode and h = r.hist in
    let j = ref 0 and n = Array.length h in
    while !j < n do
      let c = Array.unsafe_get h !j in
      Array.unsafe_set by c (Array.unsafe_get by c + Array.unsafe_get h (!j + 1));
      j := !j + 2
    done;
    fr.last <- r.last_pos;
    (Array.unsafe_get df.code p) fr
  end
  else step_run fr p r.last_pos

(* The run from [p] to [last], one instruction at a time, each counted
   and charged before the budget check; the last one dispatches the
   rest of the function. *)
and step_run fr p last =
  let st = fr.st and df = fr.df in
  let s = st.stats in
  fr.last <- -1;
  for j = p to last do
    let c = df.codes.(j) in
    if c > 0 then begin
      s.steps <- s.steps + 1;
      s.by_opcode.(c) <- s.by_opcode.(c) + 1;
      if s.steps > st.limit then raise Out_of_fuel
    end;
    fr.last <- j;
    df.code.(j) fr
  done

(* Take [e]: report it, run the phi moves, dispatch the run at its
   target. *)
let[@inline] take fr = function
  | Edge { from; target; dst; moves } ->
      (match fr.st.on_edge with Some hook -> hook from target | None -> ());
      let regs = fr.regs in
      let j = ref 0 in
      while !j < Array.length moves do
        Array.unsafe_set regs (Array.unsafe_get moves !j)
          (Array.unsafe_get regs (Array.unsafe_get moves (!j + 1)));
        j := !j + 2
      done;
      fr.pc <- dst;
      dispatch fr
  | Bad_edge e -> raise e
  | Bad_phi { from; target; e } ->
      (match fr.st.on_edge with Some hook -> hook from target | None -> ());
      raise e

(* An enabled trap: for the registered handler, or to the caller. *)
let trap st kind =
  raise (if Option.is_some st.trap_handler then Deliver kind else Trap kind)

(* An exception condition: trap if ExceptionsEnabled, else [ignored]. *)
let guard st ee kind ignored = if ee then trap st kind else ignored

(* [Eval.to_int64] of a pointer or an integer, without the call on the
   shape its static type predicts *)
let[@inline] pointer = function Eval.P a -> a | s -> Eval.to_int64 s
let[@inline] integer = function Eval.I (_, i) -> i | s -> Eval.to_int64 s

(* Take back the instructions after [fr.pc] that its run charged but
   never ran. *)
let refund fr =
  let s = fr.st.stats and df = fr.df in
  for j = fr.pc + 1 to fr.last do
    let c = df.codes.(j) in
    if c > 0 then begin
      s.steps <- s.steps - 1;
      s.by_opcode.(c) <- s.by_opcode.(c) - 1
    end
  done

(* Run the registered handler for [kind] (an ordinary LLVA function, per
   §3.5) with the trap number and a null info pointer, once; return the
   exception that ends the trapping function: [Trap kind] when the
   handler returns, or whatever left the handler (an unwind continues
   as an unwind in the trapping function). *)
let rec deliver st kind : exn =
  match st.trap_handler with
  | None -> Trap kind
  | Some handler -> (
      st.trap_handler <- None (* avoid recursive trap loops *);
      match
        call_function st handler
          [| Eval.I (Types.Uint, Int64.of_int (trap_number kind)); Eval.P 0L |]
      with
      | _ -> Trap kind
      | exception e -> e)

and exec_call st callee_addr args =
  match Vmem.Image.func_at st.img callee_addr with
  | Some f -> call_function st f args
  | None -> invalid_arg (Printf.sprintf "Interp: call to non-function 0x%Lx" callee_addr)

and call_external st (f : Ir.func) args =
  let name = f.Ir.fname in
  if Intrinsics.is_intrinsic name then call_intrinsic st name args
  else if Vmem.Runtime.is_known name then Vmem.Runtime.call st.rt name args
  else invalid_arg ("Interp: call to undefined external " ^ name)

and call_intrinsic st name args =
  match (name, args) with
  | "llva.trap.register", [ p ] ->
      (match Vmem.Image.func_at st.img (Eval.to_int64 p) with
      | Some h -> st.trap_handler <- Some h
      | None -> invalid_arg "llva.trap.register: not a function pointer");
      Eval.Undef Types.Void
  | "llva.smc.replace", [ from_p; to_p ] -> (
      (* §3.4: redirect *future* invocations of [from] to [to]. *)
      match
        ( Vmem.Image.func_at st.img (Eval.to_int64 from_p),
          Vmem.Image.func_at st.img (Eval.to_int64 to_p) )
      with
      | Some from_f, Some to_f ->
          Hashtbl.replace st.redirects from_f.Ir.fname to_f;
          List.iter (fun hook -> hook from_f) st.on_smc;
          Eval.Undef Types.Void
      | _ -> invalid_arg "llva.smc.replace: operands must be function pointers")
  | "llva.stack.depth", [] -> Eval.I (Types.Uint, Int64.of_int st.depth)
  | "llva.priv.set", [ b ] ->
      st.privileged <- Eval.to_bool b;
      Eval.Undef Types.Void
  | other, _ when Intrinsics.is_privileged other ->
      (* privileged kernel intrinsics: trap unless the privileged bit is
         set (§3.5); the operations themselves are no-op stubs here. The
         call ends its caller's run, so nothing is left to refund. *)
      if not st.privileged then raise (deliver st Privilege_violation)
      else Eval.Undef Types.Void
  | _ -> invalid_arg ("Interp: unknown intrinsic " ^ name)

and call_function st (f : Ir.func) (args : Eval.scalar array) : Eval.scalar =
  let f =
    if Hashtbl.length st.redirects = 0 then f
    else
      match Hashtbl.find_opt st.redirects f.Ir.fname with
      | Some replacement -> replacement
      | None -> f
  in
  if Ir.is_declaration f then call_external st f (Array.to_list args)
  else begin
    st.stats.calls <- st.stats.calls + 1;
    st.depth <- st.depth + 1;
    if st.depth > st.stats.max_depth then st.stats.max_depth <- st.depth;
    if st.depth > 100_000 then invalid_arg "Interp: call depth exceeded";
    let df = form_of st f in
    let regs = Array.copy df.template in
    Array.blit args 0 regs 0 (min (Array.length args) df.nargs);
    let saved_stack = st.stack in
    let prev = st.current in
    st.current <- f.Ir.fname;
    let fr = { st; df; regs; pc = 0; last = -1; result = void } in
    match
      if df.entry_phis then invalid_arg "Interp: phi in entry block";
      dispatch fr
    with
    | () ->
        st.stack <- saved_stack;
        st.depth <- st.depth - 1;
        st.current <- prev;
        fr.result
    | exception e ->
        refund fr;
        let e = match e with Deliver kind -> deliver st kind | e -> e in
        (* deliberately do not restore [current]: a propagating trap keeps
           the name of the innermost function it fired in *)
        st.stack <- saved_stack;
        st.depth <- st.depth - 1;
        raise e
  end

(* [f]'s decoded form, decoding it on its first call through this form
   cache. *)
and form_of st (f : Ir.func) =
  match Itbl.find_opt st.forms.by_fid f.Ir.fid with
  | Some df -> df
  | None ->
      let df = decode st f in
      Itbl.replace st.forms.by_fid f.Ir.fid df;
      st.stats.lowered <- st.stats.lowered + 1;
      df

and decode st (f : Ir.func) : form =
  let slots = Itbl.create 64 in
  let template = ref [] and nslots = ref 0 in
  let add_slot v =
    template := v :: !template;
    incr nslots;
    !nslots - 1
  in
  List.iter
    (fun (a : Ir.arg) -> Itbl.replace slots a.Ir.aid (add_slot (Eval.Undef a.Ir.aty)))
    f.Ir.fargs;
  let nargs = !nslots in
  Ir.iter_instrs
    (fun i -> if has_slot i then Itbl.replace slots i.Ir.iid (add_slot (Eval.Undef i.Ir.ity)))
    f;
  let consts = Consts.create 16 in
  let reg (v : Ir.value) =
    Itbl.find_opt slots
      (match v with Ir.Vreg i -> i.Ir.iid | Ir.Varg a -> a.Ir.aid | _ -> -1)
  in
  (* an operand's slot; a constant gets one holding its value *)
  let operand (v : Ir.value) =
    match reg v with
    | Some k -> k
    | None -> (
        let c = constant_value st v in
        match Consts.find_opt consts c with
        | Some k -> k
        | None ->
            let k = add_slot c in
            Consts.replace consts c k;
            k)
  in
  (* how many operands name each instruction's result *)
  let uses =
    let n = Itbl.create 64 in
    Ir.iter_instrs
      (fun i ->
        Array.iter
          (function
            | Ir.Vreg j ->
                Itbl.replace n j.Ir.iid (1 + Option.value ~default:0 (Itbl.find_opt n j.Ir.iid))
            | _ -> ())
          i.Ir.operands)
      f;
    fun (i : Ir.instr) -> Option.value ~default:0 (Itbl.find_opt n i.Ir.iid)
  in
  let scratch = lazy (add_slot (Eval.Undef Types.Void)) in
  let scratch () = Lazy.force scratch in
  let dst (i : Ir.instr) = Option.value ~default:(-1) (reg (Ir.Vreg i)) in
  (* each block's body: its non-phi instructions up to and including the
     first terminator, or a [None] position for falling off its end *)
  let bodies =
    List.map
      (fun (b : Ir.block) ->
        let rec body = function
          | [] -> [ None ]
          | (i : Ir.instr) :: rest ->
              if i.Ir.op = Ir.Phi then body rest
              else if Ir.is_terminator i then [ Some i ]
              else Some i :: body rest
        in
        (b, Array.of_list (body b.Ir.instrs)))
      f.Ir.fblocks
  in
  let start = Itbl.create 16 and n = ref 0 in
  List.iter
    (fun ((b : Ir.block), body) ->
      Itbl.replace start b.Ir.blid !n;
      n := !n + Array.length body)
    bodies;
  let n = !n in
  (* the edge from [src] to the block named by [target ()] *)
  let edge (src : Ir.block) target =
    match target () with
    | exception e -> Bad_edge e
    | (b : Ir.block) -> (
        match Itbl.find_opt start b.Ir.blid with
        | None -> Bad_edge (Invalid_argument "Interp: branch out of the function")
        | Some pos -> (
            let src_of (phi : Ir.instr) =
              match Ir.phi_value_for_block phi src with
              | Some v -> operand v
              | None ->
                  invalid_arg
                    (Printf.sprintf "Interp: phi %%%s missing edge from %%%s" phi.Ir.iname
                       src.Ir.bname)
            in
            match List.map (fun phi -> (dst phi, src_of phi)) (Ir.block_phis b) with
            | pairs ->
                Edge { from = src; target = b; dst = pos; moves = sequentialize ~scratch pairs }
            | exception e -> Bad_phi { from = src; target = b; e }))
  in
  let label (i : Ir.instr) k () = Ir.block_of_value i.Ir.operands.(k) in
  (* a static type resolved, or [Void] (never specialized) when it
     cannot be *)
  let resolved ty = try Types.resolve st.env ty with _ -> Types.Void in
  let width = Types.scalar_bytes st.mem.Vmem.Memory.target in
  let mask = Eval.pointer_mask st.m.Ir.target in
  (* Each closure stores its position first, so an exception it raises
     refunds exactly the rest of its run. One that does not end its run
     then [proceed]s to [next]; one that does sets [pc] to the next run,
     or to -1 after a return. *)
  let gep (i : Ir.instr) ptr pos next : op =
    let ptr_ty = Ir.type_of_value i.Ir.operands.(0) in
    let idx = Array.sub i.Ir.operands 1 (Array.length i.Ir.operands - 1) in
    let ops = Array.map operand idx in
    let d = dst i in
    (* the byte offset: a constant plus (slot, scale) terms *)
    let strides =
      match
        Vmem.Layout.strides st.layout
          ~const:(fun (v, _) -> Gep.int_const v)
          ptr_ty
          (List.combine (Array.to_list idx) (Array.to_list ops))
      with
      | Ok (strides, _) -> strides
      | Error e -> invalid_arg ("Interp: " ^ Gep.message e)
    in
    let const, terms =
      List.fold_left
        (fun (const, terms) -> function
          | Vmem.Layout.Scaled ((v, k), scale) -> (
              match reg v with
              | Some _ -> (const, (k, scale) :: terms)
              | None ->
                  let c = Int64.to_int (Eval.to_int64 (constant_value st v)) in
                  (const + (c * scale), terms))
          | Vmem.Layout.Offset off -> (const + off, terms))
        (0, []) strides
    in
    match (const, List.rev terms) with
    | const, [] ->
        let const = Int64.of_int const in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          let p = pointer (Array.unsafe_get r ptr) in
          Array.unsafe_set r d (Eval.P (Int64.logand (Int64.add p const) mask));
          proceed fr pos next
    | const, [ (idx, scale) ] ->
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          let p = pointer (Array.unsafe_get r ptr) in
          let off = const + (Int64.to_int (integer (Array.unsafe_get r idx)) * scale) in
          Array.unsafe_set r d (Eval.P (Int64.logand (Int64.add p (Int64.of_int off)) mask));
          proceed fr pos next
    | const, terms ->
        let terms = Array.of_list terms in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          let p = Eval.to_int64 (Array.unsafe_get r ptr) in
          let off = ref const in
          for j = 0 to Array.length terms - 1 do
            let idx, scale = terms.(j) in
            off := !off + (Int64.to_int (Eval.to_int64 (Array.unsafe_get r idx)) * scale)
          done;
          Array.unsafe_set r d (Eval.P (Int64.logand (Int64.add p (Int64.of_int !off)) mask));
          proceed fr pos next
  in
  let decode_instr (b : Ir.block) (i : Ir.instr) ~after pos next : op =
    let ops = i.Ir.operands in
    let nops = Array.length ops in
    let op k = operand ops.(k) in
    let ee = i.Ir.exceptions_enabled and undef = Eval.Undef i.Ir.ity in
    match i.Ir.op with
    | Ir.Binop ((Ir.Div | Ir.Rem) as o) ->
        let a = op 0 in
        let b = op 1 in
        let d = dst i in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          Array.unsafe_set r d
            (try Eval.binop o (Array.unsafe_get r a) (Array.unsafe_get r b) with
            | Eval.Division_by_zero -> guard fr.st ee Division_by_zero undef
            | Eval.Overflow -> guard fr.st ee Overflow undef);
          proceed fr pos next
    | Ir.Binop o ->
        let a = op 0 in
        let b = op 1 in
        let d = dst i and ty = resolved i.Ir.ity in
        (* an integer type's operation, staged; two integers tagged with
           that type are what [Eval.binop] gives it *)
        let f = Eval.int_binop_for o ty in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          Array.unsafe_set r d
            (match (Array.unsafe_get r a, Array.unsafe_get r b) with
            | Eval.I (t, x), Eval.I (_, y) when t == ty -> f x y
            | x, y -> Eval.binop o x y);
          proceed fr pos next
    | Ir.Setcc c -> (
        let ty = Ir.type_of_value ops.(0) in
        let a = op 0 in
        let b' = op 1 in
        let d = dst i and rty = resolved ty in
        let f = Eval.int_setcc_for c rty in
        let branches_on (br : Ir.instr) =
          br.Ir.op = Ir.Br && Array.length br.Ir.operands = 3
          && (match br.Ir.operands.(0) with Ir.Vreg j -> j == i | _ -> false)
          && uses i = 1
        in
        match after with
        | Some br when branches_on br ->
            (* the branch on this result, its only use: in a charged run
               the result goes to the branch instead of a register *)
            let t = edge b (label br 1) and e = edge b (label br 2) in
            fun fr ->
              fr.pc <- pos;
              let r = fr.regs in
              let v =
                match (Array.unsafe_get r a, Array.unsafe_get r b') with
                | Eval.I (t, x), Eval.I (_, y) when t == rty -> f x y
                | x, y -> Eval.compare_scalars ty c x y
              in
              if pos < fr.last then begin
                fr.pc <- pos + 1;
                take fr (if (match v with Eval.B c -> c | c -> Eval.to_bool c) then t else e)
              end
              else Array.unsafe_set r d v
        | _ ->
            fun fr ->
              fr.pc <- pos;
              let r = fr.regs in
              Array.unsafe_set r d
                (match (Array.unsafe_get r a, Array.unsafe_get r b') with
                | Eval.I (t, x), Eval.I (_, y) when t == rty -> f x y
                | x, y -> Eval.compare_scalars ty c x y);
              proceed fr pos next)
    | Ir.Ret ->
        if nops = 0 then fun fr -> fr.pc <- -1
        else
          let a = op 0 in
          fun fr ->
            fr.result <- Array.unsafe_get fr.regs a;
            fr.pc <- -1
    | Ir.Br ->
        if nops = 1 then
          let e = edge b (label i 0) in
          fun fr ->
            fr.pc <- pos;
            take fr e
        else
          let c = op 0 in
          let t = edge b (label i 1) and e = edge b (label i 2) in
          fun fr ->
            fr.pc <- pos;
            let taken =
              match Array.unsafe_get fr.regs c with Eval.B c -> c | c -> Eval.to_bool c
            in
            take fr (if taken then t else e)
    | Ir.Mbr ->
        let sel = op 0 in
        let rec cases k acc =
          if k + 1 >= nops then Array.of_list (List.rev acc)
          else
            match ops.(k) with
            | Ir.Const { ckind = Ir.Cint c; _ } -> cases (k + 2) ((c, edge b (label i (k + 1))) :: acc)
            | _ -> cases (k + 2) acc
        in
        let cases = cases 2 [] and default = edge b (label i 1) in
        fun fr ->
          fr.pc <- pos;
          let sel = Eval.to_int64 (Array.unsafe_get fr.regs sel) in
          let rec find j =
            if j = Array.length cases then default
            else
              let c, e = cases.(j) in
              if Int64.equal c sel then e else find (j + 1)
          in
          take fr (find 0)
    | Ir.Unwind ->
        fun fr ->
          fr.pc <- pos;
          raise Unwinding
    | Ir.Invoke ->
        let callee = op 0 in
        let args = Array.init (nops - 3) (fun k -> op (k + 3)) in
        let d = dst i in
        let normal = edge b (label i 1) and except = edge b (label i 2) in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          let callee = Eval.to_int64 (Array.unsafe_get r callee) in
          let args = Array.map (Array.unsafe_get r) args in
          (match exec_call fr.st callee args with
          | v ->
              Array.unsafe_set r d v;
              take fr normal
          | exception Unwinding -> take fr except)
    | Ir.Call ->
        let callee = op 0 in
        let args = Array.init (nops - 1) (fun k -> op (k + 1)) in
        let d = dst i in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          let callee = Eval.to_int64 (Array.unsafe_get r callee) in
          let v = exec_call fr.st callee (Array.map (Array.unsafe_get r) args) in
          if d >= 0 then Array.unsafe_set r d v;
          fr.pc <- pos + 1;
          dispatch fr
    | Ir.Load ->
        let p = op 0 and d = dst i in
        let read =
          match resolved i.Ir.ity with
          | ty when Types.is_integer ty ->
              let w = width ty and n = Eval.norm_for ty in
              fun mem a -> n (Vmem.Memory.read_uint mem a w)
          | Types.Pointer _ as ty ->
              let w = width ty in
              fun mem a -> Eval.P (Vmem.Memory.read_uint mem a w)
          | _ ->
              let ty = defer (fun () -> Types.resolve st.env i.Ir.ity) in
              fun mem a -> Vmem.Memory.read_scalar mem (force ty) a
        in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          Array.unsafe_set r d
            (try
               let a = pointer (Array.unsafe_get r p) in
               if a = 0L then raise (Vmem.Memory.Fault 0L);
               read fr.st.mem a
             with Vmem.Memory.Fault a -> guard fr.st ee (Memory_fault a) undef);
          proceed fr pos next
    | Ir.Store ->
        let v = op 0 in
        let p = op 1 in
        let write =
          match resolved (Ir.type_of_value ops.(0)) with
          | ty when Types.is_integer ty || Types.is_pointer ty ->
              let w = width ty in
              fun mem a v -> Vmem.Memory.write_uint mem a w (integer v)
          | _ ->
              let ty = defer (fun () -> Types.resolve st.env (Ir.type_of_value ops.(0))) in
              fun mem a v -> Vmem.Memory.write_scalar mem (force ty) a v
        in
        fun fr ->
          fr.pc <- pos;
          let r = fr.regs in
          (try
             let a = pointer (Array.unsafe_get r p) in
             if a = 0L then raise (Vmem.Memory.Fault 0L);
             write fr.st.mem a (Array.unsafe_get r v)
           with Vmem.Memory.Fault a -> guard fr.st ee (Memory_fault a) ());
          proceed fr pos next
    | Ir.Getelementptr -> gep i (op 0) pos next
    | Ir.Alloca ->
        let count = if nops = 0 then -1 else op 0 in
        let elem =
          defer (fun () ->
              let elem = Types.pointee st.env i.Ir.ity in
              let size = Vmem.Layout.size_of st.layout elem in
              (size, Vmem.Layout.align_of st.layout elem))
        in
        let d = dst i in
        fun fr ->
          fr.pc <- pos;
          let st = fr.st in
          let count =
            if count < 0 then 1 else Int64.to_int (Eval.to_int64 (Array.unsafe_get fr.regs count))
          in
          let size, align = force elem in
          let size = max 1 (count * size) in
          let sp = Int64.sub st.stack (Int64.of_int size) in
          let sp = Int64.mul (Int64.div sp (Int64.of_int align)) (Int64.of_int align) in
          if Int64.compare sp Vmem.Memory.heap_base < 0 then trap st (Memory_fault sp);
          st.stack <- sp;
          Array.unsafe_set fr.regs d (Eval.P sp);
          proceed fr pos next
    | Ir.Cast -> (
        let v = op 0 and d = dst i in
        let tys =
          defer (fun () ->
              let src = Types.resolve st.env (Ir.type_of_value ops.(0)) in
              (src, Types.resolve st.env i.Ir.ity))
        in
        match tys with
        | Ok (_, ty) when Types.is_integer ty ->
            let f = Eval.cast_to_int_for ty in
            fun fr ->
              fr.pc <- pos;
              let r = fr.regs in
              Array.unsafe_set r d (f (Array.unsafe_get r v));
              proceed fr pos next
        | _ ->
            fun fr ->
              fr.pc <- pos;
              let src_ty, dst_ty = force tys in
              let r = fr.regs in
              Array.unsafe_set r d
                (match Eval.cast ~src_ty ~dst_ty (Array.unsafe_get r v) with
                | Eval.P a -> Eval.P (Int64.logand a mask)
                | r -> r);
              proceed fr pos next)
    | Ir.Phi -> assert false
  in
  let code = Array.make n fall_through and codes = Array.make n 0 in
  let empty = { count = 0; last_pos = -1; hist = [||] } in
  let runs = Array.make n empty in
  List.iter
    (fun ((b : Ir.block), body) ->
      let first = Itbl.find start b.Ir.blid in
      (* from the block's end back, so each closure can thread to the
         next one's *)
      for k = Array.length body - 1 downto 0 do
        match body.(k) with
        | Some (i : Ir.instr) ->
            let pos = first + k in
            let next, after =
              if k + 1 < Array.length body then (code.(pos + 1), body.(k + 1))
              else (fall_through, None)
            in
            code.(pos) <-
              (try decode_instr b i ~after pos next
               with e ->
                 fun fr ->
                   fr.pc <- pos;
                   raise e);
            codes.(pos) <- Ir.opcode_code i.Ir.op
        | None -> ()
      done;
      (* split the block into runs, each ending at a call, an invoke, a
         terminator or the fall-through position *)
      let run_start = ref first in
      Array.iteri
        (fun k i ->
          let pos = first + k in
          if match i with Some i -> ends_run i | None -> true then begin
            let hist = Array.make (Ir.opcode_count + 1) 0 in
            for j = !run_start to pos do
              hist.(codes.(j)) <- hist.(codes.(j)) + 1
            done;
            hist.(0) <- 0;
            let pairs = ref [] in
            Array.iteri (fun c m -> if m > 0 then pairs := m :: c :: !pairs) hist;
            runs.(!run_start) <-
              {
                count = Array.fold_left ( + ) 0 hist;
                last_pos = pos;
                hist = Array.of_list (List.rev !pairs);
              };
            run_start := pos + 1
          end)
        body)
    bodies;
  {
    template = Array.of_list (List.rev !template);
    nargs;
    code;
    codes;
    runs;
    entry_phis = Ir.block_phis (Ir.entry_block f) <> [];
  }

(* ---------- entry points ---------- *)

let run_function st name args =
  match Ir.find_func st.m name with
  | Some f -> call_function st f (Array.of_list args)
  | None -> invalid_arg ("Interp: no such function: " ^ name)

(* Run %main; returns the program's exit code. *)
let run_main st =
  match run_function st "main" [] with
  | v -> (
      match v with
      | Eval.I (_, code) -> Int64.to_int code
      | _ -> 0)
  | exception Vmem.Runtime.Exit_called code -> code
  | exception Unwinding -> raise Unwound
