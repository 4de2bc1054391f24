(* Reference interpreter for the LLVA V-ISA.

   This is the semantic baseline of the whole system: the machine back-ends
   are differentially tested against it. It implements the paper's precise
   exception model (§3.3) — an instruction whose ExceptionsEnabled bit is
   false has its exceptions *ignored* (the result becomes undef); enabled
   exceptions are delivered either to a registered trap handler or to the
   caller as [Trap] — the §3.4 self-modification rule (replacement affects
   only future invocations), and the §3.5 OS-support mechanisms (intrinsic
   functions and the privileged bit).

   Each function is lowered once per state, on its first call, to a
   slot-indexed form (see "the lowered form" below) and only that form is
   executed. *)

open Llva

include Vmem.Guest

(* Raised internally by the unwind instruction; caught by invoke. *)
exception Unwinding

type stats = {
  mutable steps : int; (* dynamic LLVA instructions *)
  by_opcode : int array; (* indexed by Ir.opcode_code *)
  mutable calls : int;
  mutable max_depth : int;
  mutable lowered : int; (* functions lowered to the slot form *)
}

(* ---------- the lowered form ----------

   Every argument and instruction result of a function has a dense slot in
   one [Eval.scalar array] per frame, copied on entry from a template of
   per-slot [Undef ty] values. Operands are resolved once: to a slot, to a
   constant scalar (constants, global and function addresses), or to the
   exception the value would raise. Types and layout facts are computed
   ahead, branch targets are block indices carrying their phi moves, and
   getelementptr is folded to a constant offset plus scaled terms.
   Anything that cannot be resolved is kept as a deferred exception and
   raised only when its instruction executes, never at lowering.

   The V-ISA is typed, so lowering also picks, from each instruction's
   static types, a kind specialized to them: integer [setcc], integer
   and pointer casts, loads and stores, geps with at most one scaled
   term. A specialized kind runs the runtime shape its static types
   predict ([I], [P] or [B]) by calling the [Eval] function that shape
   reaches, chosen at lowering; any other shape (undef, a mismatched
   kind) goes to the same generic [Eval] call as the kind it replaces.
   The formulas stay in [Eval]. *)

type operand = Slot of int | Imm of Eval.scalar | Fail of exn
type 'a deferred = ('a, exn) result

type edge =
  | Edge of {
      dst : int; (* block index *)
      target : Ir.block; (* reported to [on_edge] *)
      phi_slots : int array;
      phi_srcs : operand array; (* a missing incoming value is a Fail *)
      phi_tmp : Eval.scalar array; (* the values, read before any is set *)
    }
  | Bad_edge of exn

type kind =
  | Arith of { op : Ir.binop; a : operand; b : operand; dst : int }
  | Divide of {
      op : Ir.binop;
      a : operand;
      b : operand;
      dst : int;
      ee : bool;
      undef : Eval.scalar;
    }
  | Setcc of { cmp : Ir.cmp; ty : Types.t; a : operand; b : operand; dst : int }
  (* integer setcc: [compare] is [Eval.int_compare rty], and [lt], [eq]
     and [gt] are the results when it is negative, zero and positive *)
  | Setcc_int of {
      cmp : Ir.cmp;
      ty : Types.t;
      rty : Types.t; (* [ty] resolved *)
      compare : int64 -> int64 -> int;
      lt : Eval.scalar;
      eq : Eval.scalar;
      gt : Eval.scalar;
      a : operand;
      b : operand;
      dst : int;
    }
  | Ret of operand option
  | Jump of edge
  | Cond of { cond : operand; t : edge; f : edge }
  | Mbr of { sel : operand; cases : (int64 * edge) array; default : edge }
  | Unwind
  | Invoke of {
      callee : operand;
      args : operand array;
      dst : int;
      normal : edge;
      except : edge;
    }
  | Call of { callee : operand; args : operand array; dst : int (* -1: no result *) }
  | Load of {
      ptr : operand;
      ty : Types.t deferred;
      dst : int;
      ee : bool;
      undef : Eval.scalar;
    }
  | Store of { v : operand; ptr : operand; ty : Types.t deferred; ee : bool }
  (* loads and stores of an integer or pointer [width] bytes wide *)
  | Load_int of {
      ptr : operand;
      ty : Types.t;
      width : int;
      dst : int;
      ee : bool;
      undef : Eval.scalar;
    }
  | Load_ptr of {
      ptr : operand;
      width : int;
      dst : int;
      ee : bool;
      undef : Eval.scalar;
    }
  | Store_word of { v : operand; ptr : operand; width : int; ee : bool }
  (* ptr + const + sum of (index * scale) *)
  | Gep of { ptr : operand; const : int; terms : (operand * int) array; dst : int }
  (* ptr + const + idx * scale, masked by [Eval.pointer_mask]; a gep
     with no scaled term has scale 0 *)
  | Gep_scaled of {
      ptr : operand;
      const : int;
      idx : operand;
      scale : int;
      mask : int64;
      dst : int;
    }
  (* geps the lowering could not fold go through Layout.gep_offset *)
  | Gep_generic of {
      ptr : operand;
      ptr_ty : Types.t;
      indexes : (Types.t * operand) array;
      dst : int;
    }
  | Alloca of { count : operand option; elem : (int * int) deferred; dst : int }
  | Cast of { v : operand; tys : (Types.t * Types.t) deferred; dst : int }
  (* a cast to integer type [ty] from an integer, bool or pointer;
     [zero] and [one] are the casts of [false] and [true] *)
  | Cast_int of {
      v : operand;
      ty : Types.t;
      zero : Eval.scalar;
      one : Eval.scalar;
      dst : int;
    }
  (* a cast to pointer type [ty] from an integer, bool or pointer *)
  | Cast_ptr of { v : operand; ty : Types.t; mask : int64; dst : int }
  | Raise of exn (* an instruction whose shape could not be lowered *)

type lblock = {
  block : Ir.block;
  codes : int array; (* Ir.opcode_code of each non-phi instruction *)
  kinds : kind array; (* up to and including the first terminator *)
}

type lfunc = {
  template : Eval.scalar array; (* arguments first *)
  nargs : int;
  blocks : lblock array; (* entry first *)
  entry_phis : bool;
}

module Itbl = Hashtbl.Make (Int)

type state = {
  m : Ir.modl;
  img : Vmem.Image.t;
  mem : Vmem.Memory.t;
  rt : Vmem.Runtime.t;
  env : Types.env;
  layout : Vmem.Layout.t;
  mutable stack : int64;
  mutable depth : int;
  mutable fuel : int; (* < 0 means unlimited *)
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
  forms : lfunc Itbl.t; (* lowered functions, by fid *)
  stats : stats;
}

let create ?(fuel = -1) (m : Ir.modl) : state =
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
    fuel;
    current = "main";
    trap_handler = None;
    privileged = false;
    redirects = Hashtbl.create 8;
    on_smc = [];
    on_edge = None;
    forms = Itbl.create 16;
    stats =
      { steps = 0; by_opcode = Array.make 29 0; calls = 0; max_depth = 0; lowered = 0 };
  }

let output st = Vmem.Runtime.output st.rt

(* ---------- lowering ---------- *)

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

let lower st (f : Ir.func) : lfunc =
  let slots = Itbl.create 64 in
  let template = ref [] and next = ref 0 in
  let add_slot id undef =
    Itbl.replace slots id !next;
    template := undef :: !template;
    incr next
  in
  List.iter (fun (a : Ir.arg) -> add_slot a.Ir.aid (Eval.Undef a.Ir.aty)) f.Ir.fargs;
  let nargs = !next in
  Ir.iter_instrs
    (fun i -> if has_slot i then add_slot i.Ir.iid (Eval.Undef i.Ir.ity))
    f;
  let slot id = Itbl.find_opt slots id in
  let operand (v : Ir.value) =
    let id = match v with Ir.Vreg i -> i.Ir.iid | Ir.Varg a -> a.Ir.aid | _ -> -1 in
    match slot id with
    | Some k -> Slot k
    | None -> ( match constant_value st v with s -> Imm s | exception e -> Fail e)
  in
  let index = Itbl.create 16 in
  List.iteri (fun k (b : Ir.block) -> Itbl.replace index b.Ir.blid k) f.Ir.fblocks;
  let dst (i : Ir.instr) = Option.value ~default:(-1) (slot i.Ir.iid) in
  (* the edge from [src] to the block named by [target ()] *)
  let edge (src : Ir.block) target =
    match target () with
    | exception e -> Bad_edge e
    | (b : Ir.block) -> (
        match Itbl.find_opt index b.Ir.blid with
        | None -> Bad_edge (Invalid_argument "Interp: branch out of the function")
        | Some k ->
            let phis = Array.of_list (Ir.block_phis b) in
            let src_of (phi : Ir.instr) =
              match Ir.phi_value_for_block phi src with
              | Some v -> operand v
              | None ->
                  Fail
                    (Invalid_argument
                       (Printf.sprintf "Interp: phi %%%s missing edge from %%%s"
                          phi.Ir.iname src.Ir.bname))
            in
            Edge
              {
                dst = k;
                target = b;
                phi_slots = Array.map dst phis;
                phi_srcs = Array.map src_of phis;
                phi_tmp = Array.make (Array.length phis) (Eval.Undef Types.Void);
              })
  in
  let label (i : Ir.instr) k () = Ir.block_of_value i.Ir.operands.(k) in
  (* a static type resolved, or [Void] (never specialized) when it
     cannot be *)
  let resolved ty = try Types.resolve st.env ty with _ -> Types.Void in
  let width = Types.scalar_bytes st.mem.Vmem.Memory.target in
  let mask = Eval.pointer_mask st.m.Ir.target in
  let gep (i : Ir.instr) ptr =
    let ptr_ty = Ir.type_of_value i.Ir.operands.(0) in
    let idx = Array.sub i.Ir.operands 1 (Array.length i.Ir.operands - 1) in
    let ops = Array.map operand idx in
    let fold () =
      let lt = st.layout in
      let const = ref 0 and terms = ref [] in
      let add op scale =
        match op with
        | Imm s -> const := !const + (Int64.to_int (Eval.to_int64 s) * scale)
        | Slot _ -> terms := (op, scale) :: !terms
        | Fail _ -> raise Exit
      in
      let elem = Types.pointee lt.Vmem.Layout.env ptr_ty in
      let ty = ref elem in
      Array.iteri
        (fun k op ->
          if k = 0 then add op (Vmem.Layout.size_of lt elem)
          else
            match (Types.resolve lt.Vmem.Layout.env !ty, op) with
            | Types.Array (_, e), _ ->
                add op (Vmem.Layout.size_of lt e);
                ty := e
            | Types.Struct fields, Imm s ->
                let n = Int64.to_int (Eval.to_int64 s) in
                let fty = Option.get (List.nth_opt fields n) in
                const := !const + Vmem.Layout.field_offset lt fields n;
                ty := fty
            | _ -> raise Exit)
        ops;
      let const = !const and dst = dst i in
      match !terms with
      | [] -> Gep_scaled { ptr; const; idx = Imm (Eval.I (Types.Long, 0L)); scale = 0; mask; dst }
      | [ (idx, scale) ] -> Gep_scaled { ptr; const; idx; scale; mask; dst }
      | terms -> Gep { ptr; const; terms = Array.of_list (List.rev terms); dst }
    in
    match fold () with
    | g -> g
    | exception _ ->
        Gep_generic
          {
            ptr;
            ptr_ty;
            indexes = Array.map2 (fun v op -> (Ir.type_of_value v, op)) idx ops;
            dst = dst i;
          }
  in
  let lower_instr (b : Ir.block) (i : Ir.instr) =
    let ops = i.Ir.operands in
    let op k = operand ops.(k) in
    let nops = Array.length ops in
    match i.Ir.op with
    | Ir.Binop ((Ir.Div | Ir.Rem) as o) ->
        Divide
          {
            op = o;
            a = op 0;
            b = op 1;
            dst = dst i;
            ee = i.Ir.exceptions_enabled;
            undef = Eval.Undef i.Ir.ity;
          }
    | Ir.Binop o -> Arith { op = o; a = op 0; b = op 1; dst = dst i }
    | Ir.Setcc c ->
        let ty = Ir.type_of_value ops.(0) in
        let rty = resolved ty in
        if Types.is_integer rty then
          let result sign = Eval.of_bool (Eval.holds c sign) in
          Setcc_int
            {
              cmp = c;
              ty;
              rty;
              compare = Eval.int_compare rty;
              lt = result (-1);
              eq = result 0;
              gt = result 1;
              a = op 0;
              b = op 1;
              dst = dst i;
            }
        else Setcc { cmp = c; ty; a = op 0; b = op 1; dst = dst i }
    | Ir.Ret -> Ret (if nops = 0 then None else Some (op 0))
    | Ir.Br ->
        if nops = 1 then Jump (edge b (label i 0))
        else Cond { cond = op 0; t = edge b (label i 1); f = edge b (label i 2) }
    | Ir.Mbr ->
        let rec cases k acc =
          if k + 1 >= nops then Array.of_list (List.rev acc)
          else
            match ops.(k) with
            | Ir.Const { ckind = Ir.Cint c; _ } -> cases (k + 2) ((c, edge b (label i (k + 1))) :: acc)
            | _ -> cases (k + 2) acc
        in
        Mbr { sel = op 0; cases = cases 2 []; default = edge b (label i 1) }
    | Ir.Unwind -> Unwind
    | Ir.Invoke ->
        Invoke
          {
            callee = op 0;
            args = Array.init (nops - 3) (fun k -> op (k + 3));
            dst = dst i;
            normal = edge b (label i 1);
            except = edge b (label i 2);
          }
    | Ir.Call ->
        Call
          {
            callee = op 0;
            args = Array.init (nops - 1) (fun k -> op (k + 1));
            dst = dst i;
          }
    | Ir.Load -> (
        let ptr = op 0 and dst = dst i and ee = i.Ir.exceptions_enabled in
        let undef = Eval.Undef i.Ir.ity in
        match resolved i.Ir.ity with
        | ty when Types.is_integer ty ->
            Load_int { ptr; ty; width = width ty; dst; ee; undef }
        | Types.Pointer _ as ty -> Load_ptr { ptr; width = width ty; dst; ee; undef }
        | _ ->
            let ty = defer (fun () -> Types.resolve st.env i.Ir.ity) in
            Load { ptr; ty; dst; ee; undef })
    | Ir.Store -> (
        let v = op 0 and ptr = op 1 and ee = i.Ir.exceptions_enabled in
        match resolved (Ir.type_of_value ops.(0)) with
        | ty when Types.is_integer ty || Types.is_pointer ty ->
            Store_word { v; ptr; width = width ty; ee }
        | _ ->
            Store
              {
                v;
                ptr;
                ty = defer (fun () -> Types.resolve st.env (Ir.type_of_value ops.(0)));
                ee;
              })
    | Ir.Getelementptr -> gep i (op 0)
    | Ir.Alloca ->
        Alloca
          {
            count = (if nops = 0 then None else Some (op 0));
            elem =
              defer (fun () ->
                  let elem = Types.pointee st.env i.Ir.ity in
                  let size = Vmem.Layout.size_of st.layout elem in
                  (size, Vmem.Layout.align_of st.layout elem));
            dst = dst i;
          }
    | Ir.Cast -> (
        let v = op 0 and dst = dst i in
        let tys =
          defer (fun () ->
              let src = Types.resolve st.env (Ir.type_of_value ops.(0)) in
              (src, Types.resolve st.env i.Ir.ity))
        in
        let word = function
          | Types.Bool | Types.Pointer _ -> true
          | t -> Types.is_integer t
        in
        match tys with
        | Ok (src, ty) when word src && Types.is_integer ty ->
            let zero = Eval.cast_to_int ty Eval.b_false in
            Cast_int { v; ty; zero; one = Eval.cast_to_int ty Eval.b_true; dst }
        | Ok (src, (Types.Pointer _ as ty)) when word src -> Cast_ptr { v; ty; mask; dst }
        | _ -> Cast { v; tys; dst })
    | Ir.Phi -> assert false
  in
  let lower_block (b : Ir.block) =
    let rec body = function
      | [] -> []
      | (i : Ir.instr) :: rest ->
          if i.Ir.op = Ir.Phi then body rest
          else if Ir.is_terminator i then [ i ]
          else i :: body rest
    in
    let body = Array.of_list (body b.Ir.instrs) in
    {
      block = b;
      codes = Array.map (fun (i : Ir.instr) -> Ir.opcode_code i.Ir.op) body;
      kinds = Array.map (fun i -> try lower_instr b i with e -> Raise e) body;
    }
  in
  {
    template = Array.of_list (List.rev !template);
    nargs;
    blocks = Array.of_list (List.map lower_block f.Ir.fblocks);
    entry_phis = Ir.block_phis (Ir.entry_block f) <> [];
  }

(* [f]'s lowered form, lowering it on its first call in this state. *)
let form_of st (f : Ir.func) =
  match Itbl.find_opt st.forms f.Ir.fid with
  | Some lf -> lf
  | None ->
      let lf = lower st f in
      Itbl.replace st.forms f.Ir.fid lf;
      st.stats.lowered <- st.stats.lowered + 1;
      lf

(* ---------- execution ---------- *)

(* Registers are read and written unchecked: every [Slot k] and every
   [dst] of a value-producing kind is a slot of the function, and the
   frame is a copy of the template, which has one entry per slot. (A
   void [invoke] has no slot, so [Invoke] writes checked.) *)
let[@inline] get (regs : Eval.scalar array) = function
  | Slot k -> Array.unsafe_get regs k
  | Imm s -> s
  | Fail e -> raise e

let[@inline] set (regs : Eval.scalar array) dst v = Array.unsafe_set regs dst v

(* [Eval.to_int64] of a pointer or an integer operand, without the call
   on the shape its static type predicts *)
let[@inline] pointer regs op =
  match get regs op with Eval.P a -> a | s -> Eval.to_int64 s

let[@inline] integer regs op =
  match get regs op with Eval.I (_, i) -> i | s -> Eval.to_int64 s

(* Take [e] out of block [b]: report it and run the target's phis
   simultaneously. Returns the target's block index. *)
let[@inline] cross st regs (b : lblock) e =
  match e with
  | Bad_edge x -> raise x
  | Edge { dst; target; phi_slots; phi_srcs; phi_tmp } ->
      (match st.on_edge with Some hook -> hook b.block target | None -> ());
      let n = Array.length phi_slots in
      if n = 1 then set regs phi_slots.(0) (get regs phi_srcs.(0))
      else if n > 1 then begin
        for j = 0 to n - 1 do
          phi_tmp.(j) <- get regs phi_srcs.(j)
        done;
        for j = 0 to n - 1 do
          set regs phi_slots.(j) phi_tmp.(j)
        done
      end;
      dst

(* Always raises; declared as returning unit so call sites follow it with
   their own (unreachable) result expression. *)
let rec deliver_trap st kind : unit =
  match st.trap_handler with
  | Some handler ->
      (* Run the handler (an ordinary LLVA function, per §3.5) with the
         trap number and a null info pointer, then terminate via Trap. *)
      st.trap_handler <- None (* avoid recursive trap loops *);
      (try
         ignore
           (call_function st handler
              [| Eval.I (Types.Uint, Int64.of_int (trap_number kind)); Eval.P 0L |])
       with Vmem.Runtime.Exit_called _ as e -> raise e);
      raise (Trap kind)
  | None -> raise (Trap kind)

(* An exception condition: trap if ExceptionsEnabled, else [ignored]. *)
and guard : 'a. state -> bool -> trap_kind -> 'a -> 'a =
 fun st ee kind ignored ->
  if ee then begin
    deliver_trap st kind;
    assert false
  end
  else ignored

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
         set (§3.5); the operations themselves are no-op stubs here *)
      if not st.privileged then begin
        deliver_trap st Privilege_violation;
        assert false
      end
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
    let lf = form_of st f in
    let regs = Array.copy lf.template in
    Array.blit args 0 regs 0 (min (Array.length args) lf.nargs);
    let saved_stack = st.stack in
    let prev = st.current in
    st.current <- f.Ir.fname;
    match
      if lf.entry_phis then invalid_arg "Interp: phi in entry block";
      exec st regs lf lf.blocks.(0) 0
    with
    | result ->
        st.stack <- saved_stack;
        st.depth <- st.depth - 1;
        st.current <- prev;
        result
    | exception e ->
        (* deliberately do not restore [current]: a propagating trap keeps
           the name of the innermost function it fired in *)
        st.stack <- saved_stack;
        st.depth <- st.depth - 1;
        raise e
  end

(* Continue at the target of [e], taken out of block [b]. *)
and take_edge st regs lf (b : lblock) e =
  exec st regs lf (Array.unsafe_get lf.blocks (cross st regs b e)) 0

(* Execute block [b] from instruction [k] until a return. *)
and exec st regs lf (b : lblock) k =
  if k = Array.length b.kinds then
    invalid_arg "Interp: block fell through without terminator";
  let s = st.stats in
  s.steps <- s.steps + 1;
  let code = Array.unsafe_get b.codes k in
  (* opcode codes are 1..28, [by_opcode] has 29 entries *)
  Array.unsafe_set s.by_opcode code (Array.unsafe_get s.by_opcode code + 1);
  if st.fuel >= 0 && s.steps > st.fuel then raise Out_of_fuel;
  match Array.unsafe_get b.kinds k with
  | Arith { op; a; b = b'; dst } ->
      let y = get regs b' in
      set regs dst
        (match (get regs a, y) with
        | Eval.I (ty, x), Eval.I (_, y) -> Eval.int_binop op ty x y
        | x, y -> Eval.binop op x y);
      exec st regs lf b (k + 1)
  | Divide { op; a; b = b'; dst; ee; undef } ->
      let r =
        try
          let y = get regs b' in
          Eval.binop op (get regs a) y
        with
        | Eval.Division_by_zero -> guard st ee Division_by_zero undef
        | Eval.Overflow -> guard st ee Overflow undef
      in
      set regs dst r;
      exec st regs lf b (k + 1)
  | Setcc { cmp; ty; a; b = b'; dst } ->
      let y = get regs b' in
      set regs dst (Eval.compare_scalars ty cmp (get regs a) y);
      exec st regs lf b (k + 1)
  | Setcc_int { cmp; ty; rty; compare; lt; eq; gt; a; b = b'; dst } ->
      let y = get regs b' in
      set regs dst
        (match (get regs a, y) with
        | Eval.I (t, x), Eval.I (_, y) when t == rty ->
            let c = compare x y in
            if c < 0 then lt else if c = 0 then eq else gt
        | x, y -> Eval.compare_scalars ty cmp x y);
      exec st regs lf b (k + 1)
  | Ret None -> Eval.Undef Types.Void
  | Ret (Some v) -> get regs v
  (* [take_edge], written out: a self tail call reuses this frame *)
  | Jump e -> exec st regs lf (Array.unsafe_get lf.blocks (cross st regs b e)) 0
  | Cond { cond; t; f } ->
      let taken = match get regs cond with Eval.B c -> c | c -> Eval.to_bool c in
      let e = if taken then t else f in
      exec st regs lf (Array.unsafe_get lf.blocks (cross st regs b e)) 0
  | Mbr { sel; cases; default } ->
      let sel = Eval.to_int64 (get regs sel) in
      let rec find j =
        if j = Array.length cases then default
        else
          let c, e = cases.(j) in
          if Int64.equal c sel then e else find (j + 1)
      in
      take_edge st regs lf b (find 0)
  | Unwind -> raise Unwinding
  | Invoke { callee; args; dst; normal; except } -> (
      let callee = Eval.to_int64 (get regs callee) in
      let args = Array.map (get regs) args in
      match exec_call st callee args with
      | result ->
          regs.(dst) <- result;
          take_edge st regs lf b normal
      | exception Unwinding -> take_edge st regs lf b except)
  | Call { callee; args; dst } ->
      let callee = Eval.to_int64 (get regs callee) in
      let args = Array.map (get regs) args in
      let result = exec_call st callee args in
      if dst >= 0 then set regs dst result;
      exec st regs lf b (k + 1)
  | Load { ptr; ty; dst; ee; undef } ->
      let r =
        try
          let addr = Eval.to_int64 (get regs ptr) in
          if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
          Vmem.Memory.read_scalar st.mem (force ty) addr
        with Vmem.Memory.Fault a -> guard st ee (Memory_fault a) undef
      in
      set regs dst r;
      exec st regs lf b (k + 1)
  | Store { v; ptr; ty; ee } ->
      (try
         let addr = Eval.to_int64 (get regs ptr) in
         if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
         let ty = force ty in
         Vmem.Memory.write_scalar st.mem ty addr (get regs v)
       with Vmem.Memory.Fault a -> guard st ee (Memory_fault a) ());
      exec st regs lf b (k + 1)
  | Load_int { ptr; ty; width; dst; ee; undef } ->
      let r =
        try
          let addr = pointer regs ptr in
          if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
          Eval.norm ty (Vmem.Memory.read_uint st.mem addr width)
        with Vmem.Memory.Fault a -> guard st ee (Memory_fault a) undef
      in
      set regs dst r;
      exec st regs lf b (k + 1)
  | Load_ptr { ptr; width; dst; ee; undef } ->
      let r =
        try
          let addr = pointer regs ptr in
          if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
          Eval.P (Vmem.Memory.read_uint st.mem addr width)
        with Vmem.Memory.Fault a -> guard st ee (Memory_fault a) undef
      in
      set regs dst r;
      exec st regs lf b (k + 1)
  | Store_word { v; ptr; width; ee } ->
      (try
         let addr = pointer regs ptr in
         if Int64.equal addr 0L then raise (Vmem.Memory.Fault 0L);
         Vmem.Memory.write_uint st.mem addr width (integer regs v)
       with Vmem.Memory.Fault a -> guard st ee (Memory_fault a) ());
      exec st regs lf b (k + 1)
  | Gep_scaled { ptr; const; idx; scale; mask; dst } ->
      let p = pointer regs ptr in
      let off = const + (Int64.to_int (integer regs idx) * scale) in
      set regs dst (Eval.P (Int64.logand (Int64.add p (Int64.of_int off)) mask));
      exec st regs lf b (k + 1)
  | Gep { ptr; const; terms; dst } ->
      let p = Eval.to_int64 (get regs ptr) in
      let off = ref const in
      for j = 0 to Array.length terms - 1 do
        let idx, scale = terms.(j) in
        off := !off + (Int64.to_int (Eval.to_int64 (get regs idx)) * scale)
      done;
      set regs dst
        (Eval.P (Eval.mask_pointer st.m.Ir.target (Int64.add p (Int64.of_int !off))));
      exec st regs lf b (k + 1)
  | Gep_generic { ptr; ptr_ty; indexes; dst } ->
      let p = Eval.to_int64 (get regs ptr) in
      let indexes =
        Array.to_list (Array.map (fun (ty, v) -> (ty, Eval.to_int64 (get regs v))) indexes)
      in
      let off, _ = Vmem.Layout.gep_offset st.layout ptr_ty indexes in
      set regs dst
        (Eval.P (Eval.mask_pointer st.m.Ir.target (Int64.add p (Int64.of_int off))));
      exec st regs lf b (k + 1)
  | Alloca { count; elem; dst } ->
      let count =
        match count with
        | None -> 1
        | Some c -> Int64.to_int (Eval.to_int64 (get regs c))
      in
      let size, align = force elem in
      let size = max 1 (count * size) in
      let sp = Int64.sub st.stack (Int64.of_int size) in
      let sp = Int64.mul (Int64.div sp (Int64.of_int align)) (Int64.of_int align) in
      if Int64.compare sp Vmem.Memory.heap_base < 0 then begin
        deliver_trap st (Memory_fault sp);
        assert false
      end
      else begin
        st.stack <- sp;
        set regs dst (Eval.P sp);
        exec st regs lf b (k + 1)
      end
  | Cast { v; tys; dst } ->
      let src_ty, dst_ty = force tys in
      let result =
        match Eval.cast ~src_ty ~dst_ty (get regs v) with
        | Eval.P a -> Eval.P (Eval.mask_pointer st.m.Ir.target a)
        | r -> r
      in
      set regs dst result;
      exec st regs lf b (k + 1)
  | Cast_int { v; ty; zero; one; dst } ->
      set regs dst
        (match get regs v with
        | Eval.B c -> if c then one else zero
        | s -> Eval.cast_to_int ty s);
      exec st regs lf b (k + 1)
  | Cast_ptr { v; ty; mask; dst } ->
      set regs dst
        (match Eval.cast_to_pointer ty (get regs v) with
        | Eval.P a -> Eval.P (Int64.logand a mask)
        | r -> r);
      exec st regs lf b (k + 1)
  | Raise e -> raise e

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
