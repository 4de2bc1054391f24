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

(* [direct] holds, per [Ir.opcode_code], the instructions stepped one at
   a time less those refunded; the runs charged whole are counted in the
   state's hit counts, and [by_opcode] adds both. *)
type stats = {
  mutable steps : int; (* dynamic LLVA instructions *)
  direct : int array;
  mutable calls : int;
  mutable max_depth : int;
  mutable lowered : int; (* functions this state decoded *)
}

(* ---------- the decoded form ----------

   Every argument, instruction result and constant operand of a function
   has a dense slot in its frame's registers, copied on entry from a
   template: [Undef ty] for arguments and results, the value for
   constants (constants, global and function addresses). So every operand
   is a slot, decided at decoding. Types and layout facts are computed
   ahead, branch targets are positions carrying their phi moves, and
   getelementptr is folded over [Vmem.Layout.strides] to a constant
   offset plus scaled terms; no layout is walked at run time, so a gep
   the type walk refuses is one that cannot be resolved.
   Anything that cannot be resolved becomes an instruction that raises
   the exception when it executes, never at decoding; with several, the
   first operand's.

   Registers are unboxed. Each slot has a static type, fixed at decoding:
   an argument's or a result's declared type, a constant's own type,
   resolved. The payload is 64 bits in [regs] and one shape byte in
   [shapes] says what it means: [value], the value the static type
   predicts (an integer tagged with that type, a bool as 0 or 1, an
   address, or the IEEE bits of a float of that type); [undef], [Undef]
   of that type; or [boxed], any other [Eval.scalar], kept as it is in
   the frame's side array [other] (say an integer of another type that
   arrived through a call via a cast function pointer). Every scalar is
   read back as it was written, so the encoding changes no observation.

   Each instruction becomes one closure of the frame, [op]. The V-ISA is
   typed, so decoding picks the closure from the instruction's static
   types. Integer and float arithmetic, [setcc], casts to integers and
   pointers, geps with at most one scaled term, loads and stores, and
   phi moves between slots of one type work on the payloads inline:
   the ones an instruction count showed to pay (DESIGN.md); formulas,
   width normalization and the page lookup are written below, allocate
   nothing and call nothing out of line (see "What -opaque costs here"
   in DESIGN.md). Such a closure runs only when its operands have the
   [value] shape; any other shape, and an access that straddles a page
   or touches the null page, runs the instruction's generic closure,
   which calls [Eval] or [Vmem.Memory] on boxed scalars. [Eval] stays
   the definition: the test "specialized kinds agree with Eval" holds
   the inline formulas to it. A [setcc] whose only use is the [br] after
   it branches itself while its run is charged.

   A function's instructions are laid out block after block and split
   into runs that end at a call, an invoke or a terminator. [runs.(p)],
   for the first position [p] of a run, holds the run's step count and
   per-opcode histogram. The loop charges the steps once, bumps the
   run's hit count in the state and compares against the fuel once
   before running the run's closures; [by_opcode] folds the hit counts
   with the histograms when it is read. When less fuel is left than the
   run needs, the loop runs the same closures one at a time, counting
   and charging each before the budget check, so a budget stops at the
   instruction that exhausts it. An exception that leaves a run early
   refunds the instructions after the one that raised, which were
   charged but never ran; a trap with a registered handler raises
   [Deliver], and the handler runs only after that refund.

   Closures capture no state: addresses come from the module's
   deterministic [Vmem.Image.load], and registers, memory and counters
   from the frame. One form cache can serve every state over the same
   module (the certifier shares one across its vectors); the hit counts
   are the state's, one array per form. *)

(* ids and fids are non-negative: each is its own hash *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* What a slot's static type predicts for its [value] shape. *)
type slot_kind = K_int | K_bool | K_ptr | K_float | K_none

let slot_kind (ty : Types.t) =
  match ty with
  | Types.Bool -> K_bool
  | Types.Pointer _ -> K_ptr
  | Types.Float | Types.Double -> K_float
  | t when Types.is_integer t -> K_int
  | _ -> K_none

(* a taken CFG edge: report it, run the target's phis, continue at
   position [dst]; [moves] are the phi moves as single (destination,
   source) slot pairs, in an order that runs them simultaneously, and
   [raw] says every pair's slots have one static type, so a move copies
   the encoding *)
type edge =
  | Edge of { from : Ir.block; target : Ir.block; dst : int; moves : int array; raw : bool }
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
  (* per form index: how often this state charged the run at each
     position; [||] for a form it has not called *)
  mutable run_hits : int array array;
  stats : stats;
}

(* One activation of [df]. [pc] is the position running, or -1 once the
   function returned [result]. [last] is the last position charged
   ahead, or -1. [other] is [||] until a slot is [boxed]. *)
and frame = {
  st : state;
  df : form;
  regs : Bytes.t;
  shapes : Bytes.t;
  mutable other : Eval.scalar array;
  hits : int array;
  mutable pc : int;
  mutable last : int;
  mutable result : Eval.scalar;
}

and op = frame -> unit

and form = {
  tys : Types.t array; (* each slot's static type; arguments first *)
  kinds : slot_kind array;
  regs0 : Bytes.t; (* the template *)
  shapes0 : Bytes.t;
  other0 : Eval.scalar array;
  nargs : int;
  code : op array; (* every block's instructions, entry block first *)
  codes : int array; (* Ir.opcode_code per position; 0 for none *)
  runs : run array; (* at each run's first position *)
  entry_phis : bool;
  index : int; (* in its form cache, for the states' hit counts *)
}

(* [hist] is the run's histogram as (opcode code, count) pairs *)
and run = { count : int; last_pos : int; hist : int array }

(* decoded functions by fid, for the states over [fmod] *)
and forms = { fmod : Ir.modl; by_fid : form Itbl.t; mutable decoded : int }

let new_forms m = { fmod = m; by_fid = Itbl.create 16; decoded = 0 }

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
    run_hits = [||];
    stats =
      {
        steps = 0;
        direct = Array.make (Ir.opcode_count + 1) 0;
        calls = 0;
        max_depth = 0;
        lowered = 0;
      };
  }

let output st = Vmem.Runtime.output st.rt

(* The dynamic count of each opcode, indexed by [Ir.opcode_code]: the
   runs this state charged, by their histograms, plus [stats.direct]. *)
let by_opcode st =
  let by = Array.copy st.stats.direct in
  Itbl.iter
    (fun _ df ->
      if df.index < Array.length st.run_hits then
        Array.iteri
          (fun p n ->
            if n > 0 then begin
              let h = df.runs.(p).hist in
              let j = ref 0 in
              while !j < Array.length h do
                by.(h.(!j)) <- by.(h.(!j)) + (n * h.(!j + 1));
                j := !j + 2
              done
            end)
          st.run_hits.(df.index))
    st.forms.by_fid;
  by

(* ---------- registers ----------

   Read and written unchecked: every operand and every destination of a
   decoded instruction is a slot of its function, and the frame's
   buffers are copies of the template, which has an entry per slot. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap16 : int -> int = "%bswap16"

(* the shape bytes *)
let value = '\000'
let undef = '\001'
let boxed = '\002'

let void = Eval.Undef Types.Void

let[@inline] is_value fr k = Bytes.unsafe_get fr.shapes k = value
let[@inline] payload fr k = get64u fr.regs (k lsl 3)

(* slot [k] holds the value [v] its static type predicts *)
let[@inline] put fr k v =
  set64u fr.regs (k lsl 3) v;
  Bytes.unsafe_set fr.shapes k value

let[@inline] write regs shapes k shape x =
  set64u regs (k lsl 3) x;
  Bytes.unsafe_set shapes k shape;
  true

(* Encode [v] into slot [k] of [regs]/[shapes], whose static type is
   [ty] of kind [kind]; false when [v] is [boxed], which the caller
   keeps. *)
let encode regs shapes kind ty k (v : Eval.scalar) =
  match (v, kind) with
  | Eval.I (t, x), K_int when t == ty || Types.equal t ty -> write regs shapes k value x
  | Eval.B b, K_bool -> write regs shapes k value (if b then 1L else 0L)
  | Eval.P a, K_ptr -> write regs shapes k value a
  | Eval.F (t, x), K_float when t == ty -> write regs shapes k value (Int64.bits_of_float x)
  | Eval.Undef t, _ when Types.equal t ty -> write regs shapes k undef 0L
  | _ ->
      Bytes.unsafe_set shapes k boxed;
      false

let set fr k (v : Eval.scalar) =
  let df = fr.df in
  if
    not
      (encode fr.regs fr.shapes (Array.unsafe_get df.kinds k) (Array.unsafe_get df.tys k) k v)
  then begin
    if Array.length fr.other = 0 then fr.other <- Array.make (Array.length df.tys) void;
    Array.unsafe_set fr.other k v
  end

let get fr k : Eval.scalar =
  let df = fr.df in
  match Bytes.unsafe_get fr.shapes k with
  | '\000' (* value *) -> (
      let v = payload fr k in
      match Array.unsafe_get df.kinds k with
      | K_int -> Eval.I (Array.unsafe_get df.tys k, v)
      | K_bool -> Eval.of_bool (not (Int64.equal v 0L))
      | K_ptr -> Eval.P v
      | K_float -> Eval.F (Array.unsafe_get df.tys k, Int64.float_of_bits v)
      | K_none -> assert false (* [encode] never writes [value] here *))
  | '\001' (* undef *) -> Eval.Undef (Array.unsafe_get df.tys k)
  | _ -> Array.unsafe_get fr.other k

(* [d <- s] for slots of one static type: copy the encoding *)
let[@inline] move fr d s =
  set64u fr.regs (d lsl 3) (payload fr s);
  let shape = Bytes.unsafe_get fr.shapes s in
  Bytes.unsafe_set fr.shapes d shape;
  if shape = boxed then Array.unsafe_set fr.other d (Array.unsafe_get fr.other s)

(* [Ir.normalize_int] at a width: [sh] is 64 less the type's bits, and
   the type's signedness picks sign or zero extension *)
let[@inline] norm sh signed v =
  if signed then Int64.shift_right (Int64.shift_left v sh) sh
  else Int64.shift_right_logical (Int64.shift_left v sh) sh

(* ---------- memory ----------

   [page] is [Vmem.Memory.page_of] past its fault check, with the TLB
   hit inline, as each simulator's [sim.ml] has it; the geometry is
   spelled out as constants so that it folds into the code. Callers
   take this path only for an in-page access at or above the null page;
   everything else goes through [Vmem.Memory]. *)

let page_bits = 12
let page_size = 4096
let tlb_mask = 63

let () =
  if
    Vmem.Memory.page_bits <> page_bits
    || Vmem.Memory.page_size <> page_size
    || Vmem.Memory.tlb_size <> tlb_mask + 1
  then failwith "Interp: page geometry differs from Vmem.Memory"

(* whether an access of [w] bytes at [a] takes the inline path *)
let[@inline] in_page (a : int64) w =
  Int64.to_int a land (page_size - 1) <= page_size - w && a >= 0x1000L

let[@inline] page mem a =
  let idx = Int64.to_int a lsr page_bits in
  let c = Array.unsafe_get mem.Vmem.Memory.tlb (idx land tlb_mask) in
  if c.Vmem.Memory.idx = idx then c.Vmem.Memory.page else Vmem.Memory.page_at mem idx

(* [Vmem.Memory.read_uint mem a w] and [write_uint] for an in-page [a];
   [swap] when the target's byte order is not the host's *)
let[@inline] read_word mem a w swap =
  let p = page mem a and off = Int64.to_int a land (page_size - 1) in
  if w = 8 then
    let v = get64u p off in
    if swap then bswap64 v else v
  else if w = 4 then
    let v = get32u p off in
    Int64.logand (Int64.of_int32 (if swap then bswap32 v else v)) 0xFFFF_FFFFL
  else if w = 2 then
    let v = get16u p off in
    Int64.of_int (if swap then bswap16 v else v)
  else Int64.of_int (Char.code (Bytes.unsafe_get p off))

let[@inline] write_word mem a w swap v =
  let p = page mem a and off = Int64.to_int a land (page_size - 1) in
  if w = 8 then set64u p off (if swap then bswap64 v else v)
  else if w = 4 then
    let v = Int64.to_int32 v in
    set32u p off (if swap then bswap32 v else v)
  else if w = 2 then
    let v = Int64.to_int v land 0xFFFF in
    set16u p off (if swap then bswap16 v else v)
  else Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xFF))

(* ---------- decoding helpers ---------- *)

(* constants by value and static type, bit for bit *)
module Consts = Hashtbl.Make (struct
  type t = Eval.scalar * Types.t

  let equal (a, s) (b, t) = Eval.equal a b && Types.equal s t
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
   is broken by saving one destination [d] in [scratch d] first. *)
let sequentialize ~scratch pairs =
  let pending = ref (List.filter (fun (d, s) -> d <> s) pairs) and out = ref [] in
  let reads d = List.exists (fun (_, s) -> s = d) !pending in
  while !pending <> [] do
    match List.find_opt (fun (d, _) -> not (reads d)) !pending with
    | Some ((d, s) as mv) ->
        out := s :: d :: !out;
        pending := List.filter (fun m -> m <> mv) !pending
    | None ->
        let d, _ = List.hd !pending in
        let t = scratch d in
        out := d :: t :: !out;
        pending := List.map (fun (d', s) -> (d', if s = d then t else s)) !pending
  done;
  Array.of_list (List.rev !out)

(* ---------- execution ---------- *)

let fall_through : op = fun _ -> invalid_arg "Interp: block fell through without terminator"

(* The end of a closure that does not end its run: continue with the
   next instruction's closure, unless the loop is stepping ([last] is
   this instruction). *)
let[@inline] proceed fr pos (next : op) = if pos < fr.last then next fr

(* Start the run at [fr.pc]: when the fuel covers it, charge its steps
   and its hit once and tail-call its first closure, which threads
   through the rest and ends by dispatching the next run; else step it.
   A return leaves [pc] at -1 and dispatches nothing. *)
let rec dispatch fr =
  let st = fr.st and p = fr.pc in
  let s = st.stats in
  let r = Array.unsafe_get fr.df.runs p in
  let steps = s.steps + r.count in
  if steps <= st.limit then begin
    s.steps <- steps;
    Array.unsafe_set fr.hits p (Array.unsafe_get fr.hits p + 1);
    fr.last <- r.last_pos;
    (Array.unsafe_get fr.df.code p) fr
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
      s.direct.(c) <- s.direct.(c) + 1;
      if s.steps > st.limit then raise Out_of_fuel
    end;
    fr.last <- j;
    df.code.(j) fr
  done

(* Take [e]: report it, run the phi moves, dispatch the run at its
   target. *)
let[@inline] take fr = function
  | Edge { from; target; dst; moves; raw } ->
      (match fr.st.on_edge with Some hook -> hook from target | None -> ());
      let j = ref 0 in
      while !j < Array.length moves do
        let d = Array.unsafe_get moves !j and s = Array.unsafe_get moves (!j + 1) in
        if raw then move fr d s else set fr d (get fr s);
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

(* Take back the instructions after [fr.pc] that its run charged but
   never ran. *)
let refund fr =
  let s = fr.st.stats and df = fr.df in
  for j = fr.pc + 1 to fr.last do
    let c = df.codes.(j) in
    if c > 0 then begin
      s.steps <- s.steps - 1;
      s.direct.(c) <- s.direct.(c) - 1
    end
  done

(* This state's hit counts for [df], made on its first call here. *)
let hits_of st df =
  let i = df.index in
  if i >= Array.length st.run_hits then begin
    let a = Array.make (max (i + 1) (2 * Array.length st.run_hits)) [||] in
    Array.blit st.run_hits 0 a 0 (Array.length st.run_hits);
    st.run_hits <- a
  end;
  let h = st.run_hits.(i) in
  if Array.length h > 0 then h
  else begin
    let h = Array.make (max 1 (Array.length df.code)) 0 in
    st.run_hits.(i) <- h;
    h
  end

(* ---------- inline closures ----------

   Each takes the instruction's position, its successor and [g], the
   generic closure that does the same work on boxed scalars and runs
   whenever an operand does not have the [value] shape. [a], [b], [d]
   are slots; [sh] and [signed] describe an integer type for [norm]. *)

let plain pos next (g : op) : op =
 fun fr ->
  fr.pc <- pos;
  g fr;
  proceed fr pos next

(* [Eval.int_binop o ty] for [a] of type [ty] and [b] of an integer
   type, into [d] of type [ty]. Shift counts are reduced modulo the
   width, a power of two; a zero divisor and the one overflowing signed
   quotient are left to [g]. *)
let[@inline] both fr a b = is_value fr a && is_value fr b

let int_binop o ty ~a ~b ~d pos next (g : op) : op =
  let bits = Types.bitwidth ty in
  let sh = 64 - bits and signed = Types.is_signed ty and cm = bits - 1 in
  let least = Int64.neg (Int64.shift_left 1L cm) in
  let open Int64 in
  match (o : Ir.binop) with
  | Ir.Add ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (norm sh signed (add (payload fr a) (payload fr b)))
        else g fr;
        proceed fr pos next
  | Ir.Sub ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (norm sh signed (sub (payload fr a) (payload fr b)))
        else g fr;
        proceed fr pos next
  | Ir.Mul ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (norm sh signed (mul (payload fr a) (payload fr b)))
        else g fr;
        proceed fr pos next
  | Ir.And ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (norm sh signed (logand (payload fr a) (payload fr b)))
        else g fr;
        proceed fr pos next
  | Ir.Or ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (norm sh signed (logor (payload fr a) (payload fr b)))
        else g fr;
        proceed fr pos next
  | Ir.Xor ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (norm sh signed (logxor (payload fr a) (payload fr b)))
        else g fr;
        proceed fr pos next
  | Ir.Shl ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          put fr d
            (norm sh signed (shift_left (payload fr a) (to_int (payload fr b) land cm)))
        else g fr;
        proceed fr pos next
  | Ir.Shr when signed ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          put fr d (norm sh true (shift_right (payload fr a) (to_int (payload fr b) land cm)))
        else g fr;
        proceed fr pos next
  | Ir.Shr ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          put fr d
            (norm sh false
               (shift_right_logical (norm sh false (payload fr a)) (to_int (payload fr b) land cm)))
        else g fr;
        proceed fr pos next
  | (Ir.Div | Ir.Rem) when signed ->
      let is_div = o = Ir.Div in
      fun fr ->
        fr.pc <- pos;
        (if both fr a b then begin
           let x = payload fr a and y = payload fr b in
           if equal y 0L || (equal y minus_one && equal x least) then g fr
           else put fr d (norm sh true (if is_div then div x y else rem x y))
         end
         else g fr);
        proceed fr pos next
  | Ir.Div | Ir.Rem ->
      let is_div = o = Ir.Div in
      fun fr ->
        fr.pc <- pos;
        (if both fr a b then begin
           let x = norm sh false (payload fr a) and y = norm sh false (payload fr b) in
           if equal y 0L then g fr
           else put fr d (norm sh false (if is_div then unsigned_div x y else unsigned_rem x y))
         end
         else g fr);
        proceed fr pos next

(* The end of a [setcc] with result [v]: with [fused], in a charged run,
   branch along [t] or [e] instead of writing [d]. *)
let[@inline] setcc_result fr ~fused t e d pos next v =
  if fused && pos < fr.last then begin
    fr.pc <- pos + 1;
    take fr (if v then t else e)
  end
  else begin
    put fr d (if v then 1L else 0L);
    proceed fr pos next
  end

(* The same after [g], which writes [d]. *)
let setcc_generic fr ~fused t e d pos next (g : op) =
  g fr;
  if fused && pos < fr.last then begin
    fr.pc <- pos + 1;
    take fr (if Eval.to_bool (get fr d) then t else e)
  end
  else proceed fr pos next

(* A comparison of [a] and [b], integers, bools or pointers of one kind,
   into the bool [d]: [flip] (the sign bit for an unsigned order, else
   0) turns the order into the signed one. *)
let int_setcc c ~flip ~a ~b ~d ~fused t e pos next (g : op) : op =
  let open Int64 in
  match (c : Ir.cmp) with
  | Ir.Eq ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          setcc_result fr ~fused t e d pos next (equal (payload fr a) (payload fr b))
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Ne ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          setcc_result fr ~fused t e d pos next (not (equal (payload fr a) (payload fr b)))
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Lt ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          setcc_result fr ~fused t e d pos next
            ((logxor (payload fr a) flip : int64) < logxor (payload fr b) flip)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Gt ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          setcc_result fr ~fused t e d pos next
            ((logxor (payload fr a) flip : int64) > logxor (payload fr b) flip)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Le ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          setcc_result fr ~fused t e d pos next
            ((logxor (payload fr a) flip : int64) <= logxor (payload fr b) flip)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Ge ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then
          setcc_result fr ~fused t e d pos next
            ((logxor (payload fr a) flip : int64) >= logxor (payload fr b) flip)
        else setcc_generic fr ~fused t e d pos next g

(* A float slot's value, and the payload of a result of a [single]
   (Float) or double type, rounded as [Eval.round_float] rounds it. *)
let[@inline] fl fr k = Int64.float_of_bits (payload fr k)

let[@inline] fbits single x =
  Int64.bits_of_float (if single then Int32.float_of_bits (Int32.bits_of_float x) else x)

(* [Eval.float_binop o ty] for [a] of type [ty] and [b] of a float type,
   into [d] of type [ty]. *)
let float_binop o ty ~a ~b ~d pos next (g : op) : op =
  let single = ty == Types.Float in
  match (o : Ir.binop) with
  | Ir.Add ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (fbits single (fl fr a +. fl fr b)) else g fr;
        proceed fr pos next
  | Ir.Sub ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (fbits single (fl fr a -. fl fr b)) else g fr;
        proceed fr pos next
  | Ir.Mul ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (fbits single (fl fr a *. fl fr b)) else g fr;
        proceed fr pos next
  | Ir.Div ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (fbits single (fl fr a /. fl fr b)) else g fr;
        proceed fr pos next
  | Ir.Rem ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then put fr d (fbits single (Float.rem (fl fr a) (fl fr b))) else g fr;
        proceed fr pos next
  | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr -> plain pos next g

(* A comparison of two floats into the bool [d]: OCaml's float
   comparisons are IEEE-754's, unordered on NaN as [Eval] is. *)
let float_setcc c ~a ~b ~d ~fused t e pos next (g : op) : op =
  match (c : Ir.cmp) with
  | Ir.Eq ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then setcc_result fr ~fused t e d pos next ((fl fr a : float) = fl fr b)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Ne ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then setcc_result fr ~fused t e d pos next ((fl fr a : float) <> fl fr b)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Lt ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then setcc_result fr ~fused t e d pos next ((fl fr a : float) < fl fr b)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Gt ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then setcc_result fr ~fused t e d pos next ((fl fr a : float) > fl fr b)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Le ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then setcc_result fr ~fused t e d pos next ((fl fr a : float) <= fl fr b)
        else setcc_generic fr ~fused t e d pos next g
  | Ir.Ge ->
      fun fr ->
        fr.pc <- pos;
        if both fr a b then setcc_result fr ~fused t e d pos next ((fl fr a : float) >= fl fr b)
        else setcc_generic fr ~fused t e d pos next g

(* Float loads and stores, as [Vmem.Memory.read_scalar] and
   [write_scalar] convert them: a Float is 4 bytes of single bits. *)
let float_load ~p ~d ~single ~swap pos next (g : op) : op =
  if single then fun fr ->
    fr.pc <- pos;
    (if is_value fr p then
       let a = payload fr p in
       if in_page a 4 then
         put fr d
           (Int64.bits_of_float
              (Int32.float_of_bits (Int64.to_int32 (read_word fr.st.mem a 4 swap))))
       else g fr
     else g fr);
    proceed fr pos next
  else fun fr ->
    fr.pc <- pos;
    (if is_value fr p then
       let a = payload fr p in
       if in_page a 8 then
         put fr d (Int64.bits_of_float (Int64.float_of_bits (read_word fr.st.mem a 8 swap)))
       else g fr
     else g fr);
    proceed fr pos next

let float_store ~v ~p ~single ~swap pos next (g : op) : op =
  if single then fun fr ->
    fr.pc <- pos;
    (if is_value fr p && is_value fr v then
       let a = payload fr p in
       if in_page a 4 then
         write_word fr.st.mem a 4 swap (Int64.of_int32 (Int32.bits_of_float (fl fr v)))
       else g fr
     else g fr);
    proceed fr pos next
  else fun fr ->
    fr.pc <- pos;
    (if is_value fr p && is_value fr v then
       let a = payload fr p in
       if in_page a 8 then write_word fr.st.mem a 8 swap (Int64.bits_of_float (fl fr v))
       else g fr
     else g fr);
    proceed fr pos next

(* A load of [w] bytes through the pointer [p] into [d], extended as
   [norm sh signed]; each width gets a closure of its own, with the
   width's branch folded. *)
let[@inline] load_body fr ~p ~d ~w ~sh ~signed ~swap pos next (g : op) =
  fr.pc <- pos;
  (if is_value fr p then
     let a = payload fr p in
     if in_page a w then put fr d (norm sh signed (read_word fr.st.mem a w swap)) else g fr
   else g fr);
  proceed fr pos next

let load_op ~p ~d ~w ~sh ~signed ~swap pos next g : op =
  match w with
  | 8 -> fun fr -> load_body fr ~p ~d ~w:8 ~sh ~signed ~swap pos next g
  | 4 -> fun fr -> load_body fr ~p ~d ~w:4 ~sh ~signed ~swap pos next g
  | 2 -> fun fr -> load_body fr ~p ~d ~w:2 ~sh ~signed ~swap pos next g
  | _ -> fun fr -> load_body fr ~p ~d ~w:1 ~sh ~signed ~swap pos next g

(* A store of [w] bytes of [v] through the pointer [p]. *)
let[@inline] store_body fr ~v ~p ~w ~swap pos next (g : op) =
  fr.pc <- pos;
  (if is_value fr p && is_value fr v then
     let a = payload fr p in
     if in_page a w then write_word fr.st.mem a w swap (payload fr v) else g fr
   else g fr);
  proceed fr pos next

let store_op ~v ~p ~w ~swap pos next g : op =
  match w with
  | 8 -> fun fr -> store_body fr ~v ~p ~w:8 ~swap pos next g
  | 4 -> fun fr -> store_body fr ~v ~p ~w:4 ~swap pos next g
  | 2 -> fun fr -> store_body fr ~v ~p ~w:2 ~swap pos next g
  | _ -> fun fr -> store_body fr ~v ~p ~w:1 ~swap pos next g

(* ---------- calls, traps and decoding ---------- *)

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
    let fr =
      {
        st;
        df;
        regs = Bytes.copy df.regs0;
        shapes = Bytes.copy df.shapes0;
        other = (if Array.length df.other0 = 0 then [||] else Array.copy df.other0);
        hits = hits_of st df;
        pc = 0;
        last = -1;
        result = void;
      }
    in
    for k = 0 to min (Array.length args) df.nargs - 1 do
      set fr k args.(k)
    done;
    let saved_stack = st.stack in
    let prev = st.current in
    st.current <- f.Ir.fname;
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
      let df = decode st f st.forms.decoded in
      st.forms.decoded <- st.forms.decoded + 1;
      Itbl.replace st.forms.by_fid f.Ir.fid df;
      st.stats.lowered <- st.stats.lowered + 1;
      df

and decode st (f : Ir.func) index : form =
  (* a static type resolved, or [Void] (which predicts nothing) when it
     cannot be *)
  let resolved ty = try Types.resolve st.env ty with _ -> Types.Void in
  (* each slot's static type and initial value, by slot *)
  let info = Itbl.create 64 and nslots = ref 0 in
  let add_slot ty v =
    let k = !nslots in
    Itbl.replace info k (resolved ty, v);
    incr nslots;
    k
  in
  let slot_ty k = fst (Itbl.find info k) in
  let kind k = slot_kind (slot_ty k) in
  let intlike k = match kind k with K_int | K_bool | K_ptr -> true | K_float | K_none -> false in
  let slots = Itbl.create 64 in
  List.iter
    (fun (a : Ir.arg) -> Itbl.replace slots a.Ir.aid (add_slot a.Ir.aty (Eval.Undef a.Ir.aty)))
    f.Ir.fargs;
  let nargs = !nslots in
  Ir.iter_instrs
    (fun i ->
      if has_slot i then Itbl.replace slots i.Ir.iid (add_slot i.Ir.ity (Eval.Undef i.Ir.ity)))
    f;
  let consts = Consts.create 16 in
  let reg (v : Ir.value) =
    Itbl.find_opt slots
      (match v with Ir.Vreg i -> i.Ir.iid | Ir.Varg a -> a.Ir.aid | _ -> -1)
  in
  (* an operand's slot; a constant gets one holding its value, typed
     with the operand's own type *)
  let operand (v : Ir.value) =
    match reg v with
    | Some k -> k
    | None -> (
        let c = constant_value st v in
        let ty = Ir.type_of_value v in
        let key = (c, resolved ty) in
        match Consts.find_opt consts key with
        | Some k -> k
        | None ->
            let k = add_slot ty c in
            Consts.replace consts key k;
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
  (* one scratch slot per static type, for the cycles of phi moves *)
  let scratches = ref [] in
  let scratch d =
    let ty = slot_ty d in
    match List.find_opt (fun (t, _) -> Types.equal t ty) !scratches with
    | Some (_, k) -> k
    | None ->
        let k = add_slot ty (Eval.Undef ty) in
        scratches := (ty, k) :: !scratches;
        k
  in
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
                let moves = sequentialize ~scratch pairs in
                let raw = ref true in
                for j = 0 to (Array.length moves / 2) - 1 do
                  if not (Types.equal (slot_ty moves.(2 * j)) (slot_ty moves.((2 * j) + 1)))
                  then raw := false
                done;
                Edge { from = src; target = b; dst = pos; moves; raw = !raw }
            | exception e -> Bad_phi { from = src; target = b; e }))
  in
  let label (i : Ir.instr) k () = Ir.block_of_value i.Ir.operands.(k) in
  (* the function a call names directly, found in the image once *)
  let direct (v : Ir.value) =
    match v with
    | Ir.Vfunc _ -> (
        match constant_value st v with
        | Eval.P a -> Vmem.Image.func_at st.img a
        | _ -> None
        | exception _ -> None)
    | _ -> None
  in
  let target = st.mem.Vmem.Memory.target in
  let width = Types.scalar_bytes target in
  let mask = Eval.pointer_mask st.m.Ir.target in
  let swap = (target.Target.endian = Target.Big) <> Sys.big_endian in
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
    let terms = Array.of_list (List.rev terms) in
    let g fr =
      let p = Eval.to_int64 (get fr ptr) in
      let off = ref const in
      Array.iter
        (fun (idx, scale) -> off := !off + (Int64.to_int (Eval.to_int64 (get fr idx)) * scale))
        terms;
      set fr d (Eval.P (Int64.logand (Int64.add p (Int64.of_int !off)) mask))
    in
    if not (intlike ptr && kind d = K_ptr && Array.for_all (fun (k, _) -> intlike k) terms) then
      plain pos next g
    else
      match terms with
      | [||] ->
          let const = Int64.of_int const in
          fun fr ->
            fr.pc <- pos;
            if is_value fr ptr then put fr d (Int64.logand (Int64.add (payload fr ptr) const) mask)
            else g fr;
            proceed fr pos next
      | [| (idx, scale) |] ->
          fun fr ->
            fr.pc <- pos;
            if is_value fr ptr && is_value fr idx then
              let off = const + (Int64.to_int (payload fr idx) * scale) in
              put fr d (Int64.logand (Int64.add (payload fr ptr) (Int64.of_int off)) mask)
            else g fr;
            proceed fr pos next
      | _ -> plain pos next g
  in
  let decode_instr (b : Ir.block) (i : Ir.instr) ~after pos next : op =
    let ops = i.Ir.operands in
    let nops = Array.length ops in
    let op k = operand ops.(k) in
    let ee = i.Ir.exceptions_enabled and undef = Eval.Undef i.Ir.ity in
    match i.Ir.op with
    | Ir.Binop o ->
        let a = op 0 in
        let b = op 1 in
        let d = dst i in
        let g =
          match o with
          | Ir.Div | Ir.Rem ->
              fun fr ->
                set fr d
                  (try Eval.binop o (get fr a) (get fr b) with
                  | Eval.Division_by_zero -> guard fr.st ee Division_by_zero undef
                  | Eval.Overflow -> guard fr.st ee Overflow undef)
          | _ -> fun fr -> set fr d (Eval.binop o (get fr a) (get fr b))
        in
        let ty = slot_ty d in
        if kind d = K_int && Types.equal (slot_ty a) ty && kind b = K_int then
          int_binop o ty ~a ~b ~d pos next g
        else if kind d = K_float && Types.equal (slot_ty a) ty && kind b = K_float then
          float_binop o ty ~a ~b ~d pos next g
        else plain pos next g
    | Ir.Setcc c -> (
        let ty = Ir.type_of_value ops.(0) in
        let a = op 0 in
        let b' = op 1 in
        let d = dst i in
        let g fr = set fr d (Eval.compare_scalars ty c (get fr a) (get fr b')) in
        let branches_on (br : Ir.instr) =
          br.Ir.op = Ir.Br && Array.length br.Ir.operands = 3
          && (match br.Ir.operands.(0) with Ir.Vreg j -> j == i | _ -> false)
          && uses i = 1
        in
        let setcc =
          match kind a with
          | K_int when Types.is_signed (slot_ty a) -> Some (int_setcc c ~flip:0L)
          | K_int | K_ptr -> Some (int_setcc c ~flip:Int64.min_int)
          | K_bool -> Some (int_setcc c ~flip:0L)
          | K_float -> Some (float_setcc c)
          | K_none -> None
        in
        match setcc with
        | Some setcc when kind b' = kind a && kind d = K_bool -> (
            match after with
            | Some br when branches_on br ->
                (* the branch on this result, its only use: in a charged
                   run the result goes to the branch instead of a
                   register *)
                let t = edge b (label br 1) and e = edge b (label br 2) in
                setcc ~a ~b:b' ~d ~fused:true t e pos next g
            | _ ->
                (* edges a closure that is not [fused] never takes *)
                let none = Bad_edge Exit in
                setcc ~a ~b:b' ~d ~fused:false none none pos next g)
        | _ -> plain pos next g)
    | Ir.Ret ->
        if nops = 0 then fun fr -> fr.pc <- -1
        else
          let a = op 0 in
          fun fr ->
            fr.result <- get fr a;
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
          if intlike c then fun fr ->
            fr.pc <- pos;
            let taken =
              if is_value fr c then not (Int64.equal (payload fr c) 0L)
              else Eval.to_bool (get fr c)
            in
            take fr (if taken then t else e)
          else fun fr ->
            fr.pc <- pos;
            take fr (if Eval.to_bool (get fr c) then t else e)
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
          let sel = Eval.to_int64 (get fr sel) in
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
        let direct = direct ops.(0) in
        fun fr ->
          fr.pc <- pos;
          let args = Array.map (fun k -> get fr k) args in
          (match
             match direct with
             | Some f -> call_function fr.st f args
             | None -> exec_call fr.st (Eval.to_int64 (get fr callee)) args
           with
          | v ->
              set fr d v;
              take fr normal
          | exception Unwinding -> take fr except)
    | Ir.Call ->
        let callee = op 0 in
        let args = Array.init (nops - 1) (fun k -> op (k + 1)) in
        let d = dst i in
        let direct = direct ops.(0) in
        fun fr ->
          fr.pc <- pos;
          let args = Array.map (fun k -> get fr k) args in
          let v =
            match direct with
            | Some f -> call_function fr.st f args
            | None -> exec_call fr.st (Eval.to_int64 (get fr callee)) args
          in
          if d >= 0 then set fr d v;
          fr.pc <- pos + 1;
          dispatch fr
    | Ir.Load -> (
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
        let g fr =
          set fr d
            (try
               let a = Eval.to_int64 (get fr p) in
               if a = 0L then raise (Vmem.Memory.Fault 0L);
               read fr.st.mem a
             with Vmem.Memory.Fault a -> guard fr.st ee (Memory_fault a) undef)
        in
        let fast =
          match kind d with
          | K_int when intlike p ->
              let ty = slot_ty d in
              Some (width ty, 64 - Types.bitwidth ty, Types.is_signed ty)
          | K_ptr when intlike p -> Some (width (slot_ty d), 0, false)
          | _ -> None
        in
        match (fast, kind d) with
        | Some (w, sh, signed), _ -> load_op ~p ~d ~w ~sh ~signed ~swap pos next g
        | None, K_float when intlike p ->
            float_load ~p ~d ~single:(slot_ty d == Types.Float) ~swap pos next g
        | None, _ -> plain pos next g)
    | Ir.Store ->
        let v = op 0 in
        let p = op 1 in
        let write =
          match slot_ty v with
          | ty when Types.is_integer ty || Types.is_pointer ty ->
              let w = width ty in
              fun mem a v -> Vmem.Memory.write_uint mem a w (Eval.to_int64 v)
          | _ ->
              let ty = defer (fun () -> Types.resolve st.env (Ir.type_of_value ops.(0))) in
              fun mem a v -> Vmem.Memory.write_scalar mem (force ty) a v
        in
        let g fr =
          try
            let a = Eval.to_int64 (get fr p) in
            if a = 0L then raise (Vmem.Memory.Fault 0L);
            write fr.st.mem a (get fr v)
          with Vmem.Memory.Fault a -> guard fr.st ee (Memory_fault a) ()
        in
        if intlike p && (kind v = K_int || kind v = K_ptr) then
          store_op ~v ~p ~w:(width (slot_ty v)) ~swap pos next g
        else if intlike p && kind v = K_float then
          float_store ~v ~p ~single:(slot_ty v == Types.Float) ~swap pos next g
        else plain pos next g
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
          let count = if count < 0 then 1 else Int64.to_int (Eval.to_int64 (get fr count)) in
          let size, align = force elem in
          let size = max 1 (count * size) in
          let sp = Int64.sub st.stack (Int64.of_int size) in
          let sp = Int64.mul (Int64.div sp (Int64.of_int align)) (Int64.of_int align) in
          if Int64.compare sp Vmem.Memory.heap_base < 0 then trap st (Memory_fault sp);
          st.stack <- sp;
          set fr d (Eval.P sp);
          proceed fr pos next
    | Ir.Cast -> (
        let v = op 0 and d = dst i in
        let tys =
          defer (fun () ->
              let src = Types.resolve st.env (Ir.type_of_value ops.(0)) in
              (src, Types.resolve st.env i.Ir.ity))
        in
        let g =
          match tys with
          | Ok (_, ty) when Types.is_integer ty ->
              let f = Eval.cast_to_int_for ty in
              fun fr -> set fr d (f (get fr v))
          | _ ->
              fun fr ->
                let src_ty, dst_ty = force tys in
                set fr d
                  (match Eval.cast ~src_ty ~dst_ty (get fr v) with
                  | Eval.P a -> Eval.P (Int64.logand a mask)
                  | r -> r)
        in
        match (tys, kind d) with
        | Ok _, _ when not (intlike v) -> plain pos next g
        | Ok (_, ty), K_int ->
            (* an integer, a bool as 0 or 1 and an address all extend
               from their payload *)
            let sh = 64 - Types.bitwidth ty and signed = Types.is_signed ty in
            fun fr ->
              fr.pc <- pos;
              if is_value fr v then put fr d (norm sh signed (payload fr v)) else g fr;
              proceed fr pos next
        | Ok _, K_ptr ->
            (* an unsigned integer is first zero-extended from its width *)
            let sh =
              match slot_ty v with
              | t when Types.is_integer t && not (Types.is_signed t) -> 64 - Types.bitwidth t
              | _ -> 0
            in
            fun fr ->
              fr.pc <- pos;
              if is_value fr v then put fr d (Int64.logand (norm sh false (payload fr v)) mask)
              else g fr;
              proceed fr pos next
        | _ -> plain pos next g)
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
  (* the template: every slot's initial value, encoded *)
  let nslots = !nslots in
  let tys = Array.init nslots slot_ty in
  let kinds = Array.map slot_kind tys in
  let regs0 = Bytes.make (8 * nslots) '\000' and shapes0 = Bytes.make nslots undef in
  let other0 = ref [||] in
  for k = 0 to nslots - 1 do
    let v = snd (Itbl.find info k) in
    if not (encode regs0 shapes0 kinds.(k) tys.(k) k v) then begin
      if Array.length !other0 = 0 then other0 := Array.make nslots void;
      !other0.(k) <- v
    end
  done;
  {
    tys;
    kinds;
    regs0;
    shapes0;
    other0 = !other0;
    nargs;
    code;
    codes;
    runs;
    entry_phis = Ir.block_phis (Ir.entry_block f) <> [];
    index;
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
