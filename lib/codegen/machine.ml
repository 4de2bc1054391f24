(* One native machine: everything the I-ISA simulators do per call, per
   trap, per run and per launch, written once for every I-ISA. The
   machine state, the decoded-code cache, calls into native code, the
   runtime and the intrinsics, trap delivery to a registered handler,
   the return and unwind frame walks, and the run loop that charges and
   fuel-checks a threaded run once are all here; an I-ISA supplies one
   ['i isa] record, stored in the state.

   What runs per guest instruction stays in each simulator: [exec], the
   one semantic definition of its instructions, and [decode_instr],
   which specializes each instruction into a closure that does its work
   and tail-calls its successor's closure. Those closures read and write
   the register file unboxed, through helpers that must be inlined into
   them; libraries are built with [-opaque] in dune's default profile
   and the compiler has no flambda, so nothing is inlined across
   modules and a helper here would box its [int64] result on every
   instruction.

   Each function is decoded once, on its first entry, into threaded
   straight-line runs. A run ends at a branch, call, return, unwind or
   trap instruction ([isa.ends_run]); [run.(pc)] executes everything from
   [pc] to the end of its run. Per pc, [count] and [cost] hold the
   instruction count and cycle sum from there to the end of the run, so
   [dispatch] charges a run once and compares it against the fuel limit
   once, wherever it is entered. When less fuel is left than the run
   needs, [step] runs one instruction at a time through [isa.exec],
   counting and charging each before the budget check, so a budget stops
   at the instruction that exhausts it.

   Suffix refunds: a closure that can raise stores its successor pc
   first. The loop's one handler per run then takes back the count and
   cycles of the instructions after it, which were charged but never
   ran. A trap with a registered handler raises the private [Deliver]
   instead of [Trap]; the loop runs the handler subcall only after the
   refund, so the handler sees exact counts.

   Decoded functions live in a [cache] keyed by name and checked by
   physical equality on the [Native.cfunc], so SMC redirects and
   translate-on-demand see new code. Closures capture no state: one
   cache can serve many states over the same code (the certifier shares
   one across its vectors). They never reach storage: cache entries
   marshal the [Native.cfunc], never its decoded form. *)

open Llva
include Vmem.Guest

(* a trap for the registered handler; only the run loop catches it *)
exception Deliver of trap_kind

(* a return from the function entered last; only [run_until_empty]
   catches it *)
exception Returned

(* What a state executes: a function as threaded runs. [run.(pc)]
   executes from [pc] to the end of its run; [count.(pc)] and
   [cost.(pc)] are the instructions and cycles that takes. *)
type 'i decoded = {
  cf : 'i Native.cfunc;
  run : 'i op array;
  count : int array;
  cost : int array;
}

(* A suspended caller. An invoke also snapshots the caller's registers:
   unwinding to its handler restores them, as an unwinder restoring each
   discarded frame's callee-saved registers (or the caller's register
   window) would. *)
and 'i frame = {
  fr_code : 'i decoded;
  fr_ret_pc : int;
  fr_except : int; (* invoke handler pc, or -1 *)
  fr_regs : Bytes.t; (* integer registers at the invoke; empty otherwise *)
  fr_fregs : float array;
}

(* The register file [regs] holds integer register r at byte 8*r, then
   the two flag operands; [flag_kind] says what the flag operands hold,
   in the I-ISA's own numbering. *)
and 'i state = {
  cmod : 'i Native.cmodule;
  mem : Vmem.Memory.t;
  big_endian : bool;
  rt : Vmem.Runtime.t;
  regs : Bytes.t;
  fregs : float array;
  mutable flag_kind : int;
  mutable frames : 'i frame list;
  (* native frames below the current one, counting those suspended under
     a trap-handler subcall; llva.stack.depth reads [depth + 1] *)
  mutable depth : int;
  mutable code : 'i decoded;
  mutable pc : int;
  mutable cycles : int;
  mutable icount : int;
  limit : int; (* the instruction budget; max_int = unlimited *)
  mutable trap_handler : string option;
  mutable privileged : bool;
  redirects : (string, string) Hashtbl.t; (* SMC redirections *)
  (* pluggable translate-on-demand (LLEE): returns native code for a
     function name; default looks in the compiled module *)
  mutable lookup : 'i state -> string -> 'i Native.cfunc option;
  cache : 'i cache; (* decoded functions, see [enter] *)
  isa : 'i isa;
}

(* an instruction, decoded and threaded to its successor; the run loop
   has already counted and charged it *)
and 'i op = 'i state -> unit

(* decoded functions by name, valid while [cf] is physically the code
   a lookup returns *)
and 'i cache = (string, 'i decoded) Hashtbl.t

(* What an I-ISA supplies. [exec] runs one instruction with [pc] already
   past it; [decode_instr pc i next] is the closure for [i] at [pc] that
   continues with [next] unless [i] ends a run. The calling convention
   is the rest: where [call_function] and the trap handler's subcall put
   their arguments ([set_args]) and read the result ([result]); where
   runtime and intrinsic calls read their arguments ([read_arg], with the
   return address pushed) and leave an integer result ([set_ret]; a float
   result goes to float register 0 on every I-ISA); and the
   return-address push and pop around a call ([push_ret], [pop_ret];
   [exec]'s return pops by itself before [return_to_caller]). *)
and 'i isa = {
  name : string; (* for error messages *)
  nregs : int;
  nfregs : int;
  stack_regs : int * int; (* the stack and frame registers *)
  cycles_of : 'i -> int;
  ends_run : 'i -> bool;
  decode_instr : int -> 'i -> 'i op -> 'i op;
  exec : 'i state -> 'i -> unit;
  set_args : 'i state -> int64 list -> unit;
  result : 'i state -> int64;
  read_arg : 'i state -> int -> int64;
  set_ret : 'i state -> int64 -> unit;
  push_ret : 'i state -> unit;
  pop_ret : 'i state -> unit;
}

let new_cache () : 'i cache = Hashtbl.create 64

(* Deeper native call chains are an error, not a host stack overflow. *)
let max_depth = 50_000

let default_lookup st name = Hashtbl.find_opt st.cmod.Native.funcs name

let create ?(fuel = -1) ?(cache = new_cache ()) (isa : 'i isa)
    (cmod : 'i Native.cmodule) : 'i state =
  let mem = cmod.Native.image.Vmem.Image.mem in
  let none =
    { Native.cf_name = "<none>"; code = [||]; nargs = 0; frame_slots = 0 }
  in
  {
    cmod;
    mem;
    big_endian = mem.Vmem.Memory.target.Target.endian = Target.Big;
    rt = Vmem.Runtime.create mem;
    regs = Bytes.make ((8 * isa.nregs) + 16) '\000';
    fregs = Array.make isa.nfregs 0.0;
    flag_kind = 0;
    frames = [];
    depth = 0;
    code = { cf = none; run = [||]; count = [||]; cost = [||] };
    pc = 0;
    cycles = 0;
    icount = 0;
    limit = (if fuel < 0 then max_int else fuel);
    trap_handler = None;
    privileged = false;
    redirects = Hashtbl.create 4;
    lookup = default_lookup;
    cache;
    isa;
  }

(* the function executing (or that was executing when a trap fired) *)
let current st = st.code.cf.Native.cf_name

let output st = Vmem.Runtime.output st.rt

(* Both stack registers at the top of the stack: the launch state. *)
let init_stack st =
  let s, f = st.isa.stack_regs in
  Bytes.set_int64_ne st.regs (s lsl 3) Vmem.Memory.stack_top;
  Bytes.set_int64_ne st.regs (f lsl 3) Vmem.Memory.stack_top

(* the integer registers, without the flag operands *)
let int_regs st = Bytes.sub st.regs 0 (8 * st.isa.nregs)

(* the function a call to [name] reaches after SMC redirection *)
let redirected st name =
  if Hashtbl.length st.redirects = 0 then name
  else match Hashtbl.find_opt st.redirects name with Some r -> r | None -> name

(* A condition code over integer flags, resolved at decode time: the
   sign-bit flip that turns an unsigned order into a signed one, and
   whether it holds when a < b, a = b, a > b. *)
let cc_parts : Native.cc -> int64 * bool * bool * bool = function
  | Eq -> (0L, false, true, false)
  | Ne -> (0L, true, false, true)
  | Lt -> (0L, true, false, false)
  | Gt -> (0L, false, false, true)
  | Le -> (0L, true, true, false)
  | Ge -> (0L, false, true, true)
  | Ltu -> (Int64.min_int, true, false, false)
  | Gtu -> (Int64.min_int, false, false, true)
  | Leu -> (Int64.min_int, true, true, false)
  | Geu -> (Int64.min_int, false, true, true)

(* ---------- returns and unwinds ---------- *)

(* A return, once the I-ISA has popped its return address: resume the
   caller, or end [run_until_empty] at the bottom frame. *)
let return_to_caller st =
  match st.frames with
  | [] -> raise Returned
  | f :: rest ->
      st.frames <- rest;
      st.depth <- st.depth - 1;
      st.code <- f.fr_code;
      st.pc <- f.fr_ret_pc

(* An unwind: walk the frame stack to the nearest invoke and resume at
   its handler with the registers it snapshotted, or raise [Unwound]. *)
let unwind st =
  let rec walk frames popped =
    match frames with
    | [] -> raise Unwound
    | f :: rest ->
        if f.fr_except >= 0 then begin
          st.frames <- rest;
          st.depth <- st.depth - popped;
          st.code <- f.fr_code;
          st.pc <- f.fr_except;
          Bytes.blit f.fr_regs 0 st.regs 0 (Bytes.length f.fr_regs);
          Array.blit f.fr_fregs 0 st.fregs 0 (Array.length f.fr_fregs)
        end
        else walk rest (popped + 1)
  in
  walk st.frames 1

(* ---------- traps ---------- *)

(* Raise a guest trap. With a handler registered, the run loop delivers
   it (see [deliver]) once the run's counts are exact. *)
let deliver_trap st kind : unit =
  if Option.is_some st.trap_handler then raise (Deliver kind)
  else raise (Trap kind)

(* Run the registered handler for [kind], once. If the handler returns,
   end the program with the trap; if it unwinds into an invoke, carry on
   there. *)
let rec deliver st kind =
  match st.trap_handler with
  | Some hname -> (
      st.trap_handler <- None;
      match st.lookup st hname with
      | Some hcf ->
          if not (run_subcall st hcf [ Int64.of_int (trap_number kind); 0L ])
          then raise (Trap kind)
      | None -> raise (Trap kind))
  | None -> raise (Trap kind)

(* Run the trap handler [cf] as a nested call, with the interrupted
   function one more frame below it, and restore the interrupted state
   afterwards (the integer registers, not the flags). An unwind out of
   the handler continues as an unwind in the interrupted function: to
   the nearest invoke among its frames, and then [run_subcall] is true,
   or, with none there, out of the handler as an uncaught unwind. *)
and run_subcall st (cf : 'i Native.cfunc) (args : int64 list) =
  let saved_regs = int_regs st in
  let saved_frames = st.frames and saved_depth = st.depth in
  let saved_code = st.code and saved_pc = st.pc in
  let restore () =
    Bytes.blit saved_regs 0 st.regs 0 (Bytes.length saved_regs);
    st.frames <- saved_frames;
    st.depth <- saved_depth;
    st.code <- saved_code;
    st.pc <- saved_pc
  in
  st.isa.set_args st args;
  st.isa.push_ret st;
  st.frames <- [];
  st.depth <- saved_depth + 1;
  enter st cf;
  match run_until_empty st with
  | () ->
      restore ();
      false
  | exception Unwound when List.exists (fun f -> f.fr_except >= 0) saved_frames
    ->
      restore ();
      unwind st;
      true

(* ---------- calls ---------- *)

and addr_to_name st (addr : int64) =
  match Vmem.Image.func_at st.cmod.Native.image addr with
  | Some f -> f.Ir.fname
  | None -> raise (Trap (Memory_fault addr))

(* runtime and intrinsic functions, with the return address pushed *)
and external_call st name =
  if Intrinsics.is_intrinsic name then intrinsic_call st name
  else if Vmem.Runtime.is_known name then
    match Vmem.Runtime.call_words st.rt name (st.isa.read_arg st) with
    | Eval.I (_, v) -> st.isa.set_ret st v
    | Eval.P a -> st.isa.set_ret st a
    | Eval.B b -> st.isa.set_ret st (if b then 1L else 0L)
    | Eval.F (_, f) -> st.fregs.(0) <- f
    | Eval.Undef _ -> ()
  else invalid_arg (st.isa.name ^ " sim: undefined external " ^ name)

and intrinsic_call st name =
  match name with
  | "llva.trap.register" ->
      st.trap_handler <- Some (addr_to_name st (st.isa.read_arg st 0))
  | "llva.smc.replace" ->
      let from_n = addr_to_name st (st.isa.read_arg st 0) in
      let to_n = addr_to_name st (st.isa.read_arg st 1) in
      Hashtbl.replace st.redirects from_n to_n
  | "llva.stack.depth" -> st.isa.set_ret st (Int64.of_int (st.depth + 1))
  | "llva.priv.set" ->
      st.privileged <- not (Int64.equal (st.isa.read_arg st 0) 0L)
  | other when Intrinsics.is_privileged other ->
      if not st.privileged then deliver_trap st Privilege_violation
  | _ -> invalid_arg (st.isa.name ^ " sim: unknown intrinsic " ^ name)

(* A call to [name] returning to [ret_pc], with [except] the invoke
   handler pc or -1. Native code is entered; runtime and intrinsic
   functions execute inline, between the return-address push and pop. *)
and do_call st name ~except ~ret_pc =
  let name = redirected st name in
  match st.lookup st name with
  | Some cf ->
      st.frames <-
        {
          fr_code = st.code;
          fr_ret_pc = ret_pc;
          fr_except = except;
          fr_regs = (if except >= 0 then int_regs st else Bytes.empty);
          fr_fregs = (if except >= 0 then Array.copy st.fregs else [||]);
        }
        :: st.frames;
      st.depth <- st.depth + 1;
      if st.depth > max_depth then
        invalid_arg (st.isa.name ^ " sim: call stack overflow");
      st.isa.push_ret st;
      enter st cf
  | None ->
      st.isa.push_ret st;
      external_call st name;
      st.isa.pop_ret st;
      st.pc <- ret_pc

(* start executing [cf] at its first instruction, decoding it first if
   this state's cache has no current decoded form of it *)
and enter st cf =
  let code =
    match Hashtbl.find_opt st.cache cf.Native.cf_name with
    | Some d when d.cf == cf -> d
    | _ ->
        let d = decode st.isa cf in
        Hashtbl.replace st.cache cf.Native.cf_name d;
        d
  in
  st.code <- code;
  st.pc <- 0

(* ---------- the run loop ---------- *)

(* Thread [cf]'s code into runs, from the last instruction back. A run
   that reaches the end of the code without a terminator leaves [pc]
   past it, where the loop's next bounds check fails. *)
and decode isa (cf : 'i Native.cfunc) : 'i decoded =
  let code = cf.Native.code in
  let n = Array.length code in
  let fall_off st = st.pc <- n in
  let run = Array.make n fall_off in
  let count = Array.make n 0 and cost = Array.make n 0 in
  for k = n - 1 downto 0 do
    let i = code.(k) in
    let last = k = n - 1 || isa.ends_run i in
    run.(k) <-
      isa.decode_instr k i (if k = n - 1 then fall_off else run.(k + 1));
    count.(k) <- (if last then 1 else 1 + count.(k + 1));
    cost.(k) <- (isa.cycles_of i + if last then 0 else cost.(k + 1))
  done;
  { cf; run; count; cost }

(* The loop's one step: the whole run at [pc] when the fuel covers it,
   charged up front, else one instruction through [step]. *)
and dispatch st =
  let code = st.code and pc = st.pc in
  let icount = st.icount + code.count.(pc) in
  if icount <= st.limit then begin
    st.icount <- icount;
    st.cycles <- st.cycles + Array.unsafe_get code.cost pc;
    try (Array.unsafe_get code.run pc) st with e -> abort_run st code pc e
  end
  else step st

(* A run entered at [pc] stopped early: the instruction before [st.pc]
   raised [e]. Refund the instructions after it, which were charged but
   never ran, then deliver a trap to the handler or pass [e] on. *)
and abort_run st code pc e =
  let k = st.pc in
  if st.code == code && k > pc && k < pc + code.count.(pc) then begin
    st.icount <- st.icount - code.count.(k);
    st.cycles <- st.cycles - code.cost.(k)
  end;
  match e with Deliver kind -> deliver st kind | e -> raise e

(* One instruction through [exec]. Counting and charging it precede the
   budget check, so the instruction that exhausts the fuel is counted
   but not executed. *)
and step st =
  let pc = st.pc in
  let i = st.code.cf.Native.code.(pc) in
  let n = st.icount + 1 in
  st.icount <- n;
  st.cycles <- st.cycles + st.isa.cycles_of i;
  if n > st.limit then raise Out_of_fuel;
  st.pc <- pc + 1;
  try st.isa.exec st i with Deliver kind -> deliver st kind

(* Run until the function entered last returns. *)
and run_until_empty st =
  try
    while true do
      dispatch st
    done
  with Returned -> ()

(* ---------- entry points ---------- *)

let call_function st name (int_args : int64 list) : int64 =
  match st.lookup st (redirected st name) with
  | None -> invalid_arg (st.isa.name ^ " sim: cannot start in external " ^ name)
  | Some cf ->
      st.isa.set_args st int_args;
      st.isa.push_ret st;
      st.frames <- [];
      st.depth <- 0;
      enter st cf;
      run_until_empty st;
      st.isa.result st

let run_main ?fuel isa (cmod : 'i Native.cmodule) =
  let st = create ?fuel isa cmod in
  init_stack st;
  let code =
    match call_function st "main" [] with
    | v -> Int64.to_int (Ir.normalize_int Types.Int v)
    | exception Vmem.Runtime.Exit_called c -> c
  in
  (code, st)
