(* Structured run outcomes (paper §3.3 exception model, §4.2 offline
   cache): every execution-engine entry point returns one of these
   instead of letting guest traps escape as raw OCaml exceptions. A trap,
   an exhausted fuel budget, or a degraded launch (the lint gate refusing
   a poisoned module) must degrade the launch, never crash the
   translator — the engines contain failures, the caller decides what a
   failure is worth. *)

open Llva

type trap_kind = Vmem.Guest.trap_kind =
  | Division_by_zero
  | Overflow
  | Memory_fault of int64
  | Privilege_violation
  | Uncaught_unwind
  | Invalid_operation of string

type t =
  | Exit of int (* the guest program returned / called exit *)
  | Trapped of { kind : trap_kind; engine : string; func : string }
  | Fuel_exhausted (* the instruction budget ran out *)
  | Cache_degraded of { reason : string } (* launch refused on recorded
                                             cache state (lint verdict) *)

(* The process exit codes the CLI maps outcomes to. 134 is the
   SIGABRT-style convention for guest traps, 124 the timeout convention
   for fuel, 125 the launch-refused convention of the lint gate. *)
let exit_code = function
  | Exit c -> c
  | Trapped _ -> 134
  | Fuel_exhausted -> 124
  | Cache_degraded _ -> 125

let to_string = function
  | Exit c -> Printf.sprintf "exit %d" c
  | Trapped { kind; engine; func } ->
      Printf.sprintf "trap: %s (in %%%s, engine %s)"
        (Vmem.Guest.trap_to_string kind)
        func engine
  | Fuel_exhausted -> "fuel exhausted: instruction budget ran out"
  | Cache_degraded { reason } -> "cache degraded: " ^ reason

(* [protect ~engine ~current f] runs the guest program [f] and maps every
   way a guest can stop — normal return, exit(), a trap from any engine,
   a memory fault or division that escaped an engine's per-instruction
   handlers (e.g. inside a runtime intrinsic), an exhausted budget — into
   an outcome. [current] names the function the engine was executing when
   the trap fired (best-effort for the interpreter's trap handlers). *)
let protect ~engine ?(current = fun () -> "main") (f : unit -> int) : t =
  let trapped kind = Trapped { kind; engine; func = current () } in
  match f () with
  | c -> Exit c
  | exception Vmem.Runtime.Exit_called c -> Exit c
  | exception Vmem.Guest.Trap k -> trapped k
  | exception Vmem.Guest.Unwound -> trapped Uncaught_unwind
  | exception Vmem.Guest.Out_of_fuel -> Fuel_exhausted
  | exception Vmem.Memory.Fault a -> trapped (Memory_fault a)
  | exception Eval.Division_by_zero -> trapped Division_by_zero
  | exception Eval.Overflow -> trapped Overflow
  | exception Types.Unresolved n ->
      (* a reference to a named type the module never defines *)
      trapped (Invalid_operation ("unresolved type %" ^ n))
  | exception Vmem.Layout.Self_containing n ->
      (* a type with no size, which the verifier refuses *)
      trapped (Invalid_operation ("type %" ^ n ^ " contains itself"))
  | exception Invalid_argument msg ->
      (* e.g. Eval.cast float → pointer on an ill-typed module; must be
         contained as an outcome, never escape as an OCaml exception *)
      trapped (Invalid_operation msg)

(* ---------- direct-engine entry points ---------- *)

(* The contained counterparts of each engine's raw [run_main]: same
   launch sequence, but traps come back as outcomes and the engine state
   survives for output / statistics readout. *)

let run_main_interp ?fuel m =
  let st = Interp.create ?fuel m in
  let o =
    protect ~engine:"interp"
      ~current:(fun () -> st.Interp.current)
      (fun () -> Interp.run_main st)
  in
  (o, st)

(* Run [main] on a native state [Codegen.Machine.create] made, as the
   engine named [engine]. *)
let run_native ~engine (st : _ Codegen.Machine.state) =
  Codegen.Machine.init_stack st;
  protect ~engine
    ~current:(fun () -> Codegen.Machine.current st)
    (fun () ->
      let r = Codegen.Machine.call_function st "main" [] in
      Int64.to_int (Ir.normalize_int Types.Int r))

let run_main ?fuel (isa : 'i Codegen.Machine.isa)
    (cmod : 'i Codegen.Native.cmodule) =
  let st = Codegen.Machine.create ?fuel isa cmod in
  (run_native ~engine:isa.Codegen.Machine.name st, st)
