(* Structured run outcomes (paper §3.3 exception model, §4.2 offline
   cache): every execution-engine entry point returns one of these
   instead of letting guest traps escape as raw OCaml exceptions. A trap,
   an exhausted fuel budget, or a degraded launch (the lint gate refusing
   a poisoned module) must degrade the launch, never crash the
   translator — the engines contain failures, the caller decides what a
   failure is worth. *)

open Llva

type trap_kind =
  | Division_by_zero
  | Overflow (* signed INT_MIN / -1 division or remainder *)
  | Memory_fault of int64
  | Privilege_violation
  | Uncaught_unwind
  | Invalid_operation of string (* an ill-typed operation the verifier
                                   should have refused (e.g. a float →
                                   pointer cast); contained, not crashed *)

type t =
  | Exit of int (* the guest program returned / called exit *)
  | Trapped of { kind : trap_kind; engine : string; func : string }
  | Fuel_exhausted (* the instruction budget ran out *)
  | Cache_degraded of { reason : string } (* launch refused on recorded
                                             cache state (lint verdict) *)

let trap_to_string = function
  | Division_by_zero -> "division by zero"
  | Overflow -> "division overflow"
  | Memory_fault a -> Printf.sprintf "memory fault at 0x%Lx" a
  | Privilege_violation -> "privilege violation"
  | Uncaught_unwind -> "uncaught unwind"
  | Invalid_operation msg -> "invalid operation: " ^ msg

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
      Printf.sprintf "trap: %s (in %%%s, engine %s)" (trap_to_string kind)
        func engine
  | Fuel_exhausted -> "fuel exhausted: instruction budget ran out"
  | Cache_degraded { reason } -> "cache degraded: " ^ reason

(* Each engine library declares its own structurally-identical trap
   type; map them all into the shared one. *)
let of_interp_trap = function
  | Interp.Division_by_zero -> Division_by_zero
  | Interp.Overflow -> Overflow
  | Interp.Memory_fault a -> Memory_fault a
  | Interp.Privilege_violation -> Privilege_violation

let of_x86_trap = function
  | X86lite.Sim.Division_by_zero -> Division_by_zero
  | X86lite.Sim.Overflow -> Overflow
  | X86lite.Sim.Memory_fault a -> Memory_fault a
  | X86lite.Sim.Privilege_violation -> Privilege_violation

let of_sparc_trap = function
  | Sparclite.Sim.Division_by_zero -> Division_by_zero
  | Sparclite.Sim.Overflow -> Overflow
  | Sparclite.Sim.Memory_fault a -> Memory_fault a
  | Sparclite.Sim.Privilege_violation -> Privilege_violation

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
  | exception Interp.Trap k -> trapped (of_interp_trap k)
  | exception Interp.Unwound -> trapped Uncaught_unwind
  | exception Interp.Out_of_fuel -> Fuel_exhausted
  | exception X86lite.Sim.Trap k -> trapped (of_x86_trap k)
  | exception X86lite.Sim.Unwound -> trapped Uncaught_unwind
  | exception X86lite.Sim.Out_of_fuel -> Fuel_exhausted
  | exception Sparclite.Sim.Trap k -> trapped (of_sparc_trap k)
  | exception Sparclite.Sim.Unwound -> trapped Uncaught_unwind
  | exception Sparclite.Sim.Out_of_fuel -> Fuel_exhausted
  | exception Vmem.Memory.Fault a -> trapped (Memory_fault a)
  | exception Eval.Division_by_zero -> trapped Division_by_zero
  | exception Eval.Overflow -> trapped Overflow
  | exception Types.Unresolved n ->
      (* a reference to a named type the module never defines *)
      trapped (Invalid_operation ("unresolved type %" ^ n))
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

let run_main_x86 ?fuel cmod =
  let st = X86lite.Sim.create ?fuel cmod in
  X86lite.Sim.init_stack st;
  let o =
    protect ~engine:"x86lite"
      ~current:(fun () -> X86lite.Sim.current st)
      (fun () ->
        Int64.to_int
          (Ir.normalize_int Types.Int (X86lite.Sim.call_function st "main" [])))
  in
  (o, st)

let run_main_sparc ?fuel cmod =
  let st = Sparclite.Sim.create ?fuel cmod in
  Sparclite.Sim.init_stack st;
  let o =
    protect ~engine:"sparclite"
      ~current:(fun () -> Sparclite.Sim.current st)
      (fun () ->
        Int64.to_int
          (Ir.normalize_int Types.Int
             (Sparclite.Sim.call_function st "main" [])))
  in
  (o, st)
