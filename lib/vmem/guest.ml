(* How a guest program stops short of returning, the same on every
   engine: the interpreter and both simulators raise these exceptions,
   re-exported from each engine, and [Llee.Outcome] reports the same
   trap kinds. *)

type trap_kind =
  | Division_by_zero
  | Overflow (* signed INT_MIN / -1 division or remainder *)
  | Memory_fault of int64
  | Privilege_violation
  (* the last two are outcomes only; no engine raises them as a [Trap] *)
  | Uncaught_unwind
  | Invalid_operation of string (* an ill-typed operation the verifier
                                   should have refused (e.g. a float →
                                   pointer cast); contained, not crashed *)

exception Trap of trap_kind
exception Unwound (* an unwind with no enclosing invoke *)
exception Out_of_fuel

let trap_to_string = function
  | Division_by_zero -> "division by zero"
  | Overflow -> "division overflow"
  | Memory_fault a -> Printf.sprintf "memory fault at 0x%Lx" a
  | Privilege_violation -> "privilege violation"
  | Uncaught_unwind -> "uncaught unwind"
  | Invalid_operation msg -> "invalid operation: " ^ msg

(* The number a registered trap handler receives. *)
let trap_number = function
  | Division_by_zero -> 0
  | Overflow -> 0 (* x86 #DE covers both divide faults *)
  | Memory_fault _ -> 1
  | Privilege_violation -> 2
  | Uncaught_unwind | Invalid_operation _ ->
      invalid_arg "Guest.trap_number: not a trap"
