(** The LLVA verifier: structural well-formedness, the strict per-opcode
    type rules of paper §3.1 ("no mixed-type operations, no implicit
    coercion"), phi/predecessor agreement, and SSA dominance (every
    definition dominates its uses). *)

val verify_module : Ir.modl -> string list
(** All problems found, as human-readable messages; [[]] means the module
    is well-formed. *)

val verify_function : Ir.func -> string list
(** Check one function (named types resolve through its parent module). *)

val dominance : Ir.func -> int -> int -> bool
(** [dominance f d u]: whether block [d] dominates block [u] of [f], a
    function with a body, blocks numbered in [f.fblocks] order, as the
    SSA dominance check decides it. Unreachable blocks are included: one that no edge reaches is
    dominated by itself alone, one on an unreachable cycle by every
    block. *)

exception Invalid of string list

val assert_valid : Ir.modl -> unit
(** @raise Invalid if the module does not verify. *)
