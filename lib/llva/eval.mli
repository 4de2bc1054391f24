(** Exact scalar semantics of LLVA arithmetic, comparison and cast
    instructions, shared by the interpreter, the constant folder and the
    machine simulators so every execution path agrees bit-for-bit.

    Integer values are stored as canonical [int64] representatives (see
    {!Ir.normalize_int}); [Float]-typed values round through 32-bit
    precision after every operation.

    Corner cases are pinned down here once for every execution path:
    shift amounts are unsigned counts reduced modulo the declared bit
    width of the operand type; signed [INT_MIN / -1] division and
    remainder raise {!Overflow} at every width; floating comparisons
    follow IEEE-754 unordered semantics (NaN makes [Eq]/[Lt]/[Gt]/[Le]/
    [Ge] false and [Ne] true). *)

type scalar =
  | B of bool
  | I of Types.t * int64
  | F of Types.t * float
  | P of int64  (** a pointer is an address in simulated memory *)
  | Undef of Types.t

exception Division_by_zero
exception Overflow

val b_true : scalar
val b_false : scalar

val of_bool : bool -> scalar
(** [b_true] or [b_false]: every boolean this module returns is one of
    these two shared values. *)

val norm : Types.t -> int64 -> scalar
(** [norm ty v] is the integer of type [ty] whose bits are [v] reduced to
    the type's width (see {!Ir.normalize_int}). *)

(** {1 Staged forms}

    Each [*_for] function examines its operator and type once and
    returns a function of the operands, which needs no match on them;
    [f_for x y a b] is [f x y a b]. The unstaged functions are written
    as the staged ones applied at once, so both are one definition. *)

val norm_for : Types.t -> int64 -> scalar
val int_binop_for : Ir.binop -> Types.t -> int64 -> int64 -> scalar
val cast_to_int_for : Types.t -> scalar -> scalar

val int_setcc_for : Ir.cmp -> Types.t -> int64 -> int64 -> scalar
(** The integer case of {!compare_scalars}: [int_setcc_for cmp ty x y]
    is [compare_scalars ty cmp (I (ty, x)) (I (ty, y))]. *)

val type_of : scalar -> Types.t
val round_float : Types.t -> float -> float

(** {1 Coercions} *)

val to_bool : scalar -> bool
val to_int64 : scalar -> int64
val to_float : scalar -> float

(** {1 Operations} *)

val int_binop : Ir.binop -> Types.t -> int64 -> int64 -> scalar
(** Integer operation at the given type's width and signedness. Shift
    amounts are reduced modulo the type's bit width (unsigned count).
    @raise Division_by_zero on a zero divisor.
    @raise Overflow on signed [INT_MIN / -1] (division or remainder). *)

val binop : Ir.binop -> scalar -> scalar -> scalar
(** Dispatch on operand kinds (integer, float, bool, pointer). *)

val compare_scalars : Types.t -> Ir.cmp -> scalar -> scalar -> scalar
(** The [setcc] instructions; signedness follows the operand type.
    Floating comparisons are IEEE-754 unordered: when either operand is
    NaN, every relation except [Ne] is false. On two integers it is
    {!int_setcc_for} at the first operand's type. *)

val cast : src_ty:Types.t -> dst_ty:Types.t -> scalar -> scalar
(** The paper's sole conversion mechanism; sign extension follows the
    source type's signedness. *)

val cast_to_int : Types.t -> scalar -> scalar
(** {!cast} to an integer type. *)

val cast_to_pointer : Types.t -> scalar -> scalar
(** {!cast} to a pointer type (before {!mask_pointer}). *)

val mask_pointer : Target.config -> int64 -> int64
(** Truncate an address to the target's pointer width (32-bit configs
    model a 32-bit address space). *)

val pointer_mask : Target.config -> int64
(** The mask {!mask_pointer} applies with [Int64.logand]. *)

val equal : scalar -> scalar -> bool
val to_string : scalar -> string
