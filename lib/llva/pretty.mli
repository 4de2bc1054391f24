(** Textual LLVA assembly printer, following the paper's Fig. 2 syntax.
    Output round-trips through {!Resolve.parse_module}. Within a function
    every value and block receives a unique printed name; an instruction
    whose ExceptionsEnabled attribute differs from its opcode default
    carries an explicit ["@ee(bool)"] suffix. *)

val typed_const : Ir.const -> string
(** ["int 42"], ["[ int 1, int 2 ]"], ... *)

val same_const : Ir.const -> Ir.const -> bool
(** Whether two constants print alike under {!typed_const}, decided
    without printing: equal types, and floats bit for bit except that
    NaNs of one sign are all alike. *)

val hash_const : Ir.const -> int
(** A hash that agrees with {!same_const}. *)

val func_to_string : Ir.func -> string
(** A whole function definition (or a [declare] line). *)

val global_to_string : Ir.global -> string

val module_to_string : Ir.modl -> string
(** The full module: header comment, target flags, typedefs, globals,
    functions. *)
