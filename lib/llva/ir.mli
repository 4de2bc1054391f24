(** The LLVA in-memory IR (paper §3.1): an infinite, typed virtual
    register file in SSA form, functions as explicit CFGs of basic
    blocks, and exactly the paper's 28 instructions.

    Instructions, blocks, functions and globals are mutable records with
    unique integer ids. Def-use chains are maintained incrementally:
    operand mutation must go through {!set_operand} (or helpers built on
    it) so the use lists stay consistent. *)

(** {1 Opcodes} *)

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmp = Eq | Ne | Lt | Gt | Le | Ge

(** Operand conventions, with [operands] layouts:
    - [Binop]/[Setcc]: [[|a; b|]]
    - [Ret]: [[||]] or [[|v|]]
    - [Br]: [[|dest|]] or [[|cond; iftrue; iffalse|]]
    - [Mbr]: [[|v; default; case0; dest0; ...|]]
    - [Invoke]: [[|callee; normal; except; args...|]]
    - [Load]: [[|ptr|]]; [Store]: [[|v; ptr|]]
    - [Getelementptr]: [[|ptr; idx...|]]
    - [Alloca]: [[||]] or [[|count|]] (result type is pointer-to-element)
    - [Cast]: [[|v|]] (result type is the target type)
    - [Call]: [[|callee; args...|]]
    - [Phi]: [[|v0; block0; v1; block1; ...|]] *)
type opcode =
  | Binop of binop
  | Setcc of cmp
  | Ret
  | Br
  | Mbr
  | Invoke
  | Unwind
  | Load
  | Store
  | Getelementptr
  | Alloca
  | Cast
  | Call
  | Phi

(** {1 Constants and values} *)

type const = { cty : Types.t; ckind : ckind }

and ckind =
  | Cbool of bool
  | Cint of int64  (** canonical per {!normalize_int} *)
  | Cfloat of float
  | Cnull
  | Czero  (** zero-initializer for any type *)
  | Carray of const list
  | Cstruct of const list
  | Cstring of string  (** shorthand for [n x sbyte] data *)
  | Cglobal_ref of string  (** address of a module-level symbol by name *)

type value =
  | Const of const
  | Vreg of instr  (** the SSA value an instruction produces *)
  | Varg of arg
  | Vglobal of global
  | Vfunc of func
  | Vblock of block  (** a label operand *)
  | Vundef of Types.t

and use = { user : instr; uidx : int }

and instr = {
  iid : int;
  mutable iname : string;  (** SSA register name; [""] if unnamed *)
  mutable op : opcode;
  mutable operands : value array;
  mutable ity : Types.t;  (** result type; [Void] when none *)
  mutable iparent : block option;
  mutable exceptions_enabled : bool;  (** paper §3.3 *)
  mutable iuses : use list;
}

and block = {
  blid : int;
  mutable bname : string;
  mutable instrs : instr list;  (** terminator last *)
  mutable bparent : func option;
  mutable buses : use list;
}

and arg = {
  aid : int;
  mutable aname : string;
  mutable aty : Types.t;
  mutable aparent : func option;
  mutable auses : use list;
}

and func = {
  fid : int;
  mutable fname : string;
  mutable freturn : Types.t;
  mutable fvarargs : bool;
  mutable fargs : arg list;
  mutable fblocks : block list;  (** entry first; [[]] = declaration *)
  mutable fparent : modl option;
  mutable fuses : use list;
}

and global = {
  gid : int;
  mutable gname : string;
  mutable gty : Types.t;  (** pointee type; the value has type [gty*] *)
  mutable ginit : const option;  (** [None] for external declarations *)
  mutable gconst : bool;
  mutable gparent : modl option;
  mutable guses : use list;
}

and modl = {
  mutable mname : string;
  mutable typedefs : (string * Types.t) list;
  mutable globals : global list;
  mutable funcs : func list;
  mutable target : Target.config;
}

val next_id : unit -> int

(** {1 Constants} *)

val normalize_int : Types.t -> int64 -> int64
(** Truncate to the type's width and re-extend per its signedness, giving
    the canonical stored representative. *)

val const_int : Types.t -> int64 -> value
val const_bool : bool -> value
val const_float : Types.t -> float -> value
val const_null : Types.t -> value
val const_zero : Types.t -> value
val const_string : string -> value
val undef : Types.t -> value

(** {1 Typing and equality} *)

val type_of_value : value -> Types.t
val func_type : func -> Types.t

val value_equal : value -> value -> bool
(** Physical identity for IR objects, structural for constants. *)

(** {1 Use lists} *)

val add_use : value -> use -> unit
val drop_use : value -> use -> unit

val set_operand : instr -> int -> value -> unit
(** Replace one operand, keeping use lists consistent. *)

val register_operand_uses : instr -> unit
(** Record uses for all current operands (after bulk operand writes). *)

val unregister_operand_uses : instr -> unit
val uses_of : value -> use list
val has_uses : value -> bool

val replace_all_uses_with : value -> value -> unit
(** RAUW: rewrite every use of the first value into the second. *)

(** {1 Construction} *)

val default_exceptions_enabled : opcode -> bool
(** True for [Load], [Store], [Binop Div], [Binop Rem] (paper §3.3). *)

val mk_instr : ?name:string -> opcode -> value array -> Types.t -> instr
val mk_block : ?name:string -> unit -> block
val mk_arg : ?name:string -> Types.t -> arg

val mk_func :
  name:string ->
  return:Types.t ->
  params:(string * Types.t) list ->
  ?varargs:bool ->
  unit ->
  func

val mk_global :
  name:string ->
  ty:Types.t ->
  ?init:const ->
  ?constant:bool ->
  unit ->
  global

val mk_module : ?name:string -> ?target:Target.config -> unit -> modl

(** {1 Structural edits} *)

val append_block : func -> block -> unit
val entry_block : func -> block
val append_instr : block -> instr -> unit
val prepend_instr : block -> instr -> unit
val insert_before : block -> before:instr -> instr -> unit

val remove_instr : instr -> unit
(** Detach from its block and drop its operand uses; uses {e of} the
    instruction are the caller's responsibility (see {!erase_instr}). *)

val remove_instrs : block -> (instr -> bool) -> unit
(** {!remove_instr} of every instruction of the block that the predicate
    holds, in block order, with one pass over the block. *)

val erase_instr : instr -> unit
(** {!remove_instr} after RAUW'ing remaining uses to [undef]. *)

val remove_block : block -> unit
val add_func : modl -> func -> unit
val add_global : modl -> global -> unit
val add_typedef : modl -> string -> Types.t -> unit
val find_func : modl -> string -> func option
val find_global : modl -> string -> global option

val type_env : modl -> Types.env
(** Named-type resolution environment built from the typedefs. *)

val is_declaration : func -> bool

(** {1 CFG} *)

val is_terminator : instr -> bool
val terminator : block -> instr option
val block_of_value : value -> block

val successors : block -> block list
(** Successor blocks named by the terminator (may contain duplicates for
    a conditional branch with equal targets). *)

val predecessors : block -> block list
(** Distinct predecessor blocks, from the label use lists. *)

(** {1 Phi helpers} *)

val phi_incoming : instr -> (value * block) list
val phi_set_incoming : instr -> (value * block) list -> unit
val phi_value_for_block : instr -> block -> value option
val block_phis : block -> instr list
val phi_replace_pred : block -> old_pred:block -> new_pred:block -> unit
val phi_remove_pred : block -> block -> unit

(** {1 Call helpers} *)

val call_callee : instr -> value
val call_args : instr -> value list
val mbr_cases : instr -> (int64 * block) list

(** {1 Iteration} *)

val iter_instrs : (instr -> unit) -> func -> unit
val fold_instrs : ('a -> instr -> 'a) -> 'a -> func -> 'a
val instr_count : func -> int
val module_instr_count : modl -> int

(** {1 Opcode names and numbering} *)

val binop_name : binop -> string
val cmp_name : cmp -> string
val opcode_name : opcode -> string

val opcode_code : opcode -> int
(** Fixed 1..{!opcode_count} numbering used by the object-code encoding. *)

val opcode_count : int
(** The number of opcodes, 28. An array indexed by {!opcode_code} needs
    [opcode_count + 1] entries. *)

val opcode_of_code : int -> opcode
val all_opcodes : opcode list
