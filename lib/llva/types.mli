(** The LLVA type system (paper §3.1): primitive types with predefined
    sizes plus exactly four derived types — pointer, array, structure and
    function. [Named] types allow recursive structures (the paper's
    QuadTree) and are resolved through a module's type table. *)

type t =
  | Void
  | Bool
  | Ubyte
  | Sbyte
  | Ushort
  | Short
  | Uint
  | Int
  | Ulong
  | Long
  | Float
  | Double
  | Label  (** the type of basic-block operands *)
  | Pointer of t
  | Array of int * t  (** element count, element type *)
  | Struct of t list
  | Func of t * t list * bool  (** return type, parameters, varargs *)
  | Named of string  (** reference into the module's type table *)

(** {1 Named-type resolution} *)

type env = (string, t) Hashtbl.t
(** Environment mapping type names to definitions (see {!Ir.type_env}). *)

val empty_env : unit -> env
val env_of_typedefs : (string * t) list -> env

exception Unresolved of string

val resolve : env -> t -> t
(** Resolve [Named] references until a structural type is reached.
    @raise Unresolved on an unknown name or on names that lead back to
    themselves. *)

(** {1 Classification} *)

val is_integer : t -> bool
val is_signed : t -> bool
val is_unsigned : t -> bool
val is_fp : t -> bool
val is_pointer : t -> bool

val is_scalar : t -> bool
(** True for the types a virtual register may hold: bool, integers,
    floating point, pointers. *)

val is_first_class : t -> bool
(** Alias of {!is_scalar}. *)

val bitwidth : t -> int
(** Width in bits of a bool or integer type.
    @raise Invalid_argument otherwise. *)

val scalar_bytes : Target.config -> t -> int
(** Byte width of a scalar; pointers depend on the target. *)

val signed_variant : t -> t
(** [signed_variant Uint = Int]; identity on non-integers. *)

val unsigned_variant : t -> t

(** {1 Equality and printing} *)

val equal : t -> t -> bool
(** Structural equality; [Named] compares by name. *)

val equal_resolved : env -> t -> t -> bool
(** Equality up to named-type resolution; a name that does not resolve
    equals only itself. *)

val to_string : t -> string
(** The assembly syntax, e.g. ["{ double, [4 x %QT*] }"]. *)

val pp : Format.formatter -> t -> unit

(** {1 Accessors} *)

val pointee : env -> t -> t
(** The element type behind a pointer type.
    @raise Invalid_argument if not a pointer. *)

val function_signature : env -> t -> t * t list * bool
(** The (return, params, varargs) reachable through a function type or a
    pointer to one. *)
