(* The LLVA type system (paper §3.1): primitive types with predefined sizes
   plus exactly four derived types (pointer, array, structure, function).
   Named types allow recursive structures such as the paper's QuadTree. *)

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
  | Label
  | Pointer of t
  | Array of int * t (* element count, element type *)
  | Struct of t list
  | Func of t * t list * bool (* return type, parameter types, varargs *)
  | Named of string

(* Environment resolving named types; populated from a module's typedefs. *)
type env = (string, t) Hashtbl.t

let empty_env () : env = Hashtbl.create 16

let env_of_typedefs defs : env =
  let env = Hashtbl.create 16 in
  List.iter (fun (name, ty) -> Hashtbl.replace env name ty) defs;
  env

exception Unresolved of string

(* Resolve one level of naming: the result is never [Named _]. A chain
   of more names than [env] defines has come round to one of them again:
   [Unresolved] names the name it is at. *)
let rec resolve_after env hops ty =
  match ty with
  | Named n -> (
      match Hashtbl.find_opt env n with
      | Some ty' when hops < Hashtbl.length env -> resolve_after env (hops + 1) ty'
      | _ -> raise (Unresolved n))
  | _ -> ty

let resolve env ty = resolve_after env 0 ty

let is_integer = function
  | Ubyte | Sbyte | Ushort | Short | Uint | Int | Ulong | Long -> true
  | _ -> false

let is_signed = function Sbyte | Short | Int | Long -> true | _ -> false

let is_unsigned = function
  | Ubyte | Ushort | Uint | Ulong | Bool -> true
  | _ -> false

let is_fp = function Float | Double -> true | _ -> false
let is_pointer = function Pointer _ -> true | _ -> false

(* Scalar values are the only things virtual registers may hold. *)
let is_scalar = function
  | Bool | Ubyte | Sbyte | Ushort | Short | Uint | Int | Ulong | Long | Float
  | Double | Pointer _ ->
      true
  | _ -> false

let is_first_class ty = is_scalar ty

(* Width in bits of an integer or bool type. *)
let bitwidth = function
  | Bool -> 1
  | Ubyte | Sbyte -> 8
  | Ushort | Short -> 16
  | Uint | Int -> 32
  | Ulong | Long -> 64
  | _ -> invalid_arg "Types.bitwidth: not an integer type"

(* Byte width of an integer/bool/fp type; pointers depend on the target. *)
let scalar_bytes target ty =
  match ty with
  | Bool | Ubyte | Sbyte -> 1
  | Ushort | Short -> 2
  | Uint | Int | Float -> 4
  | Ulong | Long | Double -> 8
  | Pointer _ -> target.Target.ptr_size
  | _ -> invalid_arg "Types.scalar_bytes: not a scalar type"

(* Signed counterpart of an integer type (used by cast semantics). *)
let signed_variant = function
  | Ubyte -> Sbyte
  | Ushort -> Short
  | Uint -> Int
  | Ulong -> Long
  | ty -> ty

let unsigned_variant = function
  | Sbyte -> Ubyte
  | Short -> Ushort
  | Int -> Uint
  | Long -> Ulong
  | ty -> ty

(* Structural equality; [Named] compares by name. *)
let rec equal a b =
  match (a, b) with
  | Void, Void | Bool, Bool | Ubyte, Ubyte | Sbyte, Sbyte | Ushort, Ushort
  | Short, Short | Uint, Uint | Int, Int | Ulong, Ulong | Long, Long
  | Float, Float | Double, Double | Label, Label ->
      true
  | Pointer a, Pointer b -> equal a b
  | Array (n, a), Array (m, b) -> n = m && equal a b
  | Struct a, Struct b -> List.length a = List.length b && List.for_all2 equal a b
  | Func (ra, pa, va), Func (rb, pb, vb) ->
      va = vb && equal ra rb
      && List.length pa = List.length pb
      && List.for_all2 equal pa pb
  | Named a, Named b -> String.equal a b
  | ( ( Void | Bool | Ubyte | Sbyte | Ushort | Short | Uint | Int | Ulong
      | Long | Float | Double | Label | Pointer _ | Array _ | Struct _
      | Func _ | Named _ ),
      _ ) ->
      false

(* Equality up to named-type resolution (one level at a time, with a fuel
   bound so mutually recursive names cannot loop forever); a name that
   does not resolve equals only itself. *)
let equal_resolved env a b =
  let rec go fuel a b =
    if fuel = 0 then equal a b
    else
      match (a, b) with
      | Named _, _ | _, Named _ -> (
          match (resolve env a, resolve env b) with
          | a', b' -> go (fuel - 1) a' b'
          | exception Unresolved _ -> equal a b)
      | _ -> equal a b
  in
  go 64 a b

let rec to_string = function
  | Void -> "void"
  | Bool -> "bool"
  | Ubyte -> "ubyte"
  | Sbyte -> "sbyte"
  | Ushort -> "ushort"
  | Short -> "short"
  | Uint -> "uint"
  | Int -> "int"
  | Ulong -> "ulong"
  | Long -> "long"
  | Float -> "float"
  | Double -> "double"
  | Label -> "label"
  | Pointer t -> to_string t ^ "*"
  | Array (n, t) -> Printf.sprintf "[%d x %s]" n (to_string t)
  | Struct ts -> "{ " ^ String.concat ", " (List.map to_string ts) ^ " }"
  | Func (ret, params, varargs) ->
      let ps = List.map to_string params in
      let ps = if varargs then ps @ [ "..." ] else ps in
      Printf.sprintf "%s (%s)" (to_string ret) (String.concat ", " ps)
  | Named n -> "%" ^ n

let pp fmt ty = Format.pp_print_string fmt (to_string ty)

(* The element type a pointer of type [ty] points to. *)
let pointee env ty =
  match resolve env ty with
  | Pointer t -> t
  | t -> invalid_arg ("Types.pointee: not a pointer: " ^ to_string t)

(* The function signature reachable through a value of type [ty] (either a
   function type directly or a pointer to one). *)
let function_signature env ty =
  match resolve env ty with
  | Func (r, p, v) -> (r, p, v)
  | Pointer t -> (
      match resolve env t with
      | Func (r, p, v) -> (r, p, v)
      | t -> invalid_arg ("Types.function_signature: " ^ to_string t))
  | t -> invalid_arg ("Types.function_signature: " ^ to_string t)
