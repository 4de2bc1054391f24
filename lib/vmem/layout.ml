(* Data layout: how LLVA types map onto bytes for a concrete target
   configuration. This is exactly the knowledge the paper keeps out of the
   V-ISA (§3.2): getelementptr offsets, struct padding, pointer size and
   endianness are all computed here, per target. *)

open Llva

type t = { target : Target.config; env : Types.env }

let create ?(env = Types.empty_env ()) target = { target; env }
let for_module (m : Ir.modl) = { target = m.Ir.target; env = Ir.type_env m }

let rec align_of lt ty =
  match Types.resolve lt.env ty with
  | Types.Void | Types.Label -> 1
  | Types.Bool | Types.Ubyte | Types.Sbyte -> 1
  | Types.Ushort | Types.Short -> 2
  | Types.Uint | Types.Int | Types.Float -> 4
  | Types.Ulong | Types.Long | Types.Double -> 8
  | Types.Pointer _ -> lt.target.Target.ptr_size
  | Types.Array (_, elem) -> align_of lt elem
  | Types.Struct fields ->
      List.fold_left (fun a f -> max a (align_of lt f)) 1 fields
  | Types.Func _ -> lt.target.Target.ptr_size
  | Types.Named _ -> assert false

let round_up v a = (v + a - 1) / a * a

let rec size_of lt ty =
  match Types.resolve lt.env ty with
  | Types.Void | Types.Label -> 0
  | Types.Bool | Types.Ubyte | Types.Sbyte -> 1
  | Types.Ushort | Types.Short -> 2
  | Types.Uint | Types.Int | Types.Float -> 4
  | Types.Ulong | Types.Long | Types.Double -> 8
  | Types.Pointer _ -> lt.target.Target.ptr_size
  | Types.Array (n, elem) -> n * size_of lt elem
  | Types.Struct fields ->
      let off =
        List.fold_left
          (fun off f -> round_up off (align_of lt f) + size_of lt f)
          0 fields
      in
      round_up off (align_of lt (Types.Struct fields))
  | Types.Func _ -> lt.target.Target.ptr_size
  | Types.Named _ -> assert false

(* Byte offset of field [k] within a struct type. *)
let field_offset lt fields k =
  let rec go off idx = function
    | [] -> invalid_arg "Layout.field_offset: index out of range"
    | f :: rest ->
        let off = round_up off (align_of lt f) in
        if idx = k then off else go (off + size_of lt f) (idx + 1) rest
  in
  go 0 0 fields

(* The byte-stride view of a getelementptr: each step of {!Gep.walk} as
   "index × element size" or "+ field offset", in index order. *)
type 'a stride = Scaled of 'a * int | Offset of int

let view lt =
  Result.map (fun (steps, ty) ->
      ( List.map
          (function
            | Gep.Elem (e, idx) -> Scaled (idx, size_of lt e)
            | Gep.Field (fields, k) -> Offset (field_offset lt fields k))
          steps,
        ty ))

let strides lt ~const ptr_ty indexes = view lt (Gep.walk lt.env ~const ptr_ty indexes)

(* the strides of a getelementptr instruction ({!Gep.of_instr}) *)
let gep_strides lt i = view lt (Gep.of_instr lt.env i)

(* The byte offset a getelementptr adds, given the pointer operand type and
   the index list as (type, int64) pairs. Returns the offset and the
   pointee type of the result. *)
let gep_offset lt ptr_ty indexes =
  match strides lt ~const:(fun (_, n) -> Some n) ptr_ty indexes with
  | Ok (strides, ty) ->
      ( List.fold_left
          (fun off -> function
            | Scaled ((_, n), size) -> off + (Int64.to_int n * size)
            | Offset o -> off + o)
          0 strides,
        ty )
  | Error e -> invalid_arg ("Layout.gep_offset: " ^ Gep.message e)
