(* Data layout: how LLVA types map onto bytes for a concrete target
   configuration. This is exactly the knowledge the paper keeps out of the
   V-ISA (§3.2): getelementptr offsets, struct padding, pointer size and
   endianness are all computed here, per target. *)

open Llva

type t = { target : Target.config; env : Types.env }

let create ?(env = Types.empty_env ()) target = { target; env }
let for_module (m : Ir.modl) = { target = m.Ir.target; env = Ir.type_env m }

(* A type that contains itself by value has no size. One path down a
   type's fields and elements that expands more names than the env
   defines has expanded one of them twice, so the walks below stop
   there and raise [Self_containing] with that name, where the
   recursion would otherwise run until the stack overflows. *)
exception Self_containing of string

let () =
  Printexc.register_printer (function
    | Self_containing n -> Some ("type %" ^ n ^ " contains itself")
    | _ -> None)

(* [ty] resolved, and the names expanded on the path down to it *)
let expand lt hops ty =
  let r = Types.resolve lt.env ty in
  match ty with
  | Types.Named n when hops >= Hashtbl.length lt.env -> raise (Self_containing n)
  | Types.Named _ -> (r, hops + 1)
  | _ -> (r, hops)

let rec align_at lt hops ty =
  match expand lt hops ty with
  | (Types.Void | Types.Label), _ -> 1
  | (Types.Bool | Types.Ubyte | Types.Sbyte), _ -> 1
  | (Types.Ushort | Types.Short), _ -> 2
  | (Types.Uint | Types.Int | Types.Float), _ -> 4
  | (Types.Ulong | Types.Long | Types.Double), _ -> 8
  | Types.Pointer _, _ -> lt.target.Target.ptr_size
  | Types.Array (_, elem), hops -> align_at lt hops elem
  | Types.Struct fields, hops ->
      List.fold_left (fun a f -> max a (align_at lt hops f)) 1 fields
  | Types.Func _, _ -> lt.target.Target.ptr_size
  | Types.Named _, _ -> assert false

let align_of lt ty = align_at lt 0 ty
let round_up v a = (v + a - 1) / a * a

let rec size_at lt hops ty =
  match expand lt hops ty with
  | (Types.Void | Types.Label), _ -> 0
  | (Types.Bool | Types.Ubyte | Types.Sbyte), _ -> 1
  | (Types.Ushort | Types.Short), _ -> 2
  | (Types.Uint | Types.Int | Types.Float), _ -> 4
  | (Types.Ulong | Types.Long | Types.Double), _ -> 8
  | Types.Pointer _, _ -> lt.target.Target.ptr_size
  | Types.Array (n, elem), hops -> n * size_at lt hops elem
  | Types.Struct fields, hops ->
      let off =
        List.fold_left
          (fun off f -> round_up off (align_at lt hops f) + size_at lt hops f)
          0 fields
      in
      round_up off (List.fold_left (fun a f -> max a (align_at lt hops f)) 1 fields)
  | Types.Func _, _ -> lt.target.Target.ptr_size
  | Types.Named _, _ -> assert false

let size_of lt ty = size_at lt 0 ty

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
