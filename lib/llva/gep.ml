(* The getelementptr type rule (paper §3.1), written once for the text
   resolver, the Builder and the verifier: the first index steps over
   the pointer's pointee, an array index steps into the element, a
   struct index must be an in-range constant and selects that field,
   and nothing else can be indexed. What the steps are in bytes is the
   target's business: [Vmem.Layout.strides] maps them. *)

type 'a step =
  | Elem of Types.t * 'a (* the index counts elements of this type *)
  | Field of Types.t list * int (* this field of a struct with these fields *)

type error =
  | Not_pointer of Types.t
  | Variable_field (* a struct index that is not a constant *)
  | Field_out_of_range of int64 * int (* the index, the field count *)
  | Not_indexable of Types.t

let message = function
  | Not_pointer t -> "getelementptr on non-pointer " ^ Types.to_string t
  | Variable_field -> "struct index must be a constant integer"
  | Field_out_of_range (k, n) ->
      Printf.sprintf "struct field index %Ld out of range (%d fields)" k n
  | Not_indexable t -> "cannot index into " ^ Types.to_string t

(* One step per index of a getelementptr on a pointer of type [ptr_ty],
   and the type its result points to. [const] reads an index as a
   constant, [None] when it is not one.
   @raise Types.Unresolved on a name [env] does not resolve. *)
let walk env ~const ptr_ty indexes =
  let rec go ty steps = function
    | [] -> Ok (List.rev steps, ty)
    | idx :: rest -> (
        match Types.resolve env ty with
        | Types.Array (_, e) -> go e (Elem (e, idx) :: steps) rest
        | Types.Struct fields -> (
            let n = List.length fields in
            match const idx with
            | None -> Error Variable_field
            | Some k when k < 0L || k >= Int64.of_int n ->
                Error (Field_out_of_range (k, n))
            | Some k ->
                let k = Int64.to_int k in
                go (List.nth fields k) (Field (fields, k) :: steps) rest)
        | t -> Error (Not_indexable t))
  in
  match (Types.resolve env ptr_ty, indexes) with
  | Types.Pointer elem, [] -> Ok ([], elem)
  | Types.Pointer elem, first :: rest -> go elem [ Elem (elem, first) ] rest
  | t, _ -> Error (Not_pointer t)

(* In object code a constant index is an integer constant. *)
let int_const = function
  | Ir.Const { Ir.ckind = Ir.Cint n; _ } -> Some n
  | _ -> None

(* [walk] over a getelementptr instruction's operands *)
let of_instr env (i : Ir.instr) =
  let ops = i.Ir.operands in
  walk env ~const:int_const
    (Ir.type_of_value ops.(0))
    (List.tl (Array.to_list ops))
