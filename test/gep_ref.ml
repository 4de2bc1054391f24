(* The getelementptr offset walk [Vmem.Layout.gep_offset] had before
   the type walk and the byte strides were written once ([Gep.walk],
   [Vmem.Layout.strides]), kept as the reference they are checked
   against. It walks the pointee type index by index on its own. *)

open Llva

(* The byte offset a getelementptr adds, given the pointer operand type and
   the index list as (type, int64) pairs. Returns the offset and the
   pointee type of the result. *)
let gep_offset lt ptr_ty indexes =
  let env = lt.Vmem.Layout.env in
  let elem = Types.pointee env ptr_ty in
  match indexes with
  | [] -> (0, elem)
  | (_, first) :: rest ->
      let off0 = Int64.to_int first * Vmem.Layout.size_of lt elem in
      let rec walk off ty = function
        | [] -> (off, ty)
        | (_, idx) :: rest -> (
            match Types.resolve env ty with
            | Types.Array (_, e) ->
                walk (off + (Int64.to_int idx * Vmem.Layout.size_of lt e)) e rest
            | Types.Struct fields ->
                let k = Int64.to_int idx in
                let fty =
                  match List.nth_opt fields k with
                  | Some f -> f
                  | None -> invalid_arg "Layout.gep_offset: bad field index"
                in
                walk (off + Vmem.Layout.field_offset lt fields k) fty rest
            | t ->
                invalid_arg
                  ("Layout.gep_offset: cannot index into " ^ Types.to_string t))
      in
      walk off0 elem rest
