(* What the native code of every I-ISA shares: condition codes, operand
   widths, float operators, and the compiled function and module records
   the simulators run and LLEE caches.

   These values are marshaled (cache entries, rule tables), so the
   constructor order of [cc], [width] and [fop] and the field order of
   the records are part of the cached bytes. *)

open Llva

type cc = Eq | Ne | Lt | Gt | Le | Ge | Ltu | Gtu | Leu | Geu

let negate_cc = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Gt -> Le
  | Le -> Gt
  | Ltu -> Geu
  | Geu -> Ltu
  | Gtu -> Leu
  | Leu -> Gtu

let cc_of_cmp signed (c : Ir.cmp) =
  match (c, signed) with
  | Ir.Eq, _ -> Eq
  | Ir.Ne, _ -> Ne
  | Ir.Lt, true -> Lt
  | Ir.Gt, true -> Gt
  | Ir.Le, true -> Le
  | Ir.Ge, true -> Ge
  | Ir.Lt, false -> Ltu
  | Ir.Gt, false -> Gtu
  | Ir.Le, false -> Leu
  | Ir.Ge, false -> Geu

type width = W8 | W16 | W32 | W64

(* the width of a scalar type's values; wider than 8 bytes is [W64] *)
let width_of_type target ty =
  match Types.scalar_bytes target ty with
  | 1 -> W8
  | 2 -> W16
  | 4 -> W32
  | _ -> W64

type fop = Fadd | Fsub | Fmul | Fdiv | Frem

type 'i cfunc = {
  cf_name : string;
  code : 'i array; (* branch targets are indices into [code] *)
  nargs : int;
  frame_slots : int; (* total 8-byte slots *)
}

type 'i cmodule = {
  cm : Ir.modl;
  image : Vmem.Image.t;
  funcs : (string, 'i cfunc) Hashtbl.t;
}
