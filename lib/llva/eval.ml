(* Exact scalar semantics of LLVA arithmetic, comparison and cast
   instructions. Shared by the interpreter, the constant folder and the
   machine simulators so that all execution paths agree bit-for-bit.

   Integer values are stored as canonical int64 representatives (see
   [Ir.normalize_int]); [Float]-typed values are rounded through 32-bit
   precision after every operation.

   Corner-case semantics, fixed here once for every execution path:
   - Shift amounts are interpreted as unsigned counts and reduced modulo
     the *declared* bit width of the operand type, so [shl x:int, 40]
     shifts by 8 — consistent with the lint shift-range model, not the
     63-bit mask of the underlying int64 representative.
   - Signed division and remainder raise [Overflow] on INT_MIN / -1 at
     every width (the one in-range divisor that overflows the quotient;
     x86 idiv delivers #DE for it, so the trap is part of the contract).
   - Floating comparisons follow IEEE-754 unordered semantics: when
     either operand is NaN, Eq/Lt/Gt/Le/Ge are false and Ne is true. *)

type scalar =
  | B of bool
  | I of Types.t * int64
  | F of Types.t * float
  | P of int64 (* a pointer is an address in simulated memory *)
  | Undef of Types.t

exception Division_by_zero
exception Overflow (* signed INT_MIN / -1 division or remainder *)

(* The two booleans. Every boolean result below is one of these shared
   values, so comparisons, bool casts and bool loads allocate nothing. *)
let b_true = B true
let b_false = B false
let of_bool b = if b then b_true else b_false

let type_of = function
  | B _ -> Types.Bool
  | I (ty, _) -> ty
  | F (ty, _) -> ty
  | P _ -> Types.Pointer Types.Sbyte (* representative pointer type *)
  | Undef ty -> ty

let round_float ty v =
  if Types.equal ty Types.Float then Int32.float_of_bits (Int32.bits_of_float v)
  else v

let to_bool = function
  | B b -> b
  | I (_, v) -> not (Int64.equal v 0L)
  | P a -> not (Int64.equal a 0L)
  | F (_, v) -> v <> 0.0
  | Undef _ -> false

let to_int64 = function
  | B b -> if b then 1L else 0L
  | I (_, v) -> v
  | P a -> a
  | F (_, v) -> Int64.of_float v
  | Undef _ -> 0L

let to_float = function
  | F (_, v) -> v
  | I (ty, v) ->
      if Types.is_signed ty then Int64.to_float v
      else if Int64.compare v 0L >= 0 then Int64.to_float v
      else Int64.to_float v +. 18446744073709551616.0 (* 2^64 *)
  | B b -> if b then 1.0 else 0.0
  | P a -> Int64.to_float a
  | Undef _ -> 0.0

(* ---------- staged integer operations ----------

   [Ir.normalize_int ty] in one of three shapes, chosen once per type:
   the identity at 64 bits, a sign extension (shift left, then
   arithmetic shift right) for narrower signed types, a mask for
   narrower unsigned ones and [Bool]. The [*_for] functions examine
   their type and operator once and return a function of the operands;
   the unstaged functions below are those applied at once. *)

type width = Full | Sext of int (* shift *) | Zext of int64 (* mask *)

let width_of ty =
  let w = Types.bitwidth ty in
  if w = 64 then Full
  else if Types.is_signed ty then Sext (64 - w)
  else Zext (Int64.sub (Int64.shift_left 1L w) 1L)

let[@inline] normalize w v =
  match w with
  | Full -> v
  | Sext s -> Int64.shift_right (Int64.shift_left v s) s
  | Zext m -> Int64.logand v m

(* The integer of type [ty] whose canonical representative is [v]
   reduced to the type's width. A type that is not an integer type
   raises when the function is applied, as [Ir.normalize_int] does. *)
let norm_for ty : int64 -> scalar =
  match width_of ty with
  | w -> fun v -> I (ty, normalize w v)
  | exception Invalid_argument _ -> fun v -> I (ty, Ir.normalize_int ty v)

let norm ty v = norm_for ty v

(* Smallest signed value at the type's width, as a canonical
   (sign-extended) representative. *)
let min_signed ty = Int64.neg (Int64.shift_left 1L (Types.bitwidth ty - 1))

(* Shift amounts are unsigned counts reduced modulo the declared bit
   width — NOT masked to the 6 bits of the int64 representative. *)
let shift_amount bits b = Int64.to_int (Int64.unsigned_rem b bits)

let int_binop_for op ty : int64 -> int64 -> scalar =
  match width_of ty with
  | exception (Invalid_argument _ as e) -> fun _ _ -> raise e
  | w -> (
      let open Int64 in
      let signed = Types.is_signed ty in
      (* unsigned division and right shifts operate on the canonical
         bits within the width, which [normalize w] keeps *)
      let bits = of_int (Types.bitwidth ty) in
      match op with
      | Ir.Add -> fun a b -> I (ty, normalize w (add a b))
      | Ir.Sub -> fun a b -> I (ty, normalize w (sub a b))
      | Ir.Mul -> fun a b -> I (ty, normalize w (mul a b))
      | Ir.Div when signed ->
          let min = min_signed ty in
          fun a b ->
            if equal b 0L then raise Division_by_zero
              (* INT_MIN / -1 overflows the quotient at every width *)
            else if equal b minus_one && equal a min then raise Overflow
            else I (ty, normalize w (div a b))
      | Ir.Div ->
          fun a b ->
            if equal b 0L then raise Division_by_zero
            else I (ty, normalize w (unsigned_div (normalize w a) (normalize w b)))
      | Ir.Rem when signed ->
          let min = min_signed ty in
          fun a b ->
            if equal b 0L then raise Division_by_zero
              (* x86 idiv faults on INT_MIN rem -1 too (same #DE delivery) *)
            else if equal b minus_one && equal a min then raise Overflow
            else I (ty, normalize w (rem a b))
      | Ir.Rem ->
          fun a b ->
            if equal b 0L then raise Division_by_zero
            else I (ty, normalize w (unsigned_rem (normalize w a) (normalize w b)))
      | Ir.And -> fun a b -> I (ty, normalize w (logand a b))
      | Ir.Or -> fun a b -> I (ty, normalize w (logor a b))
      | Ir.Xor -> fun a b -> I (ty, normalize w (logxor a b))
      | Ir.Shl -> fun a b -> I (ty, normalize w (shift_left a (shift_amount bits b)))
      | Ir.Shr when signed ->
          fun a b -> I (ty, normalize w (shift_right a (shift_amount bits b)))
      | Ir.Shr ->
          fun a b ->
            I (ty, normalize w (shift_right_logical (normalize w a) (shift_amount bits b))))

let int_binop op ty a b = int_binop_for op ty a b

let float_binop op ty a b =
  let r =
    match op with
    | Ir.Add -> a +. b
    | Ir.Sub -> a -. b
    | Ir.Mul -> a *. b
    | Ir.Div -> a /. b
    | Ir.Rem -> Float.rem a b
    | _ -> invalid_arg "Eval.float_binop: bitwise op on float"
  in
  F (ty, round_float ty r)

let binop op a b =
  match (a, b) with
  | I (ty, x), I (_, y) -> int_binop op ty x y
  | F (ty, x), F (_, y) -> float_binop op ty x y
  | B x, B y -> (
      match op with
      | Ir.And -> of_bool (x && y)
      | Ir.Or -> of_bool (x || y)
      | Ir.Xor -> of_bool (x <> y)
      | Ir.Add -> of_bool (x <> y)
      | Ir.Mul -> of_bool (x && y)
      | _ -> invalid_arg "Eval.binop: unsupported bool op")
  | P x, I (_, y) -> (
      (* pointer +/- integer arises only from lowered code; keep it exact *)
      match op with
      | Ir.Add -> P (Int64.add x y)
      | Ir.Sub -> P (Int64.sub x y)
      | _ -> invalid_arg "Eval.binop: pointer arithmetic")
  | P x, P y -> (
      match op with
      | Ir.Sub -> I (Types.Long, Int64.sub x y)
      | _ -> invalid_arg "Eval.binop: pointer/pointer")
  | Undef ty, _ | _, Undef ty -> Undef ty
  | _ -> invalid_arg "Eval.binop: mixed operand kinds"

(* Whether relation [cmp] holds of a three-way comparison result. *)
let holds cmp c =
  match cmp with
  | Ir.Eq -> c = 0
  | Ir.Ne -> c <> 0
  | Ir.Lt -> c < 0
  | Ir.Gt -> c > 0
  | Ir.Le -> c <= 0
  | Ir.Ge -> c >= 0

(* [of_bool (holds cmp c)] for [c] the comparison of two integers of
   type [ty], signed or unsigned by the type, with [cmp] and [ty]
   examined once. Flipping the sign bit turns the unsigned order into
   the signed one. *)
let int_setcc_for cmp ty : int64 -> int64 -> scalar =
  let f = if Types.is_signed ty then 0L else Int64.min_int in
  let open Int64 in
  match cmp with
  | Ir.Eq -> fun a b -> of_bool ((a : int64) = b)
  | Ir.Ne -> fun a b -> of_bool ((a : int64) <> b)
  | Ir.Lt -> fun a b -> of_bool ((logxor a f : int64) < logxor b f)
  | Ir.Gt -> fun a b -> of_bool ((logxor a f : int64) > logxor b f)
  | Ir.Le -> fun a b -> of_bool ((logxor a f : int64) <= logxor b f)
  | Ir.Ge -> fun a b -> of_bool ((logxor a f : int64) >= logxor b f)

let compare_ordered ty cmp a b =
  match (a, b) with
  | I (ity, x), I (_, y) -> int_setcc_for cmp ity x y
  | _ ->
      let c =
        match (a, b) with
        | F (_, x), F (_, y) -> Float.compare x y
        | B x, B y -> Bool.compare x y
        | P x, P y -> Int64.unsigned_compare x y
        | P _, I _ | I _, P _ -> invalid_arg "Eval.compare: pointer vs int"
        | Undef _, _ | _, Undef _ -> 0
        | _ -> invalid_arg ("Eval.compare: mixed kinds at " ^ Types.to_string ty)
      in
      of_bool (holds cmp c)

let compare_scalars ty cmp a b =
  match (a, b) with
  | F (_, x), F (_, y) when Float.is_nan x || Float.is_nan y ->
      (* IEEE-754 unordered semantics: comparisons against NaN are
         false, except Ne which is true. [Float.compare]'s total order
         must not be used here — it would make NaN == NaN hold. *)
      of_bool (cmp = Ir.Ne)
  | _ -> compare_ordered ty cmp a b

(* The paper's cast instruction: the sole conversion mechanism. Sign
   extension follows the *source* type's signedness (original LLVM 1.x
   semantics). [cast_to_int] and [cast_to_pointer] are its integer and
   pointer destinations. *)
let cast_to_int_for ty : scalar -> scalar =
  (* the bits a value of each other shape starts from *)
  let bits = function
    | B b -> if b then 1L else 0L
    | I (_, x) -> x
    | P a -> a
    | F (_, x) ->
        (* fp -> int truncates toward zero *)
        Int64.of_float (if Float.is_nan x then 0.0 else x)
    | Undef _ -> 0L
  in
  match width_of ty with
  | exception Invalid_argument _ -> fun v -> norm ty (bits v)
  | w ->
      let zero = I (ty, normalize w 0L) and one = I (ty, normalize w 1L) in
      fun v ->
        match v with
        | I (_, x) -> I (ty, normalize w x)
        | B b -> if b then one else zero
        | v -> I (ty, normalize w (bits v))

let cast_to_int ty v = cast_to_int_for ty v

let cast_to_pointer dst_ty v =
  match v with
  | P a -> P a
  | I (ity, x) ->
      (* truncate/extend through the source width; addresses are
         unsigned *)
      let bits =
        if Types.is_signed ity then x
        else Ir.normalize_int (Types.unsigned_variant ity) x
      in
      P bits
  | B b -> P (if b then 1L else 0L)
  | Undef _ -> Undef dst_ty
  | F _ -> invalid_arg "Eval.cast: float to pointer"

let cast ~src_ty ~dst_ty v =
  match dst_ty with
  | Types.Bool -> of_bool (to_bool v)
  | ty when Types.is_integer ty -> cast_to_int ty v
  | Types.Float | Types.Double -> (
      let fty = dst_ty in
      match v with
      | F (_, x) -> F (fty, round_float fty x)
      | I (sty, x) ->
          let f =
            if Types.is_signed sty then Int64.to_float x
            else if Int64.compare x 0L >= 0 then Int64.to_float x
            else Int64.to_float x +. 18446744073709551616.0
          in
          F (fty, round_float fty f)
      | B b -> F (fty, if b then 1.0 else 0.0)
      | P a -> F (fty, Int64.to_float a)
      | Undef _ -> Undef fty)
  | Types.Pointer _ -> cast_to_pointer dst_ty v
  | _ ->
      invalid_arg
        (Printf.sprintf "Eval.cast: %s -> %s" (Types.to_string src_ty)
           (Types.to_string dst_ty))

(* Mask a pointer value to the target's pointer width, modelling a 32-bit
   address space on 32-bit configurations. [pointer_mask] is the mask
   itself, for callers that apply it many times. *)
let pointer_mask (target : Target.config) =
  if target.ptr_size = 4 then 0xFFFFFFFFL else -1L

let mask_pointer target a = Int64.logand a (pointer_mask target)

let equal a b =
  match (a, b) with
  | B x, B y -> x = y
  | I (tx, x), I (ty, y) -> Types.equal tx ty && Int64.equal x y
  | F (tx, x), F (ty, y) ->
      Types.equal tx ty && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | P x, P y -> Int64.equal x y
  | Undef tx, Undef ty -> Types.equal tx ty
  | _ -> false

let to_string = function
  | B b -> string_of_bool b
  | I (ty, v) ->
      if Types.is_signed ty then Int64.to_string v
      else Printf.sprintf "%Lu" v
  | F (_, v) -> string_of_float v
  | P a -> Printf.sprintf "0x%Lx" a
  | Undef ty -> "undef:" ^ Types.to_string ty
