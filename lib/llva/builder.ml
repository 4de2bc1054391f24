(* A positioned instruction builder over the LLVA IR, in the style of
   LLVM's IRBuilder. All typed construction goes through here; each emit
   function checks the operand types it can check locally (the verifier
   re-checks whole functions). *)

open Ir

type t = {
  mutable block : block option;
  env : Types.env; (* named-type resolution for the enclosing module *)
  mutable name_counter : int;
}

let create m = { block = None; env = Ir.type_env m; name_counter = 0 }

let create_no_module () =
  { block = None; env = Types.empty_env (); name_counter = 0 }

let position_at_end b builder = builder.block <- Some b

let insertion_block builder =
  match builder.block with
  | Some b -> b
  | None -> invalid_arg "Builder: no insertion block set"

let fresh_name builder prefix =
  builder.name_counter <- builder.name_counter + 1;
  String.concat "." [ prefix; string_of_int builder.name_counter ]

let insert builder i =
  append_instr (insertion_block builder) i;
  i

let emit ?name builder op operands ty =
  let name =
    match name with
    | Some n -> n
    | None -> if Types.equal ty Types.Void then "" else fresh_name builder "tmp"
  in
  Vreg (insert builder (mk_instr ~name op (Array.of_list operands) ty))

(* ---------- arithmetic and logic ---------- *)

let check_same what a b =
  let ta = type_of_value a and tb = type_of_value b in
  if not (Types.equal ta tb) then
    invalid_arg
      (Printf.sprintf "Builder.%s: operand types differ: %s vs %s" what
         (Types.to_string ta) (Types.to_string tb))

let binop ?name builder op a b =
  (match op with
  | Shl | Shr ->
      (* shift amount is ubyte in LLVA *)
      if not (Types.equal (type_of_value b) Types.Ubyte) then
        invalid_arg "Builder: shift amount must be ubyte"
  | _ -> check_same (binop_name op) a b);
  emit ?name builder (Binop op) [ a; b ] (type_of_value a)

let add ?name b x y = binop ?name b Add x y
let sub ?name b x y = binop ?name b Sub x y
let mul ?name b x y = binop ?name b Mul x y
let div ?name b x y = binop ?name b Div x y
let rem ?name b x y = binop ?name b Rem x y
let and_ ?name b x y = binop ?name b And x y
let or_ ?name b x y = binop ?name b Or x y
let xor ?name b x y = binop ?name b Xor x y
let shl ?name b x y = binop ?name b Shl x y
let shr ?name b x y = binop ?name b Shr x y

let setcc ?name builder cmp a b =
  check_same (cmp_name cmp) a b;
  emit ?name builder (Setcc cmp) [ a; b ] Types.Bool

let seteq ?name b x y = setcc ?name b Eq x y
let setne ?name b x y = setcc ?name b Ne x y
let setlt ?name b x y = setcc ?name b Lt x y
let setgt ?name b x y = setcc ?name b Gt x y
let setle ?name b x y = setcc ?name b Le x y
let setge ?name b x y = setcc ?name b Ge x y

(* ---------- memory ---------- *)

let alloca ?name ?count builder elem_ty =
  let operands = match count with None -> [] | Some c -> [ c ] in
  emit ?name builder Alloca operands (Types.Pointer elem_ty)

(* The result type of a getelementptr on a pointer of type [ptr_ty]
   ({!Gep.walk}). *)
let gep_result_type env ptr_ty indexes =
  match Gep.walk env ~const:Gep.int_const ptr_ty indexes with
  | Ok (_, ty) -> Types.Pointer ty
  | Error e -> invalid_arg ("gep: " ^ Gep.message e)

let getelementptr ?name builder ptr indexes =
  let ty = gep_result_type builder.env (type_of_value ptr) indexes in
  emit ?name builder Getelementptr (ptr :: indexes) ty

let load ?name builder ptr =
  let elem = Types.pointee builder.env (type_of_value ptr) in
  if not (Types.is_scalar (Types.resolve builder.env elem)) then
    invalid_arg ("Builder.load: non-scalar load of " ^ Types.to_string elem);
  emit ?name builder Load [ ptr ] elem

let store builder v ptr =
  let elem = Types.pointee builder.env (type_of_value ptr) in
  if not (Types.equal_resolved builder.env (type_of_value v) elem) then
    invalid_arg
      (Printf.sprintf "Builder.store: storing %s into %s*"
         (Types.to_string (type_of_value v))
         (Types.to_string elem));
  ignore (emit builder Store [ v; ptr ] Types.Void)

(* ---------- control flow ---------- *)

let ret builder v =
  ignore
    (emit builder Ret (match v with None -> [] | Some v -> [ v ]) Types.Void)

let br builder dest = ignore (emit builder Br [ Vblock dest ] Types.Void)

let cond_br builder cond iftrue iffalse =
  if not (Types.equal (type_of_value cond) Types.Bool) then
    invalid_arg "Builder.cond_br: condition must be bool";
  ignore (emit builder Br [ cond; Vblock iftrue; Vblock iffalse ] Types.Void)

let mbr builder v ~default cases =
  let case_ops =
    List.concat_map (fun (c, b) -> [ const_int (type_of_value v) c; Vblock b ]) cases
  in
  ignore (emit builder Mbr ([ v; Vblock default ] @ case_ops) Types.Void)

let unwind builder = ignore (emit builder Unwind [] Types.Void)

(* ---------- calls ---------- *)

let call ?name builder callee args =
  let ret_ty, param_tys, varargs =
    Types.function_signature builder.env (type_of_value callee)
  in
  let nparams = List.length param_tys in
  if List.length args < nparams || ((not varargs) && List.length args > nparams)
  then invalid_arg "Builder.call: arity mismatch";
  List.iteri
    (fun i arg ->
      match List.nth_opt param_tys i with
      | Some pty ->
          if not (Types.equal_resolved builder.env (type_of_value arg) pty) then
            invalid_arg
              (Printf.sprintf "Builder.call: arg %d has type %s, expected %s" i
                 (Types.to_string (type_of_value arg))
                 (Types.to_string pty))
      | None -> ())
    args;
  emit ?name builder Call (callee :: args) ret_ty

let invoke ?name builder callee args ~normal ~except =
  let ret_ty, _, _ = Types.function_signature builder.env (type_of_value callee) in
  emit ?name builder Invoke
    ((callee :: Vblock normal :: Vblock except :: []) @ args)
    ret_ty

(* ---------- misc ---------- *)

let cast ?name builder v dst_ty =
  emit ?name builder Cast [ v ] dst_ty

let phi ?name builder ty incoming =
  let operands = List.concat_map (fun (v, b) -> [ v; Vblock b ]) incoming in
  emit ?name builder Phi operands ty

(* Phis must precede non-phis: place at block front. *)
let phi_at_front ?name builder ty incoming =
  let name = match name with Some n -> n | None -> fresh_name builder "phi" in
  let operands =
    Array.of_list (List.concat_map (fun (v, b) -> [ v; Vblock b ]) incoming)
  in
  let i = mk_instr ~name Phi operands ty in
  prepend_instr (insertion_block builder) i;
  Vreg i
