(* Alias analysis over LLVA pointers.

   The paper (§3.3, §5.1) argues that the V-ISA's type information, SSA and
   explicit CFG enable "sophisticated alias analysis algorithms in the
   translator". This module provides the must/may-alias queries the
   optimizer needs:

   - base-object disambiguation: two pointers rooted at distinct stack
     allocations, or at a stack allocation vs. a global, cannot alias;
   - offset disambiguation: getelementptrs off the same base whose
     constant byte ranges are disjoint (computed with the target data
     layout) cannot alias;
   - escape analysis for allocas: a non-escaping alloca cannot be touched
     by a call. *)

open Llva

type base =
  | Balloca of Ir.instr
  | Bglobal of Ir.global
  | Bfunc of Ir.func
  | Barg of Ir.arg (* incoming pointer: unknown object *)
  | Bunknown

(* Chase a pointer value to its base object through geps,
   pointer-to-pointer casts, and phis whose arms all resolve to the same
   base (the V-ISA has no select instruction — a two-arm phi is its
   select form, and loop phis that advance a pointer over one object are
   the common case). A phi arm that cycles back into a phi already being
   resolved is skipped: if every other arm agrees on a base, the cyclic
   arm can only carry that same base, so the conclusion stands by
   induction. [None] marks such an in-progress arm; [Some Bunknown] is a
   genuine unknown. *)
let rec base_object_among (seen : int list) (v : Ir.value) : base option =
  match v with
  | Ir.Vglobal g -> Some (Bglobal g)
  | Ir.Vfunc f -> Some (Bfunc f)
  | Ir.Varg a -> Some (Barg a)
  | Ir.Vreg i -> (
      match i.Ir.op with
      | Ir.Alloca -> Some (Balloca i)
      | Ir.Getelementptr -> base_object_among seen i.Ir.operands.(0)
      | Ir.Cast -> (
          match Ir.type_of_value i.Ir.operands.(0) with
          | Types.Pointer _ -> base_object_among seen i.Ir.operands.(0)
          | _ -> Some Bunknown)
      | Ir.Phi ->
          if List.mem i.Ir.iid seen then None
          else begin
            let seen = i.Ir.iid :: seen in
            let agreed = ref None and unknown = ref false in
            List.iter
              (fun (arm, _) ->
                if not !unknown then
                  match base_object_among seen arm with
                  | None -> () (* cyclic arm: the others decide *)
                  | Some Bunknown -> unknown := true
                  | Some b -> (
                      match !agreed with
                      | None -> agreed := Some b
                      | Some b0 -> if not (same_base b0 b) then unknown := true))
              (Ir.phi_incoming i);
            if !unknown then Some Bunknown
            else match !agreed with Some b -> Some b | None -> Some Bunknown
          end
      | _ -> Some Bunknown)
  | Ir.Const { ckind = Ir.Cglobal_ref _; _ } -> Some Bunknown
  | _ -> Some Bunknown

and same_base a b =
  match (a, b) with
  | Balloca x, Balloca y -> x == y
  | Bglobal x, Bglobal y -> x == y
  | Bfunc x, Bfunc y -> x == y
  | Barg x, Barg y -> x == y
  | _ -> false

let base_object (v : Ir.value) : base =
  match base_object_among [] v with Some b -> b | None -> Bunknown

(* Fold [gep] over the getelementptr chain behind pointer [v], from the
   value that starts it outwards: gep operand 0 and pointer-to-pointer
   casts lead back to that value, which [base] maps to the initial
   accumulator. [None] when [base] or a [gep] gives up. *)
let fold_chain ~base ~gep (v : Ir.value) =
  let rec go (v : Ir.value) =
    match v with
    | Ir.Vreg ({ Ir.op = Ir.Getelementptr; _ } as i) ->
        Option.bind (go i.Ir.operands.(0)) (fun acc -> gep acc i)
    | Ir.Vreg ({ Ir.op = Ir.Cast; _ } as i) -> (
        match Ir.type_of_value i.Ir.operands.(0) with
        | Types.Pointer _ -> go i.Ir.operands.(0)
        | _ -> None)
    | v -> base v
  in
  go v

(* Constant byte offset of [v] from its base object, or None if any gep
   index on the way is non-constant. Pointer-to-pointer casts keep the
   offset. *)
let const_offset (lt : Vmem.Layout.t) (v : Ir.value) : int option =
  let gep off i =
    match Vmem.Layout.gep_strides lt i with
    | Ok (strides, _) ->
        List.fold_left
          (fun off s ->
            match (off, s) with
            | Some off, Vmem.Layout.Scaled (Ir.Const { ckind = Ir.Cint n; _ }, size) ->
                Some (off + (Int64.to_int n * size))
            | Some off, Vmem.Layout.Offset o -> Some (off + o)
            | _ -> None)
          (Some off) strides
    | Error _ | (exception Types.Unresolved _) -> None
  in
  fold_chain v ~gep ~base:(function
    | Ir.Vreg { Ir.op = Ir.Alloca; _ } | Ir.Vglobal _ -> Some 0
    | _ -> None)

type result = No_alias | May_alias | Must_alias

let distinct_identified a b =
  (* bases that are provably distinct memory objects *)
  match (a, b) with
  | Balloca x, Balloca y -> not (x == y)
  | Bglobal x, Bglobal y -> not (x == y)
  | Balloca _, Bglobal _ | Bglobal _, Balloca _ -> true
  | Bfunc _, (Balloca _ | Bglobal _) | (Balloca _ | Bglobal _), Bfunc _ -> true
  | _ -> false

(* Byte size of the scalar a pointer's load/store would access, if known. *)
let access_size lt (p : Ir.value) =
  match Types.resolve lt.Vmem.Layout.env (Ir.type_of_value p) with
  | Types.Pointer elem -> (
      match Types.resolve lt.Vmem.Layout.env elem with
      | t when Types.is_scalar t -> Some (Vmem.Layout.size_of lt t)
      | _ -> None
      | exception Types.Unresolved _ -> None)
  | _ -> None
  | exception Types.Unresolved _ -> None

(* A pointer with what [alias] asks of it: its base object, and its
   constant offset and access size, each computed the first time a query
   needs it. A pass that asks about one pointer many times keeps it. *)
type pointer = {
  value : Ir.value;
  base : base;
  offset : int option Lazy.t;
  size : int option Lazy.t;
}

let pointer lt (v : Ir.value) =
  {
    value = v;
    base = base_object v;
    offset = lazy (const_offset lt v);
    size = lazy (access_size lt v);
  }

let alias_pointers (p : pointer) (q : pointer) : result =
  if Ir.value_equal p.value q.value then Must_alias
  else if distinct_identified p.base q.base then No_alias
  else if same_base p.base q.base then
    let oq = Lazy.force q.offset in
    match (Lazy.force p.offset, oq) with
    | Some op_, Some oq -> (
        let sq = Lazy.force q.size in
        match (Lazy.force p.size, sq) with
        | Some sp, Some sq ->
            if op_ = oq && sp = sq then Must_alias
            else if op_ + sp <= oq || oq + sq <= op_ then No_alias
            else May_alias
        | _ -> May_alias)
    | _ -> May_alias
  else May_alias

let alias lt (p : Ir.value) (q : Ir.value) : result =
  alias_pointers (pointer lt p) (pointer lt q)

(* Does an alloca escape (its address stored, passed to a call, returned,
   or cast to a non-pointer)? Non-escaping allocas cannot be modified by
   calls, which lets LICM and GVN keep values in registers across them. *)
let alloca_escapes (alloca : Ir.instr) : bool =
  let rec value_escapes (v : Ir.value) (seen : int list) =
    match v with
    | Ir.Vreg i when List.mem i.Ir.iid seen -> false
    | Ir.Vreg i ->
        List.exists
          (fun (u : Ir.use) ->
            let user = u.Ir.user in
            match user.Ir.op with
            | Ir.Load -> false
            | Ir.Store -> u.Ir.uidx = 0 (* storing the pointer itself *)
            | Ir.Getelementptr when u.Ir.uidx = 0 ->
                value_escapes (Ir.Vreg user) (i.Ir.iid :: seen)
            | Ir.Cast -> (
                match user.Ir.ity with
                | Types.Pointer _ -> value_escapes (Ir.Vreg user) (i.Ir.iid :: seen)
                | _ -> true)
            | Ir.Call | Ir.Invoke -> true
            | Ir.Ret -> true
            | Ir.Setcc _ -> false
            | Ir.Phi | Ir.Binop _ -> true
            | _ -> true)
          i.Ir.iuses
    | _ -> true
  in
  value_escapes (Ir.Vreg alloca) []

(* May a call modify memory of this base object? *)
let call_may_modify_base = function
  | Balloca a -> alloca_escapes a
  | _ -> true

(* May a call modify memory reachable through [p]? *)
let call_may_modify (call : Ir.instr) (p : Ir.value) =
  ignore call;
  call_may_modify_base (base_object p)

let instr_may_write_to lt (i : Ir.instr) (p : Ir.value) =
  match i.Ir.op with
  | Ir.Store -> (
      match alias lt i.Ir.operands.(1) p with No_alias -> false | _ -> true)
  | Ir.Call | Ir.Invoke -> call_may_modify i p
  | _ -> false
