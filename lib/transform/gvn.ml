(* Global value numbering by dominator-tree scoped hashing: pure
   expressions (binop, setcc, cast, getelementptr) with identical operands
   are reused from dominating definitions. Also performs redundant load
   elimination within a block, using [Analysis.Alias] to keep available
   loads across non-aliasing stores and across calls that cannot touch the
   location. *)

open Llva

(* A pure expression: the operation, its type and its operands. Two
   expressions are the same when their operations and types are equal and
   their operands name the same instructions, arguments, blocks and
   symbols or are constants that print alike ([Pretty.same_const]); the
   two operands of a commutative operator match in either order. *)
type expr = { code : int; ty : Types.t; args : Ir.value array; comm : bool }

let same_value (a : Ir.value) (b : Ir.value) =
  match (a, b) with
  | Ir.Vreg x, Ir.Vreg y -> x.Ir.iid = y.Ir.iid
  | Ir.Varg x, Ir.Varg y -> x.Ir.aid = y.Ir.aid
  | Ir.Vblock x, Ir.Vblock y -> x.Ir.blid = y.Ir.blid
  | Ir.Vglobal x, Ir.Vglobal y -> String.equal x.Ir.gname y.Ir.gname
  | Ir.Vfunc x, Ir.Vfunc y -> String.equal x.Ir.fname y.Ir.fname
  | Ir.Const x, Ir.Const y -> Pretty.same_const x y
  | Ir.Vundef x, Ir.Vundef y -> Types.equal x y
  | _ -> false

let hash_value (v : Ir.value) =
  match v with
  | Ir.Vreg i -> i.Ir.iid
  | Ir.Varg a -> a.Ir.aid + 1
  | Ir.Vblock b -> b.Ir.blid + 2
  | Ir.Vglobal g -> Hashtbl.hash g.Ir.gname
  | Ir.Vfunc f -> Hashtbl.hash f.Ir.fname + 3
  | Ir.Const c -> Pretty.hash_const c
  | Ir.Vundef ty -> Hashtbl.hash ty

module Exprs = Hashtbl.Make (struct
  type t = expr

  let equal a b =
    a.code = b.code && Types.equal a.ty b.ty
    && Array.length a.args = Array.length b.args
    && (Array.for_all2 same_value a.args b.args
       || a.comm
          && same_value a.args.(0) b.args.(1)
          && same_value a.args.(1) b.args.(0))

  let hash e =
    let h = (e.code * 65599) + Hashtbl.hash e.ty in
    if e.comm then h + hash_value e.args.(0) + hash_value e.args.(1)
    else Array.fold_left (fun h v -> (h * 31) + hash_value v) h e.args
end)

let commutative = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | _ -> false

(* the expression [i] computes, over its current operands *)
let expr_of (i : Ir.instr) : expr option =
  let e ty comm =
    Some { code = Ir.opcode_code i.Ir.op; ty; args = i.Ir.operands; comm }
  in
  match i.Ir.op with
  | Ir.Binop op -> e i.Ir.ity (commutative op && Array.length i.Ir.operands = 2)
  | Ir.Setcc _ -> e (Ir.type_of_value i.Ir.operands.(0)) false
  | Ir.Cast | Ir.Getelementptr -> e i.Ir.ity false
  | _ -> None

let run_function ~(lt : Vmem.Layout.t) (f : Ir.func) : int =
  if Ir.is_declaration f then 0
  else begin
    let cfg = Analysis.Cfg.build f in
    let dom = Analysis.Dominance.compute cfg in
    let eliminated = ref 0 in
    (* the expressions of the dominating instructions: a binding made in a
       block shadows earlier ones and is undone when the walk leaves the
       block's subtree *)
    let scope = Exprs.create 64 in
    let rec walk (b : Ir.block) =
      let bound = ref [] in
      (* available memory values within this block: (address, value).
         What alias analysis knows of an address depends on the code
         behind it, so an elimination, which rewrites uses, makes it
         afresh. *)
      let avail : (Analysis.Alias.pointer * Ir.value) list ref = ref [] in
      let eliminate (i : Ir.instr) known =
        Ir.replace_all_uses_with (Ir.Vreg i) known;
        Ir.remove_instr i;
        incr eliminated;
        avail :=
          List.map
            (fun ((a : Analysis.Alias.pointer), v) ->
              (Analysis.Alias.pointer lt a.value, v))
            !avail
      in
      let find_avail (addr : Analysis.Alias.pointer) =
        List.find_map
          (fun (a, v) ->
            match Analysis.Alias.alias_pointers a addr with
            | Analysis.Alias.Must_alias
              when Types.equal (Ir.type_of_value v)
                     (Types.pointee lt.Vmem.Layout.env
                        (Ir.type_of_value addr.Analysis.Alias.value)) ->
                Some v
            | _ -> None)
          !avail
      in
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.op with
          | Ir.Load -> (
              let addr = Analysis.Alias.pointer lt i.Ir.operands.(0) in
              match find_avail addr with
              | Some known -> eliminate i known
              | None -> avail := (addr, Ir.Vreg i) :: !avail)
          | Ir.Store ->
              let addr = Analysis.Alias.pointer lt i.Ir.operands.(1) in
              avail :=
                (addr, i.Ir.operands.(0))
                :: List.filter
                     (fun (a, _) ->
                       Analysis.Alias.alias_pointers a addr
                       = Analysis.Alias.No_alias)
                     !avail
          | Ir.Call | Ir.Invoke ->
              (* drop entries the call may modify *)
              avail :=
                List.filter
                  (fun ((a : Analysis.Alias.pointer), _) ->
                    not (Analysis.Alias.call_may_modify_base a.base))
                  !avail
          | _ -> (
              match expr_of i with
              | Some e -> (
                  match Exprs.find_opt scope e with
                  | Some existing
                    when (not (Ir.is_terminator i))
                         && i.Ir.exceptions_enabled
                            = existing.Ir.exceptions_enabled ->
                      eliminate i (Ir.Vreg existing)
                  | _ ->
                      (* the operands as they are now: later rewrites of
                         [i] must not move its binding *)
                      let e = { e with args = Array.copy e.args } in
                      Exprs.add scope e i;
                      bound := e :: !bound)
              | None -> ()))
        b.Ir.instrs;
      List.iter walk (Analysis.Dominance.children_blocks dom b);
      List.iter (Exprs.remove scope) !bound
    in
    walk (Ir.entry_block f);
    !eliminated
  end

let run_module (m : Ir.modl) : int =
  let lt = Vmem.Layout.for_module m in
  List.fold_left (fun n f -> n + run_function ~lt f) 0 m.Ir.funcs
