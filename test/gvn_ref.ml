(* [Transform.Gvn] as it was before expressions were keyed by structure,
   kept as the reference it is checked against: a key printed with
   [Printf.sprintf] for every instruction, a scope that is an association
   list searched along the whole dominator path, and available loads
   whose alias facts are computed afresh at every query. *)

(* Global value numbering by dominator-tree scoped hashing: pure
   expressions (binop, setcc, cast, getelementptr) with identical operands
   are reused from dominating definitions. Also performs redundant load
   elimination within a block, using [Analysis.Alias] to keep available
   loads across non-aliasing stores and across calls that cannot touch the
   location. *)

open Llva

(* [Analysis.Alias.alias] as it was, every fact computed at every query *)
let alias lt (p : Ir.value) (q : Ir.value) : Analysis.Alias.result =
  let open Analysis.Alias in
  if Ir.value_equal p q then Must_alias
  else
    let bp = base_object p and bq = base_object q in
    if distinct_identified bp bq then No_alias
    else if same_base bp bq then
      match (const_offset lt p, const_offset lt q) with
      | Some op_, Some oq -> (
          match (access_size lt p, access_size lt q) with
          | Some sp, Some sq ->
              if op_ = oq && sp = sq then Must_alias
              else if op_ + sp <= oq || oq + sq <= op_ then No_alias
              else May_alias
          | _ -> if op_ = oq then May_alias else May_alias)
      | _ -> May_alias
    else May_alias

let value_key (v : Ir.value) =
  match v with
  | Ir.Vreg i -> Printf.sprintf "i%d" i.Ir.iid
  | Ir.Varg a -> Printf.sprintf "a%d" a.Ir.aid
  | Ir.Vglobal g -> "g" ^ g.Ir.gname
  | Ir.Vfunc f -> "f" ^ f.Ir.fname
  | Ir.Vblock b -> Printf.sprintf "b%d" b.Ir.blid
  | Ir.Const c -> "c" ^ Pretty.typed_const c
  | Ir.Vundef ty -> "u" ^ Types.to_string ty

let commutative = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | _ -> false

let expr_key (i : Ir.instr) : string option =
  let ops () = Array.to_list (Array.map value_key i.Ir.operands) in
  match i.Ir.op with
  | Ir.Binop op ->
      let operands = ops () in
      let operands =
        if commutative op then List.sort compare operands else operands
      in
      Some
        (Printf.sprintf "%s:%s:%s" (Ir.binop_name op)
           (Types.to_string i.Ir.ity)
           (String.concat "," operands))
  | Ir.Setcc c ->
      Some
        (Printf.sprintf "%s:%s:%s" (Ir.cmp_name c)
           (Types.to_string (Ir.type_of_value i.Ir.operands.(0)))
           (String.concat "," (ops ())))
  | Ir.Cast ->
      Some
        (Printf.sprintf "cast:%s:%s"
           (Types.to_string i.Ir.ity)
           (String.concat "," (ops ())))
  | Ir.Getelementptr ->
      Some
        (Printf.sprintf "gep:%s:%s"
           (Types.to_string i.Ir.ity)
           (String.concat "," (ops ())))
  | _ -> None

let run_function ~(lt : Vmem.Layout.t) (f : Ir.func) : int =
  if Ir.is_declaration f then 0
  else begin
    let cfg = Analysis.Cfg.build f in
    let dom = Analysis.Dominance.compute cfg in
    let eliminated = ref 0 in
    let rec walk (b : Ir.block) (scope : (string * Ir.instr) list) =
      let scope = ref scope in
      (* available memory values within this block: (address, value) *)
      let avail : (Ir.value * Ir.value) list ref = ref [] in
      let find_avail addr =
        List.find_map
          (fun (a, v) ->
            match alias lt a addr with
            | Analysis.Alias.Must_alias
              when Types.equal (Ir.type_of_value v)
                     (Types.pointee lt.Vmem.Layout.env (Ir.type_of_value addr))
              ->
                Some v
            | _ -> None)
          !avail
      in
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.op with
          | Ir.Load -> (
              let addr = i.Ir.operands.(0) in
              match find_avail addr with
              | Some known ->
                  Ir.replace_all_uses_with (Ir.Vreg i) known;
                  Ir.remove_instr i;
                  incr eliminated
              | None -> avail := (addr, Ir.Vreg i) :: !avail)
          | Ir.Store ->
              let addr = i.Ir.operands.(1) in
              avail :=
                (addr, i.Ir.operands.(0))
                :: List.filter
                     (fun (a, _) ->
                       alias lt a addr = Analysis.Alias.No_alias)
                     !avail
          | Ir.Call | Ir.Invoke ->
              (* drop entries the call may modify *)
              avail :=
                List.filter
                  (fun (a, _) -> not (Analysis.Alias.call_may_modify i a))
                  !avail
          | _ -> (
              match expr_key i with
              | Some key -> (
                  match List.assoc_opt key !scope with
                  | Some existing
                    when (not (Ir.is_terminator i))
                         && i.Ir.exceptions_enabled
                            = existing.Ir.exceptions_enabled ->
                      Ir.replace_all_uses_with (Ir.Vreg i) (Ir.Vreg existing);
                      Ir.remove_instr i;
                      incr eliminated
                  | _ -> scope := (key, i) :: !scope)
              | None -> ()))
        (List.filter (fun _ -> true) b.Ir.instrs);
      List.iter
        (fun child -> walk child !scope)
        (Analysis.Dominance.children_blocks dom b)
    in
    walk (Ir.entry_block f) [];
    !eliminated
  end

let run_module (m : Ir.modl) : int =
  let lt = Vmem.Layout.for_module m in
  List.fold_left (fun n f -> n + run_function ~lt f) 0 m.Ir.funcs
