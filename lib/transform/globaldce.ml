(* Global dead-code elimination at link time: functions unreachable from
   %main (or any address-taken function) and globals never referenced are
   removed from the module. *)

open Llva

let run_module (m : Ir.modl) : int =
  let cg = Analysis.Callgraph.compute m in
  let root_funcs = Option.to_list (Ir.find_func m "main") in
  let root_funcs = if root_funcs = [] then m.Ir.funcs else root_funcs in
  let reachable = Analysis.Callgraph.reachable_from cg root_funcs in
  let removed = ref 0 in
  let keep_funcs, drop_funcs =
    List.partition (fun (f : Ir.func) -> Hashtbl.mem reachable f.Ir.fid) m.Ir.funcs
  in
  (* only drop functions with no remaining uses at all *)
  let drop_funcs =
    List.filter (fun (f : Ir.func) -> f.Ir.fuses = []) drop_funcs
  in
  m.Ir.funcs <-
    List.filter
      (fun f ->
        let dropped = List.exists (fun g -> g == f) drop_funcs in
        if dropped then begin
          (* drop operand uses so other dead symbols become free too *)
          Ir.iter_instrs (fun i -> Ir.unregister_operand_uses i) f;
          incr removed
        end;
        not dropped)
      m.Ir.funcs;
  ignore keep_funcs;
  (* globals with no uses and no name-based references from initializers *)
  let referenced = Hashtbl.create 32 in
  let rec scan_const (c : Ir.const) =
    match c.Ir.ckind with
    | Ir.Cglobal_ref name -> Hashtbl.replace referenced name ()
    | Ir.Carray cs | Ir.Cstruct cs -> List.iter scan_const cs
    | _ -> ()
  in
  List.iter
    (fun g -> match g.Ir.ginit with Some c -> scan_const c | None -> ())
    m.Ir.globals;
  List.iter
    (fun f ->
      Ir.iter_instrs
        (fun i ->
          Array.iter
            (fun v ->
              match v with
              | Ir.Const c -> scan_const c
              | _ -> ())
            i.Ir.operands)
        f)
    m.Ir.funcs;
  m.Ir.globals <-
    List.filter
      (fun (g : Ir.global) ->
        let dead = g.Ir.guses = [] && not (Hashtbl.mem referenced g.Ir.gname) in
        if dead then incr removed;
        not dead)
      m.Ir.globals;
  !removed
