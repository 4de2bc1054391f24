(* [Transform.Mem2reg] as it was before its tables became arrays, kept
   as the reference it is checked against: [List.mem] over the promoted
   allocas for every load and store, a table keyed by (alloca, block)
   probed for every alloca in every block, renaming state in association
   lists, phi incomings appended one at a time with [@], and one
   [Ir.remove_instr] for every promoted access. *)

(* Promote stack allocations to SSA virtual registers (the classic
   mem2reg pass): the front-end emits every local variable as an alloca
   plus loads/stores (exactly as the paper's Fig. 2 does for V), and this
   pass rebuilds the pruned SSA form using iterated dominance frontiers.

   An alloca is promotable when it allocates a single scalar and every use
   is a direct load or a store *to* it (its address never escapes). *)

open Llva

let is_promotable env (a : Ir.instr) =
  a.Ir.op = Ir.Alloca
  && Array.length a.Ir.operands = 0
  && (match Types.resolve env a.Ir.ity with
     | Types.Pointer elem -> (
         match Types.resolve env elem with
         | t -> Types.is_scalar t
         | exception Types.Unresolved _ -> false)
     | _ -> false)
  && List.for_all
       (fun (u : Ir.use) ->
         match u.Ir.user.Ir.op with
         | Ir.Load -> true
         | Ir.Store -> u.Ir.uidx = 1 (* address operand, not stored value *)
         | _ -> false)
       a.Ir.iuses

let elem_type env (a : Ir.instr) = Types.pointee env a.Ir.ity

let run_function ?(env = Types.empty_env ()) (f : Ir.func) : int =
  if Ir.is_declaration f then 0
  else begin
    let cfg = Analysis.Cfg.build f in
    let dom = Analysis.Dominance.compute cfg in
    let block_reachable (i : Ir.instr) =
      match i.Ir.iparent with
      | Some b -> Analysis.Cfg.is_reachable cfg b
      | None -> false
    in
    let allocas =
      Ir.fold_instrs
        (fun acc i ->
          (* only promote when the alloca and all its users are reachable;
             SimplifyCFG removes unreachable code beforehand *)
          if
            is_promotable env i && block_reachable i
            && List.for_all (fun (u : Ir.use) -> block_reachable u.Ir.user) i.Ir.iuses
          then i :: acc
          else acc)
        [] f
      |> List.rev
    in
    if allocas = [] then 0
    else begin
      let promoted = List.length allocas in
      (* phi placement at iterated dominance frontiers of store blocks *)
      let phi_for : (int * int, Ir.instr) Hashtbl.t = Hashtbl.create 32 in
      (* key: (alloca id, block id) -> phi *)
      List.iter
        (fun (a : Ir.instr) ->
          let ty = elem_type env a in
          let def_blocks =
            List.filter_map
              (fun (u : Ir.use) ->
                if u.Ir.user.Ir.op = Ir.Store then u.Ir.user.Ir.iparent
                else None)
              a.Ir.iuses
          in
          let work = Queue.create () in
          List.iter
            (fun b ->
              if Analysis.Cfg.is_reachable cfg b then Queue.add b work)
            def_blocks;
          let placed = Hashtbl.create 8 in
          while not (Queue.is_empty work) do
            let b = Queue.pop work in
            List.iter
              (fun (fb : Ir.block) ->
                if not (Hashtbl.mem placed fb.Ir.blid) then begin
                  Hashtbl.replace placed fb.Ir.blid ();
                  let phi =
                    Ir.mk_instr ~name:(a.Ir.iname ^ ".phi") Ir.Phi [||] ty
                  in
                  Ir.prepend_instr fb phi;
                  Hashtbl.replace phi_for (a.Ir.iid, fb.Ir.blid) phi;
                  Queue.add fb work
                end)
              (Analysis.Dominance.frontier_blocks dom b)
          done)
        allocas;
      (* renaming walk over the dominator tree *)
      let alloca_ids = List.map (fun a -> a.Ir.iid) allocas in
      let is_alloca_ptr v =
        match v with
        | Ir.Vreg i when List.mem i.Ir.iid alloca_ids -> Some i
        | _ -> None
      in
      let rec rename (b : Ir.block) (incoming : (int * Ir.value) list) =
        let current = ref incoming in
        let get aid =
          match List.assoc_opt aid !current with
          | Some v -> v
          | None ->
              (* no store on this path yet: undef *)
              let a = List.find (fun x -> x.Ir.iid = aid) allocas in
              Ir.Vundef (elem_type env a)
        in
        let setv aid v = current := (aid, v) :: List.remove_assoc aid !current in
        (* phis placed in this block define new current values *)
        List.iter
          (fun (a : Ir.instr) ->
            match Hashtbl.find_opt phi_for (a.Ir.iid, b.Ir.blid) with
            | Some phi -> setv a.Ir.iid (Ir.Vreg phi)
            | None -> ())
          allocas;
        (* walk the instructions *)
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.op with
            | Ir.Load -> (
                match is_alloca_ptr i.Ir.operands.(0) with
                | Some a ->
                    Ir.replace_all_uses_with (Ir.Vreg i) (get a.Ir.iid);
                    Ir.remove_instr i
                | None -> ())
            | Ir.Store -> (
                match is_alloca_ptr i.Ir.operands.(1) with
                | Some a ->
                    setv a.Ir.iid i.Ir.operands.(0);
                    Ir.remove_instr i
                | None -> ())
            | _ -> ())
          (List.filter (fun x -> x.Ir.op = Ir.Load || x.Ir.op = Ir.Store)
             b.Ir.instrs);
        (* feed successor phis *)
        List.iter
          (fun (succ : Ir.block) ->
            List.iter
              (fun (a : Ir.instr) ->
                match Hashtbl.find_opt phi_for (a.Ir.iid, succ.Ir.blid) with
                | Some phi ->
                    let pairs = Ir.phi_incoming phi in
                    Ir.phi_set_incoming phi (pairs @ [ (get a.Ir.iid, b) ])
                | None -> ())
              allocas)
          (Ir.successors b);
        (* recurse into dominator-tree children with the current state *)
        List.iter
          (fun child -> rename child !current)
          (Analysis.Dominance.children_blocks dom b)
      in
      rename (Ir.entry_block f) [];
      (* the allocas themselves are now dead *)
      List.iter (fun a -> Ir.remove_instr a) allocas;
      (* prune trivial phis: a phi whose incomings are all the same value
         (or itself) collapses to that value *)
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun phi ->
                let incoming = Ir.phi_incoming phi in
                let distinct =
                  List.filter
                    (fun (v, _) -> not (Ir.value_equal v (Ir.Vreg phi)))
                    incoming
                in
                match distinct with
                | (v, _) :: rest
                  when List.for_all (fun (w, _) -> Ir.value_equal w v) rest ->
                    Ir.replace_all_uses_with (Ir.Vreg phi) v;
                    Ir.remove_instr phi;
                    changed := true
                | _ -> ())
              (Ir.block_phis b))
          f.Ir.fblocks
      done;
      promoted
    end
  end

let run_module (m : Ir.modl) : int =
  let env = Ir.type_env m in
  List.fold_left (fun n f -> n + run_function ~env f) 0 m.Ir.funcs
