(* CFG cleanup:
   - fold constant conditional branches and mbrs to unconditional branches
   - delete unreachable blocks
   - merge a block into its unique predecessor when that predecessor has a
     single successor
   - thread branches through empty forwarding blocks
   Returns the number of simplifications applied. *)

open Llva

let count = ref 0

(* a block's successors, each once, in id order *)
let distinct_successors b =
  List.sort_uniq
    (fun (x : Ir.block) (y : Ir.block) -> Int.compare x.Ir.blid y.Ir.blid)
    (Ir.successors b)

let replace_terminator (b : Ir.block) (target : Ir.block) =
  (match Ir.terminator b with
  | Some t ->
      (* remove phi entries in successors we no longer branch to *)
      List.iter
        (fun succ -> if not (succ == target) then Ir.phi_remove_pred succ b)
        (distinct_successors b);
      Ir.remove_instr t
  | None -> ());
  Ir.append_instr b (Ir.mk_instr Ir.Br [| Ir.Vblock target |] Types.Void);
  incr count

let fold_constant_branches (f : Ir.func) =
  List.iter
    (fun (b : Ir.block) ->
      match Ir.terminator b with
      | Some t -> (
          match Constfold.fold_terminator t with
          | Some target when List.length (Ir.successors b) > 1 ->
              replace_terminator b target
          | _ -> ())
      | None -> ())
    f.Ir.fblocks

let remove_unreachable (f : Ir.func) =
  let dead = Analysis.Cfg.unreachable_blocks f in
  List.iter
    (fun (b : Ir.block) ->
      (* drop phi entries in successors first *)
      List.iter
        (fun succ -> Ir.phi_remove_pred succ b)
        (distinct_successors b);
      (* clear operand uses so nothing dangles *)
      List.iter
        (fun i -> if i.Ir.iuses <> [] then
            Ir.replace_all_uses_with (Ir.Vreg i) (Ir.Vundef i.Ir.ity))
        b.Ir.instrs;
      Ir.remove_block b;
      incr count)
    dead

(* The one predecessor of [b], if it has exactly one: [Ir.predecessors b]
   is [[p]], found without building the list. *)
let single_pred (b : Ir.block) =
  let rec go found = function
    | [] -> found
    | (u : Ir.use) :: rest -> (
        match u.Ir.user.Ir.iparent with
        | Some pb when Ir.is_terminator u.Ir.user -> (
            match found with
            | None -> go (Some pb) rest
            | Some p -> if p == pb then go found rest else None)
        | _ -> go found rest)
  in
  go None b.Ir.buses

(* Merge [b] into its unique predecessor [p] when p's only successor is b
   and b has no phis (or its phis are trivially resolvable). *)
let merge_blocks (f : Ir.func) =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        if not (b == Ir.entry_block f) then
          match single_pred b with
          | Some p
            when (not (p == b))
                 && (match Ir.successors p with [ s ] -> s == b | _ -> false)
            ->
              (* resolve phis: single predecessor means each phi has
                 exactly one incoming value *)
              List.iter
                (fun phi ->
                  match Ir.phi_value_for_block phi p with
                  | Some v ->
                      Ir.replace_all_uses_with (Ir.Vreg phi) v;
                      Ir.remove_instr phi
                  | None -> ())
                (Ir.block_phis b);
              (* move instructions; drop p's terminator *)
              (match Ir.terminator p with
              | Some t -> Ir.remove_instr t
              | None -> ());
              let moved = b.Ir.instrs in
              b.Ir.instrs <- [];
              let parent = Some p in
              List.iter (fun (i : Ir.instr) -> i.Ir.iparent <- parent) moved;
              p.Ir.instrs <- p.Ir.instrs @ moved;
              (* successors' phis must now name p instead of b *)
              List.iter
                (fun succ -> Ir.phi_replace_pred succ ~old_pred:b ~new_pred:p)
                (distinct_successors p);
              (* label uses of b (if any remain) now mean p *)
              if b.Ir.buses <> [] then
                Ir.replace_all_uses_with (Ir.Vblock b) (Ir.Vblock p);
              Ir.remove_block b;
              incr count;
              changed := true
          | _ -> ())
      f.Ir.fblocks
  done

(* An empty block containing only "br label %target" can be bypassed,
   provided retargeting does not create conflicting phi edges. *)
let thread_forwarding (f : Ir.func) =
  List.iter
    (fun (b : Ir.block) ->
      if not (b == Ir.entry_block f) then
        match b.Ir.instrs with
        | [ { Ir.op = Ir.Br; operands = [| Ir.Vblock target |]; _ } ]
          when not (target == b) ->
            let preds = Ir.predecessors b in
            (* safe when the target has no phis, or no pred of b is already
               a pred of target *)
            let target_preds = Ir.predecessors target in
            let conflict =
              Ir.block_phis target <> []
              && List.exists
                   (fun p -> List.exists (fun q -> q == p) target_preds)
                   preds
            in
            if (not conflict) && preds <> [] then begin
              (* each pred's terminator operand b becomes target *)
              List.iter
                (fun (p : Ir.block) ->
                  match Ir.terminator p with
                  | Some t ->
                      Array.iteri
                        (fun k v ->
                          match v with
                          | Ir.Vblock x when x == b ->
                              Ir.set_operand t k (Ir.Vblock target)
                          | _ -> ())
                        t.Ir.operands
                  | None -> ())
                preds;
              (* phis in target that named b now receive from each pred *)
              List.iter
                (fun phi ->
                  match Ir.phi_value_for_block phi b with
                  | Some v ->
                      let pairs =
                        List.filter (fun (_, blk) -> not (blk == b))
                          (Ir.phi_incoming phi)
                        @ List.map (fun p -> (v, p)) preds
                      in
                      Ir.phi_set_incoming phi pairs
                  | None -> ())
                (Ir.block_phis target);
              incr count
            end
        | _ -> ())
    f.Ir.fblocks;
  (* blocks made unreachable by threading are removed on the next sweep *)
  remove_unreachable f

let run_function (f : Ir.func) : int =
  if Ir.is_declaration f then 0
  else begin
    count := 0;
    fold_constant_branches f;
    remove_unreachable f;
    thread_forwarding f;
    merge_blocks f;
    !count
  end

let run_module (m : Ir.modl) : int =
  List.fold_left (fun n f -> n + run_function f) 0 m.Ir.funcs
