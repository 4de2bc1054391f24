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

(* A phi placed for alloca [k], and the incoming pairs the renaming walk
   gives it, newest first. *)
type placed = {
  k : int;
  phi : Ir.instr;
  mutable incoming : (Ir.value * Ir.block) list;
}

(* The value every incoming edge of [phi] that is not a loop back to the
   phi itself carries, if they all carry the same one. *)
let trivial_value (phi : Ir.instr) =
  let self = Ir.Vreg phi and ops = phi.Ir.operands in
  let found = ref None and same = ref true in
  for k = 0 to (Array.length ops / 2) - 1 do
    ignore (Ir.block_of_value ops.((2 * k) + 1));
    let v = ops.(2 * k) in
    if not (Ir.value_equal v self) then
      match !found with
      | None -> found := Some v
      | Some w -> if not (Ir.value_equal v w) then same := false
  done;
  if !same then !found else None

(* Detaches [i] from its block, which the caller filters afterwards, and
   drops its operands' uses except those of the promoted allocas, which
   are deleted whole. *)
let detach ~promoted (i : Ir.instr) =
  i.Ir.iparent <- None;
  Array.iteri
    (fun idx v ->
      if not (promoted v) then Ir.drop_use v { Ir.user = i; uidx = idx })
    i.Ir.operands

let drop_detached (b : Ir.block) =
  b.Ir.instrs <-
    List.filter (fun (i : Ir.instr) -> i.Ir.iparent != None) b.Ir.instrs

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
      |> List.rev |> Array.of_list
    in
    let n = Array.length allocas in
    if n = 0 then 0
    else begin
      (* alloca id -> its index in [allocas] *)
      let index = Idtbl.create n in
      Array.iteri
        (fun k (a : Ir.instr) -> Idtbl.replace index a.Ir.iid k)
        allocas;
      let alloca_of (v : Ir.value) =
        match v with Ir.Vreg i -> Idtbl.find index i.Ir.iid | _ -> -1
      in
      let promoted v = alloca_of v >= 0 in
      let elem = Array.map (elem_type env) allocas in
      (* phi placement at iterated dominance frontiers of store blocks;
         the phis of each block, by CFG index *)
      let nblocks = Analysis.Cfg.n_blocks cfg in
      let phis = Array.make nblocks [] in
      let placed_for = Array.make nblocks (-1) in
      Array.iteri
        (fun k (a : Ir.instr) ->
          let work = Queue.create () in
          List.iter
            (fun (u : Ir.use) ->
              if u.Ir.user.Ir.op = Ir.Store then
                match u.Ir.user.Ir.iparent with
                | Some b ->
                    let j = Analysis.Cfg.find_index cfg b in
                    if j >= 0 then Queue.add j work
                | None -> ())
            a.Ir.iuses;
          while not (Queue.is_empty work) do
            List.iter
              (fun j ->
                if placed_for.(j) <> k then begin
                  placed_for.(j) <- k;
                  let phi =
                    Ir.mk_instr ~name:(a.Ir.iname ^ ".phi") Ir.Phi [||] elem.(k)
                  in
                  Ir.prepend_instr (Analysis.Cfg.block cfg j) phi;
                  phis.(j) <- { k; phi; incoming = [] } :: phis.(j);
                  Queue.add j work
                end)
              (Analysis.Dominance.frontier dom (Queue.pop work))
          done)
        allocas;
      (* renaming walk over the dominator tree: each alloca's current
         value, with an undo log of the values a block replaced *)
      let current = Array.map (fun ty -> Ir.Vundef ty) elem in
      let undo = ref [] in
      let set k v =
        undo := (k, current.(k)) :: !undo;
        current.(k) <- v
      in
      let rec rename j =
        let b = Analysis.Cfg.block cfg j in
        let saved = !undo in
        (* phis placed in this block define new current values *)
        List.iter (fun p -> set p.k (Ir.Vreg p.phi)) phis.(j);
        let detached = ref false in
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.op with
            | Ir.Load ->
                let k = alloca_of i.Ir.operands.(0) in
                if k >= 0 then begin
                  Ir.replace_all_uses_with (Ir.Vreg i) current.(k);
                  detach ~promoted i;
                  detached := true
                end
            | Ir.Store ->
                let k = alloca_of i.Ir.operands.(1) in
                if k >= 0 then begin
                  set k i.Ir.operands.(0);
                  detach ~promoted i;
                  detached := true
                end
            | _ -> ())
          b.Ir.instrs;
        if !detached then drop_detached b;
        (* feed successor phis *)
        List.iter
          (fun succ ->
            List.iter
              (fun p -> p.incoming <- (current.(p.k), b) :: p.incoming)
              phis.(Analysis.Cfg.index_of cfg succ))
          (Ir.successors b);
        (* recurse into dominator-tree children with the current state *)
        List.iter rename (Analysis.Dominance.children dom j);
        while !undo != saved do
          match !undo with
          | (k, v) :: rest ->
              current.(k) <- v;
              undo := rest
          | [] -> assert false
        done
      in
      rename 0;
      Array.iter
        (List.iter (fun p -> Ir.phi_set_incoming p.phi (List.rev p.incoming)))
        phis;
      (* the allocas themselves are now dead *)
      Array.iter
        (fun (a : Ir.instr) ->
          a.Ir.iuses <- [];
          detach ~promoted a)
        allocas;
      List.iter drop_detached f.Ir.fblocks;
      (* prune trivial phis: a phi whose incomings are all the same value
         (or itself) collapses to that value *)
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (b : Ir.block) ->
            let detached = ref false in
            List.iter
              (fun (phi : Ir.instr) ->
                if phi.Ir.op = Ir.Phi then
                  match trivial_value phi with
                  | Some v ->
                      Ir.replace_all_uses_with (Ir.Vreg phi) v;
                      detach ~promoted:(fun _ -> false) phi;
                      detached := true;
                      changed := true
                  | None -> ())
              b.Ir.instrs;
            if !detached then drop_detached b)
          f.Ir.fblocks
      done;
      n
    end
  end

let run_module (m : Ir.modl) : int =
  let env = Ir.type_env m in
  List.fold_left (fun n f -> n + run_function ~env f) 0 m.Ir.funcs
