(* Dominator tree and dominance frontiers using the Cooper–Harvey–Kennedy
   "engineered" algorithm, operating on the [Cfg] reverse postorder. The
   frontiers are built the first time one is asked for: only SSA
   construction ([Transform.Mem2reg]) reads them. *)

open Llva

type t = {
  cfg : Cfg.t;
  idom : int array; (* immediate dominator index; entry maps to itself *)
  children : int list array; (* dominator-tree children *)
  frontier : int list array Lazy.t; (* dominance frontier, as block indices *)
  level : int array; (* depth in the dominator tree *)
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.n_blocks cfg in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect a b =
    (* walk up the idom chain; indices are RPO numbers so "higher" means
       deeper in the order *)
    let a = ref a and b = ref b in
    while !a <> !b do
      while !a > !b do
        a := idom.(!a)
      done;
      while !b > !a do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      (* the first processed predecessor, intersected with the others *)
      let new_idom =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc
            else if acc < 0 then p
            else intersect acc p)
          (-1) cfg.Cfg.preds.(b)
      in
      if new_idom >= 0 && idom.(b) <> new_idom then begin
        idom.(b) <- new_idom;
        changed := true
      end
    done
  done;
  let children = Array.make n [] in
  for b = n - 1 downto 1 do
    if idom.(b) >= 0 then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  (* dominance frontier (Cooper et al. fig. 5) *)
  let frontier =
    lazy
      (let frontier = Array.make n [] in
       for b = 0 to n - 1 do
         let preds = cfg.Cfg.preds.(b) in
         if List.length preds >= 2 then
           List.iter
             (fun p ->
               let runner = ref p in
               while !runner <> idom.(b) && !runner >= 0 do
                 if not (List.mem b frontier.(!runner)) then
                   frontier.(!runner) <- b :: frontier.(!runner);
                 runner := idom.(!runner)
               done)
             preds
       done;
       frontier)
  in
  let level = Array.make n 0 in
  let rec set_levels b =
    List.iter
      (fun c ->
        level.(c) <- level.(b) + 1;
        set_levels c)
      children.(b)
  in
  if n > 0 then set_levels 0;
  { cfg; idom; children; frontier; level }

let of_function f = compute (Cfg.build f)

(* does block index [a] dominate block index [b]? *)
let dominates_idx t a b =
  let rec go b = if b = a then true else if b = 0 then a = 0 else go t.idom.(b) in
  go b

let dominates t (a : Ir.block) (b : Ir.block) =
  dominates_idx t (Cfg.index_of t.cfg a) (Cfg.index_of t.cfg b)

let idom_block t (b : Ir.block) : Ir.block option =
  let k = Cfg.index_of t.cfg b in
  if k = 0 then None else Some (Cfg.block t.cfg t.idom.(k))

(* the dominance frontier and the dominator-tree children of block index
   [k], as block indices *)
let frontier t k = (Lazy.force t.frontier).(k)
let children t k = t.children.(k)

let frontier_blocks t (b : Ir.block) =
  List.map (Cfg.block t.cfg) (Lazy.force t.frontier).(Cfg.index_of t.cfg b)

let children_blocks t (b : Ir.block) =
  List.map (Cfg.block t.cfg) t.children.(Cfg.index_of t.cfg b)

(* Does the definition site of [def] dominate the use site
   (instruction [user], operand [op_idx])? Mirrors the verifier rule. *)
let def_dominates_use t (def : Ir.instr) (user : Ir.instr) op_idx =
  match (def.Ir.iparent, user.Ir.iparent) with
  | Some db, Some ub ->
      if user.Ir.op = Ir.Phi then
        match user.Ir.operands.(op_idx + 1) with
        | Ir.Vblock pred -> dominates t db pred
        | _ -> false
      else if db == ub then
        let rec scan = function
          | [] -> false
          | x :: _ when x == def -> true
          | x :: _ when x == user -> false
          | _ :: rest -> scan rest
        in
        scan db.Ir.instrs
      else dominates t db ub
  | _ -> false
