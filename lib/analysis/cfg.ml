(* Control-flow graph utilities over a function's explicit CFG (paper
   §3.1: every function is a list of basic blocks whose terminators name
   their successors, so these are all structurally trivial to compute —
   the very property the V-ISA is designed to provide). *)

open Llva

type t = {
  func : Ir.func;
  blocks : Ir.block array; (* reverse postorder; entry first *)
  index : Idtbl.t; (* block id -> index *)
  succs : int list array;
  preds : int list array;
}

(* Depth-first postorder from the entry block; unreachable blocks are
   excluded entirely (passes should run [Transform.Simplifycfg] to drop
   them from the function). *)
let build (f : Ir.func) : t =
  (* visited blocks; their indices once the order is known *)
  let index = Idtbl.create (List.length f.Ir.fblocks) in
  let postorder = ref [] in
  let rec dfs (b : Ir.block) =
    if not (Idtbl.mem index b.Ir.blid) then begin
      Idtbl.replace index b.Ir.blid 0;
      List.iter dfs (Ir.successors b);
      postorder := b :: !postorder
    end
  in
  (match f.Ir.fblocks with [] -> () | entry :: _ -> dfs entry);
  let blocks = Array.of_list !postorder in
  Array.iteri (fun k b -> Idtbl.replace index b.Ir.blid k) blocks;
  (* every successor of a reachable block is reachable *)
  let succs =
    Array.map
      (fun b ->
        List.map (fun s -> Idtbl.find index s.Ir.blid) (Ir.successors b))
      blocks
  in
  let preds = Array.make (Array.length blocks) [] in
  Array.iteri
    (fun k ss -> List.iter (fun s -> preds.(s) <- k :: preds.(s)) ss)
    succs;
  { func = f; blocks; index; succs; preds }

let n_blocks cfg = Array.length cfg.blocks
let block cfg k = cfg.blocks.(k)

(* the index of a reachable block; -1 for an unreachable one *)
let find_index cfg (b : Ir.block) = Idtbl.find cfg.index b.Ir.blid

let index_of cfg (b : Ir.block) =
  match find_index cfg b with
  | -1 -> invalid_arg ("Cfg.index_of: unreachable block %" ^ b.Ir.bname)
  | k -> k

let is_reachable cfg (b : Ir.block) = find_index cfg b >= 0

(* the blocks no path from the entry reaches, in function order; the
   search alone, without the rest of a [t] *)
let unreachable_blocks (f : Ir.func) =
  let seen = Idtbl.create (List.length f.Ir.fblocks) in
  let rec dfs (b : Ir.block) =
    if Idtbl.add_absent seen b.Ir.blid 0 then List.iter dfs (Ir.successors b)
  in
  (match f.Ir.fblocks with [] -> () | entry :: _ -> dfs entry);
  List.filter (fun (b : Ir.block) -> not (Idtbl.mem seen b.Ir.blid)) f.Ir.fblocks

(* blocks in reverse postorder *)
let rpo cfg = Array.to_list cfg.blocks

let iter_rpo f cfg = Array.iter f cfg.blocks

(* edge list as (src, dst) index pairs *)
let edges cfg =
  let acc = ref [] in
  Array.iteri
    (fun k ss -> List.iter (fun s -> acc := (k, s) :: !acc) ss)
    cfg.succs;
  List.rev !acc
