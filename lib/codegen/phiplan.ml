(* Phi elimination plan. The translator "eliminates the φ-nodes by
   introducing copy operations into predecessor basic blocks" (paper
   §3.1). To stay correct for parallel phis (swap/lost-copy problems),
   every phi gets a dedicated transfer slot:

     in each predecessor, before the terminator:   slot[phi] := incoming
     at the start of the phi's own block:          phi      := slot[phi]

   Since all reads of incoming values happen before any slot is consumed,
   simultaneous-assignment semantics are preserved without cycle
   detection. Back-ends lower both copy lists with their own moves; the
   transfer slots are ordinary spill slots. *)

open Llva

type edge_copy = {
  transfer_slot : int; (* index into the per-function transfer slots *)
  src : Ir.value; (* value flowing along this edge *)
  phi : Ir.instr;
}

type t = {
  index : Idtbl.t; (* block id -> the block's place in the function *)
  (* copies to emit at the end of each predecessor block *)
  at_block_end : edge_copy list array;
  (* copies to emit at the start of each block: (slot, phi) *)
  at_block_start : (int * Ir.instr) list array;
  n_transfer_slots : int;
}

let build (f : Ir.func) : t =
  let n = List.length f.Ir.fblocks in
  let index = Idtbl.create n in
  List.iteri (fun k (b : Ir.block) -> Idtbl.replace index b.Ir.blid k) f.Ir.fblocks;
  (* built newest first, reversed at the end *)
  let at_block_end = Array.make n [] in
  let at_block_start = Array.make n [] in
  let slot_counter = ref 0 in
  List.iteri
    (fun k (b : Ir.block) ->
      List.iter
        (fun (phi : Ir.instr) ->
          if phi.Ir.op = Ir.Phi then begin
            let slot = !slot_counter in
            incr slot_counter;
            List.iter
              (fun (src, (pred : Ir.block)) ->
                (* an edge from outside the function is never walked *)
                let p = Idtbl.find index pred.Ir.blid in
                if p >= 0 then
                  at_block_end.(p) <-
                    { transfer_slot = slot; src; phi } :: at_block_end.(p))
              (Ir.phi_incoming phi);
            at_block_start.(k) <- (slot, phi) :: at_block_start.(k)
          end)
        b.Ir.instrs)
    f.Ir.fblocks;
  {
    index;
    at_block_end = Array.map List.rev at_block_end;
    at_block_start = Array.map List.rev at_block_start;
    n_transfer_slots = !slot_counter;
  }

let copies table t (b : Ir.block) =
  let k = Idtbl.find t.index b.Ir.blid in
  if k < 0 then [] else table.(k)

let end_copies t b = copies t.at_block_end t b
let start_copies t b = copies t.at_block_start t b
