(* The boolean-matrix dominator solver that [Verify]'s bitset rows
   replaced, kept as the reference they are checked against: one n×n
   bool matrix over the blocks in [f.fblocks] order, iterated to the
   maximal fixpoint. [dom.(u).(d)] says whether block [d] dominates
   block [u]. *)

open Llva
open Ir

let compute_dominators f =
  let blocks = Array.of_list f.fblocks in
  let n = Array.length blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun k b -> Hashtbl.replace index b.blid k) blocks;
  let preds =
    Array.map
      (fun b ->
        List.filter_map (fun p -> Hashtbl.find_opt index p.blid) (predecessors b))
      blocks
  in
  let full = Array.make n true in
  let dom =
    Array.init n (fun k -> if k = 0 then Array.init n (fun j -> j = 0) else Array.copy full)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      let nd = Array.make n false in
      nd.(k) <- true;
      (match preds.(k) with
      | [] -> ()
      | first :: rest ->
          let inter = Array.copy dom.(first) in
          List.iter
            (fun p -> Array.iteri (fun j v -> inter.(j) <- v && inter.(j)) dom.(p))
            rest;
          Array.iteri (fun j v -> if v then nd.(j) <- true) inter);
      if nd <> dom.(k) then begin
        dom.(k) <- nd;
        changed := true
      end
    done
  done;
  dom
