(* Classic backward liveness over SSA values (instruction results and
   arguments), as bitsets over the function's [Numbering]. Used by the
   code generators to build live intervals for linear-scan register
   allocation. *)

open Llva

(* sets of value numbers, one bit each *)
module Bits = struct
  let w = Sys.int_size
  let create n = Array.make ((n + w - 1) / w) 0
  let add s k = s.(k / w) <- s.(k / w) lor (1 lsl (k mod w))
  let mem s k = s.(k / w) land (1 lsl (k mod w)) <> 0

  let iter f s =
    Array.iteri
      (fun j word ->
        let word = ref word and k = ref (j * w) in
        while !word <> 0 do
          if !word land 1 <> 0 then f !k;
          word := !word lsr 1;
          incr k
        done)
      s

  (* [dst] := [dst] ∪ ([src] \ [minus]); whether [dst] grew *)
  let union_diff dst src minus =
    let grew = ref false in
    for j = 0 to Array.length dst - 1 do
      let old = dst.(j) in
      let nw = old lor (src.(j) land lnot minus.(j)) in
      if nw <> old then begin
        dst.(j) <- nw;
        grew := true
      end
    done;
    !grew
end

type t = {
  cfg : Cfg.t;
  num : Numbering.t;
  live_in : int array array; (* per block index: a set of value numbers *)
  live_out : int array array;
}

let compute (cfg : Cfg.t) : t =
  let num = Numbering.build cfg.Cfg.func in
  let n = Cfg.n_blocks cfg in
  let sets () = Array.init n (fun _ -> Bits.create (Numbering.size num)) in
  let defs = sets () and live_in = sets () and live_out = sets () in
  let none = Bits.create (Numbering.size num) in
  (* live_in starts as the upward-exposed uses; phi uses count on the
     incoming edge, i.e. they are live-out of the predecessor, not
     live-in of the phi block *)
  for k = 0 to n - 1 do
    List.iter
      (fun (i : Ir.instr) ->
        let ops = i.Ir.operands in
        (match i.Ir.op with
        | Ir.Phi ->
            for a = 0 to (Array.length ops / 2) - 1 do
              match ops.((2 * a) + 1) with
              | Ir.Vblock pred ->
                  let x = Numbering.of_value num ops.(2 * a) in
                  let p = Cfg.find_index cfg pred in
                  if x >= 0 && p >= 0 then Bits.add live_out.(p) x
              | _ -> ()
            done
        | _ ->
            Array.iter
              (fun v ->
                let x = Numbering.of_value num v in
                if x >= 0 && not (Bits.mem defs.(k) x) then
                  Bits.add live_in.(k) x)
              ops);
        if not (Types.equal i.Ir.ity Types.Void) then
          Bits.add defs.(k) (Numbering.find num i.Ir.iid))
      (Cfg.block cfg k).Ir.instrs
  done;
  (* live_out = ∪ successor live_in (+ the phi edge uses seeded above);
     live_in = upward uses ∪ (live_out \ defs): a phi's result is
     defined at block entry, so it is not live-in *)
  let changed = ref true in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      let out = live_out.(k) in
      List.iter
        (fun s -> if Bits.union_diff out live_in.(s) none then changed := true)
        cfg.Cfg.succs.(k);
      if Bits.union_diff live_in.(k) out defs.(k) then changed := true
    done
  done;
  { cfg; num; live_in; live_out }

let numbering t = t.num

(* the numbers live into and out of block index [k] *)
let iter_live_in t k f = Bits.iter f t.live_in.(k)
let iter_live_out t k f = Bits.iter f t.live_out.(k)

let ids t set =
  let acc = ref [] in
  Bits.iter (fun x -> acc := Numbering.id t.num x :: !acc) set;
  List.rev !acc

(* the instruction and argument ids live into and out of a block *)
let live_in t (b : Ir.block) = ids t t.live_in.(Cfg.index_of t.cfg b)
let live_out t (b : Ir.block) = ids t t.live_out.(Cfg.index_of t.cfg b)

let is_live_out t (b : Ir.block) id =
  let x = Numbering.find t.num id in
  x >= 0 && Bits.mem t.live_out.(Cfg.index_of t.cfg b) x
