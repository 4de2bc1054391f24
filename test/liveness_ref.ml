(* The set-based liveness that [Analysis.Liveness] replaced, kept as the
   reference its bitsets are checked against: one hash table per block
   per set, keyed by instruction or argument id, iterated to a fixpoint. *)

open Llva

let def_id_of_value = function
  | Ir.Vreg i -> Some i.Ir.iid
  | Ir.Varg a -> Some a.Ir.aid
  | _ -> None

type t = {
  cfg : Analysis.Cfg.t;
  live_in : (int, unit) Hashtbl.t array; (* per block index: set of ids *)
  live_out : (int, unit) Hashtbl.t array;
}

let compute (cfg : Analysis.Cfg.t) : t =
  let n = Analysis.Cfg.n_blocks cfg in
  let live_in = Array.init n (fun _ -> Hashtbl.create 16) in
  let live_out = Array.init n (fun _ -> Hashtbl.create 16) in
  (* uses and defs per block; phi uses count on the incoming edge, i.e.
     they are live-out of the predecessor, not live-in of the phi block *)
  let defs = Array.init n (fun _ -> Hashtbl.create 16) in
  let upward_uses = Array.init n (fun _ -> Hashtbl.create 16) in
  for k = 0 to n - 1 do
    let b = Analysis.Cfg.block cfg k in
    List.iter
      (fun (i : Ir.instr) ->
        if i.Ir.op <> Ir.Phi then
          Array.iter
            (fun v ->
              match def_id_of_value v with
              | Some id when not (Hashtbl.mem defs.(k) id) ->
                  Hashtbl.replace upward_uses.(k) id ()
              | _ -> ())
            i.Ir.operands;
        if not (Types.equal i.Ir.ity Types.Void) then
          Hashtbl.replace defs.(k) i.Ir.iid ())
      b.Ir.instrs
  done;
  (* phi edge uses: value v flowing from pred p is live-out of p *)
  let phi_edge_uses = Array.init n (fun _ -> Hashtbl.create 8) in
  for k = 0 to n - 1 do
    let b = Analysis.Cfg.block cfg k in
    List.iter
      (fun phi ->
        List.iter
          (fun (v, pred) ->
            match def_id_of_value v with
            | Some id when Analysis.Cfg.is_reachable cfg pred ->
                let p = Analysis.Cfg.index_of cfg pred in
                Hashtbl.replace phi_edge_uses.(p) id ()
            | _ -> ())
          (Ir.phi_incoming phi))
      (Ir.block_phis b)
  done;
  let changed = ref true in
  let add set id =
    if not (Hashtbl.mem set id) then begin
      Hashtbl.replace set id ();
      changed := true
    end
  in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      (* live_out = union of successor live_in + phi edge uses *)
      let out = live_out.(k) in
      List.iter
        (fun s -> Hashtbl.iter (fun id () -> add out id) live_in.(s))
        cfg.Analysis.Cfg.succs.(k);
      Hashtbl.iter (fun id () -> add out id) phi_edge_uses.(k);
      (* live_in = upward_uses ∪ (live_out \ defs) *)
      let inn = live_in.(k) in
      Hashtbl.iter (fun id () -> add inn id) upward_uses.(k);
      Hashtbl.iter
        (fun id () -> if not (Hashtbl.mem defs.(k) id) then add inn id)
        out
    done
  done;
  { cfg; live_in; live_out }

let sorted set = Hashtbl.to_seq_keys set |> List.of_seq |> List.sort compare

(* the ids live into and out of block index [k], ascending *)
let live_in t k = sorted t.live_in.(k)
let live_out t k = sorted t.live_out.(k)
