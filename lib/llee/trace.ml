(* The software trace cache: form hot traces from an edge profile and
   re-lay-out each function so trace blocks are consecutive. With the
   back-ends' fall-through relaxation, a good layout removes taken
   branches from the hot path — the paper's trace-driven runtime
   reoptimization (§4.2), in its machine-independent form. *)

open Llva

type trace = { entry : Ir.block; blocks : Ir.block list }

(* Grow a trace from [start], repeatedly following the hottest successor
   edge, stopping at an edge with under 60% of its block's outgoing
   count, at a repeat, or at 16 blocks. *)
let grow_trace (prof : Profile.t) (start : Ir.block) : trace =
  let in_trace = Hashtbl.create 8 in
  Hashtbl.replace in_trace start.Ir.blid ();
  let rec go acc cur len =
    if len >= 16 then List.rev acc
    else
      let succs = Ir.successors cur in
      let total =
        List.fold_left (fun t s -> t + Profile.edge_count prof cur s) 0 succs
      in
      if total = 0 then List.rev acc
      else
        let best =
          List.fold_left
            (fun best s ->
              let c = Profile.edge_count prof cur s in
              match best with
              | Some (_, bc) when bc >= c -> best
              | _ -> Some (s, c))
            None succs
        in
        match best with
        | Some (s, c)
          when float_of_int c >= 0.6 *. float_of_int total
               && not (Hashtbl.mem in_trace s.Ir.blid) ->
            Hashtbl.replace in_trace s.Ir.blid ();
            go (s :: acc) s (len + 1)
        | _ -> List.rev acc
  in
  { entry = start; blocks = start :: go [] start 1 }

(* Pick trace seeds: the hottest blocks (typically loop headers) run at
   least 16 times, hottest first, skipping blocks already covered by an
   earlier trace; at most 8 traces. *)
let form_traces (prof : Profile.t) (f : Ir.func) : trace list =
  let candidates =
    List.filter
      (fun b -> Profile.block_count prof b >= 16)
      f.Ir.fblocks
    |> List.sort
         (fun a b ->
           compare (Profile.block_count prof b) (Profile.block_count prof a))
  in
  let covered = Hashtbl.create 16 in
  let traces = ref [] in
  List.iter
    (fun b ->
      if
        List.length !traces < 8
        && not (Hashtbl.mem covered b.Ir.blid)
      then begin
        let t = grow_trace prof b in
        if List.length t.blocks >= 2 then begin
          List.iter
            (fun blk -> Hashtbl.replace covered blk.Ir.blid ())
            t.blocks;
          traces := t :: !traces
        end
      end)
    candidates;
  List.rev !traces

(* Re-lay-out a function with bottom-up chain merging (Pettis–Hansen):
   starting from singleton chains, the hottest edges glue the chain ending
   in their source to the chain starting with their target, so hot paths
   and loop bodies become fall-through runs. The entry block's chain is
   placed first; remaining chains follow in original-first-block order
   (keeping cold code where it was). Returns the number of blocks that
   changed position. *)
let relayout_function (prof : Profile.t) (f : Ir.func) : int =
  if Ir.is_declaration f || List.length f.Ir.fblocks < 3 then 0
  else begin
    (* collect profiled edges of this function, hottest first *)
    let edges = ref [] in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun s ->
            let c = Profile.edge_count prof b s in
            if c > 0 then edges := (c, b, s) :: !edges)
          (Ir.successors b))
      f.Ir.fblocks;
    if !edges = [] then 0
    else begin
      let edges =
        List.sort (fun (c1, _, _) (c2, _, _) -> compare c2 c1) !edges
      in
      (* chain machinery: each block belongs to one chain (a block list);
         chain_of maps block id -> chain id; chains grow by concatenation *)
      let chain_of = Hashtbl.create 16 in
      let chains = Hashtbl.create 16 in
      List.iteri
        (fun k (b : Ir.block) ->
          Hashtbl.replace chain_of b.Ir.blid k;
          Hashtbl.replace chains k [ b ])
        f.Ir.fblocks;
      List.iter
        (fun (_, (a : Ir.block), (b : Ir.block)) ->
          let ca = Hashtbl.find chain_of a.Ir.blid in
          let cb = Hashtbl.find chain_of b.Ir.blid in
          if ca <> cb then begin
            let la = Hashtbl.find chains ca and lb = Hashtbl.find chains cb in
            (* merge only if a ends its chain and b starts its chain *)
            let a_last =
              match List.rev la with x :: _ -> x == a | [] -> false
            in
            let b_first = match lb with x :: _ -> x == b | [] -> false in
            if a_last && b_first then begin
              let merged = la @ lb in
              Hashtbl.replace chains ca merged;
              Hashtbl.remove chains cb;
              List.iter
                (fun (x : Ir.block) -> Hashtbl.replace chain_of x.Ir.blid ca)
                lb
            end
          end)
        edges;
      (* order: entry chain first, others by original first-block order *)
      let entry = Ir.entry_block f in
      let entry_chain = Hashtbl.find chain_of entry.Ir.blid in
      let order = ref (Hashtbl.find chains entry_chain) in
      List.iter
        (fun (b : Ir.block) ->
          let cid = Hashtbl.find chain_of b.Ir.blid in
          if cid <> entry_chain then
            match Hashtbl.find_opt chains cid with
            | Some blocks ->
                (match blocks with
                | first :: _ when first == b ->
                    order := !order @ blocks;
                    Hashtbl.remove chains cid
                | _ -> ())
            | None -> ())
        f.Ir.fblocks;
      (* safety: every block exactly once *)
      if List.length !order <> List.length f.Ir.fblocks then 0
      else begin
        (* keep the new layout only if the profile says it takes fewer
           branches: a taken branch is any hot edge that is not a
           fall-through to the next block in layout order *)
        let estimated_taken layout =
          (* dynamic count of unconditional jumps the back-ends cannot
             relax away: a conditional branch is free when either target
             is the fall-through (branch inversion handles the rest) *)
          let next = Hashtbl.create 16 in
          let rec record = function
            | a :: (b : Ir.block) :: rest ->
                Hashtbl.replace next a.Ir.blid b.Ir.blid;
                record (b :: rest)
            | _ -> ()
          in
          record layout;
          let is_next (b : Ir.block) (s : Ir.block) =
            Hashtbl.find_opt next b.Ir.blid = Some s.Ir.blid
          in
          List.fold_left
            (fun acc (b : Ir.block) ->
              match Ir.terminator b with
              | Some t -> (
                  match (t.Ir.op, Array.length t.Ir.operands) with
                  | Ir.Br, 1 ->
                      let d = Ir.block_of_value t.Ir.operands.(0) in
                      if is_next b d then acc else acc + Profile.edge_count prof b d
                  | Ir.Br, _ ->
                      let tt = Ir.block_of_value t.Ir.operands.(1) in
                      let ff = Ir.block_of_value t.Ir.operands.(2) in
                      if is_next b ff || is_next b tt then acc
                      else acc + Profile.edge_count prof b ff
                  | Ir.Mbr, _ ->
                      let d = Ir.block_of_value t.Ir.operands.(1) in
                      if is_next b d then acc else acc + Profile.edge_count prof b d
                  | Ir.Invoke, _ ->
                      let n = Ir.block_of_value t.Ir.operands.(1) in
                      if is_next b n then acc else acc + Profile.edge_count prof b n
                  | _ -> acc)
              | None -> acc)
            0 layout
        in
        if estimated_taken !order >= estimated_taken f.Ir.fblocks then 0
        else begin
          let moved =
            List.fold_left2
              (fun acc a b -> if a == b then acc else acc + 1)
              0 f.Ir.fblocks !order
          in
          f.Ir.fblocks <- !order;
          moved
        end
      end
    end
  end

let relayout_module (prof : Profile.t) (m : Ir.modl) : int =
  List.fold_left (fun acc f -> acc + relayout_function prof f) 0 m.Ir.funcs
