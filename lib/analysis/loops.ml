(* Natural-loop detection from back edges (an edge whose target dominates
   its source). Provides loop bodies, headers, nesting depth, and
   preheader discovery for LICM. *)

open Llva

type loop = {
  header : Ir.block;
  latches : Ir.block list; (* sources of back edges into the header *)
  body : Ir.block list; (* includes the header *)
  depth : int; (* 1 = outermost *)
}

type t = { loops : loop list; depth_of : (int, int) Hashtbl.t }

let compute (cfg : Cfg.t) (dom : Dominance.t) : t =
  let n = Cfg.n_blocks cfg in
  (* find back edges *)
  let back_edges = ref [] in
  for src = 0 to n - 1 do
    List.iter
      (fun dst ->
        if Dominance.dominates_idx dom dst src then
          back_edges := (src, dst) :: !back_edges)
      cfg.Cfg.succs.(src)
  done;
  (* group back edges by header *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (src, dst) ->
      let existing =
        match Hashtbl.find_opt by_header dst with Some l -> l | None -> []
      in
      Hashtbl.replace by_header dst (src :: existing))
    !back_edges;
  (* natural loop body: header + all nodes reaching a latch without
     passing through the header *)
  let loops_raw =
    Hashtbl.fold
      (fun header latches acc ->
        let in_body = Hashtbl.create 16 in
        Hashtbl.replace in_body header ();
        let rec pull node =
          if not (Hashtbl.mem in_body node) then begin
            Hashtbl.replace in_body node ();
            List.iter pull cfg.Cfg.preds.(node)
          end
        in
        List.iter pull latches;
        let body_idx =
          List.init n (fun k -> k) |> List.filter (Hashtbl.mem in_body)
        in
        (header, latches, body_idx) :: acc)
      by_header []
  in
  (* nesting depth: number of loop bodies containing the block *)
  let depth_of = Hashtbl.create 16 in
  List.iter
    (fun (_, _, body) ->
      List.iter
        (fun k ->
          let b = Cfg.block cfg k in
          let d =
            match Hashtbl.find_opt depth_of b.Ir.blid with
            | Some d -> d
            | None -> 0
          in
          Hashtbl.replace depth_of b.Ir.blid (d + 1))
        body)
    loops_raw;
  let loops =
    List.map
      (fun (header, latches, body) ->
        let hb = Cfg.block cfg header in
        {
          header = hb;
          latches = List.map (Cfg.block cfg) latches;
          body = List.map (Cfg.block cfg) body;
          depth =
            (match Hashtbl.find_opt depth_of hb.Ir.blid with
            | Some d -> d
            | None -> 1);
        })
      loops_raw
  in
  (* outermost loops first *)
  let loops = List.sort (fun a b -> compare a.depth b.depth) loops in
  { loops; depth_of }

let of_function f =
  let cfg = Cfg.build f in
  compute cfg (Dominance.compute cfg)

(* The nesting depth of every block, by [Cfg] index, as [loop_depth]
   counts it (one natural loop per header, all of its back edges
   together), without building the loop records: the code generators
   and the range analysis need only this. *)
let depths (cfg : Cfg.t) (dom : Dominance.t) : int array =
  let n = Cfg.n_blocks cfg in
  let latches = Array.make n [] in
  for src = 0 to n - 1 do
    List.iter
      (fun dst ->
        if Dominance.dominates_idx dom dst src then
          latches.(dst) <- src :: latches.(dst))
      cfg.Cfg.succs.(src)
  done;
  let depth = Array.make n 0 and in_body = Array.make n (-1) in
  for header = 0 to n - 1 do
    if latches.(header) <> [] then begin
      (* the body: the header and every block that reaches a latch
         without passing through it *)
      let rec pull k =
        if in_body.(k) <> header then begin
          in_body.(k) <- header;
          depth.(k) <- depth.(k) + 1;
          List.iter pull cfg.Cfg.preds.(k)
        end
      in
      in_body.(header) <- header;
      depth.(header) <- depth.(header) + 1;
      List.iter pull latches.(header)
    end
  done;
  depth

let loop_depth t (b : Ir.block) =
  match Hashtbl.find_opt t.depth_of b.Ir.blid with Some d -> d | None -> 0

let in_loop l (b : Ir.block) = List.exists (fun x -> x == b) l.body

(* A preheader candidate: the unique predecessor of the header outside the
   loop, if it has a single successor. *)
let preheader l =
  let outside =
    List.filter (fun p -> not (in_loop l p)) (Ir.predecessors l.header)
  in
  match outside with
  | [ p ] when List.length (Ir.successors p) = 1 -> Some p
  | _ -> None
