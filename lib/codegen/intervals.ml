(* Live intervals for SSA values over a linearized block order, built from
   [Analysis.Liveness]. Both back-ends allocate registers over these
   intervals before instruction selection: values assigned a register are
   used directly, the rest live in stack slots. *)

open Llva

type klass = Kint | Kfloat

let klass_of_type env ty =
  match Types.resolve env ty with
  | Types.Float | Types.Double -> Kfloat
  | _ -> Kint

type interval = {
  vid : int; (* instr id or arg id *)
  klass : klass;
  mutable start_pos : int;
  mutable end_pos : int;
  mutable weight : int; (* use count, loop-depth scaled: spill priority *)
}

(* by the function's value number ([Analysis.Numbering]) *)
type t = { intervals : interval option array }

let extend iv pos =
  if pos < iv.start_pos then iv.start_pos <- pos;
  if pos > iv.end_pos then iv.end_pos <- pos

let build ?(env = Types.empty_env ()) (f : Ir.func) : t =
  let cfg = Analysis.Cfg.build f in
  let live = Analysis.Liveness.compute cfg in
  let num = Analysis.Liveness.numbering live in
  let depth = Analysis.Loops.depths cfg (Analysis.Dominance.compute cfg) in
  let intervals = Array.make (Analysis.Numbering.size num) None in
  (* a def or use of value number [x] at [pos], adding [weight] *)
  let note x ty pos weight =
    match intervals.(x) with
    | Some iv ->
        extend iv pos;
        iv.weight <- iv.weight + weight
    | None ->
        intervals.(x) <-
          Some
            { vid = Analysis.Numbering.id num x; klass = klass_of_type env ty;
              start_pos = pos; end_pos = pos; weight }
  in
  (* arguments are defined at position -1 *)
  List.iteri (fun x (a : Ir.arg) -> note x a.Ir.aty (-1) 0) f.Ir.fargs;
  (* defs and uses, at positions with gaps of 2 for copies inserted
     later; each reachable block's first and last position *)
  let nb = Analysis.Cfg.n_blocks cfg in
  let first = Array.make nb 0 and last = Array.make nb (-1) in
  let pos = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let k = Analysis.Cfg.find_index cfg b in
      let w = 1 + (4 * if k >= 0 then depth.(k) else 0) in
      let start = !pos in
      List.iter
        (fun (i : Ir.instr) ->
          let p = !pos in
          if not (Types.equal i.Ir.ity Types.Void) then
            note (Analysis.Numbering.find num i.Ir.iid) i.Ir.ity p w;
          Array.iter
            (fun v ->
              match v with
              | Ir.Vreg d ->
                  if not (Types.equal d.Ir.ity Types.Void) then
                    note (Analysis.Numbering.of_value num v) d.Ir.ity p w
              | Ir.Varg a ->
                  note (Analysis.Numbering.of_value num v) a.Ir.aty p w
              | _ -> ())
            i.Ir.operands;
          pos := p + 2)
        b.Ir.instrs;
      if k >= 0 then begin
        first.(k) <- start;
        last.(k) <- max start (!pos - 1)
      end)
    f.Ir.fblocks;
  (* extend across blocks where the value is live-in/out; only now that
     every def is recorded, since a value can be live into a block laid
     out before its definition *)
  let extend_to pos x =
    match intervals.(x) with Some iv -> extend iv pos | None -> ()
  in
  for k = 0 to nb - 1 do
    if last.(k) >= 0 then begin
      Analysis.Liveness.iter_live_in live k (extend_to first.(k));
      Analysis.Liveness.iter_live_out live k (extend_to last.(k))
    end
  done;
  { intervals }

(* Sorted by start position, with value id as tie-break: the order must
   not depend on how the function's values happen to be numbered, so two
   decodes of the same module allocate equal-start intervals alike and
   translation stays reproducible. *)
let all t =
  Array.fold_left
    (fun acc iv -> match iv with Some iv -> iv :: acc | None -> acc)
    [] t.intervals
  |> List.sort (fun a b ->
         match Int.compare a.start_pos b.start_pos with
         | 0 -> Int.compare a.vid b.vid
         | c -> c)
