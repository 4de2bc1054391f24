(* One dense numbering of a function's values: its arguments first, in
   order (argument [j] is number [j]), then, in block order, every
   instruction result and every register or argument an operand names,
   each the first time it is seen. The per-function analyses that run
   for every installed function (liveness, live intervals, value ranges)
   key their facts by these numbers, in arrays and bitsets, instead of
   hashing the global ids [Ir.next_id] hands out. *)

open Llva

type t = {
  nargs : int;
  values : Ir.value array; (* number -> its [Varg] or [Vreg] *)
  index : Idtbl.t; (* argument or instruction id -> number *)
}

let build (f : Ir.func) : t =
  let index =
    Idtbl.create
      (List.fold_left
         (fun n (b : Ir.block) -> n + List.length b.Ir.instrs)
         (List.length f.Ir.fargs) f.Ir.fblocks)
  in
  let values = ref [] and n = ref 0 in
  let add id v =
    if Idtbl.add_absent index id !n then begin
      values := v :: !values;
      incr n
    end
  in
  List.iter (fun (a : Ir.arg) -> add a.Ir.aid (Ir.Varg a)) f.Ir.fargs;
  let nargs = !n in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if not (Types.equal i.Ir.ity Types.Void) then
            add i.Ir.iid (Ir.Vreg i);
          Array.iter
            (function
              | Ir.Vreg d as v -> add d.Ir.iid v
              | Ir.Varg a as v -> add a.Ir.aid v
              | _ -> ())
            i.Ir.operands)
        b.Ir.instrs)
    f.Ir.fblocks;
  { nargs; values = Array.of_list (List.rev !values); index }

let size t = Array.length t.values
let nargs t = t.nargs
let value t k = t.values.(k)

(* the instruction or argument id behind number [k] *)
let id t k =
  match t.values.(k) with
  | Ir.Vreg i -> i.Ir.iid
  | Ir.Varg a -> a.Ir.aid
  | _ -> assert false

(* the number of an instruction or argument id; -1 when unnumbered (a
   void instruction, or a value of another function) *)
let find t id = Idtbl.find t.index id

(* the number of a register or argument operand; -1 for anything else *)
let of_value t (v : Ir.value) =
  match v with
  | Ir.Vreg i -> find t i.Ir.iid
  | Ir.Varg a -> find t a.Ir.aid
  | _ -> -1
