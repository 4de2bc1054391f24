(* [Transform.Adce] as it was before its live set became an [Idtbl],
   kept as the reference it is checked against: a polymorphic hash table
   of ids, and one [Ir.remove_instr] for every dead instruction. *)

(* Aggressive dead-code elimination: start from observable roots
   (terminators, stores, calls, trapping instructions) and mark backwards
   through operands; everything unmarked is deleted. Stronger than [Dce]
   because cyclic dead SSA chains (dead loop counters) die together. *)

open Llva

let is_root (i : Ir.instr) =
  match i.Ir.op with
  | Ir.Store | Ir.Call | Ir.Invoke | Ir.Ret | Ir.Br | Ir.Mbr | Ir.Unwind ->
      true
  | Ir.Load | Ir.Binop Ir.Div | Ir.Binop Ir.Rem -> i.Ir.exceptions_enabled
  | _ -> false

let run_function (f : Ir.func) : int =
  if Ir.is_declaration f then 0
  else begin
    let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let work = Queue.create () in
    let mark (i : Ir.instr) =
      if not (Hashtbl.mem live i.Ir.iid) then begin
        Hashtbl.replace live i.Ir.iid ();
        Queue.add i work
      end
    in
    Ir.iter_instrs (fun i -> if is_root i then mark i) f;
    while not (Queue.is_empty work) do
      let i = Queue.pop work in
      Array.iter
        (fun v -> match v with Ir.Vreg d -> mark d | _ -> ())
        i.Ir.operands
    done;
    let removed = ref 0 in
    List.iter
      (fun (b : Ir.block) ->
        let dead =
          List.filter
            (fun (i : Ir.instr) ->
              not (Hashtbl.mem live i.Ir.iid))
            b.Ir.instrs
        in
        (* detach uses among dead instructions before removal *)
        List.iter
          (fun (i : Ir.instr) ->
            if i.Ir.iuses <> [] then
              Ir.replace_all_uses_with (Ir.Vreg i) (Ir.Vundef i.Ir.ity))
          dead;
        List.iter
          (fun i ->
            Ir.remove_instr i;
            incr removed)
          dead)
      f.Ir.fblocks;
    !removed
  end

let run_module (m : Ir.modl) : int =
  List.fold_left (fun n f -> n + run_function f) 0 m.Ir.funcs
