(* Sparse conditional constant propagation (Wegman–Zadeck) over the SSA
   graph: simultaneously propagates constants and dead control-flow edges,
   so constants that only hold on feasible paths are still found. *)

open Llva

type lattice = Top | Known of Eval.scalar | Bottom

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Known x, Known y -> if Eval.equal x y then Known x else Bottom

(* Structural equality of lattice values, as [=] decides it (a NaN is
   unequal to itself), without the polymorphic comparison. *)
let same_lattice a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Known x, Known y -> (
      match (x, y) with
      | Eval.B p, Eval.B q -> p = q
      | Eval.I (s, p), Eval.I (t, q) -> Types.equal s t && Int64.equal p q
      | Eval.F (s, p), Eval.F (t, q) -> Types.equal s t && (p : float) = q
      | Eval.P p, Eval.P q -> Int64.equal p q
      | Eval.Undef s, Eval.Undef t -> Types.equal s t
      | _ -> false)
  | _ -> false

let run_function (f : Ir.func) : int =
  if Ir.is_declaration f then 0
  else begin
    (* the lattice value of each instruction that left Top, in a slot
       found by its id; the executable blocks by id; the executable edges
       by the ids of their source and destination, one key *)
    let slots = Idtbl.create 64 in
    let values = ref (Array.make 64 Top) and used = ref 0 in
    let lat_of_instr (i : Ir.instr) =
      match Idtbl.find slots i.Ir.iid with -1 -> Top | k -> !values.(k)
    in
    let lat_of_value (v : Ir.value) =
      match v with
      | Ir.Const c -> (
          match Constfold.scalar_of_const c with
          | Some s -> Known s
          | None -> Bottom)
      | Ir.Vundef _ -> Top
      | Ir.Vreg i -> lat_of_instr i
      | Ir.Varg _ | Ir.Vglobal _ | Ir.Vfunc _ -> Bottom
      | Ir.Vblock _ -> Bottom
    in
    let block_executable = Idtbl.create 16 in
    let edge_executable = Idtbl.create 32 in
    (* ids stay below 2^31, so the pair fits one positive int *)
    let edge_key (src : Ir.block) (dst : Ir.block) =
      (dst.Ir.blid lsl 31) lor src.Ir.blid
    in
    let cfg_work = Queue.create () in
    let ssa_work = Queue.create () in
    let mark_edge (src : Ir.block) (dst : Ir.block) =
      if Idtbl.add_absent edge_executable (edge_key src dst) 0 then begin
        if Idtbl.add_absent block_executable dst.Ir.blid 0 then
          Queue.add dst cfg_work
        else
          (* new edge into an already-live block: phis must re-meet *)
          List.iter (fun phi -> Queue.add phi ssa_work) (Ir.block_phis dst)
      end
    in
    let set_lattice (i : Ir.instr) l =
      let old = lat_of_instr i in
      let merged =
        (* lattice only descends *)
        match (old, l) with
        | Top, x -> x
        | x, Top -> x
        | _ -> meet old l
      in
      if not (same_lattice merged old) then begin
        (match Idtbl.find slots i.Ir.iid with
        | -1 ->
            if !used = Array.length !values then
              values := Array.append !values (Array.make !used Top);
            Idtbl.replace slots i.Ir.iid !used;
            !values.(!used) <- merged;
            incr used
        | k -> !values.(k) <- merged);
        List.iter (fun (u : Ir.use) -> Queue.add u.Ir.user ssa_work) i.Ir.iuses
      end
    in
    let visit_instr (i : Ir.instr) =
      match i.Ir.op with
      | Ir.Phi ->
          (* the meet over the incoming edges that are executable *)
          let ops = i.Ir.operands in
          let l = ref Top in
          for k = 0 to (Array.length ops / 2) - 1 do
            let pred = Ir.block_of_value ops.((2 * k) + 1) in
            match i.Ir.iparent with
            | Some b when Idtbl.mem edge_executable (edge_key pred b) ->
                l := meet !l (lat_of_value ops.(2 * k))
            | _ -> ()
          done;
          set_lattice i !l
      | Ir.Binop op -> (
          match (lat_of_value i.Ir.operands.(0), lat_of_value i.Ir.operands.(1)) with
          | Bottom, _ | _, Bottom -> set_lattice i Bottom
          | Top, _ | _, Top -> ()
          | Known a, Known b -> (
              match Eval.binop op a b with
              | r -> set_lattice i (Known r)
              | exception Eval.Division_by_zero -> set_lattice i Bottom
              | exception Eval.Overflow -> set_lattice i Bottom
              | exception Invalid_argument _ -> set_lattice i Bottom))
      | Ir.Setcc c -> (
          match (lat_of_value i.Ir.operands.(0), lat_of_value i.Ir.operands.(1)) with
          | Bottom, _ | _, Bottom -> set_lattice i Bottom
          | Top, _ | _, Top -> ()
          | Known a, Known b -> (
              match
                Eval.compare_scalars (Ir.type_of_value i.Ir.operands.(0)) c a b
              with
              | r -> set_lattice i (Known r)
              | exception Invalid_argument _ -> set_lattice i Bottom))
      | Ir.Cast -> (
          match lat_of_value i.Ir.operands.(0) with
          | Bottom -> set_lattice i Bottom
          | Top -> ()
          | Known a -> (
              match
                Eval.cast
                  ~src_ty:(Ir.type_of_value i.Ir.operands.(0))
                  ~dst_ty:i.Ir.ity a
              with
              | r -> set_lattice i (Known r)
              | exception Invalid_argument _ -> set_lattice i Bottom))
      | Ir.Br when Array.length i.Ir.operands = 3 -> (
          let b = Option.get i.Ir.iparent in
          match lat_of_value i.Ir.operands.(0) with
          | Known (Eval.B true) ->
              mark_edge b (Ir.block_of_value i.Ir.operands.(1))
          | Known (Eval.B false) ->
              mark_edge b (Ir.block_of_value i.Ir.operands.(2))
          | Bottom | Known _ ->
              mark_edge b (Ir.block_of_value i.Ir.operands.(1));
              mark_edge b (Ir.block_of_value i.Ir.operands.(2))
          | Top -> ())
      | Ir.Br ->
          mark_edge (Option.get i.Ir.iparent) (Ir.block_of_value i.Ir.operands.(0))
      | Ir.Mbr -> (
          let b = Option.get i.Ir.iparent in
          match lat_of_value i.Ir.operands.(0) with
          | Known (Eval.I (_, sel)) ->
              let rec find k =
                if k + 1 >= Array.length i.Ir.operands then
                  Ir.block_of_value i.Ir.operands.(1)
                else
                  match i.Ir.operands.(k) with
                  | Ir.Const { ckind = Ir.Cint c; _ } when Int64.equal c sel ->
                      Ir.block_of_value i.Ir.operands.(k + 1)
                  | _ -> find (k + 2)
              in
              mark_edge b (find 2)
          | Top -> ()
          | _ -> List.iter (mark_edge b) (Ir.successors b))
      | Ir.Invoke ->
          let b = Option.get i.Ir.iparent in
          set_lattice i Bottom;
          mark_edge b (Ir.block_of_value i.Ir.operands.(1));
          mark_edge b (Ir.block_of_value i.Ir.operands.(2))
      | Ir.Ret | Ir.Unwind | Ir.Store -> ()
      | Ir.Load | Ir.Call | Ir.Getelementptr | Ir.Alloca ->
          set_lattice i Bottom
    in
    (* seed: entry block *)
    let entry = Ir.entry_block f in
    Idtbl.replace block_executable entry.Ir.blid 0;
    Queue.add entry cfg_work;
    while not (Queue.is_empty cfg_work && Queue.is_empty ssa_work) do
      while not (Queue.is_empty cfg_work) do
        let b = Queue.pop cfg_work in
        List.iter visit_instr b.Ir.instrs
      done;
      while not (Queue.is_empty ssa_work) do
        let i = Queue.pop ssa_work in
        match i.Ir.iparent with
        | Some b when Idtbl.mem block_executable b.Ir.blid -> visit_instr i
        | _ -> ()
      done
    done;
    (* rewrite: constants replace instructions; constant conditions become
       literal so SimplifyCFG can fold the branches *)
    let replaced = ref 0 in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            if (not (Types.equal i.Ir.ity Types.Void)) && i.Ir.op <> Ir.Alloca
            then
              match lat_of_instr i with
              | Known s -> (
                  match Constfold.const_of_scalar i.Ir.ity s with
                  | Some c when i.Ir.iuses <> [] ->
                      Ir.replace_all_uses_with (Ir.Vreg i) c;
                      incr replaced
                  | _ -> ())
              | _ -> ())
          b.Ir.instrs)
      f.Ir.fblocks;
    !replaced
  end

let run_module (m : Ir.modl) : int =
  List.fold_left (fun n f -> n + run_function f) 0 m.Ir.funcs
