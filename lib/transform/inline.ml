(* Function inlining (a link-time interprocedural optimization, §4.2).

   Direct, non-recursive calls to small function bodies are spliced into
   the caller: the call block is split, the callee's blocks are cloned
   with arguments substituted, each ret becomes a branch to the
   continuation (merged through a phi when the callee has several
   returns), and the callee's static allocas migrate to the caller's
   entry block so loops do not grow the stack. *)

open Llva

(* callees of at most this many instructions are inlined *)
let threshold = 60

(* ---------- cloning ---------- *)

type vmap = {
  args : (int, Ir.value) Hashtbl.t;
  instrs : (int, Ir.instr) Hashtbl.t;
  blocks : (int, Ir.block) Hashtbl.t;
}

let remap vmap (v : Ir.value) : Ir.value =
  match v with
  | Ir.Varg a -> (
      match Hashtbl.find_opt vmap.args a.Ir.aid with Some x -> x | None -> v)
  | Ir.Vreg i -> (
      match Hashtbl.find_opt vmap.instrs i.Ir.iid with
      | Some x -> Ir.Vreg x
      | None -> v)
  | Ir.Vblock b -> (
      match Hashtbl.find_opt vmap.blocks b.Ir.blid with
      | Some x -> Ir.Vblock x
      | None -> v)
  | _ -> v

(* Inline [call] (a direct Call to [callee]); returns true on success. *)
let inline_call (call : Ir.instr) (callee : Ir.func) : bool =
  match (call.Ir.iparent, call.Ir.op) with
  | Some host, Ir.Call when not (Ir.is_declaration callee) ->
      let caller = Option.get host.Ir.bparent in
      let actuals = Ir.call_args call in
      (* 1. split the host block after the call *)
      let cont = Ir.mk_block ~name:(host.Ir.bname ^ ".cont") () in
      let rec split before = function
        | [] -> (List.rev before, [])
        | x :: rest when x == call -> (List.rev before, rest)
        | x :: rest -> split (x :: before) rest
      in
      let before, after = split [] host.Ir.instrs in
      host.Ir.instrs <- before;
      List.iter
        (fun (i : Ir.instr) ->
          i.Ir.iparent <- Some cont;
          cont.Ir.instrs <- cont.Ir.instrs @ [ i ])
        after;
      (* successors' phis now arrive from cont *)
      List.iter
        (fun succ -> Ir.phi_replace_pred succ ~old_pred:host ~new_pred:cont)
        (List.sort_uniq compare (Ir.successors cont));
      (* 2. build the value map *)
      let vmap =
        {
          args = Hashtbl.create 8;
          instrs = Hashtbl.create 64;
          blocks = Hashtbl.create 16;
        }
      in
      List.iteri
        (fun k (a : Ir.arg) ->
          match List.nth_opt actuals k with
          | Some v -> Hashtbl.replace vmap.args a.Ir.aid v
          | None -> ())
        callee.Ir.fargs;
      (* 3. clone blocks and instruction shells *)
      let clones =
        List.map
          (fun (b : Ir.block) ->
            let nb =
              Ir.mk_block ~name:(callee.Ir.fname ^ "." ^ b.Ir.bname) ()
            in
            Hashtbl.replace vmap.blocks b.Ir.blid nb;
            (b, nb))
          callee.Ir.fblocks
      in
      let rets = ref [] in
      List.iter
        (fun ((b : Ir.block), (nb : Ir.block)) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.Ir.op with
              | Ir.Ret ->
                  let v =
                    if Array.length i.Ir.operands = 1 then
                      Some i.Ir.operands.(0)
                    else None
                  in
                  rets := (nb, v) :: !rets;
                  Ir.append_instr nb
                    (Ir.mk_instr Ir.Br [| Ir.Vblock cont |] Types.Void)
              | _ ->
                  let ni = Ir.mk_instr ~name:i.Ir.iname i.Ir.op [||] i.Ir.ity in
                  ni.Ir.exceptions_enabled <- i.Ir.exceptions_enabled;
                  Hashtbl.replace vmap.instrs i.Ir.iid ni;
                  Ir.append_instr nb ni)
            b.Ir.instrs)
        clones;
      (* 4. remap operands; ret operands were captured raw, remap them too *)
      List.iter
        (fun ((b : Ir.block), _) ->
          List.iter
            (fun (i : Ir.instr) ->
              match Hashtbl.find_opt vmap.instrs i.Ir.iid with
              | Some ni ->
                  ni.Ir.operands <- Array.map (remap vmap) i.Ir.operands;
                  Ir.register_operand_uses ni
              | None -> ())
            b.Ir.instrs)
        clones;
      let rets = List.map (fun (nb, v) -> (nb, Option.map (remap vmap) v)) !rets in
      (* 5. branch into the cloned entry *)
      let entry_clone = Hashtbl.find vmap.blocks (Ir.entry_block callee).Ir.blid in
      Ir.append_instr host
        (Ir.mk_instr Ir.Br [| Ir.Vblock entry_clone |] Types.Void);
      (* 6. the call's result *)
      if not (Types.equal call.Ir.ity Types.Void) then begin
        let result =
          match rets with
          | [ (_, Some v) ] -> v
          | [] -> Ir.Vundef call.Ir.ity (* callee never returns *)
          | pairs ->
              let phi =
                Ir.mk_instr ~name:(callee.Ir.fname ^ ".ret") Ir.Phi
                  (Array.of_list
                     (List.concat_map
                        (fun (nb, v) ->
                          [
                            (match v with
                            | Some v -> v
                            | None -> Ir.Vundef call.Ir.ity);
                            Ir.Vblock nb;
                          ])
                        pairs))
                  call.Ir.ity
              in
              Ir.prepend_instr cont phi;
              Ir.Vreg phi
        in
        Ir.replace_all_uses_with (Ir.Vreg call) result
      end;
      Ir.remove_instr call;
      (* 7. splice blocks into the caller: host, clones..., cont, rest *)
      let rec insert_after = function
        | [] -> List.map snd clones @ [ cont ]
        | b :: rest when b == host -> (b :: List.map snd clones) @ (cont :: rest)
        | b :: rest -> b :: insert_after rest
      in
      List.iter
        (fun (_, nb) -> nb.Ir.bparent <- Some caller)
        clones;
      cont.Ir.bparent <- Some caller;
      caller.Ir.fblocks <- insert_after caller.Ir.fblocks;
      (* 8. migrate static allocas to the caller entry *)
      let caller_entry = Ir.entry_block caller in
      List.iter
        (fun (_, (nb : Ir.block)) ->
          let statics =
            List.filter
              (fun (i : Ir.instr) ->
                i.Ir.op = Ir.Alloca && Array.length i.Ir.operands = 0)
              nb.Ir.instrs
          in
          List.iter
            (fun (a : Ir.instr) ->
              nb.Ir.instrs <- List.filter (fun x -> not (x == a)) nb.Ir.instrs;
              a.Ir.iparent <- Some caller_entry;
              caller_entry.Ir.instrs <- a :: caller_entry.Ir.instrs)
            statics)
        clones;
      true
  | _ -> false

(* ---------- the pass ---------- *)

let function_size (f : Ir.func) = Ir.instr_count f

let run_module (m : Ir.modl) : int =
  let cg = Analysis.Callgraph.compute m in
  let inlined = ref 0 in
  List.iter
    (fun (caller : Ir.func) ->
      if not (Ir.is_declaration caller) then begin
        let budget = ref (max 400 (3 * function_size caller)) in
        let find_site () =
          Ir.fold_instrs
            (fun acc i ->
              match (acc, i.Ir.op) with
              | Some _, _ -> acc
              | None, Ir.Call -> (
                  match Ir.call_callee i with
                  | Ir.Vfunc callee
                    when (not (Ir.is_declaration callee))
                         && (not (callee == caller))
                         && (not callee.Ir.fvarargs)
                         && (not (Analysis.Callgraph.is_recursive cg callee))
                         && function_size callee <= threshold
                         && function_size callee <= !budget ->
                      Some (i, callee)
                  | _ -> None)
              | None, _ -> None)
            None caller
        in
        let rec go () =
          match find_site () with
          | Some (site, callee) when inline_call site callee ->
              budget := !budget - function_size callee;
              incr inlined;
              go ()
          | _ -> ()
        in
        go ()
      end)
    m.Ir.funcs;
  !inlined
