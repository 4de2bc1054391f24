(* The superoptimizer's candidate vocabulary, one module per I-ISA:
   [admissible] picks the instructions a rewritable window may contain,
   and [forms w push] makes every single-instruction form expressible in
   window [w]'s own vocabulary (its registers, slots, immediates, widths,
   operators and condition codes), each once, and passes it to [push] as
   it is made, so the search never holds them all. *)

let log2_64 v =
  if Int64.compare v 0L > 0 && Int64.equal (Int64.logand v (Int64.sub v 1L)) 0L
  then begin
    let rec go k x =
      if Int64.equal x 1L then k else go (k + 1) (Int64.shift_right_logical x 1)
    in
    Some (go 0 v)
  end
  else None

(* immediates derivable from a window's own constants: the constants
   themselves, their pairwise folds, and log2 of powers of two (for
   strength reduction) *)
let derive_imms imms =
  let folds =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> [ Int64.add a b; Int64.sub a b; Int64.mul a b ])
          imms)
      imms
  in
  let logs = List.filter_map (fun v -> Option.map Int64.of_int (log2_64 v)) imms in
  let all = List.sort_uniq Int64.compare (imms @ folds @ logs) in
  if List.length all > 24 then List.filteri (fun k _ -> k < 24) all else all

(* Put [v] on the reversed list [l] unless [l] holds an [eq] value: each
   vocabulary list is built newest first and reversed once, so it keeps
   first occurrences in order. *)
let add eq l v = if not (List.exists (eq v) !l) then l := v :: !l

module X86 = struct
  open X86lite.X86

  let is_mem = function M _ -> true | _ -> false

  let reg_ok r = r <> sp && r <> bp

  let admissible_op = function
    | R r -> reg_ok r
    | I _ -> true
    | M { base; disp } ->
        base = bp && disp mod 8 = 0
        && abs disp < Codegen.Peephole.slot_var_base

  (* the rewritable subset: straight-line, trap-free, frame-slot-only
     memory, SP/BP untouched *)
  let admissible = function
    | Mov (a, b) | Cmp (_, _, a, b) ->
        admissible_op a && admissible_op b && not (is_mem a && is_mem b)
    | Alu (_, _, _, a, b) ->
        admissible_op a && admissible_op b && not (is_mem a && is_mem b)
    | Shift (_, _, _, a, b) ->
        admissible_op a && admissible_op b && not (is_mem a && is_mem b)
    | Ext (r, _, _) | Setcc (_, r) -> reg_ok r
    | _ -> false

  let mem_equal a b = a.base = b.base && a.disp = b.disp

  let op_equal a b =
    match (a, b) with
    | R x, R y -> x = y
    | I x, I y -> Int64.equal x y
    | M x, M y -> mem_equal x y
    | _ -> false

  let ws_equal ((w1 : width), s1) (w2, s2) = w1 = w2 && s1 = s2

  (* vocabulary of one concrete window *)
  let vocab (w : instr list) =
    let regs = ref [] and mems = ref [] and imms = ref [] in
    let wss = ref [] and aluops = ref [] and ccs = ref [] in
    let add_reg = add Int.equal regs and add_ws = add ws_equal wss in
    let add_op = function
      | R r -> add_reg r
      | I v -> add Int64.equal imms v
      | M m -> add mem_equal mems m
    in
    List.iter
      (fun i ->
        match i with
        | Mov (a, b) ->
            add_op a;
            add_op b
        | Alu (op, w_, s, a, b) ->
            add ( == ) aluops op;
            add_ws (w_, s);
            add_op a;
            add_op b
        | Shift (_, w_, s, a, b) ->
            add_ws (w_, s);
            add_op a;
            add_op b
        | Cmp (w_, s, a, b) ->
            add_ws (w_, s);
            add_op a;
            add_op b
        | Ext (r, w_, s) ->
            add_reg r;
            add_ws (w_, s)
        | Setcc (cc, r) ->
            add ( == ) ccs cc;
            add_reg r
        | _ -> ())
      w;
    let wss = if !wss = [] then [ (W64, true) ] else List.rev !wss in
    (List.rev !regs, List.rev !mems, List.rev !imms, wss, List.rev !aluops,
     List.rev !ccs)

  (* every single-instruction form expressible in the window's own
     vocabulary, each once *)
  let forms (w : instr list) (push : instr -> unit) =
    let regs, mems, imms, wss, aluops, ccs = vocab w in
    let imms_all = derive_imms imms in
    let dsts = List.map (fun r -> R r) regs @ List.map (fun m -> M m) mems in
    let srcs = dsts @ List.map (fun v -> I v) imms_all in
    let has_shift = List.exists (function Shift _ -> true | _ -> false) w in
    let has_imul = List.mem Imul aluops in
    let has_cmp = List.exists (function Cmp _ -> true | _ -> false) w in
    List.iter
      (fun d ->
        List.iter
          (fun s ->
            if not (op_equal s d || (is_mem d && is_mem s)) then
              push (Mov (d, s)))
          srcs)
      dsts;
    List.iter
      (fun op ->
        List.iter
          (fun (w_, s_) ->
            List.iter
              (fun d ->
                List.iter
                  (fun s ->
                    if not (is_mem d && is_mem s) then push (Alu (op, w_, s_, d, s)))
                  srcs)
              dsts)
          wss)
      aluops;
    if has_shift || has_imul then begin
      let counts =
        List.filter
          (fun v -> Int64.compare v 0L >= 0 && Int64.compare v 63L <= 0)
          imms_all
      in
      List.iter
        (fun left ->
          List.iter
            (fun (w_, s_) ->
              List.iter
                (fun d ->
                  List.iter (fun c -> push (Shift (left, w_, s_, d, I c))) counts)
                dsts)
            wss)
        [ true; false ]
    end;
    List.iter
      (fun r -> List.iter (fun (w_, s_) -> push (Ext (r, w_, s_))) wss)
      regs;
    if has_cmp then
      List.iter
        (fun (w_, s_) ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if not (is_mem a && is_mem b) then push (Cmp (w_, s_, a, b)))
                srcs)
            dsts)
        wss;
    List.iter
      (fun cc -> List.iter (fun r -> push (Setcc (cc, r))) regs)
      ccs
end

module Sparc = struct
  open Sparclite.Sparc

  let reg_ok r = r <> sp && r <> fp && r <> lr

  let admissible = function
    | Alu3 ((Div | Rem), _, _, _, _, _) -> false
    | Alu3 (_, _, _, rd, rs1, o) -> (
        reg_ok rd && reg_ok rs1
        && match o with Rs r -> reg_ok r | Imm _ -> true)
    | Sethi (rd, _) -> reg_ok rd
    | Ld (W64, _, r, b, d) | St (W64, r, b, d) ->
        reg_ok r && b = fp && d mod 8 = 0
        && abs d < Codegen.Peephole.slot_var_base
    | Cmp (_, _, r, o) -> (
        reg_ok r && match o with Rs r2 -> reg_ok r2 | Imm _ -> true)
    | Movcc (_, rd) -> reg_ok rd
    | _ -> false

  let ws_equal ((w1 : width), s1) (w2, s2) = w1 = w2 && s1 = s2

  let vocab (w : instr list) =
    let regs = ref [] and disps = ref [] and imms = ref [] in
    let wss = ref [] and aluops = ref [] and ccs = ref [] in
    let add_reg = add Int.equal regs and add_disp = add Int.equal disps in
    let add_opnd = function
      | Rs r -> add_reg r
      | Imm v -> add Int.equal imms v
    in
    List.iter
      (fun i ->
        match i with
        | Alu3 (op, w_, s, rd, rs1, o) ->
            add ( == ) aluops op;
            add ws_equal wss (w_, s);
            add_reg rd;
            add_reg rs1;
            add_opnd o
        | Sethi (rd, _) -> add_reg rd
        | Ld (_, _, rd, _, d) ->
            add_reg rd;
            add_disp d
        | St (_, rs, _, d) ->
            add_reg rs;
            add_disp d
        | Cmp (w_, s, r, o) ->
            add ws_equal wss (w_, s);
            add_reg r;
            add_opnd o
        | Movcc (cc, rd) ->
            add ( == ) ccs cc;
            add_reg rd
        | _ -> ())
      w;
    let wss = if !wss = [] then [ (W64, true) ] else List.rev !wss in
    (* Or is the move/identity idiom and 0 its operand; always available *)
    let aluops = List.rev !aluops and imms = List.rev !imms in
    let aluops = if List.memq Or aluops then aluops else aluops @ [ Or ] in
    let imms = if List.mem 0 imms then imms else imms @ [ 0 ] in
    (List.rev !regs, List.rev !disps, imms, wss, aluops, List.rev !ccs)

  let forms (w : instr list) (push : instr -> unit) =
    let regs, disps, imms, wss, aluops, ccs = vocab w in
    let imms64 = derive_imms (List.map Int64.of_int imms) in
    let imms_all =
      List.filter_map
        (fun v ->
          if fits_imm13 v then Some (Int64.to_int v) else None)
        imms64
    in
    let has_mul = List.memq Mul aluops in
    let aluops = if has_mul then aluops @ [ Sll ] else aluops in
    let opnds =
      List.map (fun r -> Rs r) regs @ List.map (fun v -> Imm v) imms_all
    in
    (* the bulk of the forms: loops over arrays, so that making one
       allocates only the form *)
    let srcs = Array.of_list (0 :: List.filter (fun r -> r <> 0) regs)
    and opnda = Array.of_list opnds in
    List.iter
      (fun op ->
        List.iter
          (fun (w_, s_) ->
            List.iter
              (fun rd ->
                for a = 0 to Array.length srcs - 1 do
                  for b = 0 to Array.length opnda - 1 do
                    push (Alu3 (op, w_, s_, rd, srcs.(a), opnda.(b)))
                  done
                done)
              regs)
          wss)
      (List.sort_uniq compare aluops);
    List.iter
      (fun rd ->
        List.iter (fun d -> push (Ld (W64, false, rd, fp, d))) disps;
        List.iter (fun d -> push (St (W64, rd, fp, d))) disps)
      regs;
    if List.exists (function Cmp _ -> true | _ -> false) w then
      List.iter
        (fun (w_, s_) ->
          List.iter
            (fun r -> List.iter (fun o -> push (Cmp (w_, s_, r, o))) opnds)
            regs)
        wss;
    List.iter
      (fun cc -> List.iter (fun rd -> push (Movcc (cc, rd))) regs)
      ccs
end
