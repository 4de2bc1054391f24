(* The superoptimizer's candidate vocabulary, one module per I-ISA:
   [admissible] picks the instructions a rewritable window may contain,
   and [forms] lists every single-instruction form expressible in a
   window's own vocabulary (its registers, slots, immediates, widths,
   operators and condition codes), each once. *)

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
  let all = List.sort_uniq compare (imms @ folds @ logs) in
  if List.length all > 24 then List.filteri (fun k _ -> k < 24) all else all

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

  (* vocabulary of one concrete window *)
  let vocab (w : instr list) =
    let regs = ref [] and mems = ref [] and imms = ref [] in
    let wss = ref [] and aluops = ref [] and ccs = ref [] in
    let add l v = if not (List.mem v !l) then l := !l @ [ v ] in
    let add_op = function
      | R r -> add regs r
      | I v -> add imms v
      | M m -> add mems m
    in
    List.iter
      (fun i ->
        match i with
        | Mov (a, b) ->
            add_op a;
            add_op b
        | Alu (op, w_, s, a, b) ->
            add aluops op;
            add wss (w_, s);
            add_op a;
            add_op b
        | Shift (_, w_, s, a, b) ->
            add wss (w_, s);
            add_op a;
            add_op b
        | Cmp (w_, s, a, b) ->
            add wss (w_, s);
            add_op a;
            add_op b
        | Ext (r, w_, s) ->
            add regs r;
            add wss (w_, s)
        | Setcc (cc, r) ->
            add ccs cc;
            add regs r
        | _ -> ())
      w;
    if !wss = [] then wss := [ (W64, true) ];
    (!regs, !mems, !imms, !wss, !aluops, !ccs)

  (* every single-instruction form expressible in the window's own
     vocabulary, each once *)
  let forms (w : instr list) : instr list =
    let regs, mems, imms, wss, aluops, ccs = vocab w in
    let imms_all = derive_imms imms in
    let dsts = List.map (fun r -> R r) regs @ List.map (fun m -> M m) mems in
    let srcs = dsts @ List.map (fun v -> I v) imms_all in
    let has_shift = List.exists (function Shift _ -> true | _ -> false) w in
    let has_imul = List.mem Imul aluops in
    let has_cmp = List.exists (function Cmp _ -> true | _ -> false) w in
    let out = ref [] in
    let push i = out := i :: !out in
    List.iter
      (fun d ->
        List.iter
          (fun s -> if s <> d && not (is_mem d && is_mem s) then push (Mov (d, s)))
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
      ccs;
    !out
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

  let vocab (w : instr list) =
    let regs = ref [] and disps = ref [] and imms = ref [] in
    let wss = ref [] and aluops = ref [] and ccs = ref [] in
    let add l v = if not (List.mem v !l) then l := !l @ [ v ] in
    let add_opnd = function Rs r -> add regs r | Imm v -> add imms v in
    List.iter
      (fun i ->
        match i with
        | Alu3 (op, w_, s, rd, rs1, o) ->
            add aluops op;
            add wss (w_, s);
            add regs rd;
            add regs rs1;
            add_opnd o
        | Sethi (rd, _) -> add regs rd
        | Ld (_, _, rd, _, d) ->
            add regs rd;
            add disps d
        | St (_, rs, _, d) ->
            add regs rs;
            add disps d
        | Cmp (w_, s, r, o) ->
            add wss (w_, s);
            add regs r;
            add_opnd o
        | Movcc (cc, rd) ->
            add ccs cc;
            add regs rd
        | _ -> ())
      w;
    if !wss = [] then wss := [ (W64, true) ];
    (* Or is the move/identity idiom; always available *)
    if not (List.mem Or !aluops) then aluops := !aluops @ [ Or ];
    if not (List.mem 0 !imms) then imms := !imms @ [ 0 ];
    (!regs, !disps, !imms, !wss, !aluops, !ccs)

  let forms (w : instr list) : instr list =
    let regs, disps, imms, wss, aluops, ccs = vocab w in
    let imms64 = derive_imms (List.map Int64.of_int imms) in
    let imms_all =
      List.filter_map
        (fun v ->
          if fits_imm13 v then Some (Int64.to_int v) else None)
        imms64
    in
    let has_mul = List.mem Mul aluops in
    let aluops = if has_mul then aluops @ [ Sll ] else aluops in
    let opnds =
      List.map (fun r -> Rs r) regs @ List.map (fun v -> Imm v) imms_all
    in
    let out = ref [] in
    let push i = out := i :: !out in
    List.iter
      (fun op ->
        List.iter
          (fun (w_, s_) ->
            List.iter
              (fun rd ->
                List.iter
                  (fun rs1 ->
                    List.iter (fun o -> push (Alu3 (op, w_, s_, rd, rs1, o))) opnds)
                  (0 :: List.filter (fun r -> r <> 0) regs))
              regs)
          wss)
      (List.sort_uniq compare aluops)
    ;
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
      ccs;
    !out
end
