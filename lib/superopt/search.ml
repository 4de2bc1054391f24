(* The offline enumerative superoptimizer (GreenThumb-style, scaled to
   this repo: test-cases first, then the full oracle vector set, ship
   only certified rewrites).

   Pipeline per backend:
     1. harvest — compile the training modules with the backend's
        default selector, slide 1-4 instruction windows over every
        function (skipping windows that a branch targets mid-window or
        that contain non-rewritable instructions), canonicalize frame
        slots, and keep the most frequent canonical windows;
     2. generate + screen — for each window, enumerate cheaper
        replacements from the window's own vocabulary (every proper
        subsequence, every single instruction form, and every
        one-position substitution by a cheaper form) and run each on
        the oracle's 6 screen vectors as it is generated; almost none
        survive;
     3. sort survivors, then full — order the survivors by (cost,
        structure) and run the full boundary-cross + random oracle set
        ([Oracle]) on them in that order; the first that passes wins,
        so the chosen right-hand side is minimal and deterministic.

   Everything is deterministic: sorted traversal orders, seeded
   vectors, total candidate order — two searches over the same modules
   yield byte-identical tables. *)

open Llva

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

(* ---------- shared by both targets ---------- *)

(* Canonical window -> occurrence count over [codes] (the functions'
   code arrays, in a fixed order), most frequent first, then in
   structural order. A window qualifies when all its instructions are
   [admissible] and no branch targets it mid-window. [Hashtbl.replace]
   keeps each window's last occurrence as the key, and that value is
   what a rule's left-hand side marshals. *)
let harvest ~admissible ~jump_targets ~canon (codes : 'i array list)
    ~max_len ~max_windows =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun code ->
      let targets = jump_targets code in
      let n = Array.length code in
      for i = 0 to n - 1 do
        for len = 1 to max_len do
          if i + len <= n then begin
            let ok = ref true in
            for j = i to i + len - 1 do
              if not (admissible code.(j)) then ok := false
            done;
            for j = i + 1 to i + len - 1 do
              if targets.(j) then ok := false
            done;
            if !ok then begin
              let cw = canon (Array.to_list (Array.sub code i len)) in
              let cur = try Hashtbl.find tbl cw with Not_found -> 0 in
              Hashtbl.replace tbl cw (cur + 1)
            end
          end
        done
      done)
    codes;
  let items = Hashtbl.fold (fun w c acc -> (w, c) :: acc) tbl [] in
  let items =
    List.sort
      (fun (w1, c1) (w2, c2) ->
        if c1 <> c2 then compare c2 c1 else compare w1 w2)
      items
  in
  List.filteri (fun k _ -> k < max_windows) (List.map fst items)

(* the code arrays of a compiled module's functions, in name order *)
let codes_by_name funcs code =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) funcs [])
  |> List.map (fun name -> code (Hashtbl.find funcs name))

(* Is position [p] the first of a three-element run that
   [List.sort_uniq] sorts directly, in a list of [len] elements? It
   halves a list (the first half holding [len asr 1] elements) down to
   runs of two or three. *)
let rec first_of_triple len p =
  if len <= 2 then false
  else if len = 3 then p = 0
  else
    let h = len asr 1 in
    if p < h then first_of_triple h p else first_of_triple (len - h) (p - h)

(* The cheapest replacement for window [w] that the oracle certifies.

   Candidates are every proper subsequence of [w], every single form,
   and every substitution of one instruction by a cheaper form, kept if
   cheaper than [w]. Each is run on the [screen] as it is generated;
   only the few survivors are sorted by (cost, structure), and the
   first of them to pass [full] wins. Since the oracle accepts exactly
   the candidates passing both, this is the first accepted candidate of
   the whole sorted list, without building or sorting the rest.
   [forms] must not repeat a form.

   Table bytes come from [Marshal], which records physical sharing, so
   the winner must also be the same value, not just an equal one. Two
   equal candidates are physically different only when one is a
   subsequence (built from the window's own instructions, which may
   repeat). Sorting the whole candidate list with [List.sort_uniq], as
   this search used to, kept the first subsequence equal to the winner —
   or the next one, when both open one of its three-element runs. The
   winner is mapped back the same way: [generated] is that list's
   length, [subs] its subsequence prefix. *)
let best_rewrite ~cycles_of ~forms ~screen ~full (w : 'i list) :
    'i list option =
  let wa = Array.of_list w in
  let n = Array.length wa in
  let cyc = Array.map cycles_of wa in
  let before = Array.fold_left ( + ) 0 cyc in
  let generated = ref 0 and survivors = ref [] in
  let consider cost code =
    incr generated;
    if screen code then survivors := (cost, Array.to_list code) :: !survivors
  in
  (* subsequences, those keeping [wa.(0)] first, recursively: bit
     [n - 1 - j] of [mask] keeps [wa.(j)] *)
  let subs = ref [] in
  for mask = (1 lsl n) - 2 downto 0 do
    let sub = List.filteri (fun j _ -> mask land (1 lsl (n - 1 - j)) <> 0) w in
    let cost = List.fold_left (fun a i -> a + cycles_of i) 0 sub in
    if cost < before then begin
      subs := sub :: !subs;
      consider cost (Array.of_list sub)
    end
  done;
  let subs = Array.of_list (List.rev !subs) in
  (* a list, not an array: a few hundred forms would make an array
     too big for the minor heap, and a search allocates thousands *)
  let forms = List.map (fun f -> (f, cycles_of f)) forms in
  List.iter (fun (f, cf) -> if cf < before then consider cf [| f |]) forms;
  let code = Array.copy wa in
  for i = 0 to n - 1 do
    List.iter
      (fun (f, cf) ->
        if cf < cyc.(i) then begin
          code.(i) <- f;
          consider (before - cyc.(i) + cf) code
        end)
      forms;
    code.(i) <- wa.(i)
  done;
  let ranked = List.sort_uniq compare (List.rev !survivors) in
  match List.find_opt (fun (_, c) -> full (Array.of_list c)) ranked with
  | None -> None
  | Some (_, c) -> (
      let rec first p =
        if p >= Array.length subs then None
        else if subs.(p) = c then Some p
        else first (p + 1)
      in
      match first 0 with
      | None -> Some c
      | Some p ->
          if
            p + 1 < Array.length subs
            && subs.(p + 1) = c
            && first_of_triple !generated p
          then Some subs.(p + 1)
          else Some subs.(p))

(* ---------- X86-lite ---------- *)

module X86s = struct
  open X86lite
  open X86lite.X86

  let is_mem = function M _ -> true | _ -> false

  let reg_ok r = r <> sp && r <> bp

  let admissible_op = function
    | R r -> reg_ok r
    | I _ -> true
    | M { base; disp } ->
        base = bp && disp mod 8 = 0 && abs disp < Compile.slot_var_base

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

  let jump_targets (code : instr array) =
    let t = Array.make (Array.length code + 2) false in
    Array.iter
      (function
        | Jmp l | Jcc (_, l) | CallSymI (_, l) | CallIndI (_, l) ->
            if l >= 0 && l < Array.length t then t.(l) <- true
        | _ -> ())
      code;
    t

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

  let nvars_of (cw : instr list) =
    let n = ref 0 in
    let chk = function
      | M { disp; _ } when disp >= Compile.slot_var_base ->
          n := max !n (((disp - Compile.slot_var_base) / 8) + 1)
      | _ -> ()
    in
    List.iter
      (fun i ->
        match i with
        | Mov (a, b) | Alu (_, _, _, a, b) | Shift (_, _, _, a, b)
        | Cmp (_, _, a, b) ->
            chk a;
            chk b
        | _ -> ())
      cw;
    !n

  (* invert [Compile.concretize]: map the test displacements back to
     slot variables *)
  let recanon (vars : int array) (w : instr list) : instr list =
    let disp d =
      let rec find k =
        if k >= Array.length vars then d
        else if vars.(k) = d then Compile.slot_var_base + (8 * k)
        else find (k + 1)
      in
      find 0
    in
    let op = function M m -> M { m with disp = disp m.disp } | o -> o in
    List.map
      (fun i ->
        match i with
        | Mov (a, b) -> Mov (op a, op b)
        | Alu (o2, w_, s, a, b) -> Alu (o2, w_, s, op a, op b)
        | Shift (l, w_, s, a, b) -> Shift (l, w_, s, op a, op b)
        | Cmp (w_, s, a, b) -> Cmp (w_, s, op a, op b)
        | i -> i)
      w

end

(* ---------- SPARC-lite ---------- *)

module Sparcs = struct
  open Sparclite
  open Sparclite.Sparc

  let reg_ok r = r <> sp && r <> fp && r <> lr

  let admissible = function
    | Alu3 ((Div | Rem), _, _, _, _, _) -> false
    | Alu3 (_, _, _, rd, rs1, o) -> (
        reg_ok rd && reg_ok rs1
        && match o with Rs r -> reg_ok r | Imm _ -> true)
    | Sethi (rd, _) -> reg_ok rd
    | Ld (W64, _, rd, b, d) ->
        reg_ok rd && b = fp && d mod 8 = 0 && abs d < Compile.slot_var_base
    | St (W64, rs, b, d) ->
        reg_ok rs && b = fp && d mod 8 = 0 && abs d < Compile.slot_var_base
    | Cmp (_, _, r, o) -> (
        reg_ok r && match o with Rs r2 -> reg_ok r2 | Imm _ -> true)
    | Movcc (_, rd) -> reg_ok rd
    | _ -> false

  let jump_targets (code : instr array) =
    let t = Array.make (Array.length code + 2) false in
    Array.iter
      (function
        | Ba l | Bcc (_, l) | CallSymI (_, l) | CallIndI (_, l) ->
            if l >= 0 && l < Array.length t then t.(l) <- true
        | _ -> ())
      code;
    t

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

  let nvars_of (cw : instr list) =
    let n = ref 0 in
    List.iter
      (fun i ->
        match i with
        | Ld (_, _, _, _, d) | St (_, _, _, d) ->
            if d >= Compile.slot_var_base then
              n := max !n (((d - Compile.slot_var_base) / 8) + 1)
        | _ -> ())
      cw;
    !n

  let recanon (vars : int array) (w : instr list) : instr list =
    let disp d =
      let rec find k =
        if k >= Array.length vars then d
        else if vars.(k) = d then Compile.slot_var_base + (8 * k)
        else find (k + 1)
      in
      find 0
    in
    List.map
      (fun i ->
        match i with
        | Ld (w_, s, rd, b, d) -> Ld (w_, s, rd, b, disp d)
        | St (w_, rs, b, d) -> St (w_, rs, b, disp d)
        | i -> i)
      w
end

(* ---------- top-level search ---------- *)

let default_max_windows = 512

(* One target's rules for canonical [windows]: each window is
   instantiated on the frame slots [frame_vars] gives it, [session]
   opens the oracle on it (the screen and full checks, or [None] when
   the window itself is not checkable), and a winner is mapped back to
   slot variables. *)
let learn_rules ~frame_vars ~nvars_of ~concretize ~session ~forms ~cycles_of
    ~recanon windows =
  let cost = List.fold_left (fun a i -> a + cycles_of i) 0 in
  List.filter_map
    (fun cw ->
      let vars = frame_vars (nvars_of cw) in
      let lhs_c = concretize vars cw in
      match session lhs_c with
      | None -> None
      | Some (screen, full) ->
          best_rewrite ~cycles_of ~forms:(forms lhs_c) ~screen ~full lhs_c
          |> Option.map (fun rhs_c ->
                 {
                   Table.lhs = cw;
                   rhs = recanon vars rhs_c;
                   saved = cost lhs_c - cost rhs_c;
                 }))
    windows

let x86_vars nvars = Array.init nvars (fun k -> -8 * (k + 1))
let sparc_vars nvars = Array.init nvars (fun k -> -24 - (8 * k))

let learn_x86 ?(max_windows = default_max_windows) (mods : Ir.modl list) :
    Table.t =
  let open X86lite in
  let codes =
    List.concat_map
      (fun m ->
        codes_by_name (Compile.compile_module m).Compile.funcs (fun cf ->
            cf.Compile.code))
      mods
  in
  let windows =
    harvest ~admissible:X86s.admissible ~jump_targets:X86s.jump_targets
      ~canon:(fun w -> fst (Compile.canon_window w))
      codes ~max_len:4 ~max_windows
  in
  let h = Oracle.X86.make () in
  let session lhs =
    Oracle.X86.session h ~inputs:lhs lhs
    |> Option.map (fun s -> (Oracle.X86.screen_ok s, Oracle.X86.full_ok s))
  in
  Table.x86
    (learn_rules ~frame_vars:x86_vars ~nvars_of:X86s.nvars_of
       ~concretize:Compile.concretize ~session ~forms:X86s.forms
       ~cycles_of:X86.cycles_of ~recanon:X86s.recanon windows)

let learn_sparc ?(max_windows = default_max_windows) (mods : Ir.modl list) :
    Table.t =
  let open Sparclite in
  let codes =
    List.concat_map
      (fun m ->
        codes_by_name (Compile.compile_module m).Compile.funcs (fun cf ->
            cf.Compile.code))
      mods
  in
  let windows =
    harvest ~admissible:Sparcs.admissible ~jump_targets:Sparcs.jump_targets
      ~canon:(fun w -> fst (Compile.canon_window w))
      codes ~max_len:4 ~max_windows
  in
  let h = Oracle.Sparc.make () in
  let session lhs =
    Oracle.Sparc.session h ~inputs:lhs lhs
    |> Option.map (fun s -> (Oracle.Sparc.screen_ok s, Oracle.Sparc.full_ok s))
  in
  Table.sparc
    (learn_rules ~frame_vars:sparc_vars ~nvars_of:Sparcs.nvars_of
       ~concretize:Compile.concretize ~session ~forms:Sparcs.forms
       ~cycles_of:Sparc.cycles_of ~recanon:Sparcs.recanon windows)

let learn ~(target : string) ?max_windows (mods : Ir.modl list) : Table.t =
  match target with
  | "x86lite" -> learn_x86 ?max_windows mods
  | "sparclite" -> learn_sparc ?max_windows mods
  | t -> invalid_arg ("Superopt.Search.learn: unknown target " ^ t)

(* Re-verify every rule of a table against the oracle (CI gate: a table
   that no longer verifies under the current simulators must not ship).
   Returns the indices of failing rules. *)
let reverify (t : Table.t) : int list =
  let failing ~frame_vars ~nvars_of ~concretize ~verify rs =
    List.concat
      (List.mapi
         (fun k (r : _ Table.rule) ->
           let vars = frame_vars (nvars_of r.Table.lhs) in
           match
             verify (concretize vars r.Table.lhs) (concretize vars r.Table.rhs)
           with
           | true -> []
           | false | (exception _) -> [ k ])
         rs)
  in
  match t.Table.rules with
  | Table.X86_rules rs ->
      failing ~frame_vars:x86_vars ~nvars_of:X86s.nvars_of
        ~concretize:X86lite.Compile.concretize
        ~verify:(Oracle.X86.verify_rule (Oracle.X86.make ()))
        rs
  | Table.Sparc_rules rs ->
      failing ~frame_vars:sparc_vars ~nvars_of:Sparcs.nvars_of
        ~concretize:Sparclite.Compile.concretize
        ~verify:(Oracle.Sparc.verify_rule (Oracle.Sparc.make ()))
        rs
