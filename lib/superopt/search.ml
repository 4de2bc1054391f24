(* The offline enumerative superoptimizer (GreenThumb-style, scaled to
   this repo: test-cases first, then the full oracle vector set, ship
   only certified rewrites).

   The search is written once over [Backend.S]; what differs per
   back-end is its candidate vocabulary ([Vocab]), its oracle
   ([Oracle]) and its slot hooks ([Codegen.Peephole]).

   Pipeline per back-end:
     1. harvest — compile the training modules with the back-end's
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

(* ---------- top-level search ---------- *)

let default_max_windows = 512

(* The first spill slots of back-end [B], one per slot variable of the
   canonical window [cw]. *)
let frame_vars (type i) (module B : Backend.S with type instr = i)
    (cw : i list) =
  let n = ref 0 in
  List.iter
    (fun i ->
      ignore
        (B.map_slots
           (fun d ->
             if d >= Codegen.Peephole.slot_var_base then
               n := max !n (((d - Codegen.Peephole.slot_var_base) / 8) + 1);
             d)
           i))
    cw;
  Array.init !n B.slot_disp

(* Invert [B.concretize]: map the concrete displacements back to slot
   variables. *)
let recanon (type i) (module B : Backend.S with type instr = i)
    (vars : int array) (w : i list) =
  let disp d =
    let rec find k =
      if k >= Array.length vars then d
      else if vars.(k) = d then Codegen.Peephole.slot_var_base + (8 * k)
      else find (k + 1)
    in
    find 0
  in
  List.map (B.map_slots disp) w

(* Learn a table for a back-end from the windows its default selector
   emits for [mods]: each canonical window is instantiated on the first
   spill slots, the oracle opens a session on it (none when the window
   itself is not checkable), and the winner is mapped back to slot
   variables. *)
let learn (module B : Backend.S) ?(max_windows = default_max_windows)
    (mods : Ir.modl list) : Table.t =
  let b = (module B : Backend.S with type instr = B.instr) in
  let codes =
    List.concat_map
      (fun m ->
        codes_by_name (B.compile_module m).Codegen.Native.funcs (fun cf ->
            cf.Codegen.Native.code))
      mods
  in
  let windows =
    harvest ~admissible:B.admissible ~jump_targets:B.jump_targets
      ~canon:(fun w -> fst (B.canon_window w))
      codes ~max_len:4 ~max_windows
  in
  let h = B.Oracle.make () in
  let cost = List.fold_left (fun a i -> a + B.cycles_of i) 0 in
  Table.make b
    (List.filter_map
       (fun cw ->
         let vars = frame_vars b cw in
         let lhs_c = B.concretize vars cw in
         match B.Oracle.session h ~inputs:lhs_c lhs_c with
         | None -> None
         | Some s ->
             best_rewrite ~cycles_of:B.cycles_of ~forms:(B.forms lhs_c)
               ~screen:(B.Oracle.screen_ok s) ~full:(B.Oracle.full_ok s) lhs_c
             |> Option.map (fun rhs_c ->
                    {
                      Table.lhs = cw;
                      rhs = recanon b vars rhs_c;
                      saved = cost lhs_c - cost rhs_c;
                    }))
       windows)

(* Re-verify every rule of a table against the oracle (CI gate: a table
   that no longer verifies under the current simulators must not ship).
   Returns the indices of failing rules. *)
let reverify (t : Table.t) : int list =
  let failing (type i) (module B : Backend.S with type instr = i)
      (rs : i Table.rule list) =
    let h = B.Oracle.make () in
    List.concat
      (List.mapi
         (fun k (r : i Table.rule) ->
           let vars = frame_vars (module B) r.Table.lhs in
           match
             B.Oracle.verify_rule h (B.concretize vars r.Table.lhs)
               (B.concretize vars r.Table.rhs)
           with
           | true -> []
           | false | (exception _) -> [ k ])
         rs)
  in
  match Table.unpack t with Table.Rules (b, rs) -> failing b rs
