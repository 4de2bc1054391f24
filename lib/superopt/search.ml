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
     2. generate + pre-screen + screen — for each window, enumerate
        cheaper replacements from the window's own vocabulary (every
        proper subsequence, every single instruction form, and every
        one-position substitution by a cheaper form); reject, before
        building it, each whose static write set misses a location
        the window changes on the screen vectors (about nine in ten),
        and run each of the rest on the oracle's 6 screen vectors as
        it is generated; almost none survive;
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
   [admissible] and no branch targets it mid-window. Each window keeps
   its last occurrence as [key], and that value is what a rule's
   left-hand side marshals. *)
type 'w seen = { mutable key : 'w; mutable count : int }

let harvest ~admissible ~jump_targets ~canon (codes : 'i array list)
    ~max_len ~max_windows =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun code ->
      let targets = jump_targets code in
      let ok = Array.map admissible code in
      let n = Array.length code in
      for i = 0 to n - 1 do
        (* the longest qualifying window at [i] *)
        let len = ref (if ok.(i) then 1 else 0) in
        while
          !len > 0 && !len < max_len && i + !len < n
          && ok.(i + !len)
          && not targets.(i + !len)
        do
          incr len
        done;
        for len = 1 to !len do
          let cw = canon (Array.to_list (Array.sub code i len)) in
          match Hashtbl.find_opt tbl cw with
          | Some e ->
              e.key <- cw;
              e.count <- e.count + 1
          | None -> Hashtbl.add tbl cw { key = cw; count = 1 }
        done
      done)
    codes;
  let items = Hashtbl.fold (fun _ e acc -> (e.key, e.count) :: acc) tbl [] in
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

(* What a search did, summed over the windows it looked at. Every count
   is deterministic. *)
type stats = {
  mutable windows : int; (* harvested windows *)
  mutable sessions : int; (* windows the oracle can check *)
  mutable generated : int; (* candidates cheaper than their window *)
  mutable pruned : int; (* rejected by the write-set pre-screen *)
  mutable screened : int; (* run on the screen vectors *)
  mutable survivors : int; (* passed the screen *)
  mutable full_checked : int; (* run on the full set *)
  mutable accepted : int; (* windows given a rewrite *)
}

let stats () =
  {
    windows = 0;
    sessions = 0;
    generated = 0;
    pruned = 0;
    screened = 0;
    survivors = 0;
    full_checked = 0;
    accepted = 0;
  }

let stats_line s =
  Printf.sprintf
    "windows %d  sessions %d  generated %d  pruned %d  screened %d  \
     survivors %d  full-checked %d  accepted %d"
    s.windows s.sessions s.generated s.pruned s.screened s.survivors
    s.full_checked s.accepted

(* The cheapest replacement for window [w] that the oracle session [p]
   certifies.

   Candidates are every proper subsequence of [w], every single form,
   and every substitution of one instruction by a cheaper form, kept if
   cheaper than [w]; [forms push] must push each form once. Each is
   first checked against the write-set pre-screen ([Oracle.probe]): one
   whose writes miss a location the window changes is rejected before
   it is built. The rest are built in place, in one buffer of decoded
   instructions, and run on the screen as they are generated; only the
   few survivors are sorted by (cost, structure), and the first of them
   to pass [full] wins. Since the oracle accepts exactly the candidates
   passing both, and the pre-screen rejects only candidates the screen
   would, this is the first accepted candidate of the whole sorted
   list, without building or sorting the rest.

   Table bytes come from [Marshal], which records physical sharing, so
   the winner must also be the same value, not just an equal one. Two
   equal candidates are physically different only when one is a
   subsequence (built from the window's own instructions, which may
   repeat). Sorting the whole candidate list with [List.sort_uniq], as
   this search used to, kept the first subsequence equal to the winner —
   or the next one, when both open one of its three-element runs. The
   winner is mapped back the same way: [generated] is that list's
   length, pruned candidates included, and [subs] its subsequence
   prefix. *)
let best_rewrite ?(stats = stats ()) ~cycles_of ~forms
    (p : ('i, 'op) Oracle.probe) (w : 'i list) : 'i list option =
  let wa = Array.of_list w in
  let n = Array.length wa in
  let cyc = Array.map cycles_of wa in
  let before = Array.fold_left ( + ) 0 cyc in
  let wwrites = Array.map p.writes wa in
  let wops = Array.map p.decode wa in
  let covers m = m land p.must = p.must in
  (* the candidate under test: [ci.(k)] and its decoded [co.(k)]; [fi]
     and [fo] below for one form alone *)
  let ci = Array.copy wa and co = Array.copy wops in
  let generated = ref 0 and survivors = ref [] in
  let pruned () = stats.pruned <- stats.pruned + 1 in
  let screen ci co cost len =
    stats.screened <- stats.screened + 1;
    if p.screen co len then
      survivors := (cost, Array.to_list (Array.sub ci 0 len)) :: !survivors
  in
  (* subsequences, those keeping [wa.(0)] first, recursively: bit
     [n - 1 - j] of [mask] keeps [wa.(j)] *)
  let kept mask j = mask land (1 lsl (n - 1 - j)) <> 0 in
  let subs = ref [] in
  for mask = (1 lsl n) - 2 downto 0 do
    let cost = ref 0 and writes = ref 0 in
    for j = 0 to n - 1 do
      if kept mask j then begin
        cost := !cost + cyc.(j);
        writes := !writes lor wwrites.(j)
      end
    done;
    if !cost < before then begin
      subs := mask :: !subs;
      incr generated;
      if not (covers !writes) then pruned ()
      else begin
        let len = ref 0 in
        for j = 0 to n - 1 do
          if kept mask j then begin
            ci.(!len) <- wa.(j);
            co.(!len) <- wops.(j);
            incr len
          end
        done;
        screen ci co !cost !len
      end
    end
  done;
  (* Then each form as [forms] makes it: on its own, and in place of
     each instruction it is cheaper than, decoded once if any of these
     passes the pre-screen. The order of these candidates does not
     matter: equal ones hold the same form, and one equal to a
     subsequence is mapped back to it below. *)
  Array.blit wa 0 ci 0 n;
  Array.blit wops 0 co 0 n;
  let others =
    Array.init n (fun i ->
        let m = ref 0 in
        Array.iteri (fun j w -> if j <> i then m := !m lor w) wwrites;
        !m)
  in
  let fi = Array.sub wa 0 1 and fo = Array.sub wops 0 1 in
  forms (fun f ->
      let c = cycles_of f in
      if c < before then begin
        let fw = p.writes f in
        let op = ref fo.(0) and decoded = ref false in
        incr generated;
        if not (covers fw) then pruned ()
        else begin
          op := p.decode f;
          decoded := true;
          fi.(0) <- f;
          fo.(0) <- !op;
          screen fi fo c 1
        end;
        for i = 0 to n - 1 do
          if c < cyc.(i) then begin
            incr generated;
            if not (covers (others.(i) lor fw)) then pruned ()
            else begin
              if not !decoded then begin
                op := p.decode f;
                decoded := true
              end;
              ci.(i) <- f;
              co.(i) <- !op;
              screen ci co (before - cyc.(i) + c) n;
              ci.(i) <- wa.(i);
              co.(i) <- wops.(i)
            end
          end
        done
      end);
  stats.generated <- stats.generated + !generated;
  stats.survivors <- stats.survivors + List.length !survivors;
  let ranked = List.sort_uniq compare (List.rev !survivors) in
  match
    List.find_opt
      (fun (_, c) ->
        stats.full_checked <- stats.full_checked + 1;
        p.full (Array.of_list c))
      ranked
  with
  | None -> None
  | Some (_, c) -> (
      stats.accepted <- stats.accepted + 1;
      let sub mask = List.filteri (fun j _ -> kept mask j) w in
      let subs = Array.of_list (List.rev_map sub !subs) in
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
let learn (module B : Backend.S) ?(stats = stats ())
    ?(max_windows = default_max_windows) (mods : Ir.modl list) : Table.t =
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
         stats.windows <- stats.windows + 1;
         let vars = frame_vars b cw in
         let lhs_c = B.concretize vars cw in
         match B.Oracle.session h ~inputs:lhs_c lhs_c with
         | None -> None
         | Some s ->
             stats.sessions <- stats.sessions + 1;
             best_rewrite ~stats ~cycles_of:B.cycles_of ~forms:(B.forms lhs_c)
               (B.Oracle.probe s) lhs_c
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
