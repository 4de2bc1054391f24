(* Unit tests for the superoptimizer's oracle and search loop: the
   screen/full split of the oracle, its vector sets, the per-handle
   observation buffer shared by sessions, and the search's choice of a
   winner among equal candidates. *)

open Superopt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- vector sets ---------- *)

(* The vector sets as the oracle used to build them, eagerly, for every
   session: 6 screen vectors, then the boundary cross-product on the
   first two inputs, then 24 more random tails. *)
let eager_vectors ~n : int64 array list * int64 array list =
  let rnd tag = Array.init n (fun j -> Oracle.mix ((tag * 97) + j)) in
  let screen = List.init 6 (fun k -> rnd k) in
  let boundaries = Oracle.boundaries in
  let nb = Array.length boundaries in
  let cross =
    if n = 0 then [ [||] ]
    else if n = 1 then Array.to_list (Array.map (fun v -> [| v |]) boundaries)
    else
      List.concat
        (List.init nb (fun i ->
             List.init nb (fun j ->
                 Array.init n (fun t ->
                     if t = 0 then boundaries.(i)
                     else if t = 1 then boundaries.(j)
                     else Oracle.mix ((((i * nb) + j) * 13) + t)))))
  in
  let extra = List.init 24 (fun k -> rnd (1000 + k)) in
  (screen, screen @ cross @ extra)

let vectors_of (vs : Oracle.vectors) =
  List.init vs.Oracle.count (Oracle.vector vs)

let test_vector_counts () =
  List.iter
    (fun (n, full) ->
      check_int
        (Printf.sprintf "screen vectors, n=%d" n)
        6
        (Oracle.screen_vectors ~n).Oracle.count;
      check_int
        (Printf.sprintf "full vectors, n=%d" n)
        full
        (Oracle.full_vectors ~n).Oracle.count)
    [ (0, 31); (1, 59); (2, 871); (3, 871); (7, 871) ]

let test_lazy_full_set_matches_eager () =
  let h = Oracle.X86.make () in
  for n = 0 to 6 do
    let screen, full = eager_vectors ~n in
    let same what a b =
      check_bool (Printf.sprintf "%s, n=%d" what n) true (a = b)
    in
    same "screen" (vectors_of (Oracle.screen_vectors ~n)) screen;
    same "full" (vectors_of (Oracle.full_vectors ~n)) full;
    (* the handle's memoized sets, built only on demand *)
    same "handle screen" (vectors_of (Oracle.X86.screen_set h n)) screen;
    same "handle full" (vectors_of (Oracle.X86.full_set h n)) full;
    check_bool "memoized per handle" true
      (Oracle.X86.full_set h n == Oracle.X86.full_set h n)
  done

(* ---------- harvested windows and their candidates ---------- *)

let workload name =
  match Workloads.find name with
  | Some w -> Workloads.compile_optimized ~level:1 w
  | None -> Alcotest.failf "no workload %s" name

(* proper subsequences, every 7th single form, and substitutions of the
   first instruction by every 11th form: a sample of what the search
   generates for [w] *)
let sample_candidates forms (w : 'i list) : 'i array list =
  let n = List.length w in
  let subs =
    List.init ((1 lsl n) - 1) (fun mask ->
        Array.of_list (List.filteri (fun j _ -> mask land (1 lsl j) <> 0) w))
  in
  let singles =
    List.filteri (fun k _ -> k mod 7 = 0) forms |> List.map (fun f -> [| f |])
  in
  let substs =
    List.filteri (fun k _ -> k mod 11 = 0) forms
    |> List.map (fun f ->
           let a = Array.of_list w in
           a.(0) <- f;
           a)
  in
  subs @ singles @ substs

(* the forms of window [w], in the order the search once listed them *)
let forms_of (type i) (module B : Backend.S with type instr = i) (w : i list) =
  let l = ref [] in
  B.forms w (fun f -> l := f :: !l);
  !l

(* the harvested windows of one workload, concretized on the first
   spill slots, each with a sample of its candidates *)
let cases (type i) (module B : Backend.S with type instr = i) =
  let cm = B.compile_module (workload "181.mcf") in
  Search.harvest ~admissible:B.admissible ~jump_targets:B.jump_targets
    ~canon:(fun w -> fst (B.canon_window w))
    (Search.codes_by_name cm.Codegen.Native.funcs (fun cf -> cf.Codegen.Native.code))
    ~max_len:4 ~max_windows:48
  |> List.map (fun cw ->
         let lhs = B.concretize (Search.frame_vars (module B) cw) cw in
         (lhs, sample_candidates (forms_of (module B) lhs) lhs))

let x86_cases () = cases (module Backend.X86)
let sparc_cases () = cases (module Backend.Sparc)

(* [candidate_ok] is the screen followed by the full set, on every
   candidate of every harvested window; returns how many candidates
   were checked *)
let split_agrees ~session ~candidate_ok ~screen_ok ~full_ok cases =
  let checked = ref 0 in
  List.iter
    (fun (lhs, cands) ->
      match session lhs with
      | None -> ()
      | Some s ->
          List.iter
            (fun c ->
              incr checked;
              check_bool "candidate_ok = screen_ok && full_ok"
                (screen_ok s c && full_ok s c)
                (candidate_ok s c))
            cands)
    cases;
  !checked

let test_split_x86 () =
  let h = Oracle.X86.make () in
  let checked =
    split_agrees
      ~session:(fun lhs -> Oracle.X86.session h ~inputs:lhs lhs)
      ~candidate_ok:Oracle.X86.candidate_ok ~screen_ok:Oracle.X86.screen_ok
      ~full_ok:Oracle.X86.full_ok (x86_cases ())
  in
  check_bool "x86lite candidates checked" true (checked > 500)

let test_split_sparc () =
  let h = Oracle.Sparc.make () in
  let checked =
    split_agrees
      ~session:(fun lhs -> Oracle.Sparc.session h ~inputs:lhs lhs)
      ~candidate_ok:Oracle.Sparc.candidate_ok
      ~screen_ok:Oracle.Sparc.screen_ok ~full_ok:Oracle.Sparc.full_ok
      (sparc_cases ())
  in
  check_bool "sparclite candidates checked" true (checked > 500)

(* Sessions of one handle share its full-set observation buffer: a
   session whose observations another session overwrote must observe
   again, so interleaving sessions cannot change a verdict. *)
let test_sessions_interleave () =
  let cases =
    List.filteri (fun k _ -> k < 12) (x86_cases ())
    |> List.filter_map (fun (lhs, cands) ->
           let h = Oracle.X86.make () in
           Option.map
             (fun s -> (lhs, cands, List.map (Oracle.X86.full_ok s) cands))
             (Oracle.X86.session h ~inputs:lhs lhs))
  in
  let h = Oracle.X86.make () in
  let sessions =
    List.map
      (fun (lhs, cands, alone) ->
        (Option.get (Oracle.X86.session h ~inputs:lhs lhs), cands, alone))
      cases
  in
  let pending = ref sessions in
  (* one candidate from each session in turn *)
  while !pending <> [] do
    pending :=
      List.filter_map
        (fun (s, cands, alone) ->
          match (cands, alone) with
          | c :: cands, a :: alone ->
              check_bool "verdict independent of other sessions" a
                (Oracle.X86.full_ok s c);
              Some (s, cands, alone)
          | _ -> None)
        !pending
  done;
  check_bool "several sessions" true (List.length sessions > 4)

(* ---------- the full set is stronger than the screen ---------- *)

(* [cx := (ax = 0)] and [cx := 0] agree whenever ax is nonzero, which
   holds on every random screen vector; the boundary vector ax = 0 tells
   them apart. *)
let test_boundary_rejects_x86 () =
  let open X86lite.X86 in
  let h = Oracle.X86.make () in
  let cmp = Cmp (W64, true, R ax, I 0L) in
  let lhs = [ cmp; Setcc (Eq, cx) ] and rhs = [| cmp; Mov (R cx, I 0L) |] in
  let s = Option.get (Oracle.X86.session h ~inputs:lhs lhs) in
  check_bool "passes the screen" true (Oracle.X86.screen_ok s rhs);
  check_bool "fails the full set" false (Oracle.X86.full_ok s rhs);
  check_bool "rejected" false (Oracle.X86.candidate_ok s rhs);
  check_bool "rule refuted" false
    (Oracle.X86.verify_rule h lhs (Array.to_list rhs));
  check_bool "the window itself verifies" true
    (Oracle.X86.verify_rule h lhs lhs)

let test_boundary_rejects_sparc () =
  let open Sparclite.Sparc in
  let h = Oracle.Sparc.make () in
  let cmp = Cmp (W64, true, 8, Imm 0) in
  let lhs = [ cmp; Movcc (Eq, 9) ]
  and rhs = [| cmp; Alu3 (Or, W64, true, 9, 0, Imm 0) |] in
  let s = Option.get (Oracle.Sparc.session h ~inputs:lhs lhs) in
  check_bool "passes the screen" true (Oracle.Sparc.screen_ok s rhs);
  check_bool "fails the full set" false (Oracle.Sparc.full_ok s rhs);
  check_bool "rejected" false (Oracle.Sparc.candidate_ok s rhs)

(* ---------- which of several equal candidates wins ---------- *)

(* [first_of_triple] predicts which of two adjacent equal elements
   [List.sort_uniq] keeps, for every list length and position *)
let test_first_of_triple () =
  for len = 2 to 300 do
    for p = 0 to len - 2 do
      (* keys 0..len-1 except that p and p+1 share a key; tags tell the
         two apart *)
      let l =
        List.init len (fun i -> ((if i > p then i - 1 else i), i))
      in
      let kept =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) l
        |> List.assoc p
      in
      let expect = if Search.first_of_triple len p then p + 1 else p in
      if kept <> expect then
        Alcotest.failf "len %d, p %d: sort_uniq kept %d, predicted %d" len p
          kept expect
    done
  done

(* A window holding two equal but physically distinct instructions: the
   winner is whichever copy the old sort of the whole candidate list
   kept, since the table's bytes record physical sharing. *)
let test_physical_winner () =
  let open X86lite.X86 in
  let a = Mov (R ax, R bx) and a' = Mov (R ax, R bx) in
  check_bool "distinct copies" false (a == a');
  let accept c = c = [| a |] in
  let probe =
    {
      Oracle.must = 0;
      writes = (fun _ -> 0);
      decode = Fun.id;
      screen = (fun ops len -> accept (Array.sub ops 0 len));
      full = accept;
    }
  in
  let winner forms =
    match
      Search.best_rewrite ~cycles_of
        ~forms:(fun push -> List.iter push forms)
        probe [ a; a' ]
    with
    | Some [ w ] -> w
    | _ -> Alcotest.fail "expected a one-instruction winner"
  in
  (* the old candidate list, sorted as the search once sorted it *)
  let old_kept forms =
    let cost = List.fold_left (fun s i -> s + cycles_of i) 0 in
    let before = cost [ a; a' ] in
    List.filter
      (fun c -> cost c < before)
      ([ [ a ]; [ a' ]; [] ]
      @ List.map (fun f -> [ f ]) forms
      @ List.concat
          (List.mapi
             (fun i e ->
               List.filter_map
                 (fun f ->
                   if cycles_of f < cycles_of e then
                     Some
                       (List.mapi (fun j x -> if j = i then f else x) [ a; a' ])
                   else None)
                 forms)
             [ a; a' ]))
    |> List.map (fun c -> (cost c, c))
    |> List.sort_uniq compare
    |> List.find (fun (_, c) -> c = [ a ])
    |> snd |> List.hd
  in
  (* three candidates: the two copies open a three-element run *)
  check_bool "second copy kept" true (winner [] == a' && old_kept [] == a');
  (* four: runs of two, the first copy is kept *)
  let f = Mov (R cx, R dx) in
  check_bool "first copy kept" true (winner [ f ] == a && old_kept [ f ] == a)

(* ---------- the write-set pre-screen ---------- *)

(* Random instructions shaped like a window's: [admissible] is asserted
   on each, so the generators track what the search can meet. *)
let gen_x86 : X86lite.X86.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let open X86lite.X86 in
  let reg = oneofl [ ax; cx; dx; bx; si; di ] in
  let imm =
    oneof [ oneofl [ 0L; 1L; -1L; 7L; 63L; 64L; Int64.min_int ]; ui64 ]
  in
  let opnd =
    frequency
      [
        (3, map (fun r -> R r) reg);
        (2, map (fun v -> I v) imm);
        (2, map (fun d -> M { base = bp; disp = d }) (oneofl [ -8; -16; -24 ]));
      ]
  in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let cc = oneofl [ Eq; Ne; Lt; Gt; Le; Ge; Ltu; Gtu; Leu; Geu ] in
  let dst = oneof [ map (fun r -> R r) reg; opnd ] in
  let two = pair dst opnd in
  let instr =
    oneof
      [
        map (fun (a, b) -> Mov (a, b)) two;
        (let* op = oneofl [ Add; Sub; Imul; And; Or; Xor ] in
         let* w = width and* s = bool and* a, b = two in
         return (Alu (op, w, s, a, b)));
        (let* l = bool and* w = width and* s = bool and* a, b = two in
         return (Shift (l, w, s, a, b)));
        map3 (fun r w s -> Ext (r, w, s)) reg width bool;
        (let* w = width and* s = bool and* a, b = two in
         return (Cmp (w, s, a, b)));
        map2 (fun c r -> Setcc (c, r)) cc reg;
      ]
  in
  (* no instruction has two memory operands *)
  map
    (function
      | Mov (M _, M _) -> Mov (R ax, R bx)
      | Alu (op, w, s, (M _ as a), M _) -> Alu (op, w, s, a, R cx)
      | Shift (l, w, s, (M _ as a), M _) -> Shift (l, w, s, a, I 3L)
      | Cmp (w, s, (M _ as a), M _) -> Cmp (w, s, a, R dx)
      | i -> i)
    instr

let gen_sparc : Sparclite.Sparc.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Sparclite.Sparc in
  let reg = oneofl [ 0; 1; 2; 3; 8; 9; 16; 17; 31 ] in
  let opnd =
    frequency
      [
        (3, map (fun r -> Rs r) reg);
        (2, map (fun v -> Imm v) (oneofl [ 0; 1; -1; 7; 63; 64; 4095; -4096 ]));
      ]
  in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let cc = oneofl [ Eq; Ne; Lt; Gt; Le; Ge; Ltu; Gtu; Leu; Geu ] in
  let disp = oneofl [ -8; -16; -24 ] in
  oneof
    [
      (let* op = oneofl [ Add; Sub; Mul; And; Or; Xor; Sll; Srl; Sra ] in
       let* w = width and* s = bool and* rd = reg and* rs1 = reg in
       let* o = opnd in
       return (Alu3 (op, w, s, rd, rs1, o)));
      map2 (fun rd v -> Sethi (rd, v)) reg ui64;
      (let* s = bool and* rd = reg and* d = disp in
       return (Ld (W64, s, rd, fp, d)));
      map2 (fun rs d -> St (W64, rs, fp, d)) reg disp;
      (let* w = width and* s = bool and* r = reg and* o = opnd in
       return (Cmp (w, s, r, o)));
      map2 (fun c r -> Movcc (c, r)) cc reg;
    ]

(* six or more harness states: register, slot and flag inputs (vector
   [k] runs flag variant [k mod 6]) *)
let gen_vectors =
  QCheck.Gen.(list_size (int_range 6 12) (array_repeat 8 ui64))

(* Every location an instruction changes, run from random harness
   states, is in its write set: once as the simulator's [exec], once as
   the decoded closure the oracle runs. *)
let write_sets_cover (type i) ~name (module B : Backend.S with type instr = i)
    (gen : i QCheck.Gen.t) =
  let h = B.Oracle.make () in
  QCheck.Test.make ~count:2000 ~name
    (QCheck.make QCheck.Gen.(pair gen gen_vectors))
    (fun (i, vectors) ->
      if not (B.admissible i) then
        QCheck.Test.fail_report "generated an inadmissible instruction";
      match B.Oracle.session h ~inputs:[ i ] [ i ] with
      | None -> true
      | Some s ->
          let writes = (B.Oracle.probe s).Oracle.writes i in
          let exec st = B.machine.Codegen.Machine.exec st i in
          List.for_all
            (fun ops -> B.Oracle.changes s ops vectors land lnot writes = 0)
            [ [| exec |]; [| (B.Oracle.probe s).Oracle.decode i |] ])

let test_write_sets_x86 =
  write_sets_cover ~name:"x86lite write sets cover what exec changes"
    (module Backend.X86) gen_x86

let test_write_sets_sparc =
  write_sets_cover ~name:"sparclite write sets cover what exec changes"
    (module Backend.Sparc) gen_sparc

(* The harvested windows of every workload, concretized, each as a
   check of the pre-screen on it. *)
let harvested =
  lazy
    (List.concat_map
       (fun (w : Workloads.workload) ->
         let m = workload w.Workloads.name in
         List.concat_map
           (fun (module B : Backend.S) ->
             let b = (module B : Backend.S with type instr = B.instr) in
             let cm = B.compile_module m in
             Search.harvest ~admissible:B.admissible
               ~jump_targets:B.jump_targets
               ~canon:(fun w -> fst (B.canon_window w))
               (Search.codes_by_name cm.Codegen.Native.funcs (fun cf ->
                    cf.Codegen.Native.code))
               ~max_len:4 ~max_windows:64
             |> List.map (fun cw ->
                    let lhs = B.concretize (Search.frame_vars b cw) cw in
                    (* with the pre-screen, then without: the same
                       marshaled result and the same counts, but for
                       [pruned] and [screened] *)
                    fun () ->
                      let h = B.Oracle.make () in
                      match B.Oracle.session h ~inputs:lhs lhs with
                      | None -> true
                      | Some s ->
                          let p = B.Oracle.probe s in
                          let run p =
                            let stats = Search.stats () in
                            let r =
                              Search.best_rewrite ~stats ~cycles_of:B.cycles_of
                                ~forms:(B.forms lhs) p lhs
                            in
                            (Marshal.to_string r [], stats)
                          in
                          let r1, s1 = run p
                          and r2, s2 = run { p with Oracle.must = 0 } in
                          r1 = r2 && s2.Search.pruned = 0
                          && { s1 with Search.pruned = 0; screened = 0 }
                             = { s2 with Search.pruned = 0; screened = 0 }))
           Backend.all)
       Workloads.all)

let test_pruning_neutral =
  QCheck.Test.make ~count:1000
    ~name:"write-set pre-screen changes no search result"
    (QCheck.make QCheck.Gen.nat)
    (fun k ->
      let cases = Lazy.force harvested in
      (List.nth cases (k mod List.length cases)) ())

let suite =
  [
    Alcotest.test_case "vector counts" `Quick test_vector_counts;
    Alcotest.test_case "lazy full set matches eager" `Quick
      test_lazy_full_set_matches_eager;
    Alcotest.test_case "screen and full split x86" `Quick test_split_x86;
    Alcotest.test_case "screen and full split sparc" `Quick test_split_sparc;
    Alcotest.test_case "sessions interleave" `Quick test_sessions_interleave;
    Alcotest.test_case "boundary vector rejects x86" `Quick
      test_boundary_rejects_x86;
    Alcotest.test_case "boundary vector rejects sparc" `Quick
      test_boundary_rejects_sparc;
    Alcotest.test_case "first of triple" `Quick test_first_of_triple;
    Alcotest.test_case "physical winner" `Quick test_physical_winner;
    QCheck_alcotest.to_alcotest test_write_sets_x86;
    QCheck_alcotest.to_alcotest test_write_sets_sparc;
    QCheck_alcotest.to_alcotest test_pruning_neutral;
  ]
