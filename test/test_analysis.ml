(* Tests for the analysis library: CFG, dominators, loops, liveness,
   alias analysis, call graph. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A loop nest with an if-diamond inside:
   entry -> header -> (body_then | body_else) -> latch -> header | exit *)
let loop_src =
  {|
int %f(int %n) {
entry:
  br label %header
header:
  %i = phi int [ 0, %entry ], [ %inext, %latch ]
  %acc = phi int [ 0, %entry ], [ %accnext, %latch ]
  %cond = setlt int %i, %n
  br bool %cond, label %check, label %exit
check:
  %odd = rem int %i, 2
  %isodd = seteq int %odd, 1
  br bool %isodd, label %bthen, label %belse
bthen:
  %a1 = add int %acc, %i
  br label %latch
belse:
  %a2 = sub int %acc, %i
  br label %latch
latch:
  %accnext = phi int [ %a1, %bthen ], [ %a2, %belse ]
  %inext = add int %i, 1
  br label %header
exit:
  ret int %acc
}
|}

let get_f src name =
  let m = Resolve.parse_module src in
  Option.get (Ir.find_func m name)

let block_named f name =
  List.find (fun (b : Ir.block) -> b.Ir.bname = name) f.Ir.fblocks

let test_cfg () =
  let f = get_f loop_src "f" in
  let cfg = Analysis.Cfg.build f in
  check_int "reachable blocks" 7 (Analysis.Cfg.n_blocks cfg);
  check_bool "entry first" true
    (Analysis.Cfg.block cfg 0 == Ir.entry_block f);
  let header = block_named f "header" in
  check_int "header preds" 2
    (List.length cfg.Analysis.Cfg.preds.(Analysis.Cfg.index_of cfg header));
  (* rpo: every edge except back edges goes forward *)
  let back = ref 0 and fwd = ref 0 in
  List.iter
    (fun (s, d) -> if s >= d then incr back else incr fwd)
    (Analysis.Cfg.edges cfg);
  check_int "one back edge" 1 !back

let test_dominance () =
  let f = get_f loop_src "f" in
  let dom = Analysis.Dominance.of_function f in
  let b = block_named f in
  check_bool "entry dominates all" true
    (List.for_all
       (fun blk -> Analysis.Dominance.dominates dom (b "entry") blk)
       f.Ir.fblocks);
  check_bool "header dom latch" true
    (Analysis.Dominance.dominates dom (b "header") (b "latch"));
  check_bool "check dom latch" true
    (Analysis.Dominance.dominates dom (b "check") (b "latch"));
  check_bool "bthen not dom latch" false
    (Analysis.Dominance.dominates dom (b "bthen") (b "latch"));
  check_bool "latch not dom header" false
    (Analysis.Dominance.dominates dom (b "latch") (b "header"));
  check_bool "self dominance" true
    (Analysis.Dominance.dominates dom (b "check") (b "check"));
  (* idom chain *)
  (match Analysis.Dominance.idom_block dom (b "latch") with
  | Some ib -> check_bool "idom(latch)=check" true (ib == b "check")
  | None -> Alcotest.fail "latch has no idom");
  (* dominance frontier: bthen's frontier is latch; check's is header *)
  check_bool "DF(bthen) = {latch}" true
    (match Analysis.Dominance.frontier_blocks dom (b "bthen") with
    | [ x ] -> x == b "latch"
    | _ -> false);
  check_bool "header in DF(latch)" true
    (List.exists
       (fun x -> x == b "header")
       (Analysis.Dominance.frontier_blocks dom (b "latch")))

(* qcheck: dominance axioms on random CFGs *)
let gen_random_cfg : Ir.func QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 2 12 in
    let* seed = int_range 0 1_000_000 in
    let rand = Random.State.make [| seed |] in
    let f = Ir.mk_func ~name:"r" ~return:Types.Void ~params:[ ("c", Types.Bool) ] () in
    let blocks = Array.init n (fun k -> Ir.mk_block ~name:(Printf.sprintf "b%d" k) ()) in
    Array.iter (Ir.append_block f) blocks;
    let carg = Ir.Varg (List.hd f.Ir.fargs) in
    Array.iteri
      (fun k b ->
        (* each block branches to one or two random targets (forward or
           backward), or returns *)
        let choice = Random.State.int rand 10 in
        if choice < 2 || k = n - 1 then
          Ir.append_instr b (Ir.mk_instr Ir.Ret [||] Types.Void)
        else if choice < 6 then
          let t = blocks.(Random.State.int rand n) in
          Ir.append_instr b (Ir.mk_instr Ir.Br [| Ir.Vblock t |] Types.Void)
        else
          let t1 = blocks.(Random.State.int rand n) in
          let t2 = blocks.(Random.State.int rand n) in
          Ir.append_instr b
            (Ir.mk_instr Ir.Br [| carg; Ir.Vblock t1; Ir.Vblock t2 |] Types.Void))
      blocks;
    return f
  in
  QCheck.make gen ~print:(fun f -> Pretty.func_to_string f)

let prop_dominance_axioms =
  QCheck.Test.make ~name:"dominance axioms" ~count:200 gen_random_cfg (fun f ->
      let cfg = Analysis.Cfg.build f in
      let dom = Analysis.Dominance.compute cfg in
      let n = Analysis.Cfg.n_blocks cfg in
      let ok = ref true in
      (* entry dominates everything; idom strictly dominates; transitivity
         spot-check *)
      for k = 0 to n - 1 do
        if not (Analysis.Dominance.dominates_idx dom 0 k) then ok := false;
        if k > 0 then begin
          let idom = dom.Analysis.Dominance.idom.(k) in
          if idom = k then ok := false;
          if not (Analysis.Dominance.dominates_idx dom idom k) then ok := false
        end
      done;
      (* brute-force check: a dominates b iff removing a disconnects b *)
      let reachable_without skip =
        let seen = Array.make n false in
        let rec dfs k =
          if (not seen.(k)) && k <> skip then begin
            seen.(k) <- true;
            List.iter dfs cfg.Analysis.Cfg.succs.(k)
          end
        in
        if skip <> 0 then dfs 0;
        seen
      in
      for a = 1 to n - 1 do
        let reach = reachable_without a in
        for b = 0 to n - 1 do
          if b <> a then begin
            let dom_ab = Analysis.Dominance.dominates_idx dom a b in
            let disconnected = not reach.(b) in
            if dom_ab <> disconnected then ok := false
          end
        done
      done;
      !ok)

let test_loops () =
  let f = get_f loop_src "f" in
  let loops = Analysis.Loops.of_function f in
  check_int "one loop" 1 (List.length loops.Analysis.Loops.loops);
  let l = List.hd loops.Analysis.Loops.loops in
  check_bool "header" true (l.Analysis.Loops.header == block_named f "header");
  check_int "body size" 5 (List.length l.Analysis.Loops.body);
  check_bool "exit not in body" false
    (Analysis.Loops.in_loop l (block_named f "exit"));
  check_bool "entry is preheader" true
    (match Analysis.Loops.preheader l with
    | Some p -> p == block_named f "entry"
    | None -> false);
  check_int "loop depth of check" 1
    (Analysis.Loops.loop_depth loops (block_named f "check"));
  check_int "loop depth of exit" 0
    (Analysis.Loops.loop_depth loops (block_named f "exit"))

let test_nested_loops () =
  let src =
    {|
void %g(int %n) {
entry:
  br label %outer
outer:
  %i = phi int [ 0, %entry ], [ %inext, %outer_latch ]
  br label %inner
inner:
  %j = phi int [ 0, %outer ], [ %jnext, %inner ]
  %jnext = add int %j, 1
  %jdone = setge int %jnext, %n
  br bool %jdone, label %outer_latch, label %inner
outer_latch:
  %inext = add int %i, 1
  %idone = setge int %inext, %n
  br bool %idone, label %exit, label %outer
exit:
  ret void
}
|}
  in
  let f = get_f src "g" in
  let loops = Analysis.Loops.of_function f in
  check_int "two loops" 2 (List.length loops.Analysis.Loops.loops);
  check_int "inner depth 2" 2 (Analysis.Loops.loop_depth loops (block_named f "inner"));
  check_int "outer depth 1" 1
    (Analysis.Loops.loop_depth loops (block_named f "outer"))

let test_liveness () =
  let f = get_f loop_src "f" in
  let cfg = Analysis.Cfg.build f in
  let live = Analysis.Liveness.compute cfg in
  let b = block_named f in
  let find_instr name =
    let r = ref None in
    Ir.iter_instrs (fun i -> if i.Ir.iname = name then r := Some i) f;
    Option.get !r
  in
  let i_phi = find_instr "i" in
  let acc_phi = find_instr "acc" in
  (* %i is live out of header (used in check and latch) *)
  check_bool "i live out of header" true
    (Analysis.Liveness.is_live_out live (b "header") i_phi.Ir.iid);
  (* %acc is live out of check (used by both branches) *)
  check_bool "acc live out of check" true
    (Analysis.Liveness.is_live_out live (b "check") acc_phi.Ir.iid);
  (* %a1 is live out of bthen only via the latch phi edge *)
  let a1 = find_instr "a1" in
  check_bool "a1 live out of bthen" true
    (Analysis.Liveness.is_live_out live (b "bthen") a1.Ir.iid);
  check_bool "a1 not live out of belse" false
    (Analysis.Liveness.is_live_out live (b "belse") a1.Ir.iid);
  (* nothing is live out of exit *)
  check_int "exit live out" 0 (List.length (Analysis.Liveness.live_out live (b "exit")))

(* The dense analyses against the ones they replaced, on every defined
   function of a module: live-in and live-out bitsets against the
   set-based [Liveness_ref] on every reachable block, and [Loops.depths]
   against [Loops.loop_depth] of the full loop records on every block. *)
let dense_analyses_agree (m : Ir.modl) =
  List.for_all
    (fun (f : Ir.func) ->
      Ir.is_declaration f
      ||
      let cfg = Analysis.Cfg.build f in
      let live = Analysis.Liveness.compute cfg in
      let reference = Liveness_ref.compute cfg in
      let dom = Analysis.Dominance.compute cfg in
      let depths = Analysis.Loops.depths cfg dom in
      let loops = Analysis.Loops.compute cfg dom in
      List.for_all
        (fun k ->
          let b = Analysis.Cfg.block cfg k in
          let sorted l = List.sort compare l in
          sorted (Analysis.Liveness.live_in live b)
          = Liveness_ref.live_in reference k
          && sorted (Analysis.Liveness.live_out live b)
             = Liveness_ref.live_out reference k
          && depths.(k) = Analysis.Loops.loop_depth loops b)
        (List.init (Analysis.Cfg.n_blocks cfg) Fun.id))
    m.Ir.funcs

let prop_dense_analyses level =
  QCheck.Test.make
    ~name:(Printf.sprintf "dense liveness and loop depths agree at -O%d" level)
    ~count:100 Gen.gen_program (fun m ->
      let m = Gen.clone m in
      if level > 0 then ignore (Transform.Passmgr.optimize ~level m);
      dense_analyses_agree m)

let test_dense_analyses_workloads () =
  List.iter
    (fun level ->
      List.iter
        (fun (w : Workloads.workload) ->
          check_bool
            (Printf.sprintf "%s -O%d" w.Workloads.name level)
            true
            (dense_analyses_agree (Workloads.compile_optimized ~level w)))
        Workloads.all)
    [ 0; 2 ]

let test_alias () =
  let src =
    {|
%pair = type { int, int }
%gA = global int 0
%gB = global int 0

void %h(int* %unknown) {
entry:
  %x = alloca int
  %y = alloca int
  %p = alloca %pair
  %f0 = getelementptr %pair* %p, long 0, ubyte 0
  %f1 = getelementptr %pair* %p, long 0, ubyte 1
  store int 1, int* %x
  store int 2, int* %y
  ret void
}
|}
  in
  let m = Resolve.parse_module src in
  let lt = Vmem.Layout.for_module m in
  let f = Option.get (Ir.find_func m "h") in
  let find name =
    let r = ref None in
    Ir.iter_instrs (fun i -> if i.Ir.iname = name then r := Some i) f;
    Ir.Vreg (Option.get !r)
  in
  let ga = Ir.Vglobal (Option.get (Ir.find_global m "gA")) in
  let gb = Ir.Vglobal (Option.get (Ir.find_global m "gB")) in
  let unknown = Ir.Varg (List.hd f.Ir.fargs) in
  let open Analysis.Alias in
  check_bool "distinct allocas" true (alias lt (find "x") (find "y") = No_alias);
  check_bool "alloca vs global" true (alias lt (find "x") ga = No_alias);
  check_bool "distinct globals" true (alias lt ga gb = No_alias);
  check_bool "distinct fields" true (alias lt (find "f0") (find "f1") = No_alias);
  check_bool "same value must alias" true (alias lt (find "f0") (find "f0") = Must_alias);
  check_bool "unknown may alias global" true (alias lt unknown ga = May_alias);
  check_bool "field vs whole unknown" true (alias lt (find "f0") unknown = May_alias)

let test_escape () =
  let src =
    {|
declare void %sink(int*)

void %e() {
entry:
  %kept = alloca int
  %leaked = alloca int
  store int 1, int* %kept
  call void %sink(int* %leaked)
  ret void
}
|}
  in
  let m = Resolve.parse_module src in
  let f = Option.get (Ir.find_func m "e") in
  let find name =
    let r = ref None in
    Ir.iter_instrs (fun i -> if i.Ir.iname = name then r := Some i) f;
    Option.get !r
  in
  check_bool "kept does not escape" false
    (Analysis.Alias.alloca_escapes (find "kept"));
  check_bool "leaked escapes" true
    (Analysis.Alias.alloca_escapes (find "leaked"))

let test_callgraph () =
  let src =
    {|
declare void %ext()

void %leaf() {
entry:
  ret void
}

void %mid() {
entry:
  call void %leaf()
  call void %ext()
  ret void
}

void %selfrec(int %n) {
entry:
  call void %selfrec(int %n)
  ret void
}

void %mutual_a() {
entry:
  call void %mutual_b()
  ret void
}

void %mutual_b() {
entry:
  call void %mutual_a()
  ret void
}

int %main() {
entry:
  call void %mid()
  call void %mutual_a()
  ret int 0
}
|}
  in
  let m = Resolve.parse_module src in
  let cg = Analysis.Callgraph.compute m in
  let f name = Option.get (Ir.find_func m name) in
  check_int "main callees" 2 (List.length (Analysis.Callgraph.callees cg (f "main")));
  check_int "leaf callers" 1 (List.length (Analysis.Callgraph.callers cg (f "leaf")));
  check_bool "selfrec recursive" true (Analysis.Callgraph.is_recursive cg (f "selfrec"));
  check_bool "mutual recursive" true (Analysis.Callgraph.is_recursive cg (f "mutual_a"));
  check_bool "leaf not recursive" false (Analysis.Callgraph.is_recursive cg (f "leaf"));
  let reach = Analysis.Callgraph.reachable_from cg [ f "main" ] in
  check_bool "leaf reachable" true (Hashtbl.mem reach (f "leaf").Ir.fid);
  check_bool "selfrec unreachable" false (Hashtbl.mem reach (f "selfrec").Ir.fid)

let suite =
  [
    Alcotest.test_case "cfg" `Quick test_cfg;
    Alcotest.test_case "dominance" `Quick test_dominance;
    QCheck_alcotest.to_alcotest prop_dominance_axioms;
    Alcotest.test_case "loops" `Quick test_loops;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "liveness" `Quick test_liveness;
    QCheck_alcotest.to_alcotest (prop_dense_analyses 0);
    QCheck_alcotest.to_alcotest (prop_dense_analyses 2);
    Alcotest.test_case "dense analyses on the workloads" `Quick
      test_dense_analyses_workloads;
    Alcotest.test_case "alias" `Quick test_alias;
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "callgraph" `Quick test_callgraph;
  ]
