(* Unit tests for the shared code-generation substrate: live intervals,
   the two register allocators, and the phi-elimination plan. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let loop_func () =
  let m =
    Resolve.parse_module
      {|
int %f(int %n, int %seed) {
entry:
  %base = mul int %seed, 3
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %inext, %loop ]
  %acc = phi int [ %base, %entry ], [ %acc2, %loop ]
  %acc2 = add int %acc, %i
  %inext = add int %i, 1
  %done = setge int %inext, %n
  br bool %done, label %exit, label %loop
exit:
  %r = add int %acc2, %base
  ret int %r
}
|}
  in
  Option.get (Ir.find_func m "f")

let find_instr f name =
  let r = ref None in
  Ir.iter_instrs (fun i -> if i.Ir.iname = name then r := Some i) f;
  Option.get !r

let test_intervals () =
  let f = loop_func () in
  let ivs = Codegen.Intervals.build f in
  let all = Codegen.Intervals.all ivs in
  check_bool "every value has an interval" true (List.length all >= 8);
  (* %base is defined in entry and used in exit: its interval must span
     the whole loop *)
  let base = find_instr f "base" in
  let acc2 = find_instr f "acc2" in
  let base_iv =
    List.find (fun iv -> iv.Codegen.Intervals.vid = base.Ir.iid) all
  in
  let acc2_iv =
    List.find (fun iv -> iv.Codegen.Intervals.vid = acc2.Ir.iid) all
  in
  check_bool "base spans past acc2's def" true
    (base_iv.Codegen.Intervals.end_pos > acc2_iv.Codegen.Intervals.start_pos);
  check_bool "loop value has loop-scaled weight" true
    (acc2_iv.Codegen.Intervals.weight > base_iv.Codegen.Intervals.weight);
  (* intervals are sorted by start *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Codegen.Intervals.start_pos <= b.Codegen.Intervals.start_pos
        && sorted rest
    | _ -> true
  in
  check_bool "sorted by start" true (sorted all);
  (* arguments start before every instruction *)
  let arg = List.hd f.Ir.fargs in
  let arg_iv = List.find (fun iv -> iv.Codegen.Intervals.vid = arg.Ir.aid) all in
  check_int "arg starts at -1" (-1) arg_iv.Codegen.Intervals.start_pos

let test_spill_everything () =
  let f = loop_func () in
  let ivs = Codegen.Intervals.build f in
  let a = Codegen.Regalloc.spill_everything ivs in
  List.iter
    (fun iv ->
      match Codegen.Regalloc.location a iv.Codegen.Intervals.vid with
      | Codegen.Regalloc.Slot _ -> ()
      | Codegen.Regalloc.Reg _ -> Alcotest.fail "spill_everything gave a register")
    (Codegen.Intervals.all ivs);
  check_bool "slots allocated" true (a.Codegen.Regalloc.n_slots >= 8);
  check_int "no registers used" 0 (List.length a.Codegen.Regalloc.used_regs_int)

let test_linear_scan_no_conflicts () =
  let f = loop_func () in
  let ivs = Codegen.Intervals.build f in
  let a = Codegen.Regalloc.linear_scan ~int_regs:[ 1; 2; 3 ] ~float_regs:[] ivs in
  (* fundamental invariant: two intervals sharing a register never
     overlap in time *)
  let assigned =
    List.filter_map
      (fun iv ->
        match Codegen.Regalloc.location a iv.Codegen.Intervals.vid with
        | Codegen.Regalloc.Reg r -> Some (r, iv)
        | Codegen.Regalloc.Slot _ -> None)
      (Codegen.Intervals.all ivs)
  in
  List.iter
    (fun (r1, iv1) ->
      List.iter
        (fun (r2, iv2) ->
          if r1 = r2 && not (iv1 == iv2) then begin
            let overlap =
              iv1.Codegen.Intervals.start_pos <= iv2.Codegen.Intervals.end_pos
              && iv2.Codegen.Intervals.start_pos <= iv1.Codegen.Intervals.end_pos
            in
            if overlap then
              Alcotest.failf "register %d double-booked (%d and %d)" r1
                iv1.Codegen.Intervals.vid iv2.Codegen.Intervals.vid
          end)
        assigned)
    assigned;
  (* with only 3 registers and ~9 values something must spill *)
  check_bool "some spills" true (a.Codegen.Regalloc.n_slots > 0);
  check_bool "some registers used" true (assigned <> [])

let prop_linear_scan_sound =
  QCheck.Test.make ~name:"linear scan never double-books a register"
    ~count:60 Gen.gen_program (fun m ->
      let f = Option.get (Ir.find_func m "main") in
      let ivs = Codegen.Intervals.build f in
      let a =
        Codegen.Regalloc.linear_scan ~int_regs:[ 1; 2 ] ~float_regs:[ 1 ] ivs
      in
      let assigned =
        List.filter_map
          (fun iv ->
            match Codegen.Regalloc.location a iv.Codegen.Intervals.vid with
            | Codegen.Regalloc.Reg r -> Some (r, iv.Codegen.Intervals.klass, iv)
            | _ -> None)
          (Codegen.Intervals.all ivs)
      in
      List.for_all
        (fun (r1, k1, iv1) ->
          List.for_all
            (fun (r2, k2, iv2) ->
              iv1 == iv2 || r1 <> r2 || k1 <> k2
              || iv1.Codegen.Intervals.end_pos < iv2.Codegen.Intervals.start_pos
              || iv2.Codegen.Intervals.end_pos < iv1.Codegen.Intervals.start_pos)
            assigned)
        assigned)

let test_phi_plan () =
  let f = loop_func () in
  let plan = Codegen.Phiplan.build f in
  check_int "two transfer slots" 2 plan.Codegen.Phiplan.n_transfer_slots;
  let entry = List.nth f.Ir.fblocks 0 in
  let loop = List.nth f.Ir.fblocks 1 in
  (* entry and loop both feed the two phis *)
  check_int "entry end copies" 2
    (List.length (Codegen.Phiplan.end_copies plan entry));
  check_int "loop end copies" 2
    (List.length (Codegen.Phiplan.end_copies plan loop));
  check_int "loop start copies" 2
    (List.length (Codegen.Phiplan.start_copies plan loop));
  check_int "entry start copies" 0
    (List.length (Codegen.Phiplan.start_copies plan entry));
  (* the slot indices used by start and end copies line up *)
  let end_slots =
    List.map
      (fun c -> c.Codegen.Phiplan.transfer_slot)
      (Codegen.Phiplan.end_copies plan entry)
    |> List.sort compare
  in
  let start_slots =
    List.map fst (Codegen.Phiplan.start_copies plan loop) |> List.sort compare
  in
  check_bool "slots agree" true (end_slots = start_slots)

let test_phi_swap_problem () =
  (* the classic swap: a,b = b,a inside a loop; the transfer-slot scheme
     must not lose a value (tested end-to-end through both back-ends) *)
  let src =
    {|
declare void %print_int(int)
int %main() {
entry:
  br label %loop
loop:
  %a = phi int [ 1, %entry ], [ %b, %loop ]
  %b = phi int [ 2, %entry ], [ %a, %loop ]
  %i = phi int [ 0, %entry ], [ %inext, %loop ]
  %inext = add int %i, 1
  %done = setge int %inext, 5
  br bool %done, label %out, label %loop
out:
  %r = mul int %a, 10
  %r2 = add int %r, %b
  ret int %r2
}
|}
  in
  let m = Resolve.parse_module src in
  let reference = Gen.run_interp (Gen.clone m) in
  (* after 5 iterations: a,b swapped 4 times from (1,2) -> (1,2) at i=4?
     check against the interpreter, then the back-ends *)
  let x86 = X86lite.Compile.compile_module (Gen.clone m) in
  let xcode, _ = Codegen.Machine.run_main X86lite.Sim.machine x86 in
  check_int "x86 swap" (fst reference) xcode;
  let sparc = Sparclite.Compile.compile_module (Gen.clone m) in
  let scode, _ = Codegen.Machine.run_main Sparclite.Sim.machine sparc in
  check_int "sparc swap" (fst reference) scode

(* [Relax.relax] against the one-jump-per-rescan removal it replaced,
   on random code: [J l] jumps to [l], [B l] branches, [O] is anything
   else. Results must be equal, and share values the same way. *)
type rinstr = J of int | B of int | O of int

let rec relax_one_at_a_time code =
  let n = Array.length code in
  let rec find k =
    if k >= n then None
    else match code.(k) with J l when l = k + 1 -> Some k | _ -> find (k + 1)
  in
  match find 0 with
  | None -> code
  | Some k ->
      let adjust l = if l > k then l - 1 else l in
      relax_one_at_a_time
        (Array.init (n - 1) (fun j ->
             match if j < k then code.(j) else code.(j + 1) with
             | J l -> J (adjust l)
             | B l -> B (adjust l)
             | other -> other))

let prop_relax_matches_rescan =
  let gen =
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      array_repeat n
        (frequency
           [
             (3, map (fun d -> J d) (int_range 0 (n + 1)));
             (2, map (fun d -> B d) (int_range 0 (n + 1)));
             (2, map (fun v -> O v) small_nat);
           ]))
  in
  QCheck.Test.make ~name:"relax matches one removal per rescan" ~count:500
    (QCheck.make gen) (fun code ->
      let linear =
        Codegen.Relax.relax
          ~fallthrough:(fun k -> function J l -> l = k + 1 | _ -> false)
          ~retarget:(fun f -> function
            | J l -> J (f l) | B l -> B (f l) | other -> other)
          (Array.copy code)
      in
      let old = relax_one_at_a_time (Array.copy code) in
      Marshal.to_string linear [] = Marshal.to_string old [])

let suite =
  [
    Alcotest.test_case "intervals" `Quick test_intervals;
    Alcotest.test_case "spill everything" `Quick test_spill_everything;
    Alcotest.test_case "linear scan conflicts" `Quick
      test_linear_scan_no_conflicts;
    QCheck_alcotest.to_alcotest prop_linear_scan_sound;
    Alcotest.test_case "phi plan" `Quick test_phi_plan;
    Alcotest.test_case "phi swap problem" `Quick test_phi_swap_problem;
    QCheck_alcotest.to_alcotest prop_relax_matches_rescan;
  ]
