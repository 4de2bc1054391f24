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

(* Where [linear_scan] puts each value of a function whose intervals
   end together (two operands of one instruction die at once) and whose
   registers run out, so the order of the active list, of expiry and of
   the free list all show. The expected strings here and in the late-def
   test were recorded from the hash-table intervals and the allocator
   that sorted its active list with [List.sort compare]. *)
let equal_ends_func () =
  let m =
    Resolve.parse_module
      {|
double %g(int %a, int %b, double %d) {
entry:
  %x1 = add int %a, 1
  %x2 = add int %a, 2
  %x3 = add int %b, 3
  %x4 = add int %b, 4
  %s1 = add int %x1, %x2
  %s2 = add int %x3, %x4
  %s3 = add int %s1, %s2
  %f1 = mul double %d, %d
  %f2 = add double %d, %d
  %f3 = mul double %f1, %f2
  %c = cast int %s3 to double
  %r = add double %f3, %c
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %inext, %loop ]
  %acc = phi double [ %r, %entry ], [ %acc2, %loop ]
  %ci = cast int %i to double
  %acc2 = add double %acc, %ci
  %inext = add int %i, %x1
  %done = setge int %inext, %b
  br bool %done, label %exit, label %loop
exit:
  %out = add double %acc2, %d
  ret double %out
}
|}
  in
  Option.get (Ir.find_func m "g")

(* Blocks laid out out of execution order: %y is defined in %a but
   live through %b, which comes first in the layout, so its interval
   must grow backwards over %b once every def has been seen. *)
let late_def_func () =
  let m =
    Resolve.parse_module
      {|
int %h(int %n, int %k) {
entry:
  %w = add int %k, 5
  br label %a
b:
  %u = add int %x, %w
  %v = mul int %u, %k
  br label %c
a:
  %x = mul int %n, 3
  %y = add int %n, 7
  br label %b
c:
  %z = add int %v, %y
  %r = add int %z, %w
  ret int %r
}
|}
  in
  Option.get (Ir.find_func m "h")

let assignment_string f a =
  let loc vid =
    match Codegen.Regalloc.location_opt a vid with
    | Some (Codegen.Regalloc.Reg r) -> Printf.sprintf "r%d" r
    | Some (Codegen.Regalloc.Slot s) -> Printf.sprintf "s%d" s
    | None -> "-"
  in
  let args =
    List.map (fun (x : Ir.arg) -> x.Ir.aname ^ "=" ^ loc x.Ir.aid) f.Ir.fargs
  in
  let instrs =
    Ir.fold_instrs
      (fun acc i ->
        if i.Ir.iname = "" then acc else (i.Ir.iname ^ "=" ^ loc i.Ir.iid) :: acc)
      [] f
  in
  String.concat " " (args @ List.rev instrs)

let test_linear_scan_equal_ends () =
  let f = equal_ends_func () in
  let ivs = Codegen.Intervals.build f in
  List.iter
    (fun (int_regs, float_regs, expected) ->
      let a = Codegen.Regalloc.linear_scan ~int_regs ~float_regs ivs in
      Alcotest.(check string)
        (Printf.sprintf "%d int, %d float registers" (List.length int_regs)
           (List.length float_regs))
        expected (assignment_string f a))
    [
      ( [ 4; 5; 6 ],
        [ 2; 3 ],
        "a=r4 b=s4 d=s8 x1=r6 x2=s0 x3=r4 x4=s1 s1=s2 s2=s3 s3=r4 f1=r3 \
         f2=s5 f3=s6 c=s7 r=s9 i=r4 acc=r2 ci=s10 acc2=r3 inext=r5 done=r4 \
         out=r2" );
      ( [ 7; 8 ],
        [ 1 ],
        "a=s0 b=s8 d=s13 x1=s7 x2=s1 x3=s2 x4=s3 s1=s4 s2=s5 s3=s6 f1=s9 \
         f2=s10 f3=s11 c=s12 r=s14 i=r7 acc=s15 ci=s16 acc2=r1 inext=r8 \
         done=r7 out=s17" );
      ( [ 1; 2; 3; 4; 5; 6 ],
        [ 1; 2; 3 ],
        "a=r1 b=r2 d=s1 x1=r3 x2=r4 x3=r1 x4=r5 s1=r6 s2=r4 s3=r5 f1=r2 \
         f2=r3 f3=s0 c=r3 r=r2 i=r5 acc=r3 ci=r2 acc2=r1 inext=r6 done=r5 \
         out=r3" );
    ]

let test_linear_scan_late_def () =
  let f = late_def_func () in
  let ivs = Codegen.Intervals.build f in
  List.iter
    (fun (int_regs, expected) ->
      let a = Codegen.Regalloc.linear_scan ~int_regs ~float_regs:[] ivs in
      Alcotest.(check string)
        (Printf.sprintf "%d registers" (List.length int_regs))
        expected (assignment_string f a))
    [
      ([ 1; 2 ], "n=s0 k=r2 w=r1 u=s1 v=s4 x=s2 y=s3 z=r2 r=s5");
      ([ 1; 2; 3 ], "n=r1 k=r2 w=r3 u=s0 v=s3 x=s1 y=s2 z=r2 r=r1");
      ([ 4; 5; 6; 7 ], "n=r4 k=r5 w=r6 u=r7 v=s2 x=s0 y=s1 z=r5 r=r4");
    ]

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
    Alcotest.test_case "linear scan equal ends" `Quick
      test_linear_scan_equal_ends;
    Alcotest.test_case "linear scan late def" `Quick test_linear_scan_late_def;
    QCheck_alcotest.to_alcotest prop_linear_scan_sound;
    Alcotest.test_case "phi plan" `Quick test_phi_plan;
    Alcotest.test_case "phi swap problem" `Quick test_phi_swap_problem;
    QCheck_alcotest.to_alcotest prop_relax_matches_rescan;
  ]
