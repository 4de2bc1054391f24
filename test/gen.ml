(* Shared test helpers: random well-typed program generation and
   execution shorthands used by several suites. *)

open Llva

let parse src =
  let m = Resolve.parse_module src in
  (match Verify.verify_module m with
  | [] -> ()
  | errs -> Alcotest.failf "verify: %s" (String.concat "; " errs));
  m

let run_interp ?(fuel = 2_000_000) m =
  let st = Interp.create ~fuel m in
  let code = Interp.run_main st in
  (code, Interp.output st)

(* deep copy via object code *)
let clone m = Decode.decode (Encode.encode m)

(* Build a random program with arithmetic, a diamond, and a bounded loop.
   Inputs come from globals (opaque to SCCP) so not everything folds. *)
let random_program rand : Ir.modl =
  let m = Ir.mk_module ~name:"diff" () in
  let g1 =
    Ir.mk_global ~name:"in1" ~ty:Types.Int
      ~init:
        {
          Ir.cty = Types.Int;
          ckind = Ir.Cint (Int64.of_int (Random.State.int rand 100));
        }
      ()
  in
  let g2 =
    Ir.mk_global ~name:"in2" ~ty:Types.Int
      ~init:
        {
          Ir.cty = Types.Int;
          ckind = Ir.Cint (Int64.of_int (1 + Random.State.int rand 50));
        }
      ()
  in
  Ir.add_global m g1;
  Ir.add_global m g2;
  let f = Ir.mk_func ~name:"main" ~return:Types.Int ~params:[] () in
  Ir.add_func m f;
  let entry = Ir.mk_block ~name:"entry" () in
  let header = Ir.mk_block ~name:"header" () in
  let bthen = Ir.mk_block ~name:"bthen" () in
  let belse = Ir.mk_block ~name:"belse" () in
  let latch = Ir.mk_block ~name:"latch" () in
  let exit = Ir.mk_block ~name:"exit" () in
  List.iter (Ir.append_block f) [ entry; header; bthen; belse; latch; exit ];
  let bld = Builder.create m in
  Builder.position_at_end entry bld;
  let v1 = Builder.load bld (Ir.Vglobal g1) in
  let v2 = Builder.load bld (Ir.Vglobal g2) in
  let pool = ref [ v1; v2; Ir.const_int Types.Int 3L ] in
  let pick () = List.nth !pool (Random.State.int rand (List.length !pool)) in
  let random_arith n =
    for _ = 1 to n do
      let ops = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor |] in
      let op = ops.(Random.State.int rand (Array.length ops)) in
      pool := Builder.binop bld op (pick ()) (pick ()) :: !pool
    done
  in
  random_arith (2 + Random.State.int rand 6);
  let seed_val = pick () in
  Builder.br bld header;
  Builder.position_at_end header bld;
  let i_phi = Builder.phi_at_front bld Types.Int [] in
  let acc_phi = Builder.phi_at_front bld Types.Int [] in
  let cmp =
    Builder.setcc bld Ir.Lt i_phi
      (Ir.const_int Types.Int (Int64.of_int (1 + Random.State.int rand 8)))
  in
  Builder.cond_br bld cmp bthen belse;
  Builder.position_at_end bthen bld;
  pool := [ acc_phi; i_phi; v1; v2 ];
  random_arith (1 + Random.State.int rand 4);
  let tval = pick () in
  Builder.br bld latch;
  Builder.position_at_end belse bld;
  pool := [ acc_phi; i_phi; v2; Ir.const_int Types.Int 7L ];
  random_arith (1 + Random.State.int rand 4);
  let eval_ = pick () in
  Builder.br bld latch;
  Builder.position_at_end latch bld;
  let merged =
    Builder.phi_at_front bld Types.Int [ (tval, bthen); (eval_, belse) ]
  in
  let inext = Builder.add bld i_phi (Ir.const_int Types.Int 1L) in
  let done_ = Builder.setcc bld Ir.Ge inext (Ir.const_int Types.Int 10L) in
  Builder.cond_br bld done_ exit header;
  (match (i_phi, acc_phi) with
  | Ir.Vreg ip, Ir.Vreg ap ->
      Ir.phi_set_incoming ip
        [ (Ir.const_int Types.Int 0L, entry); (inext, latch) ];
      Ir.phi_set_incoming ap [ (seed_val, entry); (merged, latch) ]
  | _ -> assert false);
  Builder.position_at_end exit bld;
  let masked = Builder.and_ bld merged (Ir.const_int Types.Int 0xFFL) in
  Builder.ret bld (Some masked);
  m

let gen_program : Ir.modl QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* seed = int_range 0 10_000_000 in
    return (random_program (Random.State.make [| seed |]))
  in
  QCheck.make gen ~print:(fun m -> Pretty.module_to_string m)

(* A richer generator that also exercises memory (arrays on the heap and
   stack), several integer widths and casts. *)
let random_memory_program rand : Ir.modl =
  let m = random_program rand in
  let f = Option.get (Ir.find_func m "main") in
  (* prepend to the entry block: fill a stack array, sum it back *)
  let entry = Ir.entry_block f in
  let bld = Builder.create m in
  Builder.position_at_end entry bld;
  (* remove the existing terminator, rebuild it at the end *)
  let term = Option.get (Ir.terminator entry) in
  let term_target =
    match term.Ir.operands.(0) with Ir.Vblock b -> b | _ -> assert false
  in
  Ir.remove_instr term;
  let n = 4 + Random.State.int rand 8 in
  let arr = Builder.alloca bld (Types.Array (n, Types.Short)) in
  let acc = ref (Ir.const_int Types.Int 0L) in
  for k = 0 to n - 1 do
    let slot =
      Builder.getelementptr bld arr
        [ Ir.const_int Types.Long 0L; Ir.const_int Types.Long (Int64.of_int k) ]
    in
    let v = Random.State.int rand 1000 - 500 in
    Builder.store bld (Ir.const_int Types.Short (Int64.of_int v)) slot;
    let back = Builder.load bld slot in
    let wide = Builder.cast bld back Types.Int in
    acc := Builder.add bld !acc wide
  done;
  (* merge into the global input so downstream arithmetic depends on it *)
  let g1 = Option.get (Ir.find_global m "in1") in
  let old = Builder.load bld (Ir.Vglobal g1) in
  let mixed = Builder.xor bld old !acc in
  Builder.store bld mixed (Ir.Vglobal g1);
  Builder.br bld term_target;
  m

let gen_memory_program : Ir.modl QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* seed = int_range 0 10_000_000 in
    return (random_memory_program (Random.State.make [| seed |]))
  in
  QCheck.make gen ~print:(fun m -> Pretty.module_to_string m)

(* ------------------------------------------------------------------ *)
(* Full-coverage differential generator: seeded random programs over
   every integer width, signed and unsigned division and remainder
   (usually guarded, sometimes raw so traps stay an observable outcome),
   shifts whose amounts can exceed the width, casts between all scalar
   types, float arithmetic with NaN-feeding comparisons, in-bounds stack
   memory via alloca/gep/load/store, and multi-function calls. Inputs
   come from globals so constant folding cannot erase the computation,
   and a [print_long] call makes loop-carried state observable even when
   the final mask collapses it. *)

let int_widths =
  [|
    Types.Sbyte;
    Types.Ubyte;
    Types.Short;
    Types.Ushort;
    Types.Int;
    Types.Uint;
    Types.Long;
    Types.Ulong;
  |]

let random_full_program rand : Ir.modl =
  let ri n = Random.State.int rand n in
  let rbool () = Random.State.bool rand in
  let m = Ir.mk_module ~name:"fuzz" () in
  let print_long =
    Ir.mk_func ~name:"print_long" ~return:Types.Void
      ~params:[ ("v", Types.Long) ] ()
  in
  Ir.add_func m print_long;
  let add_global name ty ckind =
    let g = Ir.mk_global ~name ~ty ~init:{ Ir.cty = ty; ckind } () in
    Ir.add_global m g;
    g
  in
  let g1 = add_global "in1" Types.Int (Ir.Cint (Int64.of_int (ri 2000 - 1000))) in
  let g2 = add_global "in2" Types.Long (Ir.Cint (Int64.of_int (1 + ri 500))) in
  let gf =
    add_global "fin1" Types.Double
      (Ir.Cfloat [| 0.0; 1.5; -3.25; 1e18; Float.nan; Float.infinity |].(ri 6))
  in
  let bld = Builder.create m in
  let coerce v ty =
    if Types.equal (Ir.type_of_value v) ty then v else Builder.cast bld v ty
  in
  let pick pool = List.nth pool (ri (List.length pool)) in
  let any_int () = int_widths.(ri (Array.length int_widths)) in
  (* grow [pool] by [n] values at the current insertion point; every
     picked operand is coerced to the type the op needs, so any value in
     scope can feed any op *)
  let emit_ops pool (callees : Ir.func list) n =
    let pool = ref pool in
    for _ = 1 to n do
      let v =
        match ri 12 with
        | 0 | 1 | 2 | 3 ->
            let ty = any_int () in
            let ops = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor |] in
            Builder.binop bld
              ops.(ri (Array.length ops))
              (coerce (pick !pool) ty) (coerce (pick !pool) ty)
        | 4 ->
            (* shift amounts can exceed the width: mod-width semantics *)
            let ty = any_int () in
            let amt =
              if rbool () then Ir.const_int Types.Ubyte (Int64.of_int (ri 72))
              else coerce (pick !pool) Types.Ubyte
            in
            Builder.binop bld
              (if rbool () then Ir.Shl else Ir.Shr)
              (coerce (pick !pool) ty) amt
        | 5 | 6 ->
            let ty = any_int () in
            let a = coerce (pick !pool) ty in
            let b = coerce (pick !pool) ty in
            let b =
              if ri 8 < 7 then
                (* guard the divisor into [1,127]: no zero, no -1 *)
                Builder.or_ bld
                  (Builder.and_ bld b (Ir.const_int ty 0x7FL))
                  (Ir.const_int ty 1L)
              else b
            in
            Builder.binop bld (if rbool () then Ir.Div else Ir.Rem) a b
        | 7 ->
            let ty = if rbool () then Types.Float else Types.Double in
            let ops = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.Div |] in
            Builder.binop bld
              ops.(ri (Array.length ops))
              (coerce (pick !pool) ty) (coerce (pick !pool) ty)
        | 8 ->
            (* comparison, often float (NaN-sensitive), widened back *)
            let ty =
              if rbool () then if rbool () then Types.Float else Types.Double
              else any_int ()
            in
            let cmps = [| Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge |] in
            let c =
              Builder.setcc bld
                cmps.(ri (Array.length cmps))
                (coerce (pick !pool) ty) (coerce (pick !pool) ty)
            in
            Builder.cast bld c Types.Long
        | 9 ->
            (* a cast corner: bounce through a float or a narrow width *)
            let mid =
              if ri 3 = 0 then if rbool () then Types.Float else Types.Double
              else any_int ()
            in
            coerce (coerce (pick !pool) mid) (any_int ())
        | _ -> (
            match callees with
            | [] ->
                let ty = any_int () in
                Builder.add bld (coerce (pick !pool) ty) (coerce (pick !pool) ty)
            | hs ->
                let h = List.nth hs (ri (List.length hs)) in
                let args =
                  List.map
                    (fun (a : Ir.arg) -> coerce (pick !pool) a.Ir.aty)
                    h.Ir.fargs
                in
                Builder.call bld (Ir.Vfunc h) args)
      in
      pool := v :: !pool
    done;
    !pool
  in
  (* fold the most recent few values into one observable Long so ops
     emitted mid-block cannot silently drop out of the program *)
  let mix pool =
    let rec take n = function
      | v :: rest when n > 0 -> v :: take (n - 1) rest
      | _ -> []
    in
    match take 3 pool with
    | [] -> Ir.const_int Types.Long 0L
    | v :: rest ->
        List.fold_left
          (fun acc v -> Builder.add bld acc (coerce v Types.Long))
          (coerce v Types.Long) rest
  in
  (* straight-line helper functions; later helpers may call earlier ones *)
  let mk_helper idx callees =
    let params =
      List.init (1 + ri 3) (fun k -> (Printf.sprintf "p%d" k, any_int ()))
    in
    let f =
      Ir.mk_func ~name:(Printf.sprintf "helper%d" idx) ~return:Types.Long
        ~params ()
    in
    Ir.add_func m f;
    let entry = Ir.mk_block ~name:"entry" () in
    Ir.append_block f entry;
    Builder.position_at_end entry bld;
    let pool =
      List.map (fun (a : Ir.arg) -> Ir.Varg a) f.Ir.fargs
      @ [
          Ir.const_int Types.Long 5L;
          Ir.const_int Types.Int (Int64.of_int (ri 100));
          Ir.const_float Types.Double Float.nan;
        ]
    in
    let pool = emit_ops pool callees (3 + ri 6) in
    Builder.ret bld (Some (mix pool));
    f
  in
  let helpers =
    let n = ri 3 in
    let rec go k acc =
      if k >= n then List.rev acc else go (k + 1) (mk_helper k acc :: acc)
    in
    go 0 []
  in
  let f = Ir.mk_func ~name:"main" ~return:Types.Int ~params:[] () in
  Ir.add_func m f;
  let entry = Ir.mk_block ~name:"entry" () in
  let header = Ir.mk_block ~name:"header" () in
  let bthen = Ir.mk_block ~name:"bthen" () in
  let belse = Ir.mk_block ~name:"belse" () in
  let latch = Ir.mk_block ~name:"latch" () in
  let exitb = Ir.mk_block ~name:"exit" () in
  List.iter (Ir.append_block f) [ entry; header; bthen; belse; latch; exitb ];
  Builder.position_at_end entry bld;
  let v1 = Builder.load bld (Ir.Vglobal g1) in
  let v2 = Builder.load bld (Ir.Vglobal g2) in
  let vf = Builder.load bld (Ir.Vglobal gf) in
  (* in-bounds stack memory: fill an array, fold it back *)
  let elem = [| Types.Sbyte; Types.Short; Types.Int; Types.Long |].(ri 4) in
  let n = 3 + ri 6 in
  let arr = Builder.alloca bld (Types.Array (n, elem)) in
  let msum = ref (Ir.const_int Types.Long 0L) in
  for k = 0 to n - 1 do
    let slot =
      Builder.getelementptr bld arr
        [ Ir.const_int Types.Long 0L; Ir.const_int Types.Long (Int64.of_int k) ]
    in
    let stored =
      if k mod 2 = 0 then Ir.const_int elem (Int64.of_int (ri 4096 - 2048))
      else coerce v1 elem
    in
    Builder.store bld stored slot;
    let back = Builder.load bld slot in
    msum := Builder.add bld !msum (coerce back Types.Long)
  done;
  let base =
    [
      v1;
      v2;
      vf;
      !msum;
      Ir.const_int Types.Int 3L;
      Ir.const_float Types.Double Float.nan;
      Ir.const_float Types.Float 0.5;
    ]
  in
  let pool0 = emit_ops base helpers (2 + ri 6) in
  let seed_val = mix pool0 in
  Builder.br bld header;
  Builder.position_at_end header bld;
  let i_phi = Builder.phi_at_front bld Types.Int [] in
  let acc_phi = Builder.phi_at_front bld Types.Long [] in
  let cmp =
    Builder.setcc bld Ir.Lt i_phi
      (Ir.const_int Types.Int (Int64.of_int (1 + ri 6)))
  in
  Builder.cond_br bld cmp bthen belse;
  Builder.position_at_end bthen bld;
  let pt =
    emit_ops
      [ acc_phi; coerce i_phi Types.Long; v1; v2; vf ]
      helpers (1 + ri 4)
  in
  let tval = mix pt in
  Builder.br bld latch;
  Builder.position_at_end belse bld;
  let pe =
    emit_ops
      [ acc_phi; v2; !msum; vf; Ir.const_int Types.Long 7L ]
      helpers (1 + ri 4)
  in
  let eval_ = mix pe in
  Builder.br bld latch;
  Builder.position_at_end latch bld;
  let merged =
    Builder.phi_at_front bld Types.Long [ (tval, bthen); (eval_, belse) ]
  in
  let inext = Builder.add bld i_phi (Ir.const_int Types.Int 1L) in
  let done_ =
    Builder.setcc bld Ir.Ge inext
      (Ir.const_int Types.Int (Int64.of_int (6 + ri 6)))
  in
  Builder.cond_br bld done_ exitb header;
  (match (i_phi, acc_phi) with
  | Ir.Vreg ip, Ir.Vreg ap ->
      Ir.phi_set_incoming ip
        [ (Ir.const_int Types.Int 0L, entry); (inext, latch) ];
      Ir.phi_set_incoming ap [ (seed_val, entry); (merged, latch) ]
  | _ -> assert false);
  Builder.position_at_end exitb bld;
  ignore (Builder.call bld (Ir.Vfunc print_long) [ merged ]);
  let masked = Builder.and_ bld merged (Ir.const_int Types.Long 0x7FL) in
  Builder.ret bld (Some (coerce masked Types.Int));
  m

let gen_full_program : Ir.modl QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* seed = int_range 0 10_000_000 in
    return (random_full_program (Random.State.make [| seed |]))
  in
  QCheck.make gen ~print:(fun m -> Pretty.module_to_string m)

(* ------------------------------------------------------------------ *)
(* The five-engine differential driver. *)

let engine_names = [ "interp"; "x86"; "sparc"; "llee-x86"; "llee-sparc" ]

let engine_results ?(fuel = 4_000_000) (m : Ir.modl) :
    (string * Llee.Outcome.t * string) list =
  let interp () =
    let o, st = Llee.Outcome.run_main_interp ~fuel (clone m) in
    (o, Interp.output st)
  in
  let native target () =
    let (module B) = Llee.backend target in
    let o, st =
      Llee.Outcome.run_main ~fuel B.machine (B.compile_module (clone m))
    in
    (o, Codegen.Machine.output st)
  in
  let llee target () = Llee.run ~fuel (Llee.of_module ~target (clone m)) in
  List.map2
    (fun name launch ->
      let o, out = launch () in
      (name, o, out))
    engine_names
    [
      interp; native Llee.X86; native Llee.Sparc; llee Llee.X86; llee Llee.Sparc;
    ]

(* the engine-independent summary of one run: outcome class (trap
   addresses are engine-specific, so traps compare by class) plus the
   runtime output byte stream *)
let observable (o : Llee.Outcome.t) (out : string) : string =
  let oc =
    match o with
    | Llee.Outcome.Exit c -> Printf.sprintf "exit:%d" c
    | Llee.Outcome.Trapped { kind; _ } -> "trap:" ^ Llee.Tv.trap_class kind
    | Llee.Outcome.Fuel_exhausted -> "fuel"
    | Llee.Outcome.Cache_degraded { reason } -> "degraded:" ^ reason
  in
  oc ^ "|" ^ out

(* [None] when all five engines agree. A fuel exhaustion anywhere makes
   the program budget-bound, not divergent, so it also reports [None]. *)
let divergence ?fuel (m : Ir.modl) : string option =
  let rs = engine_results ?fuel m in
  if List.exists (fun (_, o, _) -> o = Llee.Outcome.Fuel_exhausted) rs then None
  else
    match rs with
    | (n0, o0, out0) :: rest ->
        let ref_obs = observable o0 out0 in
        let bad =
          List.filter (fun (_, o, out) -> observable o out <> ref_obs) rest
        in
        if bad = [] then None
        else
          Some
            (String.concat "\n"
               (Printf.sprintf "%s: %s out=%S" n0 (Llee.Outcome.to_string o0)
                  out0
               :: List.map
                    (fun (n, o, out) ->
                      Printf.sprintf "%s: %s out=%S" n
                        (Llee.Outcome.to_string o) out)
                    bad))
    | [] -> None

(* Greedy structural shrinking: repeatedly erase one instruction,
   keeping a candidate only if it still verifies and the divergence
   survives. Uses of the erased value are replaced by a harmless typed
   constant — NOT undef, whose division/remainder semantics genuinely
   differ between engines and would let the shrinker manufacture phantom
   divergences the generator can never produce. Budget-bounded so a
   stubborn repro cannot stall the suite. *)
let shrink_divergence ?fuel (m0 : Ir.modl) : Ir.modl =
  let diverges m = divergence ?fuel m <> None in
  let neutral ty =
    if Types.equal ty Types.Bool then Some (Ir.const_bool true)
    else if Types.is_integer ty then Some (Ir.const_int ty 1L)
    else if Types.is_fp ty then Some (Ir.const_float ty 1.0)
    else None (* pointer-typed values stay *)
  in
  let try_erase m (fi, bi, k) =
    let m2 = clone m in
    match List.nth_opt m2.Ir.funcs fi with
    | None -> None
    | Some f -> (
        match List.nth_opt f.Ir.fblocks bi with
        | None -> None
        | Some b ->
            if k >= List.length b.Ir.instrs - 1 then None
              (* keep the terminator *)
            else
              let i = List.nth b.Ir.instrs k in
              let removable =
                if i.Ir.iuses = [] then true
                else
                  match neutral i.Ir.ity with
                  | Some v ->
                      Ir.replace_all_uses_with (Ir.Vreg i) v;
                      true
                  | None -> false
              in
              if not removable then None
              else (
                Ir.remove_instr i;
                match Verify.verify_module m2 with
                | [] -> Some m2
                | _ -> None))
  in
  let positions m =
    List.concat
      (List.mapi
         (fun fi (f : Ir.func) ->
           List.concat
             (List.mapi
                (fun bi (b : Ir.block) ->
                  List.mapi (fun k _ -> (fi, bi, k)) b.Ir.instrs)
                f.Ir.fblocks))
         m.Ir.funcs)
  in
  let budget = ref 400 in
  let cur = ref m0 in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    List.iter
      (fun p ->
        if (not !progress) && !budget > 0 then (
          decr budget;
          match try_erase !cur p with
          | Some m2 when diverges m2 ->
              cur := m2;
              progress := true
          | _ -> ()))
      (positions !cur)
  done;
  !cur
