(* Unit tests for IR construction, use lists, and the builder. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build the paper's running example shape: a function with a diamond CFG
   and a phi at the join. *)
let build_diamond () =
  let m = Ir.mk_module ~name:"diamond" () in
  let f =
    Ir.mk_func ~name:"choose" ~return:Types.Int
      ~params:[ ("c", Types.Bool); ("a", Types.Int); ("b", Types.Int) ]
      ()
  in
  Ir.add_func m f;
  let entry = Ir.mk_block ~name:"entry" () in
  let then_b = Ir.mk_block ~name:"then" () in
  let else_b = Ir.mk_block ~name:"else" () in
  let join = Ir.mk_block ~name:"join" () in
  List.iter (Ir.append_block f) [ entry; then_b; else_b; join ];
  let bld = Builder.create m in
  let carg = Ir.Varg (List.nth f.Ir.fargs 0) in
  let aarg = Ir.Varg (List.nth f.Ir.fargs 1) in
  let barg = Ir.Varg (List.nth f.Ir.fargs 2) in
  Builder.position_at_end entry bld;
  Builder.cond_br bld carg then_b else_b;
  Builder.position_at_end then_b bld;
  let doubled = Builder.add ~name:"doubled" bld aarg aarg in
  Builder.br bld join;
  Builder.position_at_end else_b bld;
  let negated = Builder.sub ~name:"negated" bld (Ir.const_int Types.Int 0L) barg in
  Builder.br bld join;
  Builder.position_at_end join bld;
  let result =
    Builder.phi ~name:"result" bld Types.Int
      [ (doubled, then_b); (negated, else_b) ]
  in
  Builder.ret bld (Some result);
  (m, f, entry, then_b, else_b, join)

let test_diamond_structure () =
  let m, f, entry, then_b, else_b, join = build_diamond () in
  check_int "block count" 4 (List.length f.Ir.fblocks);
  check_int "instr count" 7 (Ir.instr_count f);
  check_bool "verifies" true (Verify.verify_module m = []);
  (* CFG *)
  let succs = Ir.successors entry in
  check_int "entry succs" 2 (List.length succs);
  check_bool "entry -> then" true (List.exists (fun b -> b == then_b) succs);
  let preds = Ir.predecessors join in
  check_int "join preds" 2 (List.length preds);
  check_bool "join pred else" true (List.exists (fun b -> b == else_b) preds);
  check_int "entry preds" 0 (List.length (Ir.predecessors entry))

let test_use_lists () =
  let _, f, _, then_b, _, join = build_diamond () in
  ignore f;
  (* the add instruction's result is used once, by the phi *)
  let add_instr = List.hd then_b.Ir.instrs in
  check_int "add uses" 1 (List.length add_instr.Ir.iuses);
  let phi = List.hd join.Ir.instrs in
  check_bool "used by phi" true ((List.hd add_instr.Ir.iuses).Ir.user == phi);
  (* replace all uses of add with a constant *)
  Ir.replace_all_uses_with (Ir.Vreg add_instr) (Ir.const_int Types.Int 7L);
  check_int "add uses after RAUW" 0 (List.length add_instr.Ir.iuses);
  (match (List.hd join.Ir.instrs).Ir.operands.(0) with
  | Ir.Const { ckind = Ir.Cint 7L; _ } -> ()
  | _ -> Alcotest.fail "phi operand not rewritten");
  (* removing the instruction clears its operand uses *)
  let args_use_before =
    List.length (List.nth f.Ir.fargs 1).Ir.auses
  in
  Ir.remove_instr add_instr;
  let args_use_after = List.length (List.nth f.Ir.fargs 1).Ir.auses in
  check_bool "arg use dropped" true (args_use_after < args_use_before)

let test_normalize_int () =
  let n = Ir.normalize_int in
  Alcotest.(check int64) "ubyte wraps" 255L (n Types.Ubyte (-1L));
  Alcotest.(check int64) "sbyte sign" (-1L) (n Types.Sbyte 255L);
  Alcotest.(check int64) "short sign" (-32768L) (n Types.Short 32768L);
  Alcotest.(check int64) "int wraps" (-2147483648L) (n Types.Int 2147483648L);
  Alcotest.(check int64) "uint masks" 4294967295L (n Types.Uint (-1L));
  Alcotest.(check int64) "bool" 1L (n Types.Bool 3L);
  Alcotest.(check int64) "long identity" Int64.min_int (n Types.Long Int64.min_int)

let test_phi_helpers () =
  let _, _, _, then_b, else_b, join = build_diamond () in
  let phi = List.hd join.Ir.instrs in
  check_int "incoming" 2 (List.length (Ir.phi_incoming phi));
  check_bool "value for then" true
    (Option.is_some (Ir.phi_value_for_block phi then_b));
  Ir.phi_remove_pred join else_b;
  check_int "incoming after removal" 1 (List.length (Ir.phi_incoming phi));
  check_bool "else edge gone" true
    (Option.is_none (Ir.phi_value_for_block phi else_b))

let test_terminators () =
  let _, f, entry, _, _, _ = build_diamond () in
  (match Ir.terminator entry with
  | Some t -> check_bool "cond br is terminator" true (Ir.is_terminator t)
  | None -> Alcotest.fail "entry has no terminator");
  check_int "opcode count is 28" 28 (List.length Ir.all_opcodes);
  (* round-trip opcode codes *)
  List.iter
    (fun op ->
      check_bool
        ("opcode roundtrip " ^ Ir.opcode_name op)
        true
        (Ir.opcode_of_code (Ir.opcode_code op) = op))
    Ir.all_opcodes;
  ignore f

let test_builder_type_errors () =
  let m = Ir.mk_module () in
  let f = Ir.mk_func ~name:"f" ~return:Types.Void ~params:[] () in
  Ir.add_func m f;
  let b = Ir.mk_block ~name:"entry" () in
  Ir.append_block f b;
  let bld = Builder.create m in
  Builder.position_at_end b bld;
  check_bool "mixed add rejected" true
    (try
       ignore (Builder.add bld (Ir.const_int Types.Int 1L) (Ir.const_int Types.Long 1L));
       false
     with Invalid_argument _ -> true);
  check_bool "non-bool branch rejected" true
    (try
       Builder.cond_br bld (Ir.const_int Types.Int 1L) b b;
       false
     with Invalid_argument _ -> true);
  check_bool "bad shift amount rejected" true
    (try
       ignore (Builder.shl bld (Ir.const_int Types.Int 1L) (Ir.const_int Types.Int 1L));
       false
     with Invalid_argument _ -> true)

let test_verifier_rejects () =
  (* block without terminator *)
  let m = Ir.mk_module () in
  let f = Ir.mk_func ~name:"f" ~return:Types.Void ~params:[] () in
  Ir.add_func m f;
  let b = Ir.mk_block ~name:"entry" () in
  Ir.append_block f b;
  Ir.append_instr b
    (Ir.mk_instr (Ir.Binop Ir.Add)
       [| Ir.const_int Types.Int 1L; Ir.const_int Types.Int 2L |]
       Types.Int);
  check_bool "missing terminator caught" true (Verify.verify_module m <> []);
  (* SSA violation: use before def across blocks *)
  let m2 = Ir.mk_module () in
  let f2 = Ir.mk_func ~name:"g" ~return:Types.Int ~params:[ ("c", Types.Bool) ] () in
  Ir.add_func m2 f2;
  let e = Ir.mk_block ~name:"entry" () in
  let b1 = Ir.mk_block ~name:"b1" () in
  let b2 = Ir.mk_block ~name:"b2" () in
  List.iter (Ir.append_block f2) [ e; b1; b2 ];
  let carg = Ir.Varg (List.hd f2.Ir.fargs) in
  let def_in_b2 =
    Ir.mk_instr ~name:"x" (Ir.Binop Ir.Add)
      [| Ir.const_int Types.Int 1L; Ir.const_int Types.Int 2L |]
      Types.Int
  in
  Ir.append_instr e
    (Ir.mk_instr Ir.Br [| carg; Ir.Vblock b1; Ir.Vblock b2 |] Types.Void);
  (* b1 uses %x, which is only defined in b2: not dominated *)
  Ir.append_instr b1 (Ir.mk_instr Ir.Ret [| Ir.Vreg def_in_b2 |] Types.Void);
  Ir.append_instr b2 def_in_b2;
  Ir.append_instr b2
    (Ir.mk_instr Ir.Ret [| Ir.Vreg def_in_b2 |] Types.Void);
  check_bool "dominance violation caught" true (Verify.verify_module m2 <> [])

(* a named type is resolved wherever it appears: the type an alloca
   allocates, and one nested in a defined struct *)
let test_verifier_unresolved_names () =
  let errors body =
    Verify.verify_module
      (Resolve.parse_module ~name:"t"
         (body ^ "\nint %main() {\nentry:\n  %p = alloca %struct.missing\n  ret int 0\n}\n"))
  in
  check_bool "alloca of an undefined type rejected" true
    (List.exists
       (fun e -> e = "function %main block %entry: unresolved type name %struct.missing")
       (errors ""));
  let m =
    Resolve.parse_module ~name:"t"
      "%pair = type { int, %gone* }\nint %main() {\nentry:\n  %p = alloca %pair\n  ret int 0\n}\n"
  in
  check_bool "alloca of a struct naming an undefined type rejected" true
    (List.exists
       (fun e -> e = "function %main block %entry: unresolved type name %gone")
       (Verify.verify_module m))

(* Named types that never reach a structural type end in a diagnostic,
   not a loop: a cycle of names, and a struct that contains itself by
   value (it has no size). *)
let test_types_that_never_resolve () =
  let diagnosed src =
    match Resolve.parse_module ~name:"t" src with
    | exception Resolve.Error e -> [ e ]
    | m -> Verify.verify_module m
  in
  let env = Types.env_of_typedefs [ ("a", Types.Named "b"); ("b", Types.Named "a") ] in
  check_bool "a cycle of names is unresolved" true
    (match Types.resolve env (Types.Named "a") with
    | _ -> false
    | exception Types.Unresolved _ -> true);
  Alcotest.(check (list string))
    "a cycle of names"
    [
      "module: type %a contains itself";
      "module: type %b contains itself";
      "function %main block %entry: unresolved type name %a";
      "function %main block %entry: load of non-scalar %a";
    ]
    (diagnosed
       {|%a = type %b
%b = type %a

int %main(%a* %p) {
entry:
  %v = load %a* %p
  ret int 0
}
|});
  let alloca_t def =
    diagnosed (def ^ {|

int %main() {
entry:
  %p = alloca %t
  ret int 0
}
|})
  in
  Alcotest.(check (list string))
    "a struct that contains itself"
    [ "module: type %t contains itself" ]
    (alloca_t "%t = type { int, %t }");
  Alcotest.(check (list string)) "through a pointer is fine" [] (alloca_t "%t = type { int, %t* }")

(* Unreachable blocks keep what the dominance equations give them: one
   that no edge reaches is dominated by itself alone, so a use there of
   a value defined elsewhere is rejected; one on an unreachable cycle
   is dominated by every block, so the same use is accepted. *)
let test_verifier_unreachable_blocks () =
  let errors body =
    Verify.verify_module
      (Resolve.parse_module ~name:"t"
         ("int %main() {\nentry:\n  %x = add int 1, 2\n  ret int %x\n" ^ body
        ^ "}\n"))
  in
  (match errors "dead:\n  %y = add int %x, 1\n  ret int %y\n" with
  | [ e ] ->
      check_bool "predecessor-less block: use not dominated" true
        (String.starts_with ~prefix:"function %main block %dead: use of %x (id " e
        && String.ends_with ~suffix:") not dominated by its definition" e)
  | errs ->
      Alcotest.failf "predecessor-less block: expected one error, got [%s]"
        (String.concat "; " errs));
  Alcotest.(check (list string))
    "unreachable self-loop accepted" []
    (errors "loop:\n  %y = add int %x, 1\n  br label %loop\n")

(* [f] plus up to four blocks no edge from the entry reaches, each
   ending in an unwind or a branch to random blocks, old or new *)
let add_unreachable_blocks rand f =
  let fresh = List.init (Random.State.int rand 5) (fun _ -> Ir.mk_block ()) in
  List.iter (Ir.append_block f) fresh;
  let all = Array.of_list f.Ir.fblocks in
  let pick () = Ir.Vblock all.(Random.State.int rand (Array.length all)) in
  List.iter
    (fun b ->
      let term =
        match Random.State.int rand 3 with
        | 0 -> Ir.mk_instr Ir.Unwind [||] Types.Void
        | 1 -> Ir.mk_instr Ir.Br [| pick () |] Types.Void
        | _ -> Ir.mk_instr Ir.Br [| Ir.const_int Types.Bool 1L; pick (); pick () |] Types.Void
      in
      Ir.append_instr b term)
    fresh

let prop_verifier_dominance level =
  QCheck.Test.make
    ~name:(Printf.sprintf "verifier dominance equals the matrix reference at -O%d" level)
    ~count:100 (QCheck.pair Gen.gen_program QCheck.small_nat) (fun (m, seed) ->
      let m = Gen.clone m in
      if level > 0 then ignore (Transform.Passmgr.optimize ~level m);
      let rand = Random.State.make [| seed |] in
      List.for_all
        (fun f ->
          Ir.is_declaration f
          ||
          (add_unreachable_blocks rand f;
           let reference = Verify_ref.compute_dominators f in
           let dominates = Verify.dominance f in
           let n = Array.length reference in
           List.for_all
             (fun u -> List.for_all (fun d -> reference.(u).(d) = dominates d u) (List.init n Fun.id))
             (List.init n Fun.id)))
        m.Ir.funcs)

let suite =
  [
    Alcotest.test_case "diamond structure" `Quick test_diamond_structure;
    Alcotest.test_case "use lists" `Quick test_use_lists;
    Alcotest.test_case "normalize int" `Quick test_normalize_int;
    Alcotest.test_case "phi helpers" `Quick test_phi_helpers;
    Alcotest.test_case "terminators" `Quick test_terminators;
    Alcotest.test_case "builder type errors" `Quick test_builder_type_errors;
    Alcotest.test_case "verifier rejects" `Quick test_verifier_rejects;
    Alcotest.test_case "verifier unresolved names" `Quick
      test_verifier_unresolved_names;
    Alcotest.test_case "types that never resolve" `Quick test_types_that_never_resolve;
    Alcotest.test_case "verifier unreachable blocks" `Quick
      test_verifier_unreachable_blocks;
    QCheck_alcotest.to_alcotest (prop_verifier_dominance 0);
    QCheck_alcotest.to_alcotest (prop_verifier_dominance 2);
  ]

(* each §3.1 type rule rejects ill-typed IR built directly (bypassing the
   builder's checks) *)
let test_verifier_type_rules () =
  let with_main build =
    let m = Ir.mk_module () in
    let f =
      Ir.mk_func ~name:"main" ~return:Types.Int
        ~params:[ ("a", Types.Int); ("p", Types.Pointer Types.Int) ]
        ()
    in
    Ir.add_func m f;
    let b = Ir.mk_block ~name:"entry" () in
    Ir.append_block f b;
    build f b;
    Ir.append_instr b
      (Ir.mk_instr Ir.Ret [| Ir.const_int Types.Int 0L |] Types.Void);
    Verify.verify_module m <> []
  in
  let a_of f = Ir.Varg (List.nth f.Ir.fargs 0) in
  let p_of f = Ir.Varg (List.nth f.Ir.fargs 1) in
  check_bool "mixed-type add rejected" true
    (with_main (fun f b ->
         Ir.append_instr b
           (Ir.mk_instr (Ir.Binop Ir.Add)
              [| a_of f; Ir.const_int Types.Long 1L |]
              Types.Int)));
  check_bool "float xor rejected" true
    (with_main (fun _ b ->
         Ir.append_instr b
           (Ir.mk_instr (Ir.Binop Ir.Xor)
              [| Ir.const_float Types.Double 1.0; Ir.const_float Types.Double 2.0 |]
              Types.Double)));
  check_bool "shift amount must be ubyte" true
    (with_main (fun f b ->
         Ir.append_instr b
           (Ir.mk_instr (Ir.Binop Ir.Shl) [| a_of f; a_of f |] Types.Int)));
  check_bool "setcc must produce bool" true
    (with_main (fun f b ->
         Ir.append_instr b
           (Ir.mk_instr (Ir.Setcc Ir.Eq) [| a_of f; a_of f |] Types.Int)));
  check_bool "load from non-pointer rejected" true
    (with_main (fun f b ->
         Ir.append_instr b (Ir.mk_instr Ir.Load [| a_of f |] Types.Int)));
  check_bool "store type mismatch rejected" true
    (with_main (fun f b ->
         Ir.append_instr b
           (Ir.mk_instr Ir.Store
              [| Ir.const_int Types.Long 1L; p_of f |]
              Types.Void)));
  check_bool "call arity mismatch rejected" true
    (with_main (fun f b ->
         Ir.append_instr b
           (Ir.mk_instr Ir.Call [| Ir.Vfunc f; a_of f |] Types.Int)));
  check_bool "ret type mismatch rejected" true
    (with_main (fun f b ->
         ignore f;
         Ir.append_instr b
           (Ir.mk_instr Ir.Ret [| Ir.const_float Types.Double 0.0 |] Types.Void);
         (* unreachable trailing ret added by with_main makes two
            terminators, also caught *)
         ()));
  check_bool "gep non-integer index rejected" true
    (with_main (fun f b ->
         Ir.append_instr b
           (Ir.mk_instr Ir.Getelementptr
              [| p_of f; Ir.const_float Types.Double 1.0 |]
              (Types.Pointer Types.Int))));
  check_bool "phi predecessor mismatch rejected" true
    (with_main (fun f b ->
         let other = Ir.mk_block ~name:"other" () in
         Ir.append_block
           (match b.Ir.bparent with Some fn -> fn | None -> assert false)
           other;
         Ir.append_instr other
           (Ir.mk_instr Ir.Ret [| Ir.const_int Types.Int 1L |] Types.Void);
         (* a phi naming a non-predecessor *)
         let phi =
           Ir.mk_instr ~name:"bad" Ir.Phi
             [| a_of f; Ir.Vblock other |]
             Types.Int
         in
         Ir.prepend_instr b phi))

let suite =
  suite
  @ [ Alcotest.test_case "verifier type rules" `Quick test_verifier_type_rules ]

(* [Ir.replace_all_uses_with] and [Ir.remove_block] against the
   definitions they replaced ([set_operand] on each use in turn;
   [remove_instr] on each instruction), on two copies of one random
   program built from the same seed: every operand and every use list
   must come out the same, position for position. *)
let old_replace_all_uses_with old_v new_v =
  List.iter (fun (u : Ir.use) -> Ir.set_operand u.Ir.user u.Ir.uidx new_v) (Ir.uses_of old_v)

let old_remove_block (b : Ir.block) =
  (match b.Ir.bparent with
  | Some f -> f.Ir.fblocks <- List.filter (fun x -> not (x == b)) f.Ir.fblocks
  | None -> ());
  List.iter Ir.remove_instr b.Ir.instrs;
  b.Ir.instrs <- [];
  b.Ir.bparent <- None

(* the operands and the use list of every value, naming values by their
   place in [values] *)
let shape (values : Ir.value list) =
  let pos = Hashtbl.create 64 in
  let id = function
    | Ir.Vreg i -> Some (`I i.Ir.iid)
    | Ir.Varg a -> Some (`A a.Ir.aid)
    | Ir.Vblock b -> Some (`B b.Ir.blid)
    | Ir.Vglobal g -> Some (`G g.Ir.gid)
    | Ir.Vfunc f -> Some (`F f.Ir.fid)
    | Ir.Const _ | Ir.Vundef _ -> None
  in
  List.iteri (fun k v -> Hashtbl.replace pos (id v) k) values;
  let name v =
    match v with
    | Ir.Const c -> Pretty.typed_const c
    | Ir.Vundef ty -> "undef " ^ Types.to_string ty
    | v -> string_of_int (Hashtbl.find pos (id v))
  in
  List.map
    (fun v ->
      let uses =
        List.map
          (fun (u : Ir.use) -> Printf.sprintf "%s.%d" (name (Ir.Vreg u.Ir.user)) u.Ir.uidx)
          (Ir.uses_of v)
      in
      let ops =
        match v with
        | Ir.Vreg i -> Array.to_list (Array.map name i.Ir.operands)
        | _ -> []
      in
      String.concat " " ops ^ " | " ^ String.concat " " uses)
    values

let all_values (m : Ir.modl) =
  List.map (fun g -> Ir.Vglobal g) m.Ir.globals
  @ List.concat_map
      (fun (f : Ir.func) ->
        (Ir.Vfunc f :: List.map (fun a -> Ir.Varg a) f.Ir.fargs)
        @ List.concat_map
            (fun (b : Ir.block) ->
              Ir.Vblock b :: List.map (fun i -> Ir.Vreg i) b.Ir.instrs)
            f.Ir.fblocks)
      m.Ir.funcs

let prop_use_list_edits =
  QCheck.Test.make ~name:"use-list edits agree with one edit per use" ~count:200
    QCheck.(pair (int_bound 10_000_000) (int_bound 1_000_000))
    (fun (seed, pick) ->
      let make () = Gen.random_full_program (Random.State.make [| seed |]) in
      let a = make () and b = make () in
      let va = all_values a and vb = all_values b in
      let regs vs = List.filter (function Ir.Vreg _ -> true | _ -> false) vs in
      let ra = Array.of_list (regs va) and rb = Array.of_list (regs vb) in
      let n = Array.length ra in
      let rand = Random.State.make [| pick |] in
      for _ = 1 to 5 do
        let i = Random.State.int rand n and j = Random.State.int rand n in
        Ir.replace_all_uses_with ra.(i) ra.(j);
        old_replace_all_uses_with rb.(i) rb.(j)
      done;
      let blocks vs = List.filter (function Ir.Vblock _ -> true | _ -> false) vs in
      (match (blocks va, blocks vb) with
      | (_ :: _ as ba), bb ->
          let k = Random.State.int rand (List.length ba) in
          Ir.remove_block (Ir.block_of_value (List.nth ba k));
          old_remove_block (Ir.block_of_value (List.nth bb k))
      | [], _ -> ());
      shape va = shape vb)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_use_list_edits ]
