(* Unit tests for the vmem substrate: data layout, paged memory,
   endianness, the image loader, and the runtime. *)

open Llva

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let lt32 = Vmem.Layout.create Target.little32
let lt64 = Vmem.Layout.create Target.little64

let test_scalar_sizes () =
  check_int "bool" 1 (Vmem.Layout.size_of lt32 Types.Bool);
  check_int "sbyte" 1 (Vmem.Layout.size_of lt32 Types.Sbyte);
  check_int "short" 2 (Vmem.Layout.size_of lt32 Types.Short);
  check_int "int" 4 (Vmem.Layout.size_of lt32 Types.Int);
  check_int "long" 8 (Vmem.Layout.size_of lt32 Types.Long);
  check_int "float" 4 (Vmem.Layout.size_of lt32 Types.Float);
  check_int "double" 8 (Vmem.Layout.size_of lt32 Types.Double);
  check_int "ptr32" 4 (Vmem.Layout.size_of lt32 (Types.Pointer Types.Int));
  check_int "ptr64" 8 (Vmem.Layout.size_of lt64 (Types.Pointer Types.Int))

let test_struct_layout () =
  (* { sbyte, int, sbyte } -> 0, 4, 8; size 12 (align 4) *)
  let s = Types.Struct [ Types.Sbyte; Types.Int; Types.Sbyte ] in
  check_int "size" 12 (Vmem.Layout.size_of lt32 s);
  check_int "align" 4 (Vmem.Layout.align_of lt32 s);
  check_int "f0" 0 (Vmem.Layout.field_offset lt32 [ Types.Sbyte; Types.Int; Types.Sbyte ] 0);
  check_int "f1" 4 (Vmem.Layout.field_offset lt32 [ Types.Sbyte; Types.Int; Types.Sbyte ] 1);
  check_int "f2" 8 (Vmem.Layout.field_offset lt32 [ Types.Sbyte; Types.Int; Types.Sbyte ] 2);
  (* pointers change layout across targets *)
  let p = Types.Struct [ Types.Sbyte; Types.Pointer Types.Int ] in
  check_int "ptr struct 32" 8 (Vmem.Layout.size_of lt32 p);
  check_int "ptr struct 64" 16 (Vmem.Layout.size_of lt64 p);
  (* arrays multiply *)
  check_int "array of structs" 120
    (Vmem.Layout.size_of lt32 (Types.Array (10, s)))

let test_gep_offsets () =
  (* the paper's own example: QuadTree offsets are 20 bytes on 32-bit
     pointers and 32 bytes on 64-bit pointers for T[0].Children[3] *)
  let env = Types.empty_env () in
  Hashtbl.replace env "QT"
    (Types.Struct [ Types.Double; Types.Array (4, Types.Pointer (Types.Named "QT")) ]);
  let lt32q = { Vmem.Layout.target = Target.little32; env } in
  let lt64q = { Vmem.Layout.target = Target.little64; env } in
  let indexes =
    [ (Types.Long, 0L); (Types.Ubyte, 1L); (Types.Long, 3L) ]
  in
  let off32, ty32 =
    Vmem.Layout.gep_offset lt32q (Types.Pointer (Types.Named "QT")) indexes
  in
  let off64, _ =
    Vmem.Layout.gep_offset lt64q (Types.Pointer (Types.Named "QT")) indexes
  in
  check_int "paper: 32-bit offset is 20" 20 off32;
  check_int "paper: 64-bit offset is 32" 32 off64;
  check_bool "result type" true
    (Types.equal ty32 (Types.Pointer (Types.Named "QT")));
  (* negative array index walks backwards *)
  let offn, _ =
    Vmem.Layout.gep_offset lt32q (Types.Pointer Types.Int) [ (Types.Long, -3L) ]
  in
  check_int "negative index" (-12) offn

let test_memory_rw () =
  let mem = Vmem.Memory.create Target.little32 in
  Vmem.Memory.write_uint mem 0x2000L 4 0xDEADBEEFL;
  Alcotest.(check int64) "u32 roundtrip" 0xDEADBEEFL
    (Vmem.Memory.read_uint mem 0x2000L 4);
  check_int "byte 0 LE" 0xEF (Vmem.Memory.read_u8 mem 0x2000L);
  check_int "byte 3 LE" 0xDE (Vmem.Memory.read_u8 mem 0x2003L);
  (* big endian flips byte order *)
  let bem = Vmem.Memory.create Target.big32 in
  Vmem.Memory.write_uint bem 0x2000L 4 0xDEADBEEFL;
  check_int "byte 0 BE" 0xDE (Vmem.Memory.read_u8 bem 0x2000L);
  Alcotest.(check int64) "BE roundtrip" 0xDEADBEEFL
    (Vmem.Memory.read_uint bem 0x2000L 4);
  (* cross-page access works (page size 4096) *)
  Vmem.Memory.write_uint mem 0x2FFEL 8 0x0123456789ABCDEFL;
  Alcotest.(check int64) "cross page" 0x0123456789ABCDEFL
    (Vmem.Memory.read_uint mem 0x2FFEL 8)

let test_word_fast_paths () =
  (* the in-page u64 fast path must agree byte-for-byte with the byte
     loop, on both endiannesses and across page boundaries *)
  let check64 = Alcotest.(check int64) in
  let mem = Vmem.Memory.create Target.little32 in
  Vmem.Memory.write_u64 mem 0x3000L 0x0123456789ABCDEFL;
  check64 "u64 roundtrip" 0x0123456789ABCDEFL (Vmem.Memory.read_u64 mem 0x3000L);
  check_int "u64 LE low byte" 0xEF (Vmem.Memory.read_u8 mem 0x3000L);
  check_int "u64 LE high byte" 0x01 (Vmem.Memory.read_u8 mem 0x3007L);
  check64 "u64 agrees with read_uint" (Vmem.Memory.read_uint mem 0x3000L 8)
    (Vmem.Memory.read_u64 mem 0x3000L);
  (* straddling a page boundary takes the slow path with the same result *)
  Vmem.Memory.write_u64 mem 0x3FFDL 0x1122334455667788L;
  check64 "u64 straddle roundtrip" 0x1122334455667788L
    (Vmem.Memory.read_u64 mem 0x3FFDL);
  check_int "straddle low byte" 0x88 (Vmem.Memory.read_u8 mem 0x3FFDL);
  check_int "straddle high byte" 0x11 (Vmem.Memory.read_u8 mem 0x4004L);
  (* big-endian words store their high byte first *)
  let bem = Vmem.Memory.create Target.big32 in
  Vmem.Memory.write_u64 bem 0x3000L 0x0123456789ABCDEFL;
  check64 "BE u64 roundtrip" 0x0123456789ABCDEFL
    (Vmem.Memory.read_u64 bem 0x3000L);
  check_int "BE u64 first byte" 0x01 (Vmem.Memory.read_u8 bem 0x3000L);
  (* unaligned in-page accesses still round-trip *)
  Vmem.Memory.write_u64 mem 0x3005L 0x00FFEEDDCCBBAA99L;
  check64 "unaligned u64" 0x00FFEEDDCCBBAA99L (Vmem.Memory.read_u64 mem 0x3005L)

let test_bulk_bytes () =
  (* read_bytes/write_bytes/fill blit page-at-a-time; a straddling span
     must come back intact *)
  let mem = Vmem.Memory.create Target.little32 in
  let n = 10_000 in
  let src = Bytes.init n (fun k -> Char.chr ((k * 7) land 0xFF)) in
  (* starts mid-page and crosses two page boundaries *)
  Vmem.Memory.write_bytes mem 0x2F40L src;
  let back = Vmem.Memory.read_bytes mem 0x2F40L n in
  check_bool "bulk roundtrip" true (Bytes.equal src back);
  check_int "spot check via u8" ((5000 * 7) land 0xFF)
    (Vmem.Memory.read_u8 mem (Int64.add 0x2F40L 5000L));
  Vmem.Memory.fill mem 0x2F40L n 0xA5;
  let filled = Vmem.Memory.read_bytes mem 0x2F40L n in
  check_bool "fill" true
    (Bytes.for_all (fun c -> Char.code c = 0xA5) filled);
  (* zero-length operations are no-ops *)
  Vmem.Memory.write_bytes mem 0x2F40L Bytes.empty;
  check_int "empty read" 0 (Bytes.length (Vmem.Memory.read_bytes mem 0x2F40L 0))

let test_null_page_faults () =
  let mem = Vmem.Memory.create Target.little32 in
  check_bool "null faults" true
    (try
       ignore (Vmem.Memory.read_u8 mem 0L);
       false
     with Vmem.Memory.Fault 0L -> true);
  check_bool "low page faults" true
    (try
       Vmem.Memory.write_u8 mem 0xFFFL 1;
       false
     with Vmem.Memory.Fault _ -> true);
  check_bool "0x1000 is mapped" true
    (try
       ignore (Vmem.Memory.read_u8 mem 0x1000L);
       true
     with Vmem.Memory.Fault _ -> false)

let test_typed_scalar_access () =
  let mem = Vmem.Memory.create Target.little32 in
  (* negative short sign-extends on read *)
  Vmem.Memory.write_scalar mem Types.Short 0x3000L (Eval.I (Types.Short, -2L));
  (match Vmem.Memory.read_scalar mem Types.Short 0x3000L with
  | Eval.I (Types.Short, v) -> Alcotest.(check int64) "short -2" (-2L) v
  | _ -> Alcotest.fail "wrong scalar");
  (* same bytes read unsigned *)
  (match Vmem.Memory.read_scalar mem Types.Ushort 0x3000L with
  | Eval.I (Types.Ushort, v) -> Alcotest.(check int64) "ushort 65534" 65534L v
  | _ -> Alcotest.fail "wrong scalar");
  (* float32 rounding through memory *)
  Vmem.Memory.write_scalar mem Types.Float 0x3010L (Eval.F (Types.Float, 1.1));
  (match Vmem.Memory.read_scalar mem Types.Float 0x3010L with
  | Eval.F (Types.Float, v) ->
      check_bool "float32 precision" true (Float.abs (v -. 1.1) < 1e-6 && v <> 1.1)
  | _ -> Alcotest.fail "wrong scalar");
  (* doubles are exact *)
  Vmem.Memory.write_scalar mem Types.Double 0x3020L (Eval.F (Types.Double, 1.1));
  match Vmem.Memory.read_scalar mem Types.Double 0x3020L with
  | Eval.F (Types.Double, v) -> check_bool "double exact" true (v = 1.1)
  | _ -> Alcotest.fail "wrong scalar"

let test_malloc_free () =
  let mem = Vmem.Memory.create Target.little32 in
  let a = Vmem.Memory.malloc mem 24 in
  let b = Vmem.Memory.malloc mem 24 in
  check_bool "distinct blocks" true (not (Int64.equal a b));
  check_bool "zeroed" true (Vmem.Memory.read_u8 mem a = 0);
  Vmem.Memory.write_u8 mem a 7;
  Vmem.Memory.free mem a;
  (* freed block is recycled for the same size class, and re-zeroed *)
  let c = Vmem.Memory.malloc mem 20 in
  check_bool "recycled" true (Int64.equal a c);
  check_int "re-zeroed" 0 (Vmem.Memory.read_u8 mem c);
  (* double free faults *)
  Vmem.Memory.free mem c;
  check_bool "double free faults" true
    (try
       Vmem.Memory.free mem c;
       false
     with Vmem.Memory.Fault _ -> true);
  (* free of null is a no-op *)
  Vmem.Memory.free mem 0L;
  check_int "live bytes accounted" 32 (Vmem.Memory.live_bytes mem);
  (* sizes with no size class, or whose block would reach the stack,
     are null at once and leave the heap alone *)
  let brk = mem.Vmem.Memory.brk in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "malloc %d is null" n) true
        (Int64.equal (Vmem.Memory.malloc mem n) 0L))
    [ max_int; (1 lsl 61) + 1; 1 lsl 40;
      Int64.to_int (Int64.sub Vmem.Memory.stack_top brk) ];
  check_bool "brk unchanged" true (Int64.equal brk mem.Vmem.Memory.brk);
  check_int "live bytes unchanged" 32 (Vmem.Memory.live_bytes mem)

(* Pages [idx] and [idx + 64] share a TLB entry: interleaved accesses
   must each reach their own page. *)
let test_tlb_conflicts () =
  let mem = Vmem.Memory.create Target.little64 in
  let page = Int64.of_int Vmem.Memory.page_size in
  let addr k = Int64.add 0x10_0000L (Int64.mul page (Int64.of_int (64 * k))) in
  for round = 0 to 2 do
    for k = 0 to 4 do
      Vmem.Memory.write_u64 mem (addr k) (Int64.of_int ((10 * round) + k))
    done;
    for k = 0 to 4 do
      check_int "own page" ((10 * round) + k)
        (Int64.to_int (Vmem.Memory.read_u64 mem (addr k)))
    done
  done

let test_image_loading () =
  let src =
    {|
%greeting = constant [3 x sbyte] c"hi\00"
%number = global int 1234
%pair = global { short, int* } { short 7, int* %number }
%fptr = global void ()* %f

void %f() {
entry:
  ret void
}
|}
  in
  let m = Resolve.parse_module src in
  let img = Vmem.Image.load m in
  let addr name = Option.get (Vmem.Image.symbol_address img name) in
  (* string bytes *)
  check_int "g[0]" (Char.code 'h') (Vmem.Memory.read_u8 img.Vmem.Image.mem (addr "greeting"));
  check_int "g[2] NUL" 0
    (Vmem.Memory.read_u8 img.Vmem.Image.mem (Int64.add (addr "greeting") 2L));
  (* int initializer *)
  Alcotest.(check int64) "number" 1234L
    (Vmem.Memory.read_uint img.Vmem.Image.mem (addr "number") 4);
  (* struct with a cross-reference: second field holds &number *)
  Alcotest.(check int64) "pair.ptr = &number" (addr "number")
    (Vmem.Memory.read_uint img.Vmem.Image.mem (Int64.add (addr "pair") 4L) 4);
  (* function pointers resolve to the function's descriptor address *)
  Alcotest.(check int64) "fptr = &f" (addr "f")
    (Vmem.Memory.read_uint img.Vmem.Image.mem (addr "fptr") 4);
  match Vmem.Image.func_at img (addr "f") with
  | Some f -> check_string "func_at" "f" f.Ir.fname
  | None -> Alcotest.fail "function address not resolvable"

let test_runtime () =
  let mem = Vmem.Memory.create Target.little32 in
  let rt = Vmem.Runtime.create mem in
  ignore (Vmem.Runtime.call rt "print_int" [ Eval.I (Types.Int, -5L) ]);
  ignore (Vmem.Runtime.call rt "print_nl" []);
  ignore (Vmem.Runtime.call rt "print_float" [ Eval.F (Types.Double, 2.5) ]);
  check_string "output" "-5\n2.5" (Vmem.Runtime.output rt);
  (* memset + strlen through simulated memory *)
  let p = Vmem.Memory.malloc mem 16 in
  ignore
    (Vmem.Runtime.call rt "memset"
       [ Eval.P p; Eval.I (Types.Int, 65L); Eval.I (Types.Int, 5L) ]);
  (match Vmem.Runtime.call rt "strlen" [ Eval.P p ] with
  | Eval.I (_, n) -> Alcotest.(check int64) "strlen" 5L n
  | _ -> Alcotest.fail "strlen result");
  check_bool "exit raises" true
    (try
       ignore (Vmem.Runtime.call rt "exit" [ Eval.I (Types.Int, 3L) ]);
       false
     with Vmem.Runtime.Exit_called 3 -> true)

(* qcheck: layout sanity on random types *)
let gen_type : Types.t QCheck.arbitrary =
  let open QCheck.Gen in
  let scalar =
    oneofl
      [ Types.Bool; Types.Sbyte; Types.Short; Types.Int; Types.Long;
        Types.Float; Types.Double; Types.Pointer Types.Int ]
  in
  let gen =
    let rec ty depth =
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun t -> Types.Pointer t) (ty (depth - 1)));
            ( 2,
              map2 (fun n t -> Types.Array ((n mod 5) + 1, t)) small_nat
                (ty (depth - 1)) );
            ( 2,
              map (fun ts -> Types.Struct ts)
                (list_size (int_range 1 4) (ty (depth - 1))) );
          ]
    in
    ty 3
  in
  QCheck.make gen ~print:Types.to_string

let prop_layout_sane =
  QCheck.Test.make ~name:"layout: size positive, aligned, monotone" ~count:300
    gen_type (fun ty ->
      let s32 = Vmem.Layout.size_of lt32 ty in
      let s64 = Vmem.Layout.size_of lt64 ty in
      let a32 = Vmem.Layout.align_of lt32 ty in
      s32 > 0 && s64 >= s32 && a32 > 0 && s32 mod a32 = 0)

let prop_field_offsets_ordered =
  QCheck.Test.make ~name:"layout: field offsets strictly increase" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 6) gen_type)
    (fun fields ->
      let rec check k last =
        if k >= List.length fields then true
        else
          let off = Vmem.Layout.field_offset lt32 fields k in
          off >= last
          && off mod Vmem.Layout.align_of lt32 (List.nth fields k) = 0
          && check (k + 1) (off + Vmem.Layout.size_of lt32 (List.nth fields k))
      in
      check 0 0)

(* qcheck: getelementptr on random nested types. An index is a constant
   or the register %r; the path walks the type mostly in range, now and
   then past a struct's last field, through a register struct index or
   into a scalar, which the type rule refuses. *)
type gep_index = Cst of int64 | Reg

let gen_gep : (Types.t * gep_index list) QCheck.arbitrary =
  let open QCheck.Gen in
  let cst lo hi = map (fun k -> Cst (Int64.of_int k)) (int_range lo hi) in
  let rec walk (t : Types.t) =
    let* stop = int_bound 4 in
    if stop = 0 then return []
    else
      match t with
      | Types.Array (n, e) ->
          let* i = frequency [ (5, cst (-1) n); (1, return Reg) ] in
          map (fun rest -> i :: rest) (walk e)
      | Types.Struct fs -> (
          let n = List.length fs in
          let* k = frequency [ (8, int_range 0 (n - 1)); (1, return n); (1, return (-1)) ] in
          if k = -1 then return [ Reg ]
          else
            match List.nth_opt fs k with
            | Some f -> map (fun rest -> Cst (Int64.of_int k) :: rest) (walk f)
            | None -> return [ Cst (Int64.of_int k) ])
      | _ -> frequency [ (5, return []); (1, return [ Cst 0L ]) ]
  in
  let gen =
    let* t = QCheck.get_gen gen_type in
    let* first = frequency [ (5, cst (-3) 3); (1, return Reg) ] in
    map (fun rest -> (t, first :: rest)) (walk t)
  in
  let print (t, path) =
    Printf.sprintf "getelementptr %s* %%p, %s" (Types.to_string t)
      (String.concat ", "
         (List.map (function Cst k -> Int64.to_string k | Reg -> "%r") path))
  in
  QCheck.make gen ~print

(* The byte offset of a constant path, on both targets: [Layout.gep_offset]
   and [Alias.const_offset], over a chain of two geps from an alloca,
   agree with [Gep_ref.gep_offset], refusals included. *)
let prop_gep_offsets_reference =
  QCheck.Test.make ~name:"gep: Layout and Alias offsets agree with the reference" ~count:500
    gen_gep (fun (t, path) ->
      let consts = List.map (function Cst k -> k | Reg -> 1L) path in
      let long k = (Types.Long, k) in
      let indexes = List.map long consts in
      let ptr = Types.Pointer t in
      let half = (List.length consts + 1) / 2 in
      let prefix = List.filteri (fun k _ -> k < half) consts
      and suffix = List.filteri (fun k _ -> k >= half) consts in
      let gep p ks ty =
        Ir.Vreg
          (Ir.mk_instr Ir.Getelementptr
             (Array.of_list (p :: List.map (Ir.const_int Types.Long) ks))
             (Types.Pointer ty))
      in
      let alloca = Ir.Vreg (Ir.mk_instr Ir.Alloca [||] ptr) in
      let outcome f = try Ok (f ()) with Invalid_argument _ -> Error () in
      List.for_all
        (fun lt ->
          let reference = outcome (fun () -> Gep_ref.gep_offset lt ptr indexes) in
          let layout = outcome (fun () -> Vmem.Layout.gep_offset lt ptr indexes) in
          let alias =
            match Gep_ref.gep_offset lt ptr (List.map long prefix) with
            | _, mid ->
                Analysis.Alias.const_offset lt
                  (gep (gep alloca prefix mid) (0L :: suffix) Types.Int)
            | exception Invalid_argument _ ->
                Analysis.Alias.const_offset lt (gep alloca consts Types.Int)
          in
          (match (reference, layout) with
          | Ok (a, ta), Ok (b, tb) -> a = b && Types.equal ta tb
          | Error (), Error () -> true
          | _ -> false)
          && alias = Result.to_option (Result.map fst reference))
        [ lt32; lt64 ])

(* The getelementptr type rule on text ([Resolve]), through the
   [Builder] and in the verifier: the same geps accepted, with the same
   result type, and the same refused; a wrong result type is refused
   too. *)
let prop_gep_rule_agrees =
  QCheck.Test.make ~name:"gep: Resolve, Builder and Verify agree on the type rule" ~count:500
    gen_gep (fun (t, path) ->
      let ity k = if k = 0 then Types.Long else Types.Uint in
      let m = Ir.mk_module () in
      let f =
        Ir.mk_func ~name:"main" ~return:Types.Int
          ~params:[ ("p", Types.Pointer t); ("r", Types.Uint) ]
          ()
      in
      Ir.add_func m f;
      let p = Ir.Varg (List.nth f.Ir.fargs 0) and r = Ir.Varg (List.nth f.Ir.fargs 1) in
      let indexes =
        List.mapi (fun k -> function Cst c -> Ir.const_int (ity k) c | Reg -> r) path
      in
      let builder =
        try Some (Builder.gep_result_type (Ir.type_env m) (Types.Pointer t) indexes)
        with Invalid_argument _ -> None
      in
      let text =
        Printf.sprintf
          "int %%main(%s* %%p, uint %%r) {\nentry:\n  %%g = getelementptr %s* %%p, %s\n  ret int 0\n}\n"
          (Types.to_string t) (Types.to_string t)
          (String.concat ", "
             (List.mapi
                (fun k -> function
                  | Cst c -> Printf.sprintf "%s %Ld" (Types.to_string (ity k)) c
                  | Reg -> "uint %r")
                path))
      in
      let resolved =
        match Resolve.parse_module ~name:"t" text with
        | m ->
            Ir.fold_instrs
              (fun acc i -> if i.Ir.op = Ir.Getelementptr then Some i.Ir.ity else acc)
              None
              (Option.get (Ir.find_func m "main"))
        | exception Resolve.Error _ -> None
      in
      let verifies ty =
        let b = Ir.mk_block ~name:"entry" () in
        f.Ir.fblocks <- [];
        Ir.append_block f b;
        Ir.append_instr b (Ir.mk_instr Ir.Getelementptr (Array.of_list (p :: indexes)) ty);
        Ir.append_instr b (Ir.mk_instr Ir.Ret [| Ir.const_int Types.Int 0L |] Types.Void);
        Verify.verify_module m = []
      in
      Option.equal Types.equal builder resolved
      &&
      match builder with
      | Some ty -> verifies ty && not (verifies (Types.Pointer ty))
      | None -> not (verifies (Types.Pointer Types.Int)))

let suite =
  [
    Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
    Alcotest.test_case "struct layout" `Quick test_struct_layout;
    Alcotest.test_case "gep offsets (paper example)" `Quick test_gep_offsets;
    Alcotest.test_case "memory read/write" `Quick test_memory_rw;
    Alcotest.test_case "word fast paths" `Quick test_word_fast_paths;
    Alcotest.test_case "bulk byte ops" `Quick test_bulk_bytes;
    Alcotest.test_case "null page faults" `Quick test_null_page_faults;
    Alcotest.test_case "typed scalar access" `Quick test_typed_scalar_access;
    Alcotest.test_case "malloc/free" `Quick test_malloc_free;
    Alcotest.test_case "page TLB conflicts" `Quick test_tlb_conflicts;
    Alcotest.test_case "image loading" `Quick test_image_loading;
    Alcotest.test_case "runtime" `Quick test_runtime;
    QCheck_alcotest.to_alcotest prop_layout_sane;
    QCheck_alcotest.to_alcotest prop_field_offsets_ordered;
    QCheck_alcotest.to_alcotest prop_gep_offsets_reference;
    QCheck_alcotest.to_alcotest prop_gep_rule_agrees;
  ]
