(* Loading a module's global data into simulated memory: assigns every
   global an address, writes initializers (resolving cross-references), and
   gives every function a code address so function pointers are real,
   comparable scalar values. *)

open Llva

type t = {
  layout : Layout.t;
  mem : Memory.t;
  global_addrs : (string, int64) Hashtbl.t;
  func_addrs : (string, int64) Hashtbl.t;
  funcs_by_addr : (int64, Ir.func) Hashtbl.t;
}

(* Function descriptors live in their own region below the heap; they are
   not executable bytes, just unique addresses. *)
let func_region_base = 0x00F0_0000L

let symbol_address img name =
  match Hashtbl.find_opt img.global_addrs name with
  | Some a -> Some a
  | None -> Hashtbl.find_opt img.func_addrs name

let func_at img addr = Hashtbl.find_opt img.funcs_by_addr addr

let rec write_const img addr (c : Ir.const) =
  let lt = img.layout in
  match c.Ir.ckind with
  | Ir.Cbool _ | Ir.Cint _ | Ir.Cfloat _ ->
      let v =
        match c.Ir.ckind with
        | Ir.Cbool b -> Eval.B b
        | Ir.Cint x -> Eval.I (c.Ir.cty, x)
        | Ir.Cfloat x -> Eval.F (c.Ir.cty, x)
        | _ -> assert false
      in
      Memory.write_scalar img.mem c.Ir.cty addr v
  | Ir.Cnull -> Memory.write_scalar img.mem c.Ir.cty addr (Eval.P 0L)
  | Ir.Czero -> () (* fresh pages are zeroed *)
  | Ir.Cstring s ->
      String.iteri
        (fun k ch ->
          Memory.write_u8 img.mem
            (Int64.add addr (Int64.of_int k))
            (Char.code ch))
        s
      (* trailing NUL is already zero *)
  | Ir.Carray elems ->
      let elem_ty =
        match Types.resolve lt.Layout.env c.Ir.cty with
        | Types.Array (_, e) -> e
        | _ -> (
            match elems with
            | e :: _ -> e.Ir.cty
            | [] -> Types.Ubyte)
      in
      let esz = Layout.size_of lt elem_ty in
      List.iteri
        (fun k e -> write_const img (Int64.add addr (Int64.of_int (k * esz))) e)
        elems
  | Ir.Cstruct elems ->
      let fields =
        match Types.resolve lt.Layout.env c.Ir.cty with
        | Types.Struct fs -> fs
        | _ -> List.map (fun e -> e.Ir.cty) elems
      in
      List.iteri
        (fun k e ->
          let off = Layout.field_offset lt fields k in
          write_const img (Int64.add addr (Int64.of_int off)) e)
        elems
  | Ir.Cglobal_ref name -> (
      match symbol_address img name with
      | Some target -> Memory.write_scalar img.mem c.Ir.cty addr (Eval.P target)
      | None -> invalid_arg ("Image: unresolved symbol in initializer: " ^ name))

let load (m : Ir.modl) : t =
  let layout = Layout.for_module m in
  let mem = Memory.create m.Ir.target in
  let img =
    {
      layout;
      mem;
      global_addrs = Hashtbl.create 64;
      func_addrs = Hashtbl.create 64;
      funcs_by_addr = Hashtbl.create 64;
    }
  in
  (* assign function descriptor addresses *)
  List.iteri
    (fun k f ->
      let addr = Int64.add func_region_base (Int64.of_int (16 * (k + 1))) in
      Hashtbl.replace img.func_addrs f.Ir.fname addr;
      Hashtbl.replace img.funcs_by_addr addr f)
    m.Ir.funcs;
  (* lay out globals *)
  let cursor = Memory.globals_cursor () in
  List.iter
    (fun g ->
      let size = Layout.size_of layout g.Ir.gty in
      let align = Layout.align_of layout g.Ir.gty in
      let addr = Memory.bump cursor ~align size in
      Hashtbl.replace img.global_addrs g.Ir.gname addr)
    m.Ir.globals;
  (* write initializers after all symbols have addresses *)
  List.iter
    (fun g ->
      match g.Ir.ginit with
      | Some init -> (
          match Hashtbl.find_opt img.global_addrs g.Ir.gname with
          | Some addr -> write_const img addr init
          | None -> ())
      | None -> ())
    m.Ir.globals;
  img
