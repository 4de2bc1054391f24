(* Virtual object code: the binary encoding of an LLVA module.

   The instruction stream follows the paper's design: a fixed 32-bit
   compact form holds most instructions (opcode, result-type index, up to
   two small operand indices), with a self-extending variable-length form
   for everything else (§3.1 "self-extending instruction encoding, but a
   fixed-size 32-bit format for small instructions").

   Layout:
     magic "LLVA" | version u8 | flags u8 (ptr-size, endianness)
     type pool    (structurally interned, children first)
     typedefs     (name -> type index)
     globals      (symbols first, then initializers)
     functions    (header + constant pool + blocks of instructions)

   Operands are indices into a per-function value table:
     [0, nargs)                     the function's arguments
     [nargs, nargs+ninstrs)         instruction results, in block order
     [.., +nblocks)                 basic blocks (labels)
     [.., +npool)                   this function's constant pool
*)

open Ir

(* ---------- primitive writers ---------- *)


let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let rec uleb b v =
  if v < 0 then invalid_arg "Encode.uleb: negative";
  if v < 0x80 then u8 b v
  else begin
    u8 b (0x80 lor (v land 0x7F));
    uleb b (v lsr 7)
  end

(* zig-zag for signed 64-bit payloads *)
let sleb64 b (v : int64) =
  let rec go v =
    let byte = Int64.to_int (Int64.logand v 0x7FL) in
    let rest = Int64.shift_right v 7 in
    if (Int64.equal rest 0L && byte land 0x40 = 0)
       || (Int64.equal rest (-1L) && byte land 0x40 <> 0)
    then u8 b byte
    else begin
      u8 b (byte lor 0x80);
      go rest
    end
  in
  go v

let str b s =
  uleb b (String.length s);
  Buffer.add_string b s

let f64 b v =
  let bits = Int64.bits_of_float v in
  for k = 0 to 7 do
    u8 b (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * k)) 0xFFL))
  done

(* ---------- type pool ---------- *)

type type_pool = {
  mutable entries : Types.t list; (* reversed *)
  index : (Types.t, int) Hashtbl.t;
  mutable count : int;
}

let mk_pool () = { entries = []; index = Hashtbl.create 64; count = 0 }

let rec intern pool ty =
  match Hashtbl.find_opt pool.index ty with
  | Some k -> k
  | None ->
      (* intern children first so decode can resolve forward-free *)
      (match ty with
      | Types.Pointer t -> ignore (intern pool t)
      | Types.Array (_, t) -> ignore (intern pool t)
      | Types.Struct fields -> List.iter (fun t -> ignore (intern pool t)) fields
      | Types.Func (r, ps, _) ->
          ignore (intern pool r);
          List.iter (fun t -> ignore (intern pool t)) ps
      | _ -> ());
      (match Hashtbl.find_opt pool.index ty with
      | Some k -> k
      | None ->
          let k = pool.count in
          pool.count <- k + 1;
          Hashtbl.replace pool.index ty k;
          pool.entries <- ty :: pool.entries;
          k)

let prim_code = function
  | Types.Void -> 0
  | Types.Bool -> 1
  | Types.Ubyte -> 2
  | Types.Sbyte -> 3
  | Types.Ushort -> 4
  | Types.Short -> 5
  | Types.Uint -> 6
  | Types.Int -> 7
  | Types.Ulong -> 8
  | Types.Long -> 9
  | Types.Float -> 10
  | Types.Double -> 11
  | Types.Label -> 12
  | _ -> invalid_arg "Encode.prim_code"

let write_type_entry pool b ty =
  let idx t = Hashtbl.find pool.index t in
  match ty with
  | Types.Void | Types.Bool | Types.Ubyte | Types.Sbyte | Types.Ushort
  | Types.Short | Types.Uint | Types.Int | Types.Ulong | Types.Long
  | Types.Float | Types.Double | Types.Label ->
      u8 b (prim_code ty)
  | Types.Pointer t ->
      u8 b 13;
      uleb b (idx t)
  | Types.Array (n, t) ->
      u8 b 14;
      uleb b n;
      uleb b (idx t)
  | Types.Struct fields ->
      u8 b 15;
      uleb b (List.length fields);
      List.iter (fun t -> uleb b (idx t)) fields
  | Types.Func (r, ps, varargs) ->
      u8 b 16;
      uleb b (idx r);
      uleb b (List.length ps);
      List.iter (fun t -> uleb b (idx t)) ps;
      u8 b (if varargs then 1 else 0)
  | Types.Named n ->
      u8 b 17;
      str b n

(* ---------- constants ---------- *)

let rec write_const pool b (c : const) =
  uleb b (intern pool c.cty);
  match c.ckind with
  | Cbool v ->
      u8 b 0;
      u8 b (if v then 1 else 0)
  | Cint v ->
      u8 b 1;
      sleb64 b v
  | Cfloat v ->
      u8 b 2;
      f64 b v
  | Cnull -> u8 b 3
  | Czero -> u8 b 4
  | Carray elems ->
      u8 b 5;
      uleb b (List.length elems);
      List.iter (write_const pool b) elems
  | Cstruct elems ->
      u8 b 6;
      uleb b (List.length elems);
      List.iter (write_const pool b) elems
  | Cstring s ->
      u8 b 7;
      str b s
  | Cglobal_ref name ->
      u8 b 8;
      str b name

(* ---------- per-function value table ---------- *)

type pool_entry =
  | Pconst of const
  | Psymbol of string (* global or function address *)
  | Pundef of Types.t

(* Pool entries are shared by constants that print alike, by symbols of
   one name and by undefs of one type. *)
module Pool = Hashtbl.Make (struct
  type t = pool_entry

  let equal a b =
    match (a, b) with
    | Pconst x, Pconst y -> Pretty.same_const x y
    | Psymbol x, Psymbol y -> String.equal x y
    | Pundef x, Pundef y -> Types.equal x y
    | _ -> false

  let hash = function
    | Pconst c -> Pretty.hash_const c
    | Psymbol s -> Hashtbl.hash s
    | Pundef ty -> Hashtbl.hash ty + 1
end)

type ftable = {
  value_index : Idtbl.t; (* instr/arg/block id -> table index *)
  mutable pool_rev : pool_entry list;
  pool_index : int Pool.t;
  mutable next : int;
}

let pool_entry_of v =
  match v with
  | Const c -> Some (Pconst c)
  | Vglobal g -> Some (Psymbol g.gname)
  | Vfunc fn -> Some (Psymbol fn.fname)
  | Vundef ty -> Some (Pundef ty)
  | Vreg _ | Varg _ | Vblock _ -> None

let build_ftable (f : func) =
  let t =
    {
      value_index = Idtbl.create 128;
      pool_rev = [];
      pool_index = Pool.create 32;
      next = 0;
    }
  in
  let number id =
    Idtbl.replace t.value_index id t.next;
    t.next <- t.next + 1
  in
  List.iter (fun (a : arg) -> number a.aid) f.fargs;
  iter_instrs (fun i -> number i.iid) f;
  List.iter (fun (blk : block) -> number blk.blid) f.fblocks;
  (* pool entries for every constant-like operand *)
  iter_instrs
    (fun i ->
      Array.iter
        (fun v ->
          match pool_entry_of v with
          | Some e when not (Pool.mem t.pool_index e) ->
              Pool.replace t.pool_index e t.next;
              t.pool_rev <- e :: t.pool_rev;
              t.next <- t.next + 1
          | _ -> ())
        i.operands)
    f;
  t

let operand_index t v =
  let local id =
    match Idtbl.find t.value_index id with -1 -> raise Not_found | k -> k
  in
  match v with
  | Vreg i -> local i.iid
  | Varg a -> local a.aid
  | Vblock blk -> local blk.blid
  | Const _ | Vglobal _ | Vfunc _ | Vundef _ ->
      Pool.find t.pool_index (Option.get (pool_entry_of v))

(* ---------- instructions ---------- *)

(* Compact 32-bit form: byte0 = 0x80 | opcode, byte1 = type index,
   bytes 2-3 = compact operand references (0xFF = none). A compact operand
   is relative so it stays one byte even in large functions:
     0..127    a value defined 0..127 table slots before this instruction
               (arguments and earlier instruction results)
     128..254  128 + j, the j'th entry of the blocks++pool region
   Applicable when the type index fits a byte, there are at most two
   operands, both encode compactly, and ExceptionsEnabled is the default.
   Everything else uses the self-extending form with absolute uleb
   indices. [compact_operand] is -1 where no compact reference exists. *)
let compact_operand ~cur ~locals_end idx =
  if idx < locals_end then begin
    let delta = cur - idx in
    if delta >= 0 && delta <= 127 then delta else -1
  end
  else
    let j = idx - locals_end in
    if j < 127 then 128 + j else -1

let write_instr pool t b ~compact_ok ~cur ~locals_end (i : instr) =
  let op_code = opcode_code i.op in
  let ty_idx = intern pool i.ity in
  let nops = Array.length i.operands in
  let default_ee = i.exceptions_enabled = default_exceptions_enabled i.op in
  let index k = operand_index t i.operands.(k) in
  let o0 = if nops >= 1 then index 0 else 0 in
  let o1 = if nops >= 2 then index 1 else 0 in
  let compact_ref n k o =
    if nops > k then compact_operand ~cur ~locals_end o else n
  in
  let c0 = compact_ref 0xFF 0 o0 and c1 = compact_ref 0xFF 1 o1 in
  if compact_ok && default_ee && ty_idx < 256 && nops <= 2 && c0 >= 0 && c1 >= 0
  then begin
    u8 b (0x80 lor op_code);
    u8 b ty_idx;
    u8 b c0;
    u8 b c1
  end
  else begin
    let ops =
      Array.init nops (fun k -> if k = 0 then o0 else if k = 1 then o1 else index k)
    in
    u8 b (op_code lor if default_ee then 0 else 0x40);
    if not default_ee then u8 b (if i.exceptions_enabled then 1 else 0);
    uleb b ty_idx;
    uleb b nops;
    Array.iter (fun o -> uleb b o) ops
  end

let write_function pool b ~compact_ok (f : func) =
  str b f.fname;
  uleb b (intern pool f.freturn);
  uleb b (List.length f.fargs);
  List.iter (fun (a : arg) -> uleb b (intern pool a.aty)) f.fargs;
  u8 b ((if f.fvarargs then 1 else 0) lor if is_declaration f then 2 else 0);
  if not (is_declaration f) then begin
    let t = build_ftable f in
    let pool_entries = List.rev t.pool_rev in
    uleb b (List.length pool_entries);
    List.iter
      (fun e ->
        match e with
        | Pconst c ->
            u8 b 0;
            write_const pool b c
        | Psymbol s ->
            u8 b 1;
            str b s
        | Pundef ty ->
            u8 b 2;
            uleb b (intern pool ty))
      pool_entries;
    uleb b (List.length f.fblocks);
    let nargs = List.length f.fargs in
    let ninstrs = instr_count f in
    let locals_end = nargs + ninstrs in
    let cur = ref nargs in
    List.iter
      (fun (blk : block) ->
        uleb b (List.length blk.instrs);
        List.iter
          (fun i ->
            write_instr pool t b ~compact_ok ~cur:!cur ~locals_end i;
            incr cur)
          blk.instrs)
      f.fblocks
  end

(* ---------- module ---------- *)

let encode ?(compact = true) (m : modl) : string =
  let pool = mk_pool () in
  (* Pre-intern every type so the pool is complete before we emit it; the
     body below is then written into a separate buffer. *)
  let body = Buffer.create 4096 in
  List.iter (fun (_, ty) -> ignore (intern pool ty)) m.typedefs;
  List.iter (fun g -> ignore (intern pool g.gty)) m.globals;
  (* typedefs *)
  uleb body (List.length m.typedefs);
  List.iter
    (fun (name, ty) ->
      str body name;
      uleb body (intern pool ty))
    m.typedefs;
  (* globals *)
  uleb body (List.length m.globals);
  List.iter
    (fun g ->
      str body g.gname;
      uleb body (intern pool g.gty);
      let flags =
        (if g.gconst then 1 else 0) lor if g.ginit = None then 2 else 0
      in
      u8 body flags;
      match g.ginit with
      | Some init -> write_const pool body init
      | None -> ())
    m.globals;
  (* functions *)
  uleb body (List.length m.funcs);
  List.iter (fun f -> write_function pool body ~compact_ok:compact f) m.funcs;
  (* header + type pool + body *)
  let out = Buffer.create (Buffer.length body + 1024) in
  Buffer.add_string out "LLVA";
  u8 out 1;
  let flags =
    (if m.target.Target.ptr_size = 8 then 1 else 0)
    lor match m.target.Target.endian with Target.Big -> 2 | Target.Little -> 0
  in
  u8 out flags;
  str out m.mname;
  let entries = List.rev pool.entries in
  uleb out (List.length entries);
  List.iter (fun ty -> write_type_entry pool out ty) entries;
  Buffer.add_buffer out body;
  Buffer.contents out

let size_bytes m = String.length (encode m)
