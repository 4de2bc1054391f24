(* Decoder for LLVA virtual object code; inverse of [Encode]. *)

exception Error of string

type rd = { src : string; mutable pos : int }

let fail msg = raise (Error msg)

let u8 r =
  if r.pos >= String.length r.src then fail "truncated object code";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let uleb r =
  let rec go shift acc =
    let byte = u8 r in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let sleb64 r =
  let rec go shift acc =
    let byte = u8 r in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (byte land 0x7F)) shift) in
    if byte land 0x80 <> 0 then go (shift + 7) acc
    else if shift + 7 < 64 && byte land 0x40 <> 0 then
      (* sign extend *)
      Int64.logor acc (Int64.shift_left (-1L) (shift + 7))
    else acc
  in
  go 0 0L

let str r =
  let n = uleb r in
  if r.pos + n > String.length r.src then fail "truncated string";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let f64 r =
  let bits = ref 0L in
  for k = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 r)) (8 * k))
  done;
  Int64.float_of_bits !bits

(* ---------- type pool ---------- *)

let prim_of_code = function
  | 0 -> Types.Void
  | 1 -> Types.Bool
  | 2 -> Types.Ubyte
  | 3 -> Types.Sbyte
  | 4 -> Types.Ushort
  | 5 -> Types.Short
  | 6 -> Types.Uint
  | 7 -> Types.Int
  | 8 -> Types.Ulong
  | 9 -> Types.Long
  | 10 -> Types.Float
  | 11 -> Types.Double
  | 12 -> Types.Label
  | n -> fail (Printf.sprintf "bad primitive type code %d" n)

let read_type_pool r =
  let n = uleb r in
  let pool = Array.make (max n 1) Types.Void in
  let at k = if k < n then pool.(k) else fail "type index out of range" in
  for k = 0 to n - 1 do
    let tag = u8 r in
    let ty =
      if tag <= 12 then prim_of_code tag
      else
        match tag with
        | 13 -> Types.Pointer (at (uleb r))
        | 14 ->
            let len = uleb r in
            Types.Array (len, at (uleb r))
        | 15 ->
            let count = uleb r in
            Types.Struct (List.init count (fun _ -> at (uleb r)))
        | 16 ->
            let ret = at (uleb r) in
            let count = uleb r in
            let params = List.init count (fun _ -> at (uleb r)) in
            let varargs = u8 r = 1 in
            Types.Func (ret, params, varargs)
        | 17 -> Types.Named (str r)
        | t -> fail (Printf.sprintf "bad type tag %d" t)
    in
    pool.(k) <- ty
  done;
  fun k -> if k < n then pool.(k) else fail "type index out of range"

(* ---------- constants ---------- *)

let rec read_const tyat r : Ir.const =
  let cty = tyat (uleb r) in
  let ckind =
    match u8 r with
    | 0 -> Ir.Cbool (u8 r = 1)
    | 1 -> Ir.Cint (sleb64 r)
    | 2 -> Ir.Cfloat (f64 r)
    | 3 -> Ir.Cnull
    | 4 -> Ir.Czero
    | 5 ->
        let n = uleb r in
        Ir.Carray (List.init n (fun _ -> read_const tyat r))
    | 6 ->
        let n = uleb r in
        Ir.Cstruct (List.init n (fun _ -> read_const tyat r))
    | 7 -> Ir.Cstring (str r)
    | 8 -> Ir.Cglobal_ref (str r)
    | t -> fail (Printf.sprintf "bad constant tag %d" t)
  in
  { Ir.cty; ckind }

(* ---------- instructions ---------- *)

type raw_operand =
  | Oabs of int (* absolute value-table index *)
  | Ocompact of int (* one-byte relative form; see Encode.compact_operand *)

type raw_instr = {
  rop : Ir.opcode;
  rty : Types.t;
  rops : raw_operand array;
  ree : bool;
}

(* the 6-bit opcode field of both forms; only codes 1 to
   [Ir.opcode_count] exist *)
let opcode code =
  if code >= 1 && code <= Ir.opcode_count then Ir.opcode_of_code code
  else fail (Printf.sprintf "unknown opcode %d" code)

let read_instr tyat r : raw_instr =
  let byte0 = u8 r in
  if byte0 land 0x80 <> 0 then begin
    (* compact 32-bit form *)
    let rop = opcode (byte0 land 0x3F) in
    let rty = tyat (u8 r) in
    let o0 = u8 r in
    let o1 = u8 r in
    let rops =
      if o0 = 0xFF then [||]
      else if o1 = 0xFF then [| Ocompact o0 |]
      else [| Ocompact o0; Ocompact o1 |]
    in
    { rop; rty; rops; ree = Ir.default_exceptions_enabled rop }
  end
  else begin
    let has_ee = byte0 land 0x40 <> 0 in
    let rop = opcode (byte0 land 0x3F) in
    let ree =
      if has_ee then u8 r = 1 else Ir.default_exceptions_enabled rop
    in
    let rty = tyat (uleb r) in
    let nops = uleb r in
    let rops = Array.init nops (fun _ -> Oabs (uleb r)) in
    { rop; rty; rops; ree }
  end

type raw_pool_entry = Rconst of Ir.const | Rsymbol of string | Rundef of Types.t

let decode (data : string) : Ir.modl =
  let r = { src = data; pos = 0 } in
  if String.length data < 6 || String.sub data 0 4 <> "LLVA" then
    fail "bad magic";
  r.pos <- 4;
  let version = u8 r in
  if version <> 1 then fail (Printf.sprintf "unsupported version %d" version);
  let flags = u8 r in
  let target =
    {
      Target.ptr_size = (if flags land 1 <> 0 then 8 else 4);
      endian = (if flags land 2 <> 0 then Target.Big else Target.Little);
    }
  in
  let mname = str r in
  let tyat = read_type_pool r in
  let m = Ir.mk_module ~name:mname ~target () in
  (* every list below is built in one pass, never appended to *)
  let ntypedefs = uleb r in
  m.Ir.typedefs <-
    List.init ntypedefs (fun _ ->
        let name = str r in
        (name, tyat (uleb r)));
  let nglobals = uleb r in
  m.Ir.globals <-
    List.init nglobals (fun _ ->
        let name = str r in
        let gty = tyat (uleb r) in
        let flags = u8 r in
        let constant = flags land 1 <> 0 in
        let external_ = flags land 2 <> 0 in
        let init = if external_ then None else Some (read_const tyat r) in
        let g = Ir.mk_global ~name ~ty:gty ?init ~constant () in
        g.Ir.gparent <- Some m;
        g);
  (* function headers + raw bodies; resolve cross-references afterwards *)
  let nfuncs = uleb r in
  let headers =
    List.init nfuncs (fun _ ->
        let name = str r in
        let return = tyat (uleb r) in
        let nargs = uleb r in
        let params = List.init nargs (fun k -> ("arg" ^ string_of_int k, tyat (uleb r))) in
        let flags = u8 r in
        let varargs = flags land 1 <> 0 in
        let declaration = flags land 2 <> 0 in
        let f = Ir.mk_func ~name ~return ~params ~varargs () in
        f.Ir.fparent <- Some m;
        if declaration then (f, None)
        else begin
          let npool = uleb r in
          let pool =
            Array.init npool (fun _ ->
                match u8 r with
                | 0 -> Rconst (read_const tyat r)
                | 1 -> Rsymbol (str r)
                | 2 -> Rundef (tyat (uleb r))
                | t -> fail (Printf.sprintf "bad pool tag %d" t))
          in
          let nblocks = uleb r in
          let blocks =
            Array.init nblocks (fun _ ->
                let ninstrs = uleb r in
                Array.init ninstrs (fun _ -> read_instr tyat r))
          in
          (f, Some (pool, blocks))
        end)
  in
  m.Ir.funcs <- List.map fst headers;
  (* symbols by name, as [Ir.find_func] and then [Ir.find_global] would
     find them: the first function of a name, else the first global *)
  let symbols = Hashtbl.create 64 in
  let add name v = if not (Hashtbl.mem symbols name) then Hashtbl.add symbols name v in
  List.iter (fun (f : Ir.func) -> add f.Ir.fname (Ir.Vfunc f)) m.Ir.funcs;
  List.iter (fun (g : Ir.global) -> add g.Ir.gname (Ir.Vglobal g)) m.Ir.globals;
  (* materialize bodies *)
  List.iter
    (function
      | _, None -> ()
      | (f : Ir.func), Some (pool, blocks) ->
      let nargs = List.length f.Ir.fargs in
      let block_arr =
        Array.mapi
          (fun k _ ->
            let b = Ir.mk_block ~name:("bb" ^ string_of_int k) () in
            b.Ir.bparent <- Some f;
            b)
          blocks
      in
      f.Ir.fblocks <- Array.to_list block_arr;
      (* value table: args, instrs, blocks, pool *)
      let block_instrs =
        Array.map
          (Array.map (fun (raw : raw_instr) ->
               let i = Ir.mk_instr raw.rop [||] raw.rty in
               i.Ir.exceptions_enabled <- raw.ree;
               if not (Types.equal raw.rty Types.Void) then
                 i.Ir.iname <- "v" ^ string_of_int i.Ir.iid;
               i))
          blocks
      in
      Array.iteri
        (fun k (b : Ir.block) ->
          b.Ir.instrs <- Array.to_list block_instrs.(k);
          List.iter (fun (i : Ir.instr) -> i.Ir.iparent <- Some b) b.Ir.instrs)
        block_arr;
      let raws = Array.concat (Array.to_list blocks) in
      let instr_arr = Array.concat (Array.to_list block_instrs) in
      let ninstrs = Array.length instr_arr in
      let nblocks = Array.length block_arr in
      let args_arr = Array.of_list f.Ir.fargs in
      let lookup idx : Ir.value =
        (* a compact operand reaching back past the first argument *)
        if idx < 0 then fail "operand index out of range"
        else if idx < nargs then Ir.Varg args_arr.(idx)
        else if idx < nargs + ninstrs then Ir.Vreg instr_arr.(idx - nargs)
        else if idx < nargs + ninstrs + nblocks then
          Ir.Vblock block_arr.(idx - nargs - ninstrs)
        else
          let pidx = idx - nargs - ninstrs - nblocks in
          if pidx >= Array.length pool then fail "operand index out of range"
          else
            match pool.(pidx) with
            | Rconst c -> Ir.Const c
            | Rundef ty -> Ir.Vundef ty
            | Rsymbol s -> (
                match Hashtbl.find_opt symbols s with
                | Some v -> v
                | None -> fail ("unresolved symbol " ^ s))
      in
      let locals_end = nargs + ninstrs in
      Array.iteri
        (fun pos (i : Ir.instr) ->
          let cur = nargs + pos in
          let resolve = function
            | Oabs idx -> lookup idx
            | Ocompact c ->
                if c < 128 then lookup (cur - c)
                else lookup (locals_end + (c - 128))
          in
          i.Ir.operands <- Array.map resolve raws.(pos).rops;
          Ir.register_operand_uses i)
        instr_arr)
    headers;
  m
