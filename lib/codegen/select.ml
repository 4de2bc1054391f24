(* What the I-ISAs' instruction selectors share, written once: the
   allocator choice, the frame layout, the emit buffer with its label
   fence, labels, the block walk with its phi copies, label resolution
   and the compiled function and module records.

   Frame layout, as offsets below the frame register: the frame header
   and the value and phi transfer slots (8 bytes each, placed by the
   ISA's [slot_disp]) end [slot_base + 8 * slots] bytes below it; then
   come the static alloca area (each alloca rounded up to 8 bytes) and
   one 8-byte save slot per callee-saved register the allocator used.

   An I-ISA supplies the rest ([ISA]): instruction lowering (the
   epilogue is part of lowering [ret]), the prologue with argument
   homing, the phi copies, its emit-fusion rule (its [emit] over [push]
   and [fused]), and the peephole hooks of [Peephole.ISA]. *)

open Llva

type ('i, 's) ctx = {
  name : string; (* the I-ISA, for messages *)
  m : Ir.modl;
  env : Types.env;
  lt : Vmem.Layout.t;
  img : Vmem.Image.t;
  assignment : Regalloc.assignment;
  plan : Phiplan.t;
  alloca_offsets : Idtbl.t; (* static alloca instr id -> frame offset *)
  n_value_slots : int;
  total_frame : int;
  saved_int : (int * 's) list; (* callee-saved registers and their slots *)
  saved_float : (int * 's) list;
  mutable buf : 'i list; (* reversed *)
  mutable len : int; (* the length of [buf] *)
  mutable fence : int; (* emit index of the latest label: fusion fence *)
  mutable next_label : int; (* synthetic labels follow the block labels *)
  mutable label_pos : int array; (* label -> emit index; -1 if unplaced *)
}

let push ctx i =
  ctx.buf <- i :: ctx.buf;
  ctx.len <- ctx.len + 1

(* no label lies between the newest buffered instruction and the next:
   an emit-fusion rule may combine the two *)
let fused ctx = ctx.len > ctx.fence

let fresh_label ctx =
  let l = ctx.next_label in
  ctx.next_label <- l + 1;
  l

let place_label ctx l =
  ctx.fence <- ctx.len;
  let n = Array.length ctx.label_pos in
  if l >= n then begin
    let grown = Array.make (max (l + 1) (2 * n)) (-1) in
    Array.blit ctx.label_pos 0 grown 0 n;
    ctx.label_pos <- grown
  end;
  ctx.label_pos.(l) <- ctx.len

(* a block's label is its place in the function; a block of another
   function has none *)
let label_of ctx (b : Ir.block) =
  let k = Idtbl.find ctx.plan.Phiplan.index b.Ir.blid in
  if k < 0 then raise Not_found else k

(* the frame offset of a static alloca *)
let alloca_offset ctx (i : Ir.instr) =
  let off = Idtbl.find ctx.alloca_offsets i.Ir.iid in
  if off < 0 then None else Some off

(* where the allocator put an instruction's or an argument's value:
   [None] for a dead one *)
let home ctx (v : Ir.value) =
  match v with
  | Ir.Vreg i -> Regalloc.location_opt ctx.assignment i.Ir.iid
  | Ir.Varg a -> Regalloc.location_opt ctx.assignment a.Ir.aid
  | _ -> None

let is_float_ty ctx ty =
  match Types.resolve ctx.env ty with
  | Types.Float | Types.Double -> true
  | _ -> false

let is_single ctx ty = Types.equal (Types.resolve ctx.env ty) Types.Float

let width_of ctx ty =
  Native.width_of_type ctx.m.Ir.target (Types.resolve ctx.env ty)

let signed_of ctx ty =
  match Types.resolve ctx.env ty with
  | t when Types.is_integer t -> Types.is_signed t
  | _ -> false

let symbol_addr ctx name =
  match Vmem.Image.symbol_address ctx.img name with
  | Some a -> a
  | None -> invalid_arg (ctx.name ^ ": unresolved symbol " ^ name)

let scalar_const_bits ctx (c : Ir.const) : int64 =
  match c.Ir.ckind with
  | Ir.Cbool b -> if b then 1L else 0L
  | Ir.Cint v -> v
  | Ir.Cnull | Ir.Czero -> 0L
  | Ir.Cglobal_ref name -> symbol_addr ctx name
  | Ir.Cfloat _ -> invalid_arg (ctx.name ^ ": float const in int context")
  | _ -> invalid_arg (ctx.name ^ ": aggregate constant operand")

let fop_of ctx (op : Ir.binop) : Native.fop =
  match op with
  | Ir.Add -> Fadd
  | Ir.Sub -> Fsub
  | Ir.Mul -> Fmul
  | Ir.Div -> Fdiv
  | Ir.Rem -> Frem
  | _ -> invalid_arg (ctx.name ^ ": bitwise op on float")

(* A getelementptr's constant byte offset, summed over its indexes;
   [scale op size] lowers each variable index [op] of stride [size]. *)
let gep_offset ctx (i : Ir.instr) ~scale =
  match Vmem.Layout.gep_strides ctx.lt i with
  | Error e -> invalid_arg (ctx.name ^ ": " ^ Gep.message e)
  | Ok (strides, _) ->
      List.fold_left
        (fun disp -> function
          | Vmem.Layout.Scaled (Ir.Const { ckind = Ir.Cint n; _ }, size) ->
              disp + (Int64.to_int n * size)
          | Vmem.Layout.Scaled (op, size) ->
              scale op size;
              disp
          | Vmem.Layout.Offset off -> disp + off)
        0 strides

module type ISA = sig
  include Peephole.ISA

  (* how the ISA's instructions name a save slot *)
  type slot

  val name : string
  val default_alloc : Regalloc.alloc
  val allocatable_int : int list
  val allocatable_float : int list

  (* the slots end [slot_base + 8 * slots] bytes below the frame
     register *)
  val slot_base : int

  (* the frame displacement of spill slot [k] *)
  val slot_disp : int -> int

  (* the save slot at a frame displacement *)
  val save_slot : int -> slot

  (* an instruction that fails with the message when it runs *)
  val trap : string -> instr

  val prologue : (instr, slot) ctx -> Ir.func -> unit
  val copy_from_transfer : (instr, slot) ctx -> int * Ir.instr -> unit
  val copy_to_transfer : (instr, slot) ctx -> Phiplan.edge_copy -> unit
  val lower_instr : (instr, slot) ctx -> Ir.instr -> unit
end

module type S = sig
  include Peephole.S

  val name : string
  val slot_disp : int -> int

  val compile_function :
    Ir.modl ->
    Vmem.Image.t ->
    ?alloc:Regalloc.alloc ->
    ?peep:(instr list * instr list) list ->
    ?peep_stats:Peephole.stats ->
    Ir.func ->
    instr Native.cfunc

  val compile_module :
    ?alloc:Regalloc.alloc ->
    ?peep:(instr list * instr list) list ->
    ?peep_stats:Peephole.stats ->
    Ir.modl ->
    instr Native.cmodule
end

module Make (I : ISA) : S with type instr = I.instr = struct
  include Peephole.Make (I)

  let name = I.name
  let slot_disp = I.slot_disp

  (* One instruction, after the block's edge copies when it is the
     terminator. An instruction that cannot be selected (an aggregate
     store the verifier accepts, say) becomes a trap, so it fails only
     if it runs, as the interpreter defers a failure to lower one. *)
  let select ctx b (i : Ir.instr) =
    let buf = ctx.buf and len = ctx.len and fence = ctx.fence in
    try
      if Ir.is_terminator i then
        List.iter (I.copy_to_transfer ctx) (Phiplan.end_copies ctx.plan b);
      I.lower_instr ctx i
    with e ->
      ctx.buf <- buf;
      ctx.len <- len;
      ctx.fence <- fence;
      push ctx (I.trap (Printexc.to_string e))

  let compile_function (m : Ir.modl) (img : Vmem.Image.t)
      ?(alloc = I.default_alloc) ?(peep = []) ?peep_stats (f : Ir.func) =
    let lt = img.Vmem.Image.layout in
    let env = lt.Vmem.Layout.env in
    let ivs = Intervals.build ~env f in
    let assignment =
      match alloc with
      | Regalloc.Linear_scan ->
          Regalloc.linear_scan ~int_regs:I.allocatable_int
            ~float_regs:I.allocatable_float ivs
      | Regalloc.Spill_everything -> Regalloc.spill_everything ivs
    in
    let plan = Phiplan.build f in
    let n_value_slots = assignment.Regalloc.n_slots in
    let bottom =
      ref (I.slot_base + (8 * (n_value_slots + plan.Phiplan.n_transfer_slots)))
    in
    let alloca_offsets = Idtbl.create 8 in
    (* a static alloca of a type with no size gets no offset: lowered as
       a dynamic one, it raises the same error and becomes a trap *)
    Ir.iter_instrs
      (fun i ->
        if i.Ir.op = Ir.Alloca && Array.length i.Ir.operands = 0 then
          match Vmem.Layout.size_of lt (Types.pointee env i.Ir.ity) with
          | size ->
              bottom := !bottom + ((size + 7) / 8 * 8);
              Idtbl.replace alloca_offsets i.Ir.iid !bottom
          | exception Vmem.Layout.Self_containing _ -> ())
      f;
    (* each save slot is built once: the prologue and every epilogue
       share it, and the marshaled code records that sharing *)
    let save_area regs =
      List.fold_left
        (fun saved r ->
          bottom := !bottom + 8;
          (r, I.save_slot (- !bottom)) :: saved)
        [] regs
    in
    let saved_int = save_area assignment.Regalloc.used_regs_int in
    let saved_float = save_area assignment.Regalloc.used_regs_float in
    let ctx =
      {
        name = I.name;
        m;
        env;
        lt;
        img;
        assignment;
        plan;
        alloca_offsets;
        n_value_slots;
        total_frame = !bottom;
        saved_int;
        saved_float;
        buf = [];
        len = 0;
        fence = 0;
        next_label = List.length f.Ir.fblocks;
        label_pos = Array.make (List.length f.Ir.fblocks + 8) (-1);
      }
    in
    I.prologue ctx f;
    List.iter
      (fun (b : Ir.block) ->
        place_label ctx (label_of ctx b);
        List.iter (I.copy_from_transfer ctx) (Phiplan.start_copies plan b);
        List.iter (select ctx b) b.Ir.instrs)
      f.Ir.fblocks;
    (* branch targets are label indices until here *)
    let resolve l =
      if l >= 0 && l < Array.length ctx.label_pos && ctx.label_pos.(l) >= 0 then
        ctx.label_pos.(l)
      else invalid_arg (I.name ^ ": unresolved label")
    in
    {
      Native.cf_name = f.Ir.fname;
      code =
        finish_code ~peep ?peep_stats
          (Array.of_list (List.rev_map (retarget resolve) ctx.buf));
      nargs = List.length f.Ir.fargs;
      frame_slots = ctx.total_frame / 8;
    }

  let compile_module ?alloc ?peep ?peep_stats (m : Ir.modl) =
    let image = Vmem.Image.load m in
    let funcs = Hashtbl.create 32 in
    List.iter
      (fun (f : Ir.func) ->
        if not (Ir.is_declaration f) then
          Hashtbl.replace funcs f.Ir.fname
            (compile_function m image ?alloc ?peep ?peep_stats f))
      m.Ir.funcs;
    { Native.cm = m; image; funcs }
end
