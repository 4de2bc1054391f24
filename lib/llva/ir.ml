(* The LLVA in-memory IR: an infinite, typed virtual register file in SSA
   form, functions as explicit CFGs of basic blocks, and exactly the 28
   instructions of the paper (Table 1).

   Instructions, blocks, functions and globals are mutable records with
   unique integer ids. Def-use chains are maintained incrementally: operand
   mutation must go through [set_operand] (or the helpers built on it) so
   that the use lists stay consistent. *)

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmp = Eq | Ne | Lt | Gt | Le | Ge

type opcode =
  | Binop of binop (* operands: [a; b] *)
  | Setcc of cmp (* operands: [a; b]; result type bool *)
  | Ret (* operands: [] or [v] *)
  | Br (* operands: [dest] or [cond; iftrue; iffalse] *)
  | Mbr (* operands: [v; default; (case const; dest)...] *)
  | Invoke (* operands: [callee; normal; except; args...] *)
  | Unwind (* operands: [] *)
  | Load (* operands: [ptr] *)
  | Store (* operands: [v; ptr]; result type void *)
  | Getelementptr (* operands: [ptr; idx...] *)
  | Alloca (* operands: [] or [count]; result type = pointer to elem *)
  | Cast (* operands: [v]; result type is the target type *)
  | Call (* operands: [callee; args...] *)
  | Phi (* operands: [v0; block0; v1; block1; ...] *)

type const = { cty : Types.t; ckind : ckind }

and ckind =
  | Cbool of bool
  | Cint of int64 (* stored sign-agnostic; interpreted per cty *)
  | Cfloat of float
  | Cnull
  | Czero (* zero-initializer for any type *)
  | Carray of const list
  | Cstruct of const list
  | Cstring of string (* shorthand for [n x sbyte] data *)
  | Cglobal_ref of string (* address of a module-level symbol by name *)

type value =
  | Const of const
  | Vreg of instr (* the SSA value produced by an instruction *)
  | Varg of arg
  | Vglobal of global
  | Vfunc of func
  | Vblock of block (* a label operand *)
  | Vundef of Types.t

and use = { user : instr; uidx : int }

and instr = {
  iid : int;
  mutable iname : string; (* SSA register name; "" if unnamed *)
  mutable op : opcode;
  mutable operands : value array;
  mutable ity : Types.t; (* result type; Void when no result *)
  mutable iparent : block option;
  mutable exceptions_enabled : bool; (* paper §3.3 *)
  mutable iuses : use list; (* who uses this instruction's result *)
}

and block = {
  blid : int;
  mutable bname : string;
  mutable instrs : instr list; (* terminator last *)
  mutable bparent : func option;
  mutable buses : use list;
}

and arg = {
  aid : int;
  mutable aname : string;
  mutable aty : Types.t;
  mutable aparent : func option;
  mutable auses : use list;
}

and func = {
  fid : int;
  mutable fname : string;
  mutable freturn : Types.t;
  mutable fvarargs : bool;
  mutable fargs : arg list;
  mutable fblocks : block list; (* entry block first; [] for declarations *)
  mutable fparent : modl option;
  mutable fuses : use list;
}

and global = {
  gid : int;
  mutable gname : string;
  mutable gty : Types.t; (* the pointee type; the value has type gty* *)
  mutable ginit : const option; (* None for external declarations *)
  mutable gconst : bool;
  mutable gparent : modl option;
  mutable guses : use list;
}

and modl = {
  mutable mname : string;
  mutable typedefs : (string * Types.t) list;
  mutable globals : global list;
  mutable funcs : func list;
  mutable target : Target.config;
}

let next_id =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

(* ---------- constants ---------- *)

(* Truncate an int64 to the width of [ty], re-extending per signedness so
   the stored representative is canonical. *)
let normalize_int ty v =
  match ty with
  | Types.Bool -> Int64.logand v 1L
  | Types.Ubyte -> Int64.logand v 0xFFL
  | Types.Sbyte -> Int64.shift_right (Int64.shift_left v 56) 56
  | Types.Ushort -> Int64.logand v 0xFFFFL
  | Types.Short -> Int64.shift_right (Int64.shift_left v 48) 48
  | Types.Uint -> Int64.logand v 0xFFFFFFFFL
  | Types.Int -> Int64.shift_right (Int64.shift_left v 32) 32
  | Types.Ulong | Types.Long -> v
  | _ -> invalid_arg "Ir.normalize_int: not an integer type"

let const_int ty v = Const { cty = ty; ckind = Cint (normalize_int ty v) }
let const_bool b = Const { cty = Types.Bool; ckind = Cbool b }
let const_float ty v = Const { cty = ty; ckind = Cfloat v }
let const_null ty = Const { cty = ty; ckind = Cnull }
let const_zero ty = Const { cty = ty; ckind = Czero }
let const_string s =
  Const { cty = Types.Array (String.length s + 1, Types.Sbyte); ckind = Cstring s }

let undef ty = Vundef ty

(* ---------- value typing ---------- *)

let type_of_value = function
  | Const c -> c.cty
  | Vreg i -> i.ity
  | Varg a -> a.aty
  | Vglobal g -> Types.Pointer g.gty
  | Vfunc f ->
      Types.Pointer (Types.Func (f.freturn, List.map (fun a -> a.aty) f.fargs, f.fvarargs))
  | Vblock _ -> Types.Label
  | Vundef ty -> ty

let func_type f =
  Types.Func (f.freturn, List.map (fun a -> a.aty) f.fargs, f.fvarargs)

let value_equal a b =
  match (a, b) with
  | Vreg i, Vreg j -> i == j
  | Varg x, Varg y -> x == y
  | Vglobal x, Vglobal y -> x == y
  | Vfunc x, Vfunc y -> x == y
  | Vblock x, Vblock y -> x == y
  | Const x, Const y -> x = y
  | Vundef x, Vundef y -> Types.equal x y
  | _ -> false

(* ---------- use-list maintenance ---------- *)

let remove_use_from lst u =
  List.filter (fun u' -> not (u'.user == u.user && u'.uidx = u.uidx)) lst

let add_use value u =
  match value with
  | Vreg i -> i.iuses <- u :: i.iuses
  | Varg a -> a.auses <- u :: a.auses
  | Vglobal g -> g.guses <- u :: g.guses
  | Vfunc f -> f.fuses <- u :: f.fuses
  | Vblock b -> b.buses <- u :: b.buses
  | Const _ | Vundef _ -> ()

let drop_use value u =
  match value with
  | Vreg i -> i.iuses <- remove_use_from i.iuses u
  | Varg a -> a.auses <- remove_use_from a.auses u
  | Vglobal g -> g.guses <- remove_use_from g.guses u
  | Vfunc f -> f.fuses <- remove_use_from f.fuses u
  | Vblock b -> b.buses <- remove_use_from b.buses u
  | Const _ | Vundef _ -> ()

let set_operand instr idx value =
  let old = instr.operands.(idx) in
  if not (value_equal old value) then begin
    drop_use old { user = instr; uidx = idx };
    instr.operands.(idx) <- value;
    add_use value { user = instr; uidx = idx }
  end

(* Register all current operands of a freshly built instruction. *)
let register_operand_uses instr =
  Array.iteri (fun idx v -> add_use v { user = instr; uidx = idx }) instr.operands

let unregister_operand_uses instr =
  Array.iteri (fun idx v -> drop_use v { user = instr; uidx = idx }) instr.operands

let uses_of = function
  | Vreg i -> i.iuses
  | Varg a -> a.auses
  | Vglobal g -> g.guses
  | Vfunc f -> f.fuses
  | Vblock b -> b.buses
  | Const _ | Vundef _ -> []

let has_uses v = uses_of v <> []

let set_uses v uses =
  match v with
  | Vreg i -> i.iuses <- uses
  | Varg a -> a.auses <- uses
  | Vglobal g -> g.guses <- uses
  | Vfunc f -> f.fuses <- uses
  | Vblock b -> b.buses <- uses
  | Const _ | Vundef _ -> ()

(* Replace every use of [old_v] with [new_v]: [set_operand] on each use
   in turn, except that the uses of [old_v] are emptied once at the end
   instead of filtered once per use. A use whose operand is not [old_v]
   (stale use lists) takes [set_operand]'s path and stays listed, as it
   would have. *)
let replace_all_uses_with old_v new_v =
  let uses = uses_of old_v in
  let moved = ref [] and stale = ref false in
  List.iter
    (fun u ->
      let cur = u.user.operands.(u.uidx) in
      if value_equal cur old_v && not (value_equal cur new_v) then begin
        u.user.operands.(u.uidx) <- new_v;
        add_use new_v { user = u.user; uidx = u.uidx };
        moved := u :: !moved
      end
      else begin
        stale := true;
        set_operand u.user u.uidx new_v
      end)
    uses;
  if !moved <> [] then
    set_uses old_v
      (if not !stale then []
       else
         let was_moved u =
           List.exists (fun m -> m.user == u.user && m.uidx = u.uidx) !moved
         in
         List.filter (fun u -> not (was_moved u)) (uses_of old_v))

(* ---------- instruction construction ---------- *)

(* Default ExceptionsEnabled per the paper: true for load, store, div and
   rem; false for everything else. *)
let default_exceptions_enabled = function
  | Load | Store | Binop Div | Binop Rem -> true
  | _ -> false

let mk_instr ?(name = "") op operands ty =
  let i =
    {
      iid = next_id ();
      iname = name;
      op;
      operands;
      ity = ty;
      iparent = None;
      exceptions_enabled = default_exceptions_enabled op;
      iuses = [];
    }
  in
  register_operand_uses i;
  i

(* ---------- block / function / global construction ---------- *)

let mk_block ?(name = "") () =
  { blid = next_id (); bname = name; instrs = []; bparent = None; buses = [] }

let mk_arg ?(name = "") ty =
  { aid = next_id (); aname = name; aty = ty; aparent = None; auses = [] }

let mk_func ~name ~return ~params ?(varargs = false) () =
  let f =
    {
      fid = next_id ();
      fname = name;
      freturn = return;
      fvarargs = varargs;
      fargs = [];
      fblocks = [];
      fparent = None;
      fuses = [];
    }
  in
  f.fargs <-
    List.map
      (fun (pname, pty) ->
        let a = mk_arg ~name:pname pty in
        a.aparent <- Some f;
        a)
      params;
  f

let mk_global ~name ~ty ?init ?(constant = false) () =
  {
    gid = next_id ();
    gname = name;
    gty = ty;
    ginit = init;
    gconst = constant;
    gparent = None;
    guses = [];
  }

let mk_module ?(name = "module") ?(target = Target.default) () =
  { mname = name; typedefs = []; globals = []; funcs = []; target }

(* ---------- structural edits ---------- *)

let append_block f b =
  b.bparent <- Some f;
  f.fblocks <- f.fblocks @ [ b ]

let entry_block f =
  match f.fblocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Ir.entry_block: function has no body: " ^ f.fname)

let append_instr b i =
  i.iparent <- Some b;
  b.instrs <- b.instrs @ [ i ]

let prepend_instr b i =
  i.iparent <- Some b;
  b.instrs <- i :: b.instrs

(* Insert [i] immediately before [before] inside block [b]. *)
let insert_before b ~before i =
  i.iparent <- Some b;
  let rec go = function
    | [] -> invalid_arg "Ir.insert_before: anchor not found"
    | x :: rest when x == before -> i :: x :: rest
    | x :: rest -> x :: go rest
  in
  b.instrs <- go b.instrs

let remove_instr i =
  (match i.iparent with
  | Some b -> b.instrs <- List.filter (fun x -> not (x == i)) b.instrs
  | None -> ());
  i.iparent <- None;
  unregister_operand_uses i

(* Remove an instruction and replace its uses with [undef] of its type; for
   a clean erase the caller should already have rewritten the uses. *)
let erase_instr i =
  if i.iuses <> [] then replace_all_uses_with (Vreg i) (Vundef i.ity);
  remove_instr i

(* [remove_instr] of every instruction of [b] that [dead] holds, in
   block order, with one pass over the block's list. *)
let remove_instrs b dead =
  if List.exists dead b.instrs then begin
    let gone, kept = List.partition dead b.instrs in
    b.instrs <- kept;
    List.iter
      (fun i ->
        i.iparent <- None;
        unregister_operand_uses i)
      gone
  end

let remove_block b =
  (match b.bparent with
  | Some f -> f.fblocks <- List.filter (fun x -> not (x == b)) f.fblocks
  | None -> ());
  remove_instrs b (fun _ -> true);
  b.bparent <- None

let add_func m f =
  f.fparent <- Some m;
  m.funcs <- m.funcs @ [ f ]

let add_global m g =
  g.gparent <- Some m;
  m.globals <- m.globals @ [ g ]

let add_typedef m name ty = m.typedefs <- m.typedefs @ [ (name, ty) ]

let find_func m name = List.find_opt (fun f -> String.equal f.fname name) m.funcs

let find_global m name =
  List.find_opt (fun g -> String.equal g.gname name) m.globals

let type_env m = Types.env_of_typedefs m.typedefs

let is_declaration f = f.fblocks = []

(* ---------- terminator and CFG helpers ---------- *)

let is_terminator i =
  match i.op with Ret | Br | Mbr | Invoke | Unwind -> true | _ -> false

let terminator b =
  let rec last = function
    | [] -> None
    | [ x ] -> if is_terminator x then Some x else None
    | _ :: rest -> last rest
  in
  last b.instrs

let block_of_value = function
  | Vblock b -> b
  | _ -> invalid_arg "Ir.block_of_value"

(* Successor blocks named by a terminator instruction. *)
let successors b =
  match terminator b with
  | None -> []
  | Some t -> (
      match t.op with
      | Ret | Unwind -> []
      | Br ->
          if Array.length t.operands = 1 then [ block_of_value t.operands.(0) ]
          else [ block_of_value t.operands.(1); block_of_value t.operands.(2) ]
      | Mbr ->
          let default = block_of_value t.operands.(1) in
          let rec cases i acc =
            if i >= Array.length t.operands then List.rev acc
            else cases (i + 2) (block_of_value t.operands.(i + 1) :: acc)
          in
          default :: cases 2 []
      | Invoke -> [ block_of_value t.operands.(1); block_of_value t.operands.(2) ]
      | _ -> [])

let predecessors b =
  List.filter_map
    (fun u ->
      match u.user.iparent with
      | Some pb when is_terminator u.user -> Some pb
      | _ -> None)
    b.buses
  |> List.sort_uniq (fun a b' -> compare a.blid b'.blid)

(* ---------- phi helpers ---------- *)

let phi_incoming i =
  assert (i.op = Phi);
  let n = Array.length i.operands / 2 in
  List.init n (fun k -> (i.operands.(2 * k), block_of_value i.operands.((2 * k) + 1)))

let phi_set_incoming i pairs =
  assert (i.op = Phi);
  unregister_operand_uses i;
  i.operands <-
    Array.of_list
      (List.concat_map (fun (v, b) -> [ v; Vblock b ]) pairs);
  register_operand_uses i

let phi_value_for_block i b =
  let rec go = function
    | [] -> None
    | (v, b') :: rest -> if b' == b then Some v else go rest
  in
  go (phi_incoming i)

let block_phis b = List.filter (fun i -> i.op = Phi) b.instrs

(* Retarget every phi in [b] that has an incoming edge from [old_pred] to
   instead name [new_pred]. *)
let phi_replace_pred b ~old_pred ~new_pred =
  List.iter
    (fun phi ->
      Array.iteri
        (fun idx v ->
          match v with
          | Vblock p when p == old_pred -> set_operand phi idx (Vblock new_pred)
          | _ -> ())
        phi.operands)
    (block_phis b)

(* Remove the incoming entry for [pred] from every phi in [b]. *)
let phi_remove_pred b pred =
  List.iter
    (fun phi ->
      let pairs = List.filter (fun (_, p) -> not (p == pred)) (phi_incoming phi) in
      phi_set_incoming phi pairs)
    (block_phis b)

(* ---------- call helpers ---------- *)

let call_callee i =
  match i.op with
  | Call -> i.operands.(0)
  | Invoke -> i.operands.(0)
  | _ -> invalid_arg "Ir.call_callee"

let call_args i =
  match i.op with
  | Call -> Array.to_list (Array.sub i.operands 1 (Array.length i.operands - 1))
  | Invoke -> Array.to_list (Array.sub i.operands 3 (Array.length i.operands - 3))
  | _ -> invalid_arg "Ir.call_args"

let mbr_cases i =
  assert (i.op = Mbr);
  let rec go k acc =
    if k >= Array.length i.operands then List.rev acc
    else
      match i.operands.(k) with
      | Const { ckind = Cint v; _ } ->
          go (k + 2) ((v, block_of_value i.operands.(k + 1)) :: acc)
      | _ -> invalid_arg "Ir.mbr_cases: non-constant case"
  in
  go 2 []

(* ---------- iteration ---------- *)

let iter_instrs f fn = List.iter (fun b -> List.iter f b.instrs) fn.fblocks

let fold_instrs f acc fn =
  List.fold_left
    (fun acc b -> List.fold_left f acc b.instrs)
    acc fn.fblocks

let instr_count fn = fold_instrs (fun n _ -> n + 1) 0 fn

let module_instr_count m =
  List.fold_left (fun n f -> n + instr_count f) 0 m.funcs

(* ---------- opcode names (shared by printer, parser, encoder) ---------- *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_name = function
  | Eq -> "seteq"
  | Ne -> "setne"
  | Lt -> "setlt"
  | Gt -> "setgt"
  | Le -> "setle"
  | Ge -> "setge"

let opcode_name = function
  | Binop b -> binop_name b
  | Setcc c -> cmp_name c
  | Ret -> "ret"
  | Br -> "br"
  | Mbr -> "mbr"
  | Invoke -> "invoke"
  | Unwind -> "unwind"
  | Load -> "load"
  | Store -> "store"
  | Getelementptr -> "getelementptr"
  | Alloca -> "alloca"
  | Cast -> "cast"
  | Call -> "call"
  | Phi -> "phi"

(* Fixed numbering used by the object-code encoding. *)
let opcode_code = function
  | Binop Add -> 1
  | Binop Sub -> 2
  | Binop Mul -> 3
  | Binop Div -> 4
  | Binop Rem -> 5
  | Binop And -> 6
  | Binop Or -> 7
  | Binop Xor -> 8
  | Binop Shl -> 9
  | Binop Shr -> 10
  | Setcc Eq -> 11
  | Setcc Ne -> 12
  | Setcc Lt -> 13
  | Setcc Gt -> 14
  | Setcc Le -> 15
  | Setcc Ge -> 16
  | Ret -> 17
  | Br -> 18
  | Mbr -> 19
  | Invoke -> 20
  | Unwind -> 21
  | Load -> 22
  | Store -> 23
  | Getelementptr -> 24
  | Alloca -> 25
  | Cast -> 26
  | Call -> 27
  | Phi -> 28

let opcode_of_code = function
  | 1 -> Binop Add
  | 2 -> Binop Sub
  | 3 -> Binop Mul
  | 4 -> Binop Div
  | 5 -> Binop Rem
  | 6 -> Binop And
  | 7 -> Binop Or
  | 8 -> Binop Xor
  | 9 -> Binop Shl
  | 10 -> Binop Shr
  | 11 -> Setcc Eq
  | 12 -> Setcc Ne
  | 13 -> Setcc Lt
  | 14 -> Setcc Gt
  | 15 -> Setcc Le
  | 16 -> Setcc Ge
  | 17 -> Ret
  | 18 -> Br
  | 19 -> Mbr
  | 20 -> Invoke
  | 21 -> Unwind
  | 22 -> Load
  | 23 -> Store
  | 24 -> Getelementptr
  | 25 -> Alloca
  | 26 -> Cast
  | 27 -> Call
  | 28 -> Phi
  | n -> invalid_arg (Printf.sprintf "Ir.opcode_of_code: %d" n)

(* The number of opcodes: codes run from 1 to [opcode_count]. *)
let opcode_count = 28

let all_opcodes = List.init opcode_count (fun i -> opcode_of_code (i + 1))
