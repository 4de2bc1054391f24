(* The LLVA verifier: structural well-formedness, the strict type rules of
   §3.1 ("no mixed-type operations, no implicit coercion"), and SSA
   dominance (every def dominates its uses; phi operands dominate the
   incoming edge). Returns a list of human-readable problems; empty means
   the module is well-formed. *)

open Ir

(* where the checks are; spelled out only when one of them fails *)
type where = At of string | In_function of func | In_block of func * block

let where_string = function
  | At s -> s
  | In_function f -> "function %" ^ f.fname
  | In_block (f, b) -> "function %" ^ f.fname ^ " block %" ^ b.bname

type ctx = {
  env : Types.env;
  mutable errors : string list;
  mutable where : where;
  named : (string, unit) Hashtbl.t; (* names [check_names] has visited *)
}

let err ctx fmt =
  Printf.ksprintf
    (fun s -> ctx.errors <- (where_string ctx.where ^ ": " ^ s) :: ctx.errors)
    fmt

let resolve ctx ty =
  try Types.resolve ctx.env ty
  with Types.Unresolved n ->
    err ctx "unresolved type name %%%s" n;
    Types.Void

(* Every name a type mentions, at any depth, must be defined. [resolve]
   looks through the outermost name only; the engines resolve the rest,
   such as the type an [alloca] or [malloc] allocates, when they run.
   Each name is visited once per context, which also ends recursive
   types. *)
let rec check_names ctx (ty : Types.t) =
  match ty with
  | Named n when not (Hashtbl.mem ctx.named n) -> (
      Hashtbl.replace ctx.named n ();
      match Hashtbl.find_opt ctx.env n with
      | Some ty' -> check_names ctx ty'
      | None -> err ctx "unresolved type name %%%s" n)
  | Pointer t | Array (_, t) -> check_names ctx t
  | Struct ts -> List.iter (check_names ctx) ts
  | Func (r, ps, _) -> List.iter (check_names ctx) (r :: ps)
  | _ -> ()

(* A named type that contains itself by value, through struct fields,
   array elements or names but not through a pointer, has no size. *)
let check_by_value ctx (m : modl) =
  List.iter
    (fun (n, ty) ->
      let seen = Hashtbl.create 8 in
      let rec reaches (ty : Types.t) =
        match ty with
        | Named n' when String.equal n' n -> true
        | Named n' when not (Hashtbl.mem seen n') -> (
            Hashtbl.replace seen n' ();
            match Hashtbl.find_opt ctx.env n' with
            | Some ty' -> reaches ty'
            | None -> false)
        | Array (_, t) -> reaches t
        | Struct ts -> List.exists reaches ts
        | _ -> false
      in
      if reaches ty then err ctx "type %%%s contains itself" n)
    m.typedefs

(* ---------- per-instruction type rules ---------- *)

let check_instr ctx i =
  let opnd k = i.operands.(k) in
  let ty k = type_of_value (opnd k) in
  let rty k = resolve ctx (ty k) in
  let nops = Array.length i.operands in
  let expect_n n =
    if nops <> n then err ctx "%s expects %d operands, has %d" (opcode_name i.op) n nops
  in
  match i.op with
  | Binop op -> (
      expect_n 2;
      if nops = 2 then
        match op with
        | Shl | Shr ->
            if not (Types.is_integer (rty 0)) then
              err ctx "%s requires integer first operand" (binop_name op);
            if not (Types.equal (rty 1) Types.Ubyte) then
              err ctx "%s shift amount must be ubyte" (binop_name op)
        | And | Or | Xor ->
            if not (Types.equal_resolved ctx.env (ty 0) (ty 1)) then
              err ctx "%s operand types differ" (binop_name op);
            let t = rty 0 in
            if not (Types.is_integer t || Types.equal t Types.Bool) then
              err ctx "%s requires integral operands" (binop_name op)
        | Add | Sub | Mul | Div | Rem ->
            if not (Types.equal_resolved ctx.env (ty 0) (ty 1)) then
              err ctx "%s operand types differ" (binop_name op);
            let t = rty 0 in
            if not (Types.is_integer t || Types.is_fp t) then
              err ctx "%s requires arithmetic operands, got %s" (binop_name op)
                (Types.to_string t);
            if not (Types.equal_resolved ctx.env i.ity (ty 0)) then
              err ctx "%s result type mismatch" (binop_name op))
  | Setcc c ->
      expect_n 2;
      if nops = 2 then begin
        if not (Types.equal_resolved ctx.env (ty 0) (ty 1)) then
          err ctx "%s operand types differ: %s vs %s" (cmp_name c)
            (Types.to_string (ty 0))
            (Types.to_string (ty 1));
        if not (Types.is_scalar (rty 0)) then
          err ctx "%s requires scalar operands" (cmp_name c);
        if not (Types.equal i.ity Types.Bool) then
          err ctx "%s must produce bool" (cmp_name c)
      end
  | Ret -> () (* checked against the function signature by the caller *)
  | Br ->
      if nops = 1 then begin
        match opnd 0 with
        | Vblock _ -> ()
        | _ -> err ctx "br target must be a label"
      end
      else if nops = 3 then begin
        if not (Types.equal (rty 0) Types.Bool) then
          err ctx "br condition must be bool";
        (match opnd 1 with Vblock _ -> () | _ -> err ctx "br target must be a label");
        match opnd 2 with Vblock _ -> () | _ -> err ctx "br target must be a label"
      end
      else err ctx "br expects 1 or 3 operands"
  | Mbr ->
      if nops < 2 || nops mod 2 <> 0 then err ctx "mbr operand count invalid"
      else begin
        if not (Types.is_integer (rty 0)) then err ctx "mbr selector must be integer";
        let rec go k =
          if k + 1 < nops then begin
            (match opnd k with
            | Const { ckind = Cint _; _ } -> ()
            | _ -> err ctx "mbr case must be an integer constant");
            (match opnd (k + 1) with
            | Vblock _ -> ()
            | _ -> err ctx "mbr case target must be a label");
            go (k + 2)
          end
        in
        (match opnd 1 with Vblock _ -> () | _ -> err ctx "mbr default must be a label");
        go 2
      end
  | Invoke | Call -> (
      let min_ops = if i.op = Call then 1 else 3 in
      if nops < min_ops then err ctx "call/invoke missing callee"
      else
        match resolve ctx (ty 0) with
        | Types.Pointer fty | (Types.Func _ as fty) -> (
            match resolve ctx fty with
            | Types.Func (ret, params, varargs) ->
                let args =
                  if i.op = Call then
                    Array.to_list (Array.sub i.operands 1 (nops - 1))
                  else Array.to_list (Array.sub i.operands 3 (nops - 3))
                in
                let nparams = List.length params in
                if List.length args < nparams then err ctx "too few call arguments"
                else if (not varargs) && List.length args > nparams then
                  err ctx "too many call arguments";
                List.iteri
                  (fun k arg ->
                    match List.nth_opt params k with
                    | Some pty ->
                        if
                          not
                            (Types.equal_resolved ctx.env (type_of_value arg) pty)
                        then
                          err ctx "call argument %d: %s, expected %s" k
                            (Types.to_string (type_of_value arg))
                            (Types.to_string pty)
                    | None -> ())
                  args;
                if not (Types.equal_resolved ctx.env i.ity ret) then
                  err ctx "call result type %s, callee returns %s"
                    (Types.to_string i.ity) (Types.to_string ret)
            | t -> err ctx "callee is not a function: %s" (Types.to_string t))
        | t -> err ctx "callee is not a function pointer: %s" (Types.to_string t))
  | Unwind -> expect_n 0
  | Load -> (
      expect_n 1;
      if nops = 1 then
        match rty 0 with
        | Types.Pointer elem ->
            if not (Types.is_scalar (resolve ctx elem)) then
              err ctx "load of non-scalar %s" (Types.to_string elem);
            if not (Types.equal_resolved ctx.env i.ity elem) then
              err ctx "load result type mismatch"
        | t -> err ctx "load from non-pointer %s" (Types.to_string t))
  | Store -> (
      expect_n 2;
      if nops = 2 then
        match rty 1 with
        | Types.Pointer elem ->
            if not (Types.equal_resolved ctx.env (ty 0) elem) then
              err ctx "store of %s into %s*"
                (Types.to_string (ty 0))
                (Types.to_string elem)
        | t -> err ctx "store to non-pointer %s" (Types.to_string t))
  | Getelementptr ->
      if nops < 1 then err ctx "getelementptr missing pointer"
      else begin
        let pointer =
          match rty 0 with
          | Types.Pointer _ -> true
          | t ->
              err ctx "getelementptr on non-pointer %s" (Types.to_string t);
              false
        in
        for k = 1 to nops - 1 do
          if not (Types.is_integer (rty k)) then
            err ctx "getelementptr index %d not an integer" k
        done;
        if pointer then
          match Gep.of_instr ctx.env i with
          | Ok (_, ty) ->
              if not (Types.equal_resolved ctx.env i.ity (Types.Pointer ty)) then
                err ctx "getelementptr result type %s, expected %s*"
                  (Types.to_string i.ity) (Types.to_string ty)
          | Error e -> err ctx "getelementptr: %s" (Gep.message e)
          | exception Types.Unresolved _ ->
              (* reported once, like every other undefined name *)
              check_names ctx (ty 0)
      end
  | Alloca -> (
      if nops > 1 then err ctx "alloca expects at most one operand";
      if nops = 1 && not (Types.is_integer (rty 0)) then
        err ctx "alloca count must be an integer";
      match resolve ctx i.ity with
      | Types.Pointer _ -> ()
      | t -> err ctx "alloca must produce a pointer, got %s" (Types.to_string t))
  | Cast ->
      expect_n 1;
      if nops = 1 then begin
        let src = rty 0 and dst = resolve ctx i.ity in
        if not (Types.is_scalar src) then
          err ctx "cast source must be scalar, got %s" (Types.to_string src);
        if not (Types.is_scalar dst) then
          err ctx "cast target must be scalar, got %s" (Types.to_string dst);
        if Types.is_fp src && Types.is_pointer dst then
          err ctx "cast from floating point to pointer"
      end
  | Phi ->
      if nops = 0 || nops mod 2 <> 0 then err ctx "phi operand count invalid"
      else
        let rec go k =
          if k + 1 < nops then begin
            if not (Types.equal_resolved ctx.env (ty k) i.ity) then
              err ctx "phi operand %d type %s, expected %s" (k / 2)
                (Types.to_string (ty k))
                (Types.to_string i.ity);
            (match opnd (k + 1) with
            | Vblock _ -> ()
            | _ -> err ctx "phi predecessor must be a label");
            go (k + 2)
          end
        in
        go 0

(* ---------- dominance over block indices ---------- *)

(* Block [k]'s dominators as row [k] of a bitset matrix, [words] words
   a row in one flat array: the maximal fixpoint of dom(0) = {0} and
   dom(k) = {k} ∪ ⋂ dom(p) over [k]'s predecessors [p] ({k} alone when
   it has none). Unreachable blocks keep what these equations give
   them: a block no edge reaches is dominated by itself alone, a block
   on an unreachable cycle by every block. *)
type dom = { words : int; rows : int array }

let bits = Sys.int_size

let compute_dominators (preds : int array array) =
  let n = Array.length preds in
  let words = (n + bits - 1) / bits in
  let rows = Array.make (n * words) (-1) in
  Array.fill rows 0 words 0;
  rows.(0) <- 1;
  let row = Array.make words 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      let ps = preds.(k) in
      if Array.length ps = 0 then Array.fill row 0 words 0
      else begin
        Array.blit rows (ps.(0) * words) row 0 words;
        for j = 1 to Array.length ps - 1 do
          let base = ps.(j) * words in
          for w = 0 to words - 1 do
            row.(w) <- row.(w) land rows.(base + w)
          done
        done
      end;
      row.(k / bits) <- row.(k / bits) lor (1 lsl (k mod bits));
      let base = k * words in
      for w = 0 to words - 1 do
        if row.(w) <> rows.(base + w) then begin
          rows.(base + w) <- row.(w);
          changed := true
        end
      done
    done
  done;
  { words; rows }

(* whether block [d] dominates block [u] *)
let dominates dom d u =
  dom.rows.((u * dom.words) + (d / bits)) land (1 lsl (d mod bits)) <> 0

(* [f]'s blocks in order, each block id's index among them, each
   block's predecessors (computed once: as blocks for the phi coverage
   check, as indices for dominance) and the dominator rows; [f] has a
   body *)
let dominators f =
  let blocks = Array.of_list f.fblocks in
  let index = Idtbl.create (Array.length blocks) in
  Array.iteri (fun k b -> Idtbl.replace index b.blid k) blocks;
  let preds = Array.map predecessors blocks in
  let pred_index =
    Array.map
      (fun ps ->
        Array.of_list
          (List.filter_map
             (fun p ->
               let k = Idtbl.find index p.blid in
               if k >= 0 then Some k else None)
             ps))
      preds
  in
  (blocks, index, preds, compute_dominators pred_index)

let dominance f =
  let _, _, _, dom = dominators f in
  dominates dom

(* ---------- per-function checks ---------- *)

(* An instruction's position: its block's index and its place in the
   block, packed in one int. *)
let pack_pos bi k = (bi lsl 32) lor k
let pos_block p = p lsr 32
let pos_index p = p land 0xFFFF_FFFF

let check_function ctx f =
  ctx.where <- In_function f;
  if is_declaration f then ()
  else begin
    check_names ctx f.freturn;
    List.iter (fun a -> check_names ctx a.aty) f.fargs;
    let blocks, index, preds, dom = dominators f in
    (* phis [check_instr] rejected (e.g. an odd operand count or a
       predecessor that is not a label): the coverage and dominance
       passes below read them as value/label pairs, so they skip them *)
    let bad_phis = Idtbl.create 4 in
    let pos = Idtbl.create 64 in
    (* structure: nonempty blocks, single trailing terminator, leading phis *)
    Array.iteri
      (fun bi b ->
        ctx.where <- In_block (f, b);
        (match b.instrs with
        | [] -> err ctx "empty basic block"
        | instrs -> (
            let rec split seen_non_phi = function
              | [] -> ()
              | [ last ] ->
                  if not (is_terminator last) then
                    err ctx "block does not end with a terminator"
              | x :: rest ->
                  if is_terminator x then
                    err ctx "terminator %s in the middle of a block"
                      (opcode_name x.op);
                  if x.op = Phi && seen_non_phi then
                    err ctx "phi after non-phi instruction";
                  split (seen_non_phi || x.op <> Phi) rest
            in
            split false instrs;
            match instrs with
            | first :: _ when first.op = Phi && b == blocks.(0) ->
                err ctx "phi in entry block"
            | _ -> ()));
        List.iteri
          (fun k i ->
            Idtbl.replace pos i.iid (pack_pos bi k);
            (match i.iparent with
            | Some p when p == b -> ()
            | _ -> err ctx "instruction with wrong parent");
            check_names ctx i.ity;
            let before = ctx.errors in
            check_instr ctx i;
            if i.op = Phi && ctx.errors != before then Idtbl.replace bad_phis i.iid 0;
            (* ret must match the signature *)
            if i.op = Ret then begin
              let n = Array.length i.operands in
              if Types.equal f.freturn Types.Void then begin
                if n <> 0 then err ctx "ret with value in void function"
              end
              else if n <> 1 then err ctx "ret missing value"
              else if
                not
                  (Types.equal_resolved ctx.env
                     (type_of_value i.operands.(0))
                     f.freturn)
              then err ctx "ret type does not match function return type"
            end)
          b.instrs)
      blocks;
    (* phi incoming lists must exactly cover the predecessors *)
    Array.iteri
      (fun bi b ->
        ctx.where <- In_block (f, b);
        let preds = preds.(bi) in
        List.iter
          (fun phi ->
            if phi.op = Phi && not (Idtbl.mem bad_phis phi.iid) then begin
              let inc_blocks = List.map snd (phi_incoming phi) in
              List.iter
                (fun p ->
                  if not (List.exists (fun ib -> ib == p) inc_blocks) then
                    err ctx "phi missing incoming for predecessor %%%s" p.bname)
                preds;
              List.iter
                (fun ib ->
                  if not (List.exists (fun p -> p == ib) preds) then
                    err ctx "phi has incoming for non-predecessor %%%s" ib.bname)
                inc_blocks
            end)
          b.instrs)
      blocks;
    (* entry block must not have predecessors *)
    if preds.(0) <> [] then begin
      ctx.where <- In_function f;
      err ctx "entry block has predecessors"
    end;
    (* SSA dominance *)
    let def_dominates_use (def : instr) (use : instr) op_idx =
      let dp = Idtbl.find pos def.iid and up = Idtbl.find pos use.iid in
      if dp < 0 || up < 0 then true
      else if use.op = Phi then
        Idtbl.mem bad_phis use.iid
        ||
        (* the def must dominate the incoming edge's source block *)
        match use.operands.(op_idx + 1) with
        | Vblock p ->
            let pi = Idtbl.find index p.blid in
            pi < 0 || dominates dom (pos_block dp) pi
        | _ -> true
      else if pos_block dp = pos_block up then pos_index dp < pos_index up
      else dominates dom (pos_block dp) (pos_block up)
    in
    Array.iter
      (fun b ->
        List.iter
          (fun i ->
            Array.iteri
              (fun op_idx v ->
                match v with
                | Vreg def ->
                    if not (def_dominates_use def i op_idx) then begin
                      ctx.where <- In_block (f, b);
                      err ctx "use of %%%s (id %d) not dominated by its definition"
                        def.iname def.iid
                    end
                | _ -> ())
              i.operands)
          b.instrs)
      blocks
  end

let verify_module (m : modl) : string list =
  let ctx =
    {
      env = Ir.type_env m;
      errors = [];
      where = At "module";
      named = Hashtbl.create 16;
    }
  in
  check_by_value ctx m;
  (* symbol uniqueness *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun g ->
      if Hashtbl.mem seen g.gname then err ctx "duplicate global %%%s" g.gname;
      Hashtbl.replace seen g.gname ();
      check_names ctx g.gty)
    m.globals;
  List.iter
    (fun f ->
      if Hashtbl.mem seen f.fname then err ctx "duplicate symbol %%%s" f.fname;
      Hashtbl.replace seen f.fname ())
    m.funcs;
  List.iter (fun f -> check_function ctx f) m.funcs;
  List.rev ctx.errors

let verify_function f =
  let ctx =
    {
      env =
        (match f.fparent with
        | Some m -> Ir.type_env m
        | None -> Types.empty_env ());
      errors = [];
      where = At "function";
      named = Hashtbl.create 16;
    }
  in
  check_function ctx f;
  List.rev ctx.errors

exception Invalid of string list

(* Raise on the first invalid module; used by pipeline stages that require
   well-formed input. *)
let assert_valid m =
  match verify_module m with [] -> () | errs -> raise (Invalid errs)
