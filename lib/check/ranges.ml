(* Interprocedural integer value-range analysis: abstract interpretation
   over intervals of the *mathematical* value each SSA register holds
   (paper §3.3: the typed SSA V-ISA is what makes an analysis of this
   shape tractable on shipped object code).

   The domain is [Bot | Itv (lo, hi) | Top] where [Itv] bounds the
   canonical representative of [Ir.normalize_int] — which equals the
   mathematical value for every integer type except [ulong], whose values
   at or above 2^63 have no int64 representative. Ulong therefore gets an
   unbounded top ([Top]) and only its sub-2^63 values are ever tracked;
   every other type's top is its full representable range, so stored
   intervals stay canonical (always inside the type bounds).

   Structure, mirroring [Summaries]:
   - per function: reverse-postorder join-ascent sweeps over the [Cfg],
     with bounded widening at phis inside natural loops (from [Loops])
     after [widen_delay] sweeps, a hard [max_sweeps] budget whose
     exhaustion falls back to all-top (and clears [fixpoint_reached]),
     and a two-sweep narrowing pass to claw back widening losses;
   - flow sensitivity: branch conditions ([Setcc]-guarded [Br] edges and
     single-target [Mbr] cases) become edge constraints; a value read in
     block B is refined by every constraint on a dominating
     single-predecessor edge, and phi arms by their incoming edge;
   - interprocedurally: return ranges computed bottom-up over
     [Callgraph.sccs] with a bounded per-SCC fixpoint, then descending
     rounds that join call-site argument ranges into per-argument
     summaries (only for functions whose callers are all visible: not
     [main], not address-taken). Stopping the descent at any round is
     sound, so the round budget needs no fallback.

   Everything here is deterministic: iteration follows module, block and
   instruction order; hash tables are only used for keyed lookup. *)

open Llva

type itv = Bot | Itv of int64 * int64 | Top

let itv_equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Itv (l1, h1), Itv (l2, h2) -> Int64.equal l1 l2 && Int64.equal h1 h2
  | _ -> false

let to_string = function
  | Bot -> "bot"
  | Top -> "top"
  | Itv (l, h) ->
      if l = h then Printf.sprintf "[%Ld]" l else Printf.sprintf "[%Ld..%Ld]" l h

(* ---------- lattice ---------- *)

(* Both return an operand itself when the result equals it, so the
   fixpoint allocates only for a range that really changes. *)
let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Itv (l1, h1), Itv (l2, h2) ->
      let l = if l1 <= l2 then l1 else l2 and h = if h1 >= h2 then h1 else h2 in
      if l = l1 && h = h1 then a else if l = l2 && h = h2 then b else Itv (l, h)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, x | x, Top -> x
  | Itv (l1, h1), Itv (l2, h2) ->
      let l = if l1 >= l2 then l1 else l2 and h = if h1 <= h2 then h1 else h2 in
      if l > h then Bot
      else if l = l1 && h = h1 then a
      else if l = l2 && h = h2 then b
      else Itv (l, h)

(* ---------- overflow-checked int64 helpers ---------- *)

let add64 a b =
  let r = Int64.add a b in
  if a >= 0L = (b >= 0L) && r >= 0L <> (a >= 0L) then None else Some r

let sub64 a b =
  if b = Int64.min_int then if a < 0L then Some (Int64.sub a b) else None
  else add64 a (Int64.neg b)

let mul64 a b =
  if a = 0L || b = 0L then Some 0L
  else if (a = -1L && b = Int64.min_int) || (b = -1L && a = Int64.min_int) then
    None
  else
    let r = Int64.mul a b in
    if Int64.div r b = a && Int64.rem r b = 0L then Some r else None

(* a * 2^s, for 0 <= s <= 63 *)
let shl64 a s =
  if a = 0L then Some 0L
  else if s >= 63 then None
  else mul64 a (Int64.shift_left 1L s)

(* ---------- the type-bounds view of the domain ---------- *)

(* Representable range of the canonical representative; [None] for ulong,
   whose top is unbounded. Callers pass resolved int-like types. *)
let bounds = function
  | Types.Bool -> Some (0L, 1L)
  | Types.Ubyte -> Some (0L, 255L)
  | Types.Sbyte -> Some (-128L, 127L)
  | Types.Ushort -> Some (0L, 65535L)
  | Types.Short -> Some (-32768L, 32767L)
  | Types.Uint -> Some (0L, 4294967295L)
  | Types.Int -> Some (-2147483648L, 2147483647L)
  | Types.Long -> Some (Int64.min_int, Int64.max_int)
  | _ -> None (* Ulong, or a type we never track *)

(* the same as [bounds], as a range; constant, so never allocated *)
let top_of = function
  | Types.Bool -> Itv (0L, 1L)
  | Types.Ubyte -> Itv (0L, 255L)
  | Types.Sbyte -> Itv (-128L, 127L)
  | Types.Ushort -> Itv (0L, 65535L)
  | Types.Short -> Itv (-32768L, 32767L)
  | Types.Uint -> Itv (0L, 4294967295L)
  | Types.Int -> Itv (-2147483648L, 2147483647L)
  | Types.Long -> Itv (Int64.min_int, Int64.max_int)
  | _ -> Top

(* Is this range as good as knowing nothing about a value of [ty]? *)
let is_top ty itv = itv = Top || itv = top_of ty

let int_like env ty =
  match Types.resolve env ty with
  | Types.Bool -> true
  | t -> Types.is_integer t
  | exception Types.Unresolved _ -> false

(* A computed mathematical interval becomes a sound range for a value of
   [ty]: kept when it fits entirely inside the representable range, and
   degraded to the type's top when it does not (the runtime wraps, which
   an interval cannot describe). *)
let fit ty = function
  | Bot -> Bot
  | Top -> top_of ty
  | Itv (l, h) as itv -> (
      match bounds ty with
      | Some (bl, bh) -> if l >= bl && h <= bh then itv else top_of ty
      | None -> if l >= 0L then itv else Top)

let clamp ty itv = meet itv (top_of ty)

(* ---------- pure interval arithmetic (for gep offset walks) ---------- *)

let itv_add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | Itv (l1, h1), Itv (l2, h2) -> (
      match (add64 l1 l2, add64 h1 h2) with
      | Some l, Some h -> Itv (l, h)
      | _ -> Top)

let itv_scale k a =
  match a with
  | Bot -> Bot
  | Top -> if k = 0L then Itv (0L, 0L) else Top
  | Itv (l, h) -> (
      match (mul64 k l, mul64 k h) with
      | Some a, Some b -> Itv (min a b, max a b)
      | _ -> Top)

(* ---------- constants ---------- *)

let const_itv env (v : Ir.value) : itv =
  match v with
  | Ir.Const { cty; ckind } -> (
      match Types.resolve env cty with
      | exception Types.Unresolved _ -> Top
      | rty -> (
          if not (int_like env rty) then Top
          else
            match ckind with
            | Ir.Cbool b -> if b then Itv (1L, 1L) else Itv (0L, 0L)
            | Ir.Cint n ->
                (* for ulong a negative representative is a value >= 2^63,
                   outside what the math domain can carry *)
                if rty = Types.Ulong && n < 0L then Top else Itv (n, n)
            | Ir.Czero -> Itv (0L, 0L)
            | _ -> top_of rty))
  | Ir.Vundef ty -> (
      match Types.resolve env ty with
      | rty -> top_of rty
      | exception Types.Unresolved _ -> Top)
  | _ -> Top

(* ---------- analysis state ---------- *)

let negate_cmp = function
  | Ir.Eq -> Ir.Ne
  | Ir.Ne -> Ir.Eq
  | Ir.Lt -> Ir.Ge
  | Ir.Ge -> Ir.Lt
  | Ir.Gt -> Ir.Le
  | Ir.Le -> Ir.Gt

let swap_cmp = function
  | Ir.Lt -> Ir.Gt
  | Ir.Gt -> Ir.Lt
  | Ir.Le -> Ir.Ge
  | Ir.Ge -> Ir.Le
  | (Ir.Eq | Ir.Ne) as c -> c

(* A value as the fixpoint reads it: a register or argument by its
   number in the function's [Analysis.Numbering], or a value whose range
   is fixed for the whole analysis (a constant, or anything the domain
   cannot see into). *)
type opnd = Onum of int | Ofixed of itv

type constr = {
  ccmp : Ir.cmp;
  ctaken : bool; (* the branch direction this edge represents *)
  ca : Ir.value;
  cb : Ir.value;
  ceff : Ir.cmp; (* [ccmp], negated on the not-taken edge: what holds *)
  coa : opnd; (* [ca] and [cb] as the fixpoint reads them *)
  cob : opnd;
}

(* What the dominator walk of [eval_at] learns at a block: nothing, the
   constraints of its single incoming edge, or, when every incoming edge
   carries constraints, those of each edge (in predecessor order). *)
type guard = Gnone | Gone of constr list | Gall of constr list list

(* One int-like instruction of a reachable block, resolved once per
   function: its number, resolved type and that type's top, and its
   transfer with the operands read as [opnd]s. *)
type step = { s_num : int; s_ty : Types.t; s_top : itv; s_op : sop }

and sop =
  | Sbinop of Ir.binop * opnd * opnd
  | Ssetcc of Ir.cmp * opnd * opnd
  | Scast of opnd
  | Sphi of arm array (* the arms from reachable predecessors *)
  | Scall of int (* a defined callee's function id *)
  | Sfixed of itv (* a result no operand range moves *)

(* a phi arm: the value, the predecessor's block index, and the
   refinements its incoming edge applies to it, as (comparison, other
   side) *)
and arm = { a_val : opnd; a_pred : int; a_refine : (Ir.cmp * opnd) list }

(* ---------- relational layer: symbols and difference bounds ---------- *)

(* A node of the difference-bound domain: the distinguished zero node (so
   unary interval bounds embed as differences against 0), an SSA register,
   a function argument, or the *element count* of the object a pointer
   argument points to — the "length" of a variable-length allocation,
   linked to concrete call-site objects by the interprocedural rounds.
   Only types whose canonical representative is the mathematical value
   participate; ulong would need the modular reasoning a DBM cannot do. *)
type sym = Szero | Sreg of int (* instr id *) | Sarg of int | Slen of int

(* A closed difference-bound matrix over a small symbol set:
   [dmat.(i).(j) = Some c] means sym_i - sym_j <= c (on every execution
   reaching the block the matrix was built for). *)
type dbm = {
  dsyms : sym array;
  dix : (sym, int) Hashtbl.t;
  dmat : int64 option array array;
}

type fn_info = {
  fi_f : Ir.func;
  fi_cfg : Analysis.Cfg.t;
  fi_dom : Analysis.Dominance.t;
  fi_num : Analysis.Numbering.t;
  fi_loopdepth : int array; (* per block index; 0 = not in a loop *)
  (* per successor block index: (predecessor index, constraints) for
     every constrained incoming edge *)
  fi_edge_cs : (int * constr list) list array;
  fi_guard : guard array; (* per block index *)
  (* per value number: some edge constraint names it, so [eval_at] may
     refine it *)
  fi_guarded : bool array;
  (* per value number: the argument ranges (interprocedural inputs),
     then the instruction ranges [analyze_fn] computes *)
  fi_vals : itv array;
  fi_steps : step array array; (* per block index *)
  fi_rets : (int * opnd) list; (* (block index, value) of each return *)
  mutable fi_ret : itv;
  mutable fi_fp : bool; (* per-function fixpoint inside the budget *)
  mutable fi_sweeps : int;
  (* argument and callee return ranges the last [analyze_fn] ran with *)
  mutable fi_inputs : (itv option list * itv list) option;
  (* no-wrap dataflow equations, tagged with the defining block index *)
  mutable fi_flow : (int * sym * sym * int64) list;
  fi_rel_args : (int * int, int64) Hashtbl.t; (* (a, b): arg a - arg b <= c *)
  fi_rel_len : (int * int, int64) Hashtbl.t; (* (a, p): arg a - len(p) <= c *)
  fi_dbms : (int, dbm) Hashtbl.t; (* block index -> closed DBM (cache) *)
  mutable fi_rel_dropped : int; (* facts lost to the DBM node cap *)
}

type t = {
  rm : Ir.modl;
  renv : Types.env;
  rlt : Vmem.Layout.t; (* data layout, for element sizes of length syms *)
  fns : (int, fn_info) Hashtbl.t; (* func id -> info; defined funcs only *)
  mutable rounds : int; (* interprocedural descending rounds run *)
}

(* Another function's register reads as bottom and its argument as top;
   only the function's own arguments have numbers below [nargs]. *)
let opnd_of env num (v : Ir.value) : opnd =
  match v with
  | Ir.Vreg _ -> (
      match Analysis.Numbering.of_value num v with
      | -1 -> Ofixed Bot
      | k -> Onum k)
  | Ir.Varg _ -> (
      match Analysis.Numbering.of_value num v with
      | k when k >= 0 && k < Analysis.Numbering.nargs num -> Onum k
      | _ -> Ofixed Top)
  | Ir.Const _ | Ir.Vundef _ -> Ofixed (const_itv env v)
  | _ -> Ofixed Top

(* Edge constraints from [Setcc]-guarded [Br] edges and single-target
   [Mbr] cases, per successor block, plus the value numbers they name. *)
let collect_constraints env cfg num =
  let edge_cs = Array.make (Analysis.Cfg.n_blocks cfg) [] in
  let guarded = Array.make (Analysis.Numbering.size num) false in
  let idx b = Analysis.Cfg.index_of cfg b in
  let add kb ks ccmp ctaken ca cb =
    let c =
      { ccmp; ctaken; ca; cb;
        ceff = (if ctaken then ccmp else negate_cmp ccmp);
        coa = opnd_of env num ca; cob = opnd_of env num cb }
    in
    let cur = Option.value (List.assoc_opt kb edge_cs.(ks)) ~default:[] in
    edge_cs.(ks) <- (kb, cur @ [ c ]) :: List.remove_assoc kb edge_cs.(ks);
    List.iter
      (function Onum k -> guarded.(k) <- true | Ofixed _ -> ())
      [ c.coa; c.cob ]
  in
  Analysis.Cfg.iter_rpo
    (fun (b : Ir.block) ->
      match Ir.terminator b with
      | Some
          ({
             Ir.op = Ir.Br;
             operands = [| cond; Ir.Vblock tb; Ir.Vblock fb |];
             _;
           } as _br)
        when not (tb == fb) -> (
          match cond with
          | Ir.Vreg ({ Ir.op = Ir.Setcc cmp; _ } as s)
            when int_like env (Ir.type_of_value s.Ir.operands.(0)) ->
              let kb = idx b in
              let a = s.Ir.operands.(0) and b = s.Ir.operands.(1) in
              add kb (idx tb) cmp true a b;
              add kb (idx fb) cmp false a b
          | _ -> ())
      | Some ({ Ir.op = Ir.Mbr; _ } as mbr)
        when int_like env (Ir.type_of_value mbr.Ir.operands.(0)) -> (
          (* a case edge carries [v = n], but only when the target is hit
             by exactly that one case and is not also the default *)
          let v = mbr.Ir.operands.(0) in
          let vty = Ir.type_of_value v in
          let cases = Ir.mbr_cases mbr in
          let default =
            match mbr.Ir.operands.(1) with
            | Ir.Vblock d -> Some d
            | _ -> None
          in
          let kb = idx b in
          List.iter
            (fun (n, (target : Ir.block)) ->
              let hits =
                List.length
                  (List.filter (fun (_, t2) -> t2 == target) cases)
              in
              let is_default =
                match default with Some d -> d == target | None -> true
              in
              if hits = 1 && not is_default then
                add kb (idx target) Ir.Eq true v (Ir.const_int vty n))
            cases)
      | _ -> ())
    cfg;
  (edge_cs, guarded)

(* ---------- reading values, with branch refinement ---------- *)

let base fi = function Onum k -> fi.fi_vals.(k) | Ofixed x -> x
let lookup_base t fi (v : Ir.value) : itv = base fi (opnd_of t.renv fi.fi_num v)

(* [cur] further constrained by [v CMP other]. Comparisons on canonical
   representatives agree with the run-time comparison for every tracked
   range: signed representatives are the value, and unsigned ones
   (including tracked ulong) are non-negative, where signed and unsigned
   orders coincide. *)
let refine_lhs cmp cur (other : itv) =
  let at_most k = function
    | Bot -> Bot
    | Itv (l, h) as itv ->
        if l > k then Bot else if h <= k then itv else Itv (l, k)
    | Top -> if k < 0L then Bot else Itv (0L, k)
    (* Top is ulong-only: values are >= 0 *)
  in
  let at_least k = function
    | Bot -> Bot
    | Itv (l, h) as itv ->
        if h < k then Bot else if l >= k then itv else Itv (k, h)
    | Top -> Top (* no representable upper bound for ulong *)
  in
  match cmp with
  | Ir.Eq -> meet cur other
  | Ir.Ne -> (
      match (cur, other) with
      | Itv (l, h), Itv (bl, bh) when bl = bh ->
          if l = h && l = bl then Bot
          else if bl = l then Itv (Int64.add l 1L, h)
          else if bl = h then Itv (l, Int64.sub h 1L)
          else cur
      | _ -> cur)
  | Ir.Lt -> (
      match other with
      | Itv (_, bh) ->
          if bh = Int64.min_int then Bot else at_most (Int64.sub bh 1L) cur
      | _ -> cur)
  | Ir.Le -> ( match other with Itv (_, bh) -> at_most bh cur | _ -> cur)
  | Ir.Gt -> (
      match other with
      | Itv (bl, _) ->
          if bl = Int64.max_int then Bot else at_least (Int64.add bl 1L) cur
      | _ -> cur)
  | Ir.Ge -> ( match other with Itv (bl, _) -> at_least bl cur | _ -> cur)

(* [cur], the range of value number [k], refined by each constraint in
   turn that names it *)
let rec refine_num fi k cur = function
  | [] -> cur
  | c :: cs ->
      let cur =
        match (c.coa, c.cob) with
        | Onum a, _ when a = k -> refine_lhs c.ceff cur (base fi c.cob)
        | _, Onum b when b = k ->
            refine_lhs (swap_cmp c.ceff) cur (base fi c.coa)
        | _ -> cur
      in
      refine_num fi k cur cs

(* Value of number [k] as observed inside block [bk]: the
   flow-insensitive range, sharpened by every constraint guarding a
   dominating single-predecessor edge (the only way into that dominator,
   hence into [bk]). At a dominating *merge* point the join of the
   per-edge refinements is sound too: the last entry into the dominator
   came along one of its reachable incoming edges, so that edge's
   constraint held there, and any later redefinition of the value would
   force re-entry through the dominator. We pay for the join only when
   every reachable edge actually carries constraints — an unconstrained
   edge would contribute the unrefined range and make the join a no-op.
   A value no constraint names leaves every refinement on the chain
   unchanged, so it skips the walk. *)
let eval_num fi bk k : itv =
  let base = fi.fi_vals.(k) in
  if not fi.fi_guarded.(k) then base
  else begin
    let r = ref base and s = ref bk in
    while !s <> 0 do
      (match fi.fi_guard.(!s) with
      | Gnone -> ()
      | Gone cs -> r := refine_num fi k !r cs
      | Gall css ->
          let cur = !r in
          r :=
            List.fold_left
              (fun acc cs -> join acc (refine_num fi k cur cs))
              Bot css);
      s := fi.fi_dom.Analysis.Dominance.idom.(!s)
    done;
    !r
  end

let eval_opnd fi bk = function Onum k -> eval_num fi bk k | Ofixed x -> x
let eval_at t fi bk (v : Ir.value) : itv =
  eval_opnd fi bk (opnd_of t.renv fi.fi_num v)

(* ---------- transfer functions ---------- *)

(* Generic interval transfer for one integer binop; operand ranges are
   mathematical intervals of canonical representatives. *)
let binop_ranges ty op (a : itv) (b : itv) : itv =
  let top = top_of ty in
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (al, ah), Itv (bl, bh) -> (
      match op with
      | Ir.Add -> (
          match (add64 al bl, add64 ah bh) with
          | Some l, Some h -> Itv (l, h)
          | _ -> top)
      | Ir.Sub -> (
          match (sub64 al bh, sub64 ah bl) with
          | Some l, Some h -> Itv (l, h)
          | _ -> top)
      | Ir.Mul -> (
          match (mul64 al bl, mul64 al bh, mul64 ah bl, mul64 ah bh) with
          | Some a1, Some a2, Some a3, Some a4 ->
              Itv (min (min a1 a2) (min a3 a4), max (max a1 a2) (max a3 a4))
          | _ -> top)
      | Ir.Div ->
          (* a zero divisor traps and produces nothing, so it can be cut
             from the divisor range; provably-zero means the result is
             unreachable *)
          let bl = if bl = 0L && bh > 0L then 1L else bl in
          let bh = if bh = 0L && bl < 0L then -1L else bh in
          if bl = 0L && bh = 0L then Bot
          else if bl > bh then Bot
          else if bl < 0L && bh > 0L then top
          else if al = Int64.min_int && bh = -1L && bl <= -1L then top
          else
            let c1 = Int64.div al bl
            and c2 = Int64.div al bh
            and c3 = Int64.div ah bl
            and c4 = Int64.div ah bh in
            Itv (min (min c1 c2) (min c3 c4), max (max c1 c2) (max c3 c4))
      | Ir.Rem ->
          let bl = if bl = 0L && bh > 0L then 1L else bl in
          if bl = 0L && bh = 0L then Bot
          else if bl > bh then Bot
          else if bl >= 1L then
            if al >= 0L && ah < bl then Itv (al, ah) (* a < divisor: a mod b = a *)
            else
              let hi = Int64.sub bh 1L in
              let lo = if al >= 0L then 0L else Int64.neg hi in
              Itv (lo, hi)
          else top
      | Ir.And ->
          (* x land y <= x when x >= 0, and the result stays >= 0 *)
          let r = top in
          let r = if al >= 0L then meet r (Itv (0L, ah)) else r in
          let r = if bl >= 0L then meet r (Itv (0L, bh)) else r in
          r
      | Ir.Or | Ir.Xor ->
          if al >= 0L && bl >= 0L then begin
            (* bounded by the smallest all-ones mask covering both *)
            let m = max ah bh in
            let bits = ref 1 in
            while
              !bits < 63 && Int64.sub (Int64.shift_left 1L !bits) 1L < m
            do
              incr bits
            done;
            let cover =
              if !bits >= 63 then Int64.max_int
              else Int64.sub (Int64.shift_left 1L !bits) 1L
            in
            Itv (0L, cover)
          end
          else top
      | Ir.Shl ->
          (* amounts are reduced modulo the declared width (Eval), so the
             endpoint transfer is only valid below it *)
          if bl >= 0L && bh < Int64.of_int (Types.bitwidth ty) && al >= 0L then
            match
              (shl64 al (Int64.to_int bl), shl64 ah (Int64.to_int bh))
            with
            | Some l, Some h -> Itv (l, h)
            | _ -> top
          else top
      | Ir.Shr ->
          (* arithmetic shift on canonical representatives matches the
             logical shift the unsigned types use, because their
             representatives are non-negative *)
          if bl >= 0L && bh < Int64.of_int (Types.bitwidth ty) then begin
            let s1 = Int64.to_int bl and s2 = Int64.to_int bh in
            let c1 = Int64.shift_right al s1
            and c2 = Int64.shift_right al s2
            and c3 = Int64.shift_right ah s1
            and c4 = Int64.shift_right ah s2 in
            Itv (min (min c1 c2) (min c3 c4), max (max c1 c2) (max c3 c4))
          end
          else top
      | exception _ -> top)
  | _ -> (
      (* one side is top; only [And] can still say something *)
      match op with
      | Ir.And ->
          let r = top in
          let r =
            match a with
            | Itv (al, ah) when al >= 0L -> meet r (Itv (0L, ah))
            | _ -> r
          in
          let r =
            match b with
            | Itv (bl, bh) when bl >= 0L -> meet r (Itv (0L, bh))
            | _ -> r
          in
          r
      | Ir.Rem -> (
          match b with
          | Itv (bl, bh) when bl >= 1L -> Itv (Int64.neg (Int64.sub bh 1L), Int64.sub bh 1L)
          | _ -> top)
      | _ -> top)

let binop_itv ty op (a : itv) (b : itv) : itv =
  match (a, b) with
  | Itv (al, ah), Itv (bl, bh)
    when al = ah && bl = bh && ty <> Types.Bool -> (
      (* both singletons: run the exact scalar semantics, bit-for-bit the
         same as the interpreter and the simulators *)
      match Eval.int_binop op ty al bl with
      | Eval.I (_, r) ->
          if ty = Types.Ulong && r < 0L then Top else Itv (r, r)
      | _ -> top_of ty
      | exception Eval.Division_by_zero -> Bot
      | exception Eval.Overflow -> Bot)
  | _ -> binop_ranges ty op a b

let setcc_itv cmp (ra : itv) (rb : itv) : itv =
  match (ra, rb) with
  | Bot, _ | _, Bot -> Bot
  | Itv (al, ah), Itv (bl, bh) -> (
      let yes = Itv (1L, 1L) and no = Itv (0L, 0L) and maybe = Itv (0L, 1L) in
      match cmp with
      | Ir.Eq ->
          if al = ah && bl = bh && al = bl then yes
          else if ah < bl || bh < al then no
          else maybe
      | Ir.Ne ->
          if al = ah && bl = bh && al = bl then no
          else if ah < bl || bh < al then yes
          else maybe
      | Ir.Lt -> if ah < bl then yes else if al >= bh then no else maybe
      | Ir.Le -> if ah <= bl then yes else if al > bh then no else maybe
      | Ir.Gt -> if al > bh then yes else if ah <= bl then no else maybe
      | Ir.Ge -> if al >= bh then yes else if ah < bl then no else maybe)
  | _ -> Itv (0L, 1L)

let cast_itv dst_ty (a : itv) : itv =
  match dst_ty with
  | Types.Bool -> (
      match a with
      | Bot -> Bot
      | Itv (l, h) ->
          if l > 0L || h < 0L then Itv (1L, 1L)
          else if l = 0L && h = 0L then Itv (0L, 0L)
          else Itv (0L, 1L)
      | Top -> Itv (0L, 1L))
  | _ -> (
      match a with
      | Bot -> Bot
      | Itv (l, h) as itv -> (
          match bounds dst_ty with
          | Some (bl, bh) ->
              if l >= bl && h <= bh then itv else top_of dst_ty
          | None -> if l >= 0L then itv else Top)
      | Top -> top_of dst_ty)

(* The int-like instructions of block [bk], ready for [transfer]. *)
let plan_block env cfg num edge_cs bk : step array =
  let steps = ref [] in
  List.iter
    (fun (i : Ir.instr) ->
      if int_like env i.Ir.ity then begin
        let ty = Types.resolve env i.Ir.ity in
        let top = top_of ty in
        let op k = opnd_of env num i.Ir.operands.(k) in
        let int_operand k = int_like env (Ir.type_of_value i.Ir.operands.(k)) in
        let s_op =
          match i.Ir.op with
          | Ir.Binop b -> Sbinop (b, op 0, op 1)
          | Ir.Setcc cmp ->
              if int_operand 0 then Ssetcc (cmp, op 0, op 1)
              else Sfixed (Itv (0L, 1L))
          | Ir.Cast ->
              if int_operand 0 then Scast (op 0) else Sfixed (cast_itv ty Top)
          | Ir.Phi ->
              let arms = ref [] in
              for a = (Array.length i.Ir.operands / 2) - 1 downto 0 do
                let av = i.Ir.operands.(2 * a) in
                let pred = Ir.block_of_value i.Ir.operands.((2 * a) + 1) in
                let pk = Analysis.Cfg.find_index cfg pred in
                if pk >= 0 then begin
                  let cs =
                    Option.value (List.assoc_opt pk edge_cs.(bk)) ~default:[]
                  in
                  let a_refine =
                    List.filter_map
                      (fun c ->
                        if Ir.value_equal c.ca av then Some (c.ceff, c.cob)
                        else if Ir.value_equal c.cb av then
                          Some (swap_cmp c.ceff, c.coa)
                        else None)
                      cs
                  in
                  arms :=
                    { a_val = opnd_of env num av; a_pred = pk; a_refine }
                    :: !arms
                end
              done;
              Sphi (Array.of_list !arms)
          | Ir.Call | Ir.Invoke -> (
              match Ir.call_callee i with
              | Ir.Vfunc g when not (Ir.is_declaration g) -> Scall g.Ir.fid
              | _ -> Sfixed top)
          | _ -> Sfixed top (* loads and anything else we do not model *)
        in
        steps :=
          { s_num = Analysis.Numbering.find num i.Ir.iid; s_ty = ty;
            s_top = top; s_op }
          :: !steps
      end)
    (Analysis.Cfg.block cfg bk).Ir.instrs;
  Array.of_list (List.rev !steps)

let mk_fn_info env (f : Ir.func) { Facts.cfg; dom; num } : fn_info =
  let nb = Analysis.Cfg.n_blocks cfg in
  let edge_cs, guarded = collect_constraints env cfg num in
  let guard =
    Array.init nb (fun s ->
        if s = 0 then Gnone
        else
          let cs p = List.assoc_opt p edge_cs.(s) in
          match cfg.Analysis.Cfg.preds.(s) with
          | [ p ] -> (match cs p with Some l -> Gone l | None -> Gnone)
          | [] -> Gnone
          | ps ->
              (* every predecessor in the [Cfg] is reachable *)
              if List.for_all (fun p -> cs p <> None) ps then
                Gall (List.map (fun p -> Option.get (cs p)) ps)
              else Gnone)
  in
  let rets = ref [] in
  for bk = 0 to nb - 1 do
    List.iter
      (fun (i : Ir.instr) ->
        match i.Ir.op with
        | Ir.Ret when Array.length i.Ir.operands = 1 ->
            rets := (bk, opnd_of env num i.Ir.operands.(0)) :: !rets
        | _ -> ())
      (Analysis.Cfg.block cfg bk).Ir.instrs
  done;
  (* arguments start at the type's top; interprocedural rounds tighten *)
  let vals = Array.make (Analysis.Numbering.size num) Bot in
  List.iteri
    (fun j (a : Ir.arg) ->
      vals.(j) <-
        (match Types.resolve env a.Ir.aty with
        | rty -> top_of rty
        | exception Types.Unresolved _ -> Top))
    f.Ir.fargs;
  {
    fi_f = f;
    fi_cfg = cfg;
    fi_dom = dom;
    fi_num = num;
    fi_loopdepth = Analysis.Loops.depths cfg dom;
    fi_edge_cs = edge_cs;
    fi_guard = guard;
    fi_guarded = guarded;
    fi_vals = vals;
    fi_steps = Array.init nb (plan_block env cfg num edge_cs);
    fi_rets = List.rev !rets;
    fi_ret = Top;
    fi_fp = true;
    fi_sweeps = 0;
    fi_inputs = None;
    fi_flow = [];
    fi_rel_args = Hashtbl.create 8;
    fi_rel_len = Hashtbl.create 8;
    fi_dbms = Hashtbl.create 8;
    fi_rel_dropped = 0;
  }

(* the instruction or argument behind an id, when it is this function's *)
let instr_of fi iid =
  match Analysis.Numbering.find fi.fi_num iid with
  | -1 -> None
  | k -> (
      match Analysis.Numbering.value fi.fi_num k with
      | Ir.Vreg i -> Some i
      | _ -> None)

(* the number of one of the function's own arguments; -1 for any other *)
let arg_num fi aid =
  match Analysis.Numbering.find fi.fi_num aid with
  | k when k < Analysis.Numbering.nargs fi.fi_num -> k
  | _ -> -1

let arg_of fi aid =
  match arg_num fi aid with
  | -1 -> None
  | k -> (
      match Analysis.Numbering.value fi.fi_num k with
      | Ir.Varg a -> Some a
      | _ -> None)

let transfer t fi bk (st : step) : itv =
  let result =
    match st.s_op with
    | Sbinop (op, a, b) ->
        binop_itv st.s_ty op (eval_opnd fi bk a) (eval_opnd fi bk b)
    | Ssetcc (cmp, a, b) ->
        setcc_itv cmp (eval_opnd fi bk a) (eval_opnd fi bk b)
    | Scast a -> cast_itv st.s_ty (eval_opnd fi bk a)
    | Sphi arms ->
        Array.fold_left
          (fun acc arm ->
            let v = eval_opnd fi arm.a_pred arm.a_val in
            join acc
              (List.fold_left
                 (fun cur (cmp, other) -> refine_lhs cmp cur (base fi other))
                 v arm.a_refine))
          Bot arms
    | Scall fid -> (
        match Hashtbl.find_opt t.fns fid with
        | Some gi -> gi.fi_ret
        | None -> st.s_top)
    | Sfixed x -> x
  in
  meet result st.s_top

(* ---------- widening ---------- *)

(* Jump to the nearest of a tiny threshold set {0, type bound}: a lower
   bound that keeps sinking but stays non-negative lands on 0 (the
   ubiquitous counting-loop base) before giving up to the type minimum. *)
let widen ty old cand =
  match (old, cand) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Itv (ol, oh), Itv (nl, nh) -> (
      let lo =
        if nl >= ol then min ol nl
        else if nl >= 0L then 0L
        else match bounds ty with Some (bl, _) -> bl | None -> 0L
      in
      match () with
      | () when nh <= oh -> Itv (lo, oh)
      | () -> (
          match bounds ty with
          | Some (_, bh) -> Itv (lo, bh)
          | None -> Top))

(* ---------- per-function fixpoint ---------- *)

let default_widen_delay = 3
let default_max_sweeps = 40
let default_max_rounds = 3

let analyze_fn t fi =
  let vals = fi.fi_vals and nargs = Analysis.Numbering.nargs fi.fi_num in
  (* every instruction starts at bottom; the arguments are inputs *)
  Array.fill vals nargs (Array.length vals - nargs) Bot;
  let nb = Array.length fi.fi_steps in
  let sweep = ref 0 and changed = ref true in
  while !changed && !sweep < default_max_sweeps do
    incr sweep;
    changed := false;
    for bk = 0 to nb - 1 do
      Array.iter
        (fun st ->
          let nv = transfer t fi bk st in
          let old = vals.(st.s_num) in
          let cand = join old nv in
          let cand =
            if
              (match st.s_op with Sphi _ -> true | _ -> false)
              && fi.fi_loopdepth.(bk) > 0
              && !sweep > default_widen_delay
              && not (itv_equal cand old)
            then widen st.s_ty old cand
            else cand
          in
          if not (itv_equal cand old) then begin
            vals.(st.s_num) <- cand;
            changed := true
          end)
        fi.fi_steps.(bk)
    done
  done;
  fi.fi_sweeps <- !sweep;
  if !changed then begin
    (* budget exhausted: give up soundly, every tracked value to top *)
    fi.fi_fp <- false;
    Ir.iter_instrs
      (fun i ->
        if int_like t.renv i.Ir.ity then
          vals.(Analysis.Numbering.find fi.fi_num i.Ir.iid) <-
            top_of (Types.resolve t.renv i.Ir.ity))
      fi.fi_f
  end
  else begin
    fi.fi_fp <- true;
    (* narrowing: two descending sweeps recover what widening overshot;
       accepting [meet old new] keeps every step sound *)
    for _ = 1 to 2 do
      for bk = 0 to nb - 1 do
        Array.iter
          (fun st ->
            let old = vals.(st.s_num) in
            let nv = meet old (transfer t fi bk st) in
            if not (itv_equal nv old) then vals.(st.s_num) <- nv)
          fi.fi_steps.(bk)
      done
    done
  end;
  (* return range over the reachable return sites *)
  let fr = fi.fi_f.Ir.freturn in
  if not (int_like t.renv fr) then fi.fi_ret <- Top
  else
    fi.fi_ret <-
      clamp (Types.resolve t.renv fr)
        (List.fold_left
           (fun acc (bk, v) -> join acc (eval_opnd fi bk v))
           Bot fi.fi_rets)

(* ---------- relational facts: harvesting and closure ---------- *)

(* Budgets. [rel_max_nodes] bounds every DBM (Floyd–Warshall is cubic in
   it); [rel_max_const] is the widening analogue for relational facts — a
   difference bound whose constant leaves +-2^32 is discarded rather than
   iterated; [rel_rounds_budget] bounds the interprocedural summary
   rounds (stopping anywhere is sound, exactly like the interval rounds). *)
let rel_max_nodes = 48
let rel_max_const = 0x1_0000_0000L
let rel_rounds_budget = 2
let rel_max_args = 8

let neg64 k = if k = Int64.min_int then None else Some (Int64.neg k)

let sym_ok t ty =
  match Types.resolve t.renv ty with
  | Types.Ulong -> false
  | rty -> rty = Types.Bool || Types.is_integer rty
  | exception Types.Unresolved _ -> false

(* View a value as [sym + offset]; constants live on the zero node. *)
let symify t (v : Ir.value) : (sym * int64) option =
  match v with
  | Ir.Vreg i when sym_ok t i.Ir.ity -> Some (Sreg i.Ir.iid, 0L)
  | Ir.Varg a when sym_ok t a.Ir.aty -> Some (Sarg a.Ir.aid, 0L)
  | Ir.Const { cty; ckind } when sym_ok t cty -> (
      match ckind with
      | Ir.Cint n -> Some (Szero, n)
      | Ir.Cbool b -> Some (Szero, if b then 1L else 0L)
      | Ir.Czero -> Some (Szero, 0L)
      | _ -> None)
  | _ -> None

let in_rel_cap c = c >= Int64.neg rel_max_const && c <= rel_max_const

(* Difference facts [sa - sb <= c] carried by one edge constraint. *)
let constr_facts t (c : constr) : (sym * sym * int64) list =
  let cmp = c.ceff in
  match (symify t c.ca, symify t c.cb) with
  | Some (sa, ka), Some (sb, kb) when sa <> sb -> (
      let keep = function
        | Some k when in_rel_cap k -> [ k ]
        | _ -> []
      in
      let d1 = sub64 kb ka (* bound on sa - sb *)
      and d2 = sub64 ka kb (* bound on sb - sa *) in
      let le_ab k = List.map (fun k -> (sa, sb, k)) (keep k)
      and le_ba k = List.map (fun k -> (sb, sa, k)) (keep k) in
      match cmp with
      | Ir.Lt -> le_ab (Option.bind d1 (fun d -> sub64 d 1L))
      | Ir.Le -> le_ab d1
      | Ir.Eq -> le_ab d1 @ le_ba d2
      | Ir.Ge -> le_ba d2
      | Ir.Gt -> le_ba (Option.bind d2 (fun d -> sub64 d 1L))
      | Ir.Ne -> [])
  | _ -> []

let constr_eq a b =
  a.ccmp = b.ccmp && a.ctaken = b.ctaken && Ir.value_equal a.ca b.ca
  && Ir.value_equal a.cb b.cb

(* Edge constraints in force throughout block [bk]: walk the dominator
   chain; a single-predecessor dominator contributes its incoming edge's
   constraints, and a dominating merge contributes the constraints present
   on *every* reachable incoming edge (same argument as [eval_at]). *)
let guard_constrs_at fi bk : constr list =
  let acc = ref [] and s = ref bk in
  while !s <> 0 do
    (match fi.fi_guard.(!s) with
    | Gnone | Gall [] -> ()
    | Gone cs -> acc := !acc @ cs
    | Gall (cs0 :: rest) ->
        let on_every_edge c = List.for_all (List.exists (constr_eq c)) rest in
        acc := !acc @ List.filter on_every_edge cs0);
    s := fi.fi_dom.Analysis.Dominance.idom.(!s)
  done;
  !acc

(* Flow-insensitive difference equations from the SSA body. Each needs a
   no-wrap proof — the mathematical result interval of the operation must
   fit the result type — so the runtime value equals the mathematical one
   and the equation holds on every execution of the definition. Facts are
   tagged with the defining block so queries can restrict themselves to
   definitions that dominate (hence executed before) the query block. *)
let harvest_flow t fi =
  let facts = ref [] in
  let cfg = fi.fi_cfg in
  let nb = Analysis.Cfg.n_blocks cfg in
  for bk = 0 to nb - 1 do
    let b = Analysis.Cfg.block cfg bk in
    if Analysis.Cfg.is_reachable cfg b then
      List.iter
        (fun (i : Ir.instr) ->
          if sym_ok t i.Ir.ity then begin
            let ity = Types.resolve t.renv i.Ir.ity in
            let si = Sreg i.Ir.iid in
            let push sa sb c =
              if sa <> sb && in_rel_cap c then
                facts := (bk, sa, sb, c) :: !facts
            in
            (* si - s lies in [lo, hi] *)
            let bracket s lo hi =
              if s <> Szero && s <> si then begin
                push si s hi;
                match neg64 lo with Some c -> push s si c | None -> ()
              end
            in
            let equate v =
              match symify t v with
              | Some (s, k) -> bracket s k k
              | None -> ()
            in
            match i.Ir.op with
            | Ir.Binop Ir.Add -> (
                let x = i.Ir.operands.(0) and y = i.Ir.operands.(1) in
                match (lookup_base t fi x, lookup_base t fi y, bounds ity) with
                | Itv (xl, xh), Itv (yl, yh), Some (tl, th) -> (
                    match (add64 xl yl, add64 xh yh) with
                    | Some l, Some h when l >= tl && h <= th ->
                        (* i = x + y exactly: i - x in [yl,yh], i - y in
                           [xl,xh] *)
                        (match symify t x with
                        | Some (sx, 0L) -> bracket sx yl yh
                        | _ -> ());
                        (match symify t y with
                        | Some (sy, 0L) -> bracket sy xl xh
                        | _ -> ())
                    | _ -> ())
                | _ -> ())
            | Ir.Binop Ir.Sub -> (
                let x = i.Ir.operands.(0) and y = i.Ir.operands.(1) in
                match (lookup_base t fi x, lookup_base t fi y, bounds ity) with
                | Itv (xl, xh), Itv (yl, yh), Some (tl, th) -> (
                    match (sub64 xl yh, sub64 xh yl) with
                    | Some l, Some h when l >= tl && h <= th -> (
                        (* i = x - y exactly: i - x in [-yh,-yl] *)
                        match symify t x with
                        | Some (sx, 0L) -> (
                            match (neg64 yh, neg64 yl) with
                            | Some nl, Some nh -> bracket sx nl nh
                            | _ -> ())
                        | _ -> ())
                    | _ -> ())
                | _ -> ())
            | Ir.Cast -> (
                let x = i.Ir.operands.(0) in
                match (lookup_base t fi x, bounds ity) with
                | Itv (l, h), Some (tl, th) when l >= tl && h <= th ->
                    (* value-preserving cast: i = x *)
                    equate x
                | _ -> ())
            | Ir.Phi -> (
                let arms =
                  List.filter
                    (fun (_, (p : Ir.block)) ->
                      Analysis.Cfg.is_reachable cfg p)
                    (Ir.phi_incoming i)
                in
                match arms with
                | (v0, _) :: rest
                  when List.for_all
                         (fun (v, _) -> Ir.value_equal v v0)
                         rest ->
                    equate v0
                | _ -> ())
            | _ -> ()
          end)
        b.Ir.instrs
  done;
  fi.fi_flow <- List.rev !facts

(* ---------- DBM construction and closure ---------- *)

let dominates_blk fi a b = Analysis.Dominance.dominates_idx fi.fi_dom a b

(* The closed DBM in force at block [bk]: guard facts from dominating
   edges, this function's interprocedural argument facts, flow equations
   whose definition dominates [bk], and unary interval bounds as
   differences against the zero node — then Floyd–Warshall closure with
   overflow-saturating path sums. Cached per block; caches are reset
   whenever the underlying facts change. *)
let dbm_at t fi bk : dbm =
  match Hashtbl.find_opt fi.fi_dbms bk with
  | Some d -> d
  | None ->
      let guard_facts =
        List.concat_map (constr_facts t) (guard_constrs_at fi bk)
      in
      let arg_facts =
        Hashtbl.fold
          (fun (a, b) c acc -> (Sarg a, Sarg b, c) :: acc)
          fi.fi_rel_args []
        |> List.sort compare
      in
      let len_facts =
        Hashtbl.fold
          (fun (a, p) c acc -> (Sarg a, Slen p, c) :: acc)
          fi.fi_rel_len []
        |> List.sort compare
      in
      let flow =
        List.filter_map
          (fun (dk, sa, sb, c) ->
            if dominates_blk fi dk bk then Some (sa, sb, c) else None)
          fi.fi_flow
      in
      (* keep only flow equations that can link up with the symbols
         already in play; three passes let short chains attach *)
      let seen : (sym, unit) Hashtbl.t = Hashtbl.create 32 in
      Hashtbl.replace seen Szero ();
      let note (sa, sb, _) =
        Hashtbl.replace seen sa ();
        Hashtbl.replace seen sb ()
      in
      List.iter note guard_facts;
      List.iter note arg_facts;
      List.iter note len_facts;
      let relevant = ref [] and rest = ref flow in
      for _pass = 1 to 3 do
        let keep, drop =
          List.partition
            (fun (sa, sb, _) -> Hashtbl.mem seen sa || Hashtbl.mem seen sb)
            !rest
        in
        List.iter note keep;
        relevant := !relevant @ keep;
        rest := drop
      done;
      let facts = guard_facts @ arg_facts @ len_facts @ !relevant in
      (* assign nodes in first-seen order, zero node first, up to the cap *)
      let dix : (sym, int) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.replace dix Szero 0;
      let order = ref [ Szero ] and n = ref 1 in
      let node s =
        match Hashtbl.find_opt dix s with
        | Some k -> Some k
        | None ->
            if !n >= rel_max_nodes then None
            else begin
              Hashtbl.replace dix s !n;
              order := s :: !order;
              let k = !n in
              incr n;
              Some k
            end
      in
      let kept = ref [] in
      List.iter
        (fun (sa, sb, c) ->
          match (node sa, node sb) with
          | Some i, Some j -> kept := (i, j, c) :: !kept
          | _ -> fi.fi_rel_dropped <- fi.fi_rel_dropped + 1)
        facts;
      let nn = !n in
      let dsyms = Array.make nn Szero in
      List.iteri (fun k s -> dsyms.(nn - 1 - k) <- s) !order;
      let dmat = Array.init nn (fun _ -> Array.make nn None) in
      for k = 0 to nn - 1 do
        dmat.(k).(k) <- Some 0L
      done;
      let tighten i j c =
        match dmat.(i).(j) with
        | Some c0 when c0 <= c -> ()
        | _ -> dmat.(i).(j) <- Some c
      in
      List.iter (fun (i, j, c) -> tighten i j c) (List.rev !kept);
      (* unary interval seeds, only for values defined above [bk] *)
      Array.iteri
        (fun k s ->
          let seed v =
            match eval_at t fi bk v with
            | Itv (l, h) -> (
                tighten k 0 h;
                match neg64 l with Some c -> tighten 0 k c | None -> ())
            | _ -> ()
          in
          match s with
          | Sreg iid -> (
              match instr_of fi iid with
              | Some i -> (
                  match i.Ir.iparent with
                  | Some b
                    when Analysis.Cfg.is_reachable fi.fi_cfg b
                         && dominates_blk fi
                              (Analysis.Cfg.index_of fi.fi_cfg b)
                              bk ->
                      seed (Ir.Vreg i)
                  | _ -> ())
              | None -> ())
          | Sarg aid -> (
              match arg_of fi aid with
              | Some a -> seed (Ir.Varg a)
              | None -> ())
          | Szero | Slen _ -> ())
        dsyms;
      for mid = 0 to nn - 1 do
        for i = 0 to nn - 1 do
          match dmat.(i).(mid) with
          | None -> ()
          | Some a ->
              for j = 0 to nn - 1 do
                match dmat.(mid).(j) with
                | None -> ()
                | Some b -> (
                    match add64 a b with
                    | Some c -> tighten i j c
                    | None -> () (* path sum overflows: drop that path *))
              done
        done
      done;
      let d = { dsyms; dix; dmat } in
      Hashtbl.replace fi.fi_dbms bk d;
      d

(* Tightest proven bound on sym_a - sym_b; [Some 0] when they are the
   same symbol even if the DBM never saw it. *)
let dbm_dist (d : dbm) sa sb : int64 option =
  if sa = sb then Some 0L
  else
    match (Hashtbl.find_opt d.dix sa, Hashtbl.find_opt d.dix sb) with
    | Some i, Some j -> d.dmat.(i).(j)
    | _ -> None

(* ---------- interprocedural relational rounds ---------- *)

(* Length (in callee elements) of the object behind a pointer passed at a
   call site, as a symbol of the *caller*: a direct alloca contributes its
   element count, a forwarded pointer argument contributes the caller's
   own length symbol (linking chains of calls across rounds). Only exact
   base pointers with a matching element size qualify. *)
let rec caller_len t (v : Ir.value) (esc : int) : (sym * int64) option =
  match v with
  | Ir.Vreg ({ Ir.op = Ir.Cast; _ } as i) -> caller_len t i.Ir.operands.(0) esc
  | Ir.Vreg ({ Ir.op = Ir.Alloca; _ } as i) -> (
      match Types.resolve t.renv i.Ir.ity with
      | Types.Pointer elem -> (
          match Vmem.Layout.size_of t.rlt elem with
          | es when es = esc -> (
              if Array.length i.Ir.operands = 0 then Some (Szero, 1L)
              else if Array.length i.Ir.operands = 1 then
                symify t i.Ir.operands.(0)
              else None)
          | _ -> None
          | exception (Invalid_argument _ | Types.Unresolved _) -> None)
      | _ -> None
      | exception Types.Unresolved _ -> None)
  | Ir.Varg a -> (
      match Types.resolve t.renv a.Ir.aty with
      | Types.Pointer elem -> (
          match Vmem.Layout.size_of t.rlt elem with
          | es when es = esc -> Some (Slen a.Ir.aid, 0L)
          | _ -> None
          | exception (Invalid_argument _ | Types.Unresolved _) -> None)
      | _ -> None
      | exception Types.Unresolved _ -> None)
  | _ -> None

type rel_cand = Cargs of int * int | Clen of int * int (* callee arg ids *)
type rel_state = Unseen | Known of int64 | Dead

(* Element size of a pointer-typed formal, if resolvable. *)
let formal_elem_size t (a : Ir.arg) : int option =
  match Types.resolve t.renv a.Ir.aty with
  | Types.Pointer elem -> (
      try Some (Vmem.Layout.size_of t.rlt elem)
      with Invalid_argument _ | Types.Unresolved _ -> None)
  | _ -> None
  | exception Types.Unresolved _ -> None

(* Descending relational rounds over the same visibility rule as the
   interval rounds: a callee that is not [main] and not address-taken has
   every call site in view, so the max-join of a per-site proven bound is
   a sound flow-insensitive fact about its formals. Each round proves its
   facts from the previous round's (sound) facts, so installed facts are
   permanently sound and are only ever tightened ([min]), never removed —
   a candidate that goes unprovable at a new call site simply stops
   improving. DBM caches are reset whenever the fact base changes. *)
let compute_relations t cg =
  Hashtbl.iter (fun _ fi -> harvest_flow t fi) t.fns;
  let refinable (f : Ir.func) =
    (not (Ir.is_declaration f))
    && f.Ir.fname <> "main"
    && (not (Analysis.Callgraph.is_address_taken cg f))
    && List.length f.Ir.fargs <= rel_max_args
  in
  let cands : (int, (rel_cand * rel_state ref) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (g : Ir.func) ->
      if refinable g && Hashtbl.mem t.fns g.Ir.fid then begin
        let cl = ref [] in
        List.iter
          (fun (a : Ir.arg) ->
            if sym_ok t a.Ir.aty then
              List.iter
                (fun (b : Ir.arg) ->
                  if b.Ir.aid <> a.Ir.aid then
                    if sym_ok t b.Ir.aty then
                      cl := (Cargs (a.Ir.aid, b.Ir.aid), ref Unseen) :: !cl
                    else if formal_elem_size t b <> None then
                      cl := (Clen (a.Ir.aid, b.Ir.aid), ref Unseen) :: !cl)
                g.Ir.fargs)
          g.Ir.fargs;
        if !cl <> [] then Hashtbl.replace cands g.Ir.fid (List.rev !cl)
      end)
    t.rm.Ir.funcs;
  let round = ref 0 and changed = ref true in
  while !changed && !round < rel_rounds_budget do
    incr round;
    changed := false;
    Hashtbl.iter (fun _ fi -> Hashtbl.reset fi.fi_dbms) t.fns;
    Hashtbl.iter
      (fun _ cl -> List.iter (fun (_, st) -> st := Unseen) cl)
      cands;
    List.iter
      (fun (caller : Ir.func) ->
        match Hashtbl.find_opt t.fns caller.Ir.fid with
        | None -> ()
        | Some cfi ->
            Ir.iter_instrs
              (fun i ->
                match i.Ir.op with
                | Ir.Call | Ir.Invoke -> (
                    match Ir.call_callee i with
                    | Ir.Vfunc g when Hashtbl.mem cands g.Ir.fid -> (
                        match i.Ir.iparent with
                        | Some b when Analysis.Cfg.is_reachable cfi.fi_cfg b
                          ->
                            let bk =
                              Analysis.Cfg.index_of cfi.fi_cfg b
                            in
                            let actuals =
                              Array.of_list (Ir.call_args i)
                            in
                            let formals = Array.of_list g.Ir.fargs in
                            let actual_of aid =
                              let r = ref None in
                              Array.iteri
                                (fun k (a : Ir.arg) ->
                                  if
                                    a.Ir.aid = aid
                                    && k < Array.length actuals
                                  then r := Some actuals.(k))
                                formals;
                              !r
                            in
                            let formal_of aid =
                              List.find_opt
                                (fun (a : Ir.arg) -> a.Ir.aid = aid)
                                g.Ir.fargs
                            in
                            let d = dbm_at t cfi bk in
                            List.iter
                              (fun (c, st) ->
                                if !st <> Dead then
                                  let site_bound =
                                    match c with
                                    | Cargs (aj, ak) -> (
                                        match
                                          (actual_of aj, actual_of ak)
                                        with
                                        | Some vj, Some vk -> (
                                            match
                                              (symify t vj, symify t vk)
                                            with
                                            | Some (sj, kj), Some (sk, kk)
                                              -> (
                                                match dbm_dist d sj sk with
                                                | Some dd ->
                                                    Option.bind
                                                      (sub64 kj kk)
                                                      (add64 dd)
                                                | None -> None)
                                            | _ -> None)
                                        | _ -> None)
                                    | Clen (ak, ap) -> (
                                        match
                                          ( actual_of ak,
                                            actual_of ap,
                                            Option.bind (formal_of ap)
                                              (formal_elem_size t) )
                                        with
                                        | Some vk, Some vp, Some esc -> (
                                            match
                                              ( symify t vk,
                                                caller_len t vp esc )
                                            with
                                            | ( Some (sk, kk),
                                                Some (slen, loff) ) -> (
                                                match
                                                  dbm_dist d sk slen
                                                with
                                                | Some dd ->
                                                    Option.bind
                                                      (sub64 kk loff)
                                                      (add64 dd)
                                                | None -> None)
                                            | _ -> None)
                                        | _ -> None)
                                  in
                                  match site_bound with
                                  | Some c0 when in_rel_cap c0 ->
                                      st :=
                                        (match !st with
                                        | Unseen -> Known c0
                                        | Known c1 -> Known (max c0 c1)
                                        | Dead -> Dead)
                                  | _ -> st := Dead)
                              (Hashtbl.find cands g.Ir.fid)
                        | _ -> () (* unreachable call site: never runs *))
                    | _ -> ())
                | _ -> ())
              caller)
      t.rm.Ir.funcs;
    List.iter
      (fun (g : Ir.func) ->
        match Hashtbl.find_opt cands g.Ir.fid with
        | None -> ()
        | Some cl ->
            let fi = Hashtbl.find t.fns g.Ir.fid in
            List.iter
              (fun (c, st) ->
                match !st with
                | Known c0 ->
                    let tbl, key =
                      match c with
                      | Cargs (a, b) -> (fi.fi_rel_args, (a, b))
                      | Clen (a, p) -> (fi.fi_rel_len, (a, p))
                    in
                    let nv =
                      match Hashtbl.find_opt tbl key with
                      | Some c1 -> min c0 c1
                      | None -> c0
                    in
                    if Hashtbl.find_opt tbl key <> Some nv then begin
                      Hashtbl.replace tbl key nv;
                      changed := true
                    end
                | Unseen | Dead -> ())
              cl)
      t.rm.Ir.funcs
  done;
  (* the fact base is final now; drop DBMs built from interim facts *)
  Hashtbl.iter (fun _ fi -> Hashtbl.reset fi.fi_dbms) t.fns

(* ---------- interprocedural driver ---------- *)

let scc_iter_budget = 5

(* [cg] is [m]'s call graph, computed here when the caller has none to
   share. *)
let compute ?cg ?(facts = Facts.create ()) (m : Ir.modl) : t =
  let renv = Ir.type_env m in
  let t =
    {
      rm = m;
      renv;
      rlt = Vmem.Layout.for_module m;
      fns = Hashtbl.create 16;
      rounds = 1;
    }
  in
  List.iter
    (fun (f : Ir.func) ->
      if not (Ir.is_declaration f) then
        Hashtbl.replace t.fns f.Ir.fid (mk_fn_info renv f (Facts.get facts f)))
    m.Ir.funcs;
  let cg =
    match cg with Some cg -> cg | None -> Analysis.Callgraph.compute m
  in
  let sccs =
    Analysis.Callgraph.sccs cg
    |> List.map (List.filter (fun f -> not (Ir.is_declaration f)))
    |> List.filter (fun l -> l <> [])
  in
  let fn_inputs fi =
    ( List.mapi (fun j _ -> Some fi.fi_vals.(j)) fi.fi_f.Ir.fargs,
      List.filter_map
        (fun (g : Ir.func) ->
          Option.map (fun gi -> gi.fi_ret) (Hashtbl.find_opt t.fns g.Ir.fid))
        (Analysis.Callgraph.callees cg fi.fi_f) )
  in
  (* one bottom-up pass: per-SCC return-range fixpoints, callees final *)
  let run_bottom_up () =
    List.iter
      (fun scc ->
        let cyclic =
          match scc with
          | [ f ] ->
              List.exists (fun g -> g == f) (Analysis.Callgraph.callees cg f)
          | _ -> true
        in
        let fis = List.map (fun f -> Hashtbl.find t.fns f.Ir.fid) scc in
        if not cyclic then
          (* [analyze_fn] starts from an empty table and reads nothing but these
             inputs, so rerunning it on the same ones in a later round
             would reproduce what it left behind *)
          List.iter
            (fun fi ->
              let inputs = Some (fn_inputs fi) in
              if fi.fi_inputs <> inputs then begin
                analyze_fn t fi;
                fi.fi_inputs <- inputs
              end)
            fis
        else begin
          List.iter (fun fi -> fi.fi_ret <- Bot) fis;
          let stable = ref false and iter = ref 0 in
          while (not !stable) && !iter < scc_iter_budget do
            incr iter;
            stable := true;
            List.iter
              (fun fi ->
                let old = fi.fi_ret in
                analyze_fn t fi;
                if fi.fi_ret <> old then stable := false)
              fis
          done;
          if not !stable then begin
            (* recursion would not settle: returns to top, then one more
               pass so every member's internal ranges are computed under
               those sound assumptions *)
            List.iter
              (fun fi ->
                fi.fi_fp <- false;
                fi.fi_ret <-
                  (if int_like renv fi.fi_f.Ir.freturn then
                     top_of (Types.resolve renv fi.fi_f.Ir.freturn)
                   else Top))
              fis;
            List.iter
              (fun fi ->
                let keep = fi.fi_ret in
                analyze_fn t fi;
                fi.fi_ret <- keep;
                fi.fi_fp <- false)
              fis
          end
        end)
      sccs
  in
  run_bottom_up ();
  (* descending argument rounds: join the ranges flowing into every
     visible call site; only functions whose call sites are all visible
     (not main, not address-taken) may be tightened. Each round's input
     is sound, so its output is too — stopping anywhere is sound. *)
  let refinable (f : Ir.func) =
    (not (Ir.is_declaration f))
    && f.Ir.fname <> "main"
    && not (Analysis.Callgraph.is_address_taken cg f)
  in
  let continue_ = ref true in
  while !continue_ && t.rounds < default_max_rounds do
    let joins : (int, itv array) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (f : Ir.func) ->
        if refinable f then
          Hashtbl.replace joins f.Ir.fid
            (Array.make (List.length f.Ir.fargs) Bot))
      m.Ir.funcs;
    List.iter
      (fun (caller : Ir.func) ->
        match Hashtbl.find_opt t.fns caller.Ir.fid with
        | None -> ()
        | Some cfi ->
            Ir.iter_instrs
              (fun i ->
                match i.Ir.op with
                | Ir.Call | Ir.Invoke -> (
                    match Ir.call_callee i with
                    | Ir.Vfunc g when Hashtbl.mem joins g.Ir.fid -> (
                        match i.Ir.iparent with
                        | Some b
                          when Analysis.Cfg.is_reachable cfi.fi_cfg b ->
                            let bk = Analysis.Cfg.index_of cfi.fi_cfg b in
                            let arr = Hashtbl.find joins g.Ir.fid in
                            List.iteri
                              (fun j av ->
                                if j < Array.length arr then
                                  arr.(j) <-
                                    join arr.(j) (eval_at t cfi bk av))
                              (Ir.call_args i)
                        | _ -> () (* unreachable call site: never runs *))
                    | _ -> ())
                | _ -> ())
              caller)
      m.Ir.funcs;
    let changed = ref false in
    List.iter
      (fun (f : Ir.func) ->
        match Hashtbl.find_opt joins f.Ir.fid with
        | None -> ()
        | Some arr ->
            let fi = Hashtbl.find t.fns f.Ir.fid in
            List.iteri
              (fun j (a : Ir.arg) ->
                if int_like renv a.Ir.aty then
                  match arr.(j) with
                  | Bot -> () (* never called: keep the conservative top *)
                  | jv ->
                      let old = fi.fi_vals.(j) in
                      let nv =
                        meet old (clamp (Types.resolve renv a.Ir.aty) jv)
                      in
                      if nv <> old then begin
                        fi.fi_vals.(j) <- nv;
                        changed := true
                      end)
              f.Ir.fargs)
      m.Ir.funcs;
    if !changed then begin
      t.rounds <- t.rounds + 1;
      run_bottom_up ()
    end
    else continue_ := false
  done;
  (* intervals are final: harvest flow equations and run the relational
     summary rounds on top of them *)
  compute_relations t cg;
  t

(* ---------- queries ---------- *)

let fn_of t (f : Ir.func) = Hashtbl.find_opt t.fns f.Ir.fid

(* Range of operand [v] as observed at instruction [i] of [f], including
   every branch-condition refinement that dominates the site. [Bot] for a
   site that can never execute. *)
let range_at t (f : Ir.func) (i : Ir.instr) (v : Ir.value) : itv =
  match fn_of t f with
  | None -> Top
  | Some fi -> (
      match i.Ir.iparent with
      | Some b when Analysis.Cfg.is_reachable fi.fi_cfg b ->
          eval_at t fi (Analysis.Cfg.index_of fi.fi_cfg b) v
      | Some _ -> Bot (* unreachable block: the access never happens *)
      | None -> lookup_base t fi v)

let instr_range t (f : Ir.func) (i : Ir.instr) : itv =
  match fn_of t f with
  | None -> Top
  | Some fi -> (
      if not (int_like t.renv i.Ir.ity) then Top
      else
        match Analysis.Numbering.find fi.fi_num i.Ir.iid with
        | -1 -> Bot
        | k -> fi.fi_vals.(k))

let arg_range t (f : Ir.func) (a : Ir.arg) : itv =
  match fn_of t f with
  | None -> Top
  | Some fi -> (
      match arg_num fi a.Ir.aid with -1 -> Top | k -> fi.fi_vals.(k))

let ret_range t (f : Ir.func) : itv =
  match fn_of t f with None -> Top | Some fi -> fi.fi_ret

let fixpoint_reached t =
  Hashtbl.fold (fun _ fi acc -> acc && fi.fi_fp) t.fns true

let total_sweeps t = Hashtbl.fold (fun _ fi acc -> acc + fi.fi_sweeps) t.fns 0
let rounds t = t.rounds
let env t = t.renv
let modl t = t.rm

(* ---------- relational queries (for the checker and the CLIs) ---------- *)

(* The symbol behind a value, when it has one of its own (constants live
   on the zero node and are better served by the interval engine). *)
let value_sym t (v : Ir.value) : sym option =
  match symify t v with Some (s, _) when s <> Szero -> Some s | _ -> None

let arg_len_sym (a : Ir.arg) : sym = Slen a.Ir.aid
let zero_sym : sym = Szero

let rel_site t (f : Ir.func) (i : Ir.instr) : (fn_info * int) option =
  match fn_of t f with
  | None -> None
  | Some fi -> (
      match i.Ir.iparent with
      | Some b when Analysis.Cfg.is_reachable fi.fi_cfg b ->
          Some (fi, Analysis.Cfg.index_of fi.fi_cfg b)
      | _ -> None)

(* Tightest proven c with [v <= target + c] at instruction [i]. *)
let rel_upper_at t (f : Ir.func) (i : Ir.instr) (v : Ir.value) (target : sym)
    : int64 option =
  match rel_site t f i with
  | None -> None
  | Some (fi, bk) -> (
      match symify t v with
      | Some (s, off) -> (
          match dbm_dist (dbm_at t fi bk) s target with
          | Some c -> add64 c off
          | None -> None)
      | None -> None)

(* Tightest proven c with [v >= target + c] at instruction [i]. *)
let rel_lower_at t (f : Ir.func) (i : Ir.instr) (v : Ir.value) (target : sym)
    : int64 option =
  match rel_site t f i with
  | None -> None
  | Some (fi, bk) -> (
      match symify t v with
      | Some (s, off) -> (
          match dbm_dist (dbm_at t fi bk) target s with
          | Some d -> sub64 off d
          | None -> None)
      | None -> None)

(* Build the DBM at every reachable block containing a memory access —
   exactly what the oob checker will consult; the bench times this on a
   fresh analysis to isolate the relational cost. *)
let force_relations t =
  List.iter
    (fun (f : Ir.func) ->
      match Hashtbl.find_opt t.fns f.Ir.fid with
      | None -> ()
      | Some fi ->
          let nb = Analysis.Cfg.n_blocks fi.fi_cfg in
          for bk = 0 to nb - 1 do
            let b = Analysis.Cfg.block fi.fi_cfg bk in
            if
              Analysis.Cfg.is_reachable fi.fi_cfg b
              && List.exists
                   (fun (i : Ir.instr) ->
                     match i.Ir.op with
                     | Ir.Load | Ir.Store | Ir.Getelementptr -> true
                     | _ -> false)
                   b.Ir.instrs
            then ignore (dbm_at t fi bk)
          done)
    t.rm.Ir.funcs

(* Harvested and proven relational facts, module-wide: flow equations,
   interprocedural argument facts, and guard difference facts over every
   constrained edge. *)
let rel_fact_count t =
  List.fold_left
    (fun acc (f : Ir.func) ->
      match Hashtbl.find_opt t.fns f.Ir.fid with
      | None -> acc
      | Some fi ->
          let guards =
            Array.fold_left
              (List.fold_left (fun acc (_, cs) ->
                   acc + List.length (List.concat_map (constr_facts t) cs)))
              0 fi.fi_edge_cs
          in
          acc + List.length fi.fi_flow + Hashtbl.length fi.fi_rel_args
          + Hashtbl.length fi.fi_rel_len + guards)
    0 t.rm.Ir.funcs

(* No DBM anywhere hit the node cap: every harvested fact was closed. *)
let rel_within_budget t =
  Hashtbl.fold (fun _ fi acc -> acc && fi.fi_rel_dropped = 0) t.fns true

(* ---------- rendering (llva_lint --ranges) ---------- *)

let render_func t (f : Ir.func) : string list =
  match fn_of t f with
  | None -> []
  | Some fi ->
      let lines = ref [] in
      let push s = lines := s :: !lines in
      let args =
        String.concat ", "
          (List.map
             (fun (a : Ir.arg) ->
               let n = if a.Ir.aname = "" then "<arg>" else "%" ^ a.Ir.aname in
               if int_like t.renv a.Ir.aty then
                 Printf.sprintf "%s %s" n (to_string (arg_range t f a))
               else n)
             f.Ir.fargs)
      in
      let ret =
        if int_like t.renv f.Ir.freturn then
          " -> " ^ to_string fi.fi_ret
        else ""
      in
      push (Printf.sprintf "%%%s(%s)%s%s" f.Ir.fname args ret
              (if fi.fi_fp then "" else "   ; widening budget exhausted"));
      Analysis.Cfg.iter_rpo
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              if i.Ir.iname <> "" && int_like t.renv i.Ir.ity then
                push
                  (Printf.sprintf "  %%%s:%%%s = %s %s" b.Ir.bname i.Ir.iname
                     (Ir.opcode_name i.Ir.op)
                     (to_string (instr_range t f i))))
            b.Ir.instrs)
        fi.fi_cfg;
      List.rev !lines

let render t : string list =
  List.concat_map
    (fun (f : Ir.func) ->
      if Ir.is_declaration f then [] else render_func t f)
    t.rm.Ir.funcs

(* ---------- relations table (llva_lint --relations) ---------- *)

let sym_name fi = function
  | Szero -> "0"
  | Sreg iid -> (
      match instr_of fi iid with
      | Some i when i.Ir.iname <> "" -> "%" ^ i.Ir.iname
      | _ -> Printf.sprintf "#%d" iid)
  | Sarg aid -> (
      match arg_of fi aid with
      | Some a when a.Ir.aname <> "" -> "%" ^ a.Ir.aname
      | _ -> Printf.sprintf "arg#%d" aid)
  | Slen aid -> (
      match arg_of fi aid with
      | Some a when a.Ir.aname <> "" -> Printf.sprintf "len(%%%s)" a.Ir.aname
      | _ -> Printf.sprintf "len(arg#%d)" aid)

let render_relations t : string list =
  let lines = ref [] and total = ref 0 in
  let push s = lines := s :: !lines in
  List.iter
    (fun (f : Ir.func) ->
      match Hashtbl.find_opt t.fns f.Ir.fid with
      | None -> ()
      | Some fi ->
          let fact (sa, sb, c) =
            Printf.sprintf "  %s - %s <= %Ld" (sym_name fi sa) (sym_name fi sb)
              c
          in
          let summary =
            (Hashtbl.fold
               (fun (a, b) c acc -> ((a, b), (Sarg a, Sarg b, c)) :: acc)
               fi.fi_rel_args []
            @ Hashtbl.fold
                (fun (a, p) c acc -> ((a, p), (Sarg a, Slen p, c)) :: acc)
                fi.fi_rel_len [])
            |> List.sort compare |> List.map snd
          in
          let edges =
            List.concat
              (List.mapi
                 (fun sk l -> List.map (fun (pk, cs) -> ((pk, sk), cs)) l)
                 (Array.to_list fi.fi_edge_cs))
            |> List.sort compare
          in
          let guard =
            List.concat_map
              (fun ((pk, sk), cs) ->
                List.map
                  (fun (sa, sb, c) ->
                    Printf.sprintf "  %s->%s:%s - %s <= %Ld"
                      (Analysis.Cfg.block fi.fi_cfg pk).Ir.bname
                      (Analysis.Cfg.block fi.fi_cfg sk).Ir.bname
                      (sym_name fi sa) (sym_name fi sb) c)
                  (List.concat_map (constr_facts t) cs))
              edges
          in
          let flow =
            List.map (fun (_, sa, sb, c) -> fact (sa, sb, c)) fi.fi_flow
          in
          let all = List.map fact summary @ guard @ flow in
          if all <> [] then begin
            total := !total + List.length all;
            push (Printf.sprintf "%%%s:" f.Ir.fname);
            List.iter push all
          end)
    t.rm.Ir.funcs;
  push (Printf.sprintf "%d relational facts" !total);
  List.rev !lines

(* Proven argument facts keyed by argument position, for [Summaries] —
   the checker consults them to decide which pointer arguments have a
   usable length symbol at all. *)
let export_relations t : (string * (int * Summaries.arg_bound) list) list =
  List.filter_map
    (fun (f : Ir.func) ->
      match Hashtbl.find_opt t.fns f.Ir.fid with
      | None -> None
      | Some fi ->
          let pos : (int, int) Hashtbl.t = Hashtbl.create 8 in
          List.iteri
            (fun k (a : Ir.arg) -> Hashtbl.replace pos a.Ir.aid k)
            f.Ir.fargs;
          let p aid = Hashtbl.find_opt pos aid in
          let facts =
            (Hashtbl.fold
               (fun (a, b) c acc ->
                 match (p a, p b) with
                 | Some ja, Some jb -> (ja, Summaries.Ble_arg (jb, c)) :: acc
                 | _ -> acc)
               fi.fi_rel_args []
            @ Hashtbl.fold
                (fun (a, pp) c acc ->
                  match (p a, p pp) with
                  | Some ja, Some jp -> (ja, Summaries.Ble_len (jp, c)) :: acc
                  | _ -> acc)
                fi.fi_rel_len [])
            |> List.sort compare
          in
          if facts = [] then None else Some (f.Ir.fname, facts))
    t.rm.Ir.funcs
