(* The verification oracle.

   A candidate rewrite is admitted only if it is observationally
   equivalent to the original window *on the backend's own simulator*:
   same final register file, same flags, same frame-slot contents, for
   every test vector. Vectors are deterministic — a fixed boundary-value
   set crossed over the first two inputs plus splitmix64-seeded random
   tails — so two searches over the same module produce byte-identical
   tables ([parallel_identical]-style determinism).

   Windows are executed in *concrete* form: the caller instantiates
   canonical slot variables to real, distinct, 8-aligned BP/FP-relative
   displacements first (lib/{x86lite,sparclite}/compile.ml [concretize]).
   Execution happens against a scratch stack region well below
   [Vmem.Memory.stack_top]; any fault, trap, runaway or non-straight-line
   instruction makes the window unverifiable (the window is skipped when
   it is the left-hand side, the candidate rejected otherwise). *)

(* ---------- deterministic test vectors ---------- *)

let splitmix64 (seed : int64) : int64 =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix k = splitmix64 (Int64.of_int ((k * 0x9E37) + 0x5EED))

let boundaries =
  [|
    0L; 1L; 2L; 3L; 7L; 8L; 15L; 16L; 63L; 64L; 255L; 256L;
    0x7FL; 0x80L; 0xFFL; 0x100L; 0x7FFFL; 0x8000L; 0xFFFFL;
    0x7FFF_FFFFL; 0x8000_0000L; 0xFFFF_FFFFL; 0x1_0000_0000L;
    Int64.max_int; Int64.min_int; -1L; -2L; -256L; -65536L;
  |]

(* [screen] is a cheap prefix used to discard most candidates before the
   [full] set runs: 6 random vectors (which also cycle through every
   flag variant once). [full] adds the boundary cross-product on the
   first two inputs plus more random tails. *)
let vectors ~n : int64 array list * int64 array list =
  let rnd tag = Array.init n (fun j -> mix ((tag * 97) + j)) in
  let screen = List.init 6 (fun k -> rnd k) in
  let nb = Array.length boundaries in
  let cross =
    if n = 0 then [ [||] ]
    else if n = 1 then Array.to_list (Array.map (fun v -> [| v |]) boundaries)
    else
      List.concat
        (List.init nb (fun i ->
             List.init nb (fun j ->
                 Array.init n (fun t ->
                     if t = 0 then boundaries.(i)
                     else if t = 1 then boundaries.(j)
                     else mix ((((i * nb) + j) * 13) + t)))))
  in
  let extra = List.init 24 (fun k -> rnd (1000 + k)) in
  (screen, screen @ cross @ extra)

(* ---------- per-target harnesses ---------- *)

(* The two harnesses are structurally identical; they differ in the
   simulator, the flags type and the register file shape, which OCaml's
   lack of backend polymorphism makes simplest to just write twice.

   A window is prepared once (code array built, straight-line checked)
   and then run once per test vector on a single reused simulator state.
   An observation is the whole register file — integer registers and
   flag operands — plus the flag kind and the slot contents; a candidate
   is compared against it in place. *)

module X86 = struct
  open X86lite
  open X86lite.X86

  type h = { st : Sim.state; base : int64 }

  let make () =
    let m = Llva.Ir.mk_module ~name:"superopt-oracle" () in
    let image = Vmem.Image.load m in
    let cmod = { Compile.cm = m; image; funcs = Hashtbl.create 1 } in
    (* scratch frame area: far enough below the stack top that negative
       slot displacements and the probe SP never leave mapped,
       non-null address space *)
    { st = Sim.create cmod; base = Int64.sub Vmem.Memory.stack_top 65536L }

  (* Only straight-line, trap-free instructions are executable as
     windows; anything else makes the window unverifiable. *)
  let straightline = function
    | Mov _ | Alu _ | Shift _ | Ext _ | Cmp _ | Setcc _ -> true
    | _ -> false

  let prepare (w : instr list) : Compile.cfunc =
    List.iter
      (fun i -> if not (straightline i) then invalid_arg "not straight-line")
      w;
    { Compile.cf_name = "#window#"; code = Array.of_list w; nargs = 0; frame_slots = 0 }

  (* Data inputs of a window: every named register (BP excluded — it is
     the frame base the harness owns) and every distinct slot
     displacement, in first-occurrence order. *)
  let inputs_of (w : instr list) : int list * int list =
    let regs = ref [] and slots = ref [] in
    let add_reg r = if not (List.mem r !regs) then regs := !regs @ [ r ] in
    let add_op = function
      | R r -> add_reg r
      | I _ -> ()
      | M m -> if not (List.mem m.disp !slots) then slots := !slots @ [ m.disp ]
    in
    List.iter
      (fun i ->
        match i with
        | Mov (a, b) | Alu (_, _, _, a, b) | Shift (_, _, _, a, b)
        | Cmp (_, _, a, b) ->
            add_op a;
            add_op b
        | Ext (r, _, _) | Setcc (_, r) -> add_reg r
        | _ -> ())
      w;
    (!regs, !slots)

  let flag_variants =
    [|
      Sim.Fnone;
      Sim.Fint (0L, 0L, true);
      Sim.Fint (1L, 0L, true);
      Sim.Fint (0L, 1L, false);
      Sim.Fint (-1L, 1L, true);
      Sim.Fint (5L, 5L, false);
    |]

  type obs = { oregs : Bytes.t; okind : int; oslots : int64 array }

  let slot_addr h d = Int64.add h.base (Int64.of_int d)

  (* Load one vector into the harness and run the prepared window. *)
  let exec h ~regs ~slots (cf : Compile.cfunc) (vec : int64 array)
      (fl : Sim.flags) : unit =
    let st = h.st in
    Bytes.fill st.Sim.regs 0 (Bytes.length st.Sim.regs) '\000';
    Sim.set_reg st sp (Int64.sub h.base 8192L);
    Sim.set_reg st bp h.base;
    List.iteri (fun k r -> Sim.set_reg st r vec.(k)) regs;
    let nr = List.length regs in
    List.iteri
      (fun k d -> Vmem.Memory.write_u64 st.Sim.mem (slot_addr h d) vec.(nr + k))
      slots;
    Sim.set_flags st fl;
    st.Sim.cur <- cf;
    st.Sim.pc <- 0;
    let len = Array.length cf.Compile.code in
    let steps = ref 0 in
    while st.Sim.pc >= 0 && st.Sim.pc < len do
      if !steps > 256 then invalid_arg "window ran away";
      incr steps;
      Sim.step st
    done

  let observe h ~slots : obs =
    let st = h.st in
    {
      oregs = Bytes.copy st.Sim.regs;
      okind = st.Sim.flag_kind;
      oslots =
        Array.of_list
          (List.map (fun d -> Vmem.Memory.read_u64 st.Sim.mem (slot_addr h d)) slots);
    }

  (* does the harness state after a run match [o]? *)
  let matches h ~slots (o : obs) =
    let st = h.st in
    let rec slots_match k = function
      | [] -> true
      | d :: rest ->
          Int64.equal (Vmem.Memory.read_u64 st.Sim.mem (slot_addr h d)) o.oslots.(k)
          && slots_match (k + 1) rest
    in
    Bytes.equal st.Sim.regs o.oregs
    && st.Sim.flag_kind = o.okind
    && slots_match 0 slots

  let with_flags vecs =
    let n = Array.length flag_variants in
    List.mapi (fun k v -> (v, flag_variants.(k mod n))) vecs

  type session = {
    h : h;
    regs : int list;
    slots : int list;
    screen : (int64 array * Sim.flags * obs) list;
    full : (int64 array * Sim.flags * obs) list Lazy.t;
  }

  (* [None] when the left-hand side itself faults or traps on some
     vector: such windows are not oracle-checkable and are skipped.
     [inputs] normally equals [lhs]; rule re-verification passes
     lhs @ rhs so a right-hand side touching state the left never
     names is still observed (and therefore rejected). *)
  let session h ~(inputs : instr list) (lhs : instr list) : session option =
    let regs, slots = inputs_of inputs in
    let n = List.length regs + List.length slots in
    let screen_v, full_v = vectors ~n in
    let run cf vecs =
      List.map
        (fun (v, fl) ->
          exec h ~regs ~slots cf v fl;
          (v, fl, observe h ~slots))
        vecs
    in
    match prepare lhs with
    | exception Invalid_argument _ -> None
    | cf -> (
        match run cf (with_flags screen_v) with
        | screen ->
            Some { h; regs; slots; screen; full = lazy (run cf (with_flags full_v)) }
        | exception _ -> None)

  let candidate_ok (s : session) (rhs : instr list) : bool =
    match prepare rhs with
    | exception Invalid_argument _ -> false
    | cf -> (
        let check (v, fl, expect) =
          match
            exec s.h ~regs:s.regs ~slots:s.slots cf v fl;
            matches s.h ~slots:s.slots expect
          with
          | ok -> ok
          | exception _ -> false
        in
        List.for_all check s.screen
        &&
        match Lazy.force s.full with
        | cases -> List.for_all check cases
        | exception _ -> false)

  (* Re-verify one concrete rule instantiation end to end (CI uses this
     on the shipped tables). *)
  let verify_rule h (lhs : instr list) (rhs : instr list) : bool =
    match session h ~inputs:(lhs @ rhs) lhs with
    | Some s -> candidate_ok s rhs
    | None -> false
end

module Sparc = struct
  open Sparclite
  open Sparclite.Sparc

  type h = { st : Sim.state; base : int64 }

  let make () =
    let m = Llva.Ir.mk_module ~name:"superopt-oracle" () in
    let image = Vmem.Image.load m in
    let cmod = { Compile.cm = m; image; funcs = Hashtbl.create 1 } in
    { st = Sim.create cmod; base = Int64.sub Vmem.Memory.stack_top 65536L }

  let straightline = function
    | Alu3 ((Div | Rem), _, _, _, _, _) -> false
    | Alu3 _ | Sethi _ | Ld _ | St _ | Cmp _ | Movcc _ -> true
    | _ -> false

  let prepare (w : instr list) : Compile.cfunc =
    List.iter
      (fun i -> if not (straightline i) then invalid_arg "not straight-line")
      w;
    { Compile.cf_name = "#window#"; code = Array.of_list w; nargs = 0; frame_slots = 0 }

  (* r0 is architecturally zero: never a data input. *)
  let inputs_of (w : instr list) : int list * int list =
    let regs = ref [] and slots = ref [] in
    let add_reg r =
      if r <> 0 && not (List.mem r !regs) then regs := !regs @ [ r ]
    in
    let add_opnd = function Rs r -> add_reg r | Imm _ -> () in
    let add_slot d = if not (List.mem d !slots) then slots := !slots @ [ d ] in
    List.iter
      (fun i ->
        match i with
        | Alu3 (_, _, _, rd, rs1, o) ->
            add_reg rd;
            add_reg rs1;
            add_opnd o
        | Sethi (rd, _) -> add_reg rd
        | Ld (_, _, rd, _, d) ->
            add_reg rd;
            add_slot d
        | St (_, rs, _, d) ->
            add_reg rs;
            add_slot d
        | Cmp (_, _, r, o) ->
            add_reg r;
            add_opnd o
        | Movcc (_, rd) -> add_reg rd
        | _ -> ())
      w;
    (!regs, !slots)

  let flag_variants =
    [|
      Sim.Fnone;
      Sim.Fint (0L, 0L);
      Sim.Fint (1L, 0L);
      Sim.Fint (0L, 1L);
      Sim.Fint (-1L, 1L);
      Sim.Fint (5L, 5L);
    |]

  type obs = { oregs : Bytes.t; okind : int; oslots : int64 array }

  let slot_addr h d = Int64.add h.base (Int64.of_int d)

  let exec h ~regs ~slots (cf : Compile.cfunc) (vec : int64 array)
      (fl : Sim.flags) : unit =
    let st = h.st in
    Bytes.fill st.Sim.regs 0 (Bytes.length st.Sim.regs) '\000';
    Sim.set_reg st sp (Int64.sub h.base 8192L);
    Sim.set_reg st fp h.base;
    List.iteri (fun k r -> Sim.set_reg st r vec.(k)) regs;
    let nr = List.length regs in
    List.iteri
      (fun k d -> Vmem.Memory.write_u64 st.Sim.mem (slot_addr h d) vec.(nr + k))
      slots;
    Sim.set_flags st fl;
    st.Sim.cur <- cf;
    st.Sim.pc <- 0;
    let len = Array.length cf.Compile.code in
    let steps = ref 0 in
    while st.Sim.pc >= 0 && st.Sim.pc < len do
      if !steps > 256 then invalid_arg "window ran away";
      incr steps;
      Sim.step st
    done

  let observe h ~slots : obs =
    let st = h.st in
    {
      oregs = Bytes.copy st.Sim.regs;
      okind = st.Sim.flag_kind;
      oslots =
        Array.of_list
          (List.map (fun d -> Vmem.Memory.read_u64 st.Sim.mem (slot_addr h d)) slots);
    }

  let matches h ~slots (o : obs) =
    let st = h.st in
    let rec slots_match k = function
      | [] -> true
      | d :: rest ->
          Int64.equal (Vmem.Memory.read_u64 st.Sim.mem (slot_addr h d)) o.oslots.(k)
          && slots_match (k + 1) rest
    in
    Bytes.equal st.Sim.regs o.oregs
    && st.Sim.flag_kind = o.okind
    && slots_match 0 slots

  let with_flags vecs =
    let n = Array.length flag_variants in
    List.mapi (fun k v -> (v, flag_variants.(k mod n))) vecs

  type session = {
    h : h;
    regs : int list;
    slots : int list;
    screen : (int64 array * Sim.flags * obs) list;
    full : (int64 array * Sim.flags * obs) list Lazy.t;
  }

  let session h ~(inputs : instr list) (lhs : instr list) : session option =
    let regs, slots = inputs_of inputs in
    let n = List.length regs + List.length slots in
    let screen_v, full_v = vectors ~n in
    let run cf vecs =
      List.map
        (fun (v, fl) ->
          exec h ~regs ~slots cf v fl;
          (v, fl, observe h ~slots))
        vecs
    in
    match prepare lhs with
    | exception Invalid_argument _ -> None
    | cf -> (
        match run cf (with_flags screen_v) with
        | screen ->
            Some { h; regs; slots; screen; full = lazy (run cf (with_flags full_v)) }
        | exception _ -> None)

  let candidate_ok (s : session) (rhs : instr list) : bool =
    match prepare rhs with
    | exception Invalid_argument _ -> false
    | cf -> (
        let check (v, fl, expect) =
          match
            exec s.h ~regs:s.regs ~slots:s.slots cf v fl;
            matches s.h ~slots:s.slots expect
          with
          | ok -> ok
          | exception _ -> false
        in
        List.for_all check s.screen
        &&
        match Lazy.force s.full with
        | cases -> List.for_all check cases
        | exception _ -> false)

  let verify_rule h (lhs : instr list) (rhs : instr list) : bool =
    match session h ~inputs:(lhs @ rhs) lhs with
    | Some s -> candidate_ok s rhs
    | None -> false
end
