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
   displacements first ([Codegen.Peephole]'s [concretize]).
   Execution happens against a scratch stack region well below
   [Vmem.Memory.stack_top]; any fault, trap or non-straight-line
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

(* A vector set for windows with [n] data inputs, packed as native
   64-bit words: vector [k] is words [k*n .. k*n+n-1] of [data]. Vector
   [k] runs with flag variant [k mod 6]. *)
type vectors = { n : int; count : int; data : Bytes.t }

(* vector [k] of [vs], unpacked *)
let vector vs k =
  Array.init vs.n (fun j -> Bytes.get_int64_ne vs.data (8 * ((k * vs.n) + j)))

let pack ~n (vecs : int64 array list) =
  let count = List.length vecs in
  let data = Bytes.create (8 * n * count) in
  List.iteri
    (fun k v ->
      Array.iteri (fun j x -> Bytes.set_int64_ne data (8 * ((k * n) + j)) x) v)
    vecs;
  { n; count; data }

let rnd ~n tag = Array.init n (fun j -> mix ((tag * 97) + j))

(* [screen] is a cheap prefix used to discard most candidates before the
   [full] set runs: 6 random vectors (which also cycle through every
   flag variant once). *)
let screen_count = 6
let screen_vectors ~n = pack ~n (List.init screen_count (rnd ~n))

(* [full] is the screen plus the boundary cross-product on the first two
   inputs plus more random tails: 871 vectors for n >= 2, 59 for n = 1,
   31 for n = 0. *)
let full_vectors ~n =
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
  let extra = List.init 24 (fun k -> rnd ~n (1000 + k)) in
  pack ~n (List.init screen_count (rnd ~n) @ cross @ extra)

(* ---------- the shared harness ---------- *)

(* What the harness needs from a back-end: its simulator, which
   instructions a window may hold, a window's data inputs, and the six
   flag variants the vectors cycle through. *)
module type TARGET = sig
  type instr

  val machine : instr Codegen.Machine.isa
  val straightline : instr -> bool

  (* data inputs: every named register the harness does not own and
     every distinct slot displacement, in first-occurrence order *)
  val inputs_of : instr list -> int list * int list

  (* flag variant [k mod 6] runs with vector [k] *)
  val flag_variants : (instr Codegen.Machine.state -> unit) array
end

(* A straight-line window threaded into one closure: each instruction's
   [decode_instr] continues with the next, the last with a halt. *)
let chain decode_instr w =
  let next = ref (fun _ -> ()) in
  for pc = Array.length w - 1 downto 0 do
    next := decode_instr pc w.(pc) !next
  done;
  !next

(* A window is prepared once (straight-line checked, then decoded)
   and then run once per test vector on a single reused simulator state.
   An observation is the whole register file — integer registers and
   flag operands — plus the flag kind and the slot contents; a candidate
   is compared against it in place. *)
module Make (T : TARGET) = struct
  module M = Codegen.Machine

  (* Observations of one window over one vector set: for vector [k],
     the register file [oregs.(k)], the flag kind [okinds.(k)] and the
     slot contents, packed at [8 * nslots * k] of [oslots]. The arrays
     may be longer than the set. *)
  type obs = { oregs : Bytes.t array; okinds : int array; oslots : Bytes.t }

  (* The handle owns the simulator, the vector sets built so far (keyed
     by input count, so a search builds each at most once) and one
     buffer for full-set observations, which is reused by every session
     and holds those of session [full_of]. All of it dies with the
     handle. *)
  type h = {
    st : T.instr M.state;
    base : int64;
    big : bool; (* the target's byte order, for slot words *)
    screens : (int, vectors) Hashtbl.t;
    fulls : (int, vectors) Hashtbl.t;
    mutable opened : int;
    mutable full_of : int;
    mutable full_obs : obs;
  }

  let make () =
    let m = Llva.Ir.mk_module ~name:"superopt-oracle" () in
    let image = Vmem.Image.load m in
    let st =
      M.create T.machine
        { Codegen.Native.cm = m; image; funcs = Hashtbl.create 1 }
    in
    (* scratch frame area: far enough below the stack top that negative
       slot displacements and the probe SP never leave mapped,
       non-null address space *)
    {
      st;
      base = Int64.sub Vmem.Memory.stack_top 65536L;
      big = st.M.mem.Vmem.Memory.target.Llva.Target.endian = Llva.Target.Big;
      screens = Hashtbl.create 16;
      fulls = Hashtbl.create 16;
      opened = 0;
      full_of = -1;
      full_obs = { oregs = [||]; okinds = [||]; oslots = Bytes.empty };
    }

  let memo tbl build n =
    match Hashtbl.find_opt tbl n with
    | Some vs -> vs
    | None ->
        let vs = build ~n in
        Hashtbl.add tbl n vs;
        vs

  (* the vector sets for [n] inputs, as a session sees them *)
  let screen_set h n = memo h.screens screen_vectors n
  let full_set h n = memo h.fulls full_vectors n

  (* Only straight-line, trap-free instructions are executable as
     windows; anything else makes the window unverifiable. *)
  let prepare (w : T.instr array) : T.instr M.op =
    for k = 0 to Array.length w - 1 do
      if not (T.straightline w.(k)) then invalid_arg "not straight-line"
    done;
    chain T.machine.M.decode_instr w

  (* A frame slot: its backing page and the offset in it, found once per
     session. Concretized slots are 8-aligned below a page-aligned base,
     so none straddles a page, and the harness writes and reads slot
     words on the page directly, without boxing them. *)
  type slot = { page : Bytes.t; off : int }

  let slot h d =
    let a = Int64.add h.base (Int64.of_int d) in
    {
      page = Vmem.Memory.page_of h.st.M.mem a;
      off = Int64.to_int a land (Vmem.Memory.page_size - 1);
    }

  let[@inline] get_slot h s =
    if h.big then Bytes.get_int64_be s.page s.off
    else Bytes.get_int64_le s.page s.off

  let[@inline] set_slot h s v =
    if h.big then Bytes.set_int64_be s.page s.off v
    else Bytes.set_int64_le s.page s.off v

  type session = {
    h : h;
    id : int;
    regs : int array;
    slots : slot array;
    lhs : T.instr M.op;
    screen : vectors * obs;
    mutable full_faults : bool; (* the lhs faults on some full vector *)
  }

  (* Run [cf] on vector [k] of [vs]: zero the register file, point the
     stack and frame registers at the scratch frame below [base], load
     the vector's slot and register inputs, set its flag variant, and run
     the window (straight-line code) once. *)
  let run h ~regs ~slots cf vs k =
    let st = h.st in
    let v = 8 * k * vs.n in
    for j = 0 to Array.length slots - 1 do
      set_slot h slots.(j)
        (Bytes.get_int64_ne vs.data (v + (8 * (Array.length regs + j))))
    done;
    Bytes.fill st.M.regs 0 (Bytes.length st.M.regs) '\000';
    let sp, fp = T.machine.M.stack_regs in
    Bytes.set_int64_ne st.M.regs (sp lsl 3) (Int64.sub h.base 8192L);
    Bytes.set_int64_ne st.M.regs (fp lsl 3) h.base;
    for j = 0 to Array.length regs - 1 do
      Bytes.set_int64_ne st.M.regs (regs.(j) lsl 3)
        (Bytes.get_int64_ne vs.data (v + (8 * j)))
    done;
    T.flag_variants.(k mod 6) st;
    cf st

  (* Run [cf] over every vector of [vs] and record what it leaves, in
     [into]'s buffers when they are big enough. *)
  let observe ?into h ~regs ~slots cf vs =
    let st = h.st in
    let rlen = Bytes.length st.M.regs and nslots = Array.length slots in
    let o =
      match into with
      | Some o
        when Array.length o.oregs >= vs.count
             && Bytes.length o.oslots >= 8 * nslots * vs.count ->
          o
      | _ ->
          {
            oregs = Array.init vs.count (fun _ -> Bytes.create rlen);
            okinds = Array.make vs.count 0;
            oslots = Bytes.create (8 * nslots * vs.count);
          }
    in
    for k = 0 to vs.count - 1 do
      run h ~regs ~slots cf vs k;
      Bytes.blit st.M.regs 0 o.oregs.(k) 0 rlen;
      o.okinds.(k) <- st.M.flag_kind;
      for j = 0 to nslots - 1 do
        Bytes.set_int64_ne o.oslots
          (8 * ((nslots * k) + j))
          (get_slot h slots.(j))
      done
    done;
    o

  (* does the harness state after a run match observation [k]? *)
  let matches h ~slots o k =
    h.st.M.flag_kind = o.okinds.(k)
    && Bytes.equal h.st.M.regs o.oregs.(k)
    &&
    let nslots = Array.length slots in
    let j = ref 0 in
    while
      !j < nslots
      && Int64.equal (get_slot h slots.(!j))
           (Bytes.get_int64_ne o.oslots (8 * ((nslots * k) + !j)))
    do
      incr j
    done;
    !j >= nslots

  (* [None] when the left-hand side itself faults or traps on some
     screen vector: such windows are not oracle-checkable and are
     skipped. [inputs] normally equals [lhs]; rule re-verification passes
     lhs @ rhs so a right-hand side touching state the left never
     names is still observed (and therefore rejected). *)
  let session h ~(inputs : T.instr list) (lhs : T.instr list) :
      session option =
    let regs, slots = T.inputs_of inputs in
    let regs = Array.of_list regs in
    let slots = Array.of_list (List.map (slot h) slots) in
    match prepare (Array.of_list lhs) with
    | exception Invalid_argument _ -> None
    | cf -> (
        let vs = screen_set h (Array.length regs + Array.length slots) in
        match observe h ~regs ~slots cf vs with
        | o ->
            h.opened <- h.opened + 1;
            Some
              {
                h;
                id = h.opened;
                regs;
                slots;
                lhs = cf;
                screen = (vs, o);
                full_faults = false;
              }
        | exception _ -> None)

  (* The full set and the left-hand side's observations on it, built
     the first time a candidate of [s] reaches it. Sessions are used one
     at a time; one whose observations were overwritten by another
     session's observes again. *)
  let full s =
    let h = s.h in
    let vs = full_set h (Array.length s.regs + Array.length s.slots) in
    if h.full_of <> s.id then begin
      h.full_of <- -1;
      (match
         observe ~into:h.full_obs h ~regs:s.regs ~slots:s.slots s.lhs vs
       with
      | o -> h.full_obs <- o
      | exception e ->
          s.full_faults <- true;
          raise e);
      h.full_of <- s.id
    end;
    (vs, h.full_obs)

  (* does [cf] reproduce every observation of [vs]? *)
  let passes s cf (vs, o) =
    let rec go k =
      k >= vs.count
      || begin
           run s.h ~regs:s.regs ~slots:s.slots cf vs k;
           matches s.h ~slots:s.slots o k
         end
         && go (k + 1)
    in
    match go 0 with ok -> ok | exception _ -> false

  (* The two stages of [candidate_ok]: the 6 screen vectors, then the
     full set (which repeats them). *)
  let screen_ok (s : session) (rhs : T.instr array) : bool =
    match prepare rhs with
    | exception Invalid_argument _ -> false
    | cf -> passes s cf s.screen

  let full_ok (s : session) (rhs : T.instr array) : bool =
    match prepare rhs with
    | exception Invalid_argument _ -> false
    | _ when s.full_faults -> false
    | cf -> ( match full s with f -> passes s cf f | exception _ -> false)

  let candidate_ok s rhs = screen_ok s rhs && full_ok s rhs

  (* Re-verify one concrete rule instantiation end to end (CI uses this
     on the shipped tables). *)
  let verify_rule h (lhs : T.instr list) (rhs : T.instr list) : bool =
    match session h ~inputs:(lhs @ rhs) lhs with
    | Some s -> candidate_ok s (Array.of_list rhs)
    | None -> false
end

(* ---------- per-target harnesses ---------- *)

(* The two targets differ in the simulator, the flags type and which
   registers are data; everything else is [Make]. *)

module X86 = Make (struct
  open X86lite
  open X86lite.X86

  type nonrec instr = instr

  let machine = Sim.machine

  let straightline = function
    | Mov _ | Alu _ | Shift _ | Ext _ | Cmp _ | Setcc _ -> true
    | _ -> false

  (* BP is excluded: it is the frame base the harness owns *)
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
    Array.map
      (fun f st -> Sim.set_flags st f)
      [|
        Sim.Fnone;
        Sim.Fint (0L, 0L, true);
        Sim.Fint (1L, 0L, true);
        Sim.Fint (0L, 1L, false);
        Sim.Fint (-1L, 1L, true);
        Sim.Fint (5L, 5L, false);
      |]
end)

module Sparc = Make (struct
  open Sparclite
  open Sparclite.Sparc

  type nonrec instr = instr

  let machine = Sim.machine

  let straightline = function
    | Alu3 ((Div | Rem), _, _, _, _, _) -> false
    | Alu3 _ | Sethi _ | Ld _ | St _ | Cmp _ | Movcc _ -> true
    | _ -> false

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
    Array.map
      (fun f st -> Sim.set_flags st f)
      [|
        Sim.Fnone;
        Sim.Fint (0L, 0L);
        Sim.Fint (1L, 0L);
        Sim.Fint (0L, 1L);
        Sim.Fint (-1L, 1L);
        Sim.Fint (5L, 5L);
      |]
end)
