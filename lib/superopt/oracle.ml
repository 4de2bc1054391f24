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

(* The kind of a location an instruction names: a register the harness
   does not own (by number), the condition flags (both flag words and
   the flag kind), or a frame slot (by displacement). *)
type loc = Reg | Flags | Slot

(* What a back-end needs from the harness: its simulator, which
   instructions a window may hold, what each instruction names, and the
   six flag variants the vectors cycle through. *)
module type TARGET = sig
  type instr

  val machine : instr Codegen.Machine.isa
  val straightline : instr -> bool

  (* [operands f acc i] folds [f] over the locations [i] names, in
     operand order: [f acc loc x def] for a location of kind [loc]
     numbered [x] (0 for the flags), with [def] when [i] writes it. A
     window's data inputs (the locations it names, in first-occurrence
     order) and a candidate's write set are both read off it, so it must
     name every location [exec] can change. *)
  val operands : ('a -> loc -> int -> bool -> 'a) -> 'a -> instr -> 'a

  (* flag variant [k mod 6] runs with vector [k] *)
  val flag_variants : (instr Codegen.Machine.state -> unit) array
end

(* What the search asks of a session, with the instructions decoded to
   ['op]s it can run without decoding them again.

   [must] and [writes] are the write-set pre-screen, in one bit per
   location: bit [r] for register [r], bit [nregs] for the flags and
   bit [nregs + 1 + j] for the session's slot [j]. [must] holds every
   location whose value the left-hand side changes on some screen
   vector; [writes i] is every location [i] can write. A candidate
   whose writes miss a bit of [must] leaves that location as it found
   it, so it cannot match the left-hand side on that vector and would
   fail [screen]: the pre-screen only ever rejects what the screen
   would. [screen ops len] runs [ops.(0 .. len - 1)] on the screen
   vectors; [full] is the admission check, on the full set. *)
type ('i, 'op) probe = {
  must : int;
  writes : 'i -> int;
  decode : 'i -> 'op;
  screen : 'op array -> int -> bool;
  full : 'i array -> bool;
}

(* A window is decoded once, one closure per instruction, and then run
   once per test vector on a single reused simulator state. An
   observation is the whole register file — integer registers and flag
   operands — plus the flag kind and the slot contents; a candidate is
   compared against it in place. *)
module Make (T : TARGET) = struct
  module M = Codegen.Machine

  let nregs = T.machine.M.nregs

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
    swap : bool; (* the target's byte order is not the host's *)
    screens : (int, vectors) Hashtbl.t;
    fulls : (int, vectors) Hashtbl.t;
    resets : Bytes.t array;
    reset_kinds : int array;
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
    let base = Int64.sub Vmem.Memory.stack_top 65536L in
    (* the register file and flag kind a run starts from, per flag
       variant: zero, but for the stack and frame registers pointing into
       the scratch frame and for the variant's flags *)
    let sp, fp = T.machine.M.stack_regs in
    let resets =
      Array.map
        (fun set_flags ->
          Bytes.fill st.M.regs 0 (Bytes.length st.M.regs) '\000';
          Bytes.set_int64_ne st.M.regs (sp lsl 3) (Int64.sub base 8192L);
          Bytes.set_int64_ne st.M.regs (fp lsl 3) base;
          set_flags st;
          (Bytes.copy st.M.regs, st.M.flag_kind))
        T.flag_variants
    in
    {
      st;
      base;
      resets = Array.map fst resets;
      reset_kinds = Array.map snd resets;
      swap =
        st.M.mem.Vmem.Memory.target.Llva.Target.endian = Llva.Target.Big
        <> Sys.big_endian;
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

  (* The data inputs of a window: every register and every distinct
     slot displacement it names, in first-occurrence order. *)
  let inputs_of (w : T.instr list) : int list * int list =
    let add x l = if List.mem x l then l else x :: l in
    let regs, slots =
      List.fold_left
        (T.operands (fun (regs, slots) loc x _ ->
             match loc with
             | Reg -> (add x regs, slots)
             | Slot -> (regs, add x slots)
             | Flags -> (regs, slots)))
        ([], []) w
    in
    (List.rev regs, List.rev slots)

  (* Only straight-line, trap-free instructions are executable as
     windows; anything else decodes to a closure that raises, which
     makes the window unverifiable (or the candidate rejected). Each
     instruction is decoded on its own and halts; [run] calls them in
     order. The pc a closure records is read only by the machine's run
     loop, which the harness does not use. *)
  let halt : T.instr M.op = fun _ -> ()
  let unfit : T.instr M.op = fun _ -> invalid_arg "not straight-line"

  let decode (i : T.instr) : T.instr M.op =
    if T.straightline i then T.machine.M.decode_instr 0 i halt else unfit

  let prepare (w : T.instr array) = Array.map decode w

  (* Unchecked word access, for offsets in range by construction: the
     words of the vector a run loads, register files (all of the
     machine's length) and slot words (checked once by [slot]). *)
  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"

  (* A frame slot: its backing page and the offset in it, found once per
     session. Concretized slots are 8-aligned below a page-aligned base,
     so none straddles a page ([slot] refuses one that would), and the
     harness writes and reads slot words on the page directly, without
     boxing them. *)
  type slot = { page : Bytes.t; off : int }

  let slot h d =
    let a = Int64.add h.base (Int64.of_int d) in
    let page = Vmem.Memory.page_of h.st.M.mem a
    and off = Int64.to_int a land (Vmem.Memory.page_size - 1) in
    if off > Bytes.length page - 8 then invalid_arg "slot straddles a page";
    { page; off }

  (* slot words in the target's byte order *)
  let[@inline] get_slot h s =
    let v = get64u s.page s.off in
    if h.swap then bswap64 v else v

  let[@inline] set_slot h s v =
    set64u s.page s.off (if h.swap then bswap64 v else v)

  type session = {
    h : h;
    id : int;
    regs : int array;
    slots : slot array;
    writes : T.instr -> int;
    lhs : T.instr M.op array;
    screen : vectors * obs;
    must : int;
    mutable full_faults : bool; (* the lhs faults on some full vector *)
  }

  (* Run [ops.(0 .. len - 1)] on vector [k] of [vs]: reset the register
     file and flags to the vector's flag variant (see [make]), load the
     vector's slot and register inputs, and run the instructions
     (straight-line code) once. *)
  let run h ~regs ~slots ops len vs k =
    let st = h.st in
    let v = 8 * k * vs.n and nregs_in = Array.length regs in
    for j = 0 to Array.length slots - 1 do
      set_slot h slots.(j) (get64u vs.data (v + (8 * (nregs_in + j))))
    done;
    let f = k mod 6 in
    Bytes.blit h.resets.(f) 0 st.M.regs 0 (Bytes.length st.M.regs);
    st.M.flag_kind <- h.reset_kinds.(f);
    for j = 0 to nregs_in - 1 do
      Bytes.set_int64_ne st.M.regs (regs.(j) lsl 3)
        (get64u vs.data (v + (8 * j)))
    done;
    for p = 0 to len - 1 do
      ops.(p) st
    done

  (* Run [ops] over every vector of [vs] and record what it leaves, in
     [into]'s buffers when they are big enough. *)
  let observe ?into h ~regs ~slots ops vs =
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
      run h ~regs ~slots ops (Array.length ops) vs k;
      Bytes.blit st.M.regs 0 o.oregs.(k) 0 rlen;
      o.okinds.(k) <- st.M.flag_kind;
      for j = 0 to nslots - 1 do
        Bytes.set_int64_ne o.oslots
          (8 * ((nslots * k) + j))
          (get_slot h slots.(j))
      done
    done;
    o

  (* Does the harness state after a run match observation [k]? The
     register files are compared with [Bytes.compare], which is a
     [memcmp]: about 2.5 times as fast as [Bytes.equal]'s word loop on
     sparclite's 272 bytes. *)
  let matches h ~slots o k =
    h.st.M.flag_kind = o.okinds.(k)
    && Bytes.compare h.st.M.regs o.oregs.(k) = 0
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

  (* the pre-screen's bit for location number [k] (see [probe]); a
     location past the word's bits has none, and is never pruned on *)
  let bit k = if k < Sys.int_size - 1 then 1 lsl k else 0
  let flags_bit = bit nregs

  (* The locations observation [o] of [vs] holds different from where
     [run] starts them, on some vector: each vector's initial state is a
     run of no instructions. *)
  let changed h ~regs ~slots vs o =
    let st = h.st and nslots = Array.length slots in
    let m = ref 0 in
    for k = 0 to vs.count - 1 do
      run h ~regs ~slots [||] 0 vs k;
      let now = st.M.regs and seen = o.oregs.(k) in
      for r = 0 to nregs - 1 do
        if not (Int64.equal (get64u now (8 * r)) (get64u seen (8 * r))) then
          m := !m lor bit r
      done;
      let fa = 8 * nregs and fb = (8 * nregs) + 8 in
      if
        st.M.flag_kind <> o.okinds.(k)
        || (not (Int64.equal (get64u now fa) (get64u seen fa)))
        || not (Int64.equal (get64u now fb) (get64u seen fb))
      then m := !m lor flags_bit;
      for j = 0 to nslots - 1 do
        if
          not
            (Int64.equal (get_slot h slots.(j))
               (Bytes.get_int64_ne o.oslots (8 * ((nslots * k) + j))))
        then m := !m lor bit (nregs + 1 + j)
      done
    done;
    !m

  (* [writes disps]: every location an instruction can write, as
     pre-screen bits of a session whose slots are at [disps] *)
  let writes disps =
    let add m loc x def =
      if not def then m
      else
        match loc with
        | Reg -> m lor bit x
        | Flags -> m lor flags_bit
        | Slot ->
            let rec find j =
              if j >= Array.length disps then m
              else if disps.(j) = x then m lor bit (nregs + 1 + j)
              else find (j + 1)
            in
            find 0
    in
    fun (i : T.instr) -> T.operands add 0 i

  (* [None] when the left-hand side itself faults or traps on some
     screen vector: such windows are not oracle-checkable and are
     skipped. [inputs] normally equals [lhs]; rule re-verification passes
     lhs @ rhs so a right-hand side touching state the left never
     names is still observed (and therefore rejected). *)
  let session h ~(inputs : T.instr list) (lhs : T.instr list) :
      session option =
    let regs, disps = inputs_of inputs in
    let regs = Array.of_list regs and disps = Array.of_list disps in
    let ops = prepare (Array.of_list lhs) in
    let vs = screen_set h (Array.length regs + Array.length disps) in
    match
      let slots = Array.map (slot h) disps in
      (slots, observe h ~regs ~slots ops vs)
    with
    | slots, o ->
        h.opened <- h.opened + 1;
        Some
          {
            h;
            id = h.opened;
            regs;
            slots;
            writes = writes disps;
            lhs = ops;
            screen = (vs, o);
            must = changed h ~regs ~slots vs o;
            full_faults = false;
          }
    | exception _ -> None

  (* The locations [ops] change on some of [vectors] (each at least as
     long as [s]'s input count), as pre-screen bits of [s]. *)
  let changes s ops (vectors : int64 array list) =
    let n = Array.length s.regs + Array.length s.slots in
    let vs = pack ~n (List.map (fun v -> Array.sub v 0 n) vectors) in
    changed s.h ~regs:s.regs ~slots:s.slots vs
      (observe s.h ~regs:s.regs ~slots:s.slots ops vs)

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

  (* does [ops.(0 .. len - 1)] reproduce every observation of [vs]? *)
  let passes s ops len (vs, o) =
    let rec go k =
      k >= vs.count
      || begin
           run s.h ~regs:s.regs ~slots:s.slots ops len vs k;
           matches s.h ~slots:s.slots o k
         end
         && go (k + 1)
    in
    match go 0 with ok -> ok | exception _ -> false

  (* The two stages of [candidate_ok]: the 6 screen vectors, then the
     full set (which repeats them). *)
  let screen_ok (s : session) (rhs : T.instr array) : bool =
    passes s (prepare rhs) (Array.length rhs) s.screen

  let full_ok (s : session) (rhs : T.instr array) : bool =
    (not s.full_faults)
    &&
    match full s with
    | f -> passes s (prepare rhs) (Array.length rhs) f
    | exception _ -> false

  let candidate_ok s rhs = screen_ok s rhs && full_ok s rhs

  let probe s : (T.instr, T.instr M.op) probe =
    {
      must = s.must;
      writes = s.writes;
      decode;
      screen = (fun ops len -> passes s ops len s.screen);
      full = full_ok s;
    }

  (* Re-verify one concrete rule instantiation end to end (CI uses this
     on the shipped tables). *)
  let verify_rule h (lhs : T.instr list) (rhs : T.instr list) : bool =
    match session h ~inputs:(lhs @ rhs) lhs with
    | Some s -> candidate_ok s (Array.of_list rhs)
    | None -> false
end

(* ---------- per-target harnesses ---------- *)

(* The two targets differ in the simulator, the flags type and what
   each instruction names; everything else is [Make]. *)

module X86 = Make (struct
  open X86lite
  open X86lite.X86

  type nonrec instr = instr

  let machine = Sim.machine

  let straightline = function
    | Mov _ | Alu _ | Shift _ | Ext _ | Cmp _ | Setcc _ -> true
    | _ -> false

  (* A memory operand names its slot: its base is BP, the frame base
     the harness owns. *)
  let op f acc o def =
    match o with
    | R r -> f acc Reg r def
    | M m -> f acc Slot m.disp def
    | I _ -> acc

  let operands f acc = function
    | Mov (a, b) | Alu (_, _, _, a, b) | Shift (_, _, _, a, b) ->
        op f (op f acc a true) b false
    | Cmp (_, _, a, b) -> f (op f (op f acc a false) b false) Flags 0 true
    | Ext (r, _, _) -> f acc Reg r true
    | Setcc (_, r) -> f (f acc Flags 0 false) Reg r true
    | _ -> acc

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

  (* r0 is architecturally zero: never a location. A load or store
     names its slot: its base is FP, the frame base the harness owns. *)
  let reg f acc r def = if r = 0 then acc else f acc Reg r def
  let opnd f acc = function Rs r -> reg f acc r false | Imm _ -> acc

  let operands f acc = function
    | Alu3 (_, _, _, rd, rs1, o) ->
        opnd f (reg f (reg f acc rd true) rs1 false) o
    | Sethi (rd, _) -> reg f acc rd true
    | Movcc (_, rd) -> reg f (f acc Flags 0 false) rd true
    | Ld (_, _, rd, _, d) -> f (reg f acc rd true) Slot d false
    | St (_, rs, _, d) -> f (reg f acc rs false) Slot d true
    | Cmp (_, _, r, o) -> f (opnd f (reg f acc r false) o) Flags 0 true
    | _ -> acc

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
