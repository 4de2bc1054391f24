(* Paged, byte-addressable virtual memory for the LLVA interpreter and the
   hardware simulators. Accesses to unmapped addresses (including the null
   page) raise [Fault], which the execution engines turn into the precise
   memory exceptions of paper §3.3.

   Pages live in a hash table keyed by page number. In front of it sits
   a 64-entry direct-mapped page TLB: page [idx] can only occupy entry
   [idx land 63], so a lookup is one array load and one compare, and a
   guest that interleaves stack, heap and global accesses keeps all of
   them resident. Entries are immutable [{idx; page}] records that are
   only ever replaced whole, so a reader never pairs one page's index
   with another page's bytes. *)

open Llva

exception Fault of int64 (* faulting address *)

let page_bits = 12
let page_size = 1 lsl page_bits

(* A page TLB entry. Entries are immutable and replaced whole, so a
   reader never pairs one page's index with another page's bytes. *)
type cached_page = { idx : int; page : Bytes.t }

(* The TLB is direct-mapped: page [idx] can only live in entry
   [idx land (tlb_size - 1)]. *)
let tlb_size = 64

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  tlb : cached_page array; (* in front of [pages] *)
  target : Target.config;
  mutable brk : int64; (* first unused heap address *)
  mutable free_lists : (int * int64 list) list; (* size-class allocator *)
  mutable allocated : (int64, int) Hashtbl.t; (* live malloc blocks: addr -> size *)
}

(* Address-space map (identical on every target; the 32-bit configurations
   simply never grow past 4 GiB in practice):
   0x0000_0000 .. 0x0000_0FFF  null page, always faults
   0x0000_1000 .. globals/code
   heap: grows upward from [heap_base]
   stack: grows downward from [stack_top] *)
let globals_base = 0x1000L
let heap_base = 0x0100_0000L
let stack_top = 0x0F00_0000L

let create target =
  {
    pages = Hashtbl.create 256;
    tlb = Array.make tlb_size { idx = -1; page = Bytes.empty };
    target;
    brk = heap_base;
    free_lists = [];
    allocated = Hashtbl.create 64;
  }

(* The backing page with index [idx], created zeroed on first touch. *)
let page_at mem idx =
  let slot = idx land (tlb_size - 1) in
  let c = Array.unsafe_get mem.tlb slot in
  if c.idx = idx then c.page
  else begin
    let p =
      match Hashtbl.find_opt mem.pages idx with
      | Some p -> p
      | None ->
          let p = Bytes.make page_size '\000' in
          Hashtbl.replace mem.pages idx p;
          p
    in
    Array.unsafe_set mem.tlb slot { idx; page = p };
    p
  end

(* The backing page of [addr]. Addresses below 0x1000 (the null page)
   and negative ones fault. *)
let page_of mem addr =
  if Int64.compare addr 0x1000L < 0 then raise (Fault addr);
  page_at mem (Int64.to_int addr lsr page_bits)

let read_u8 mem addr =
  let p = page_of mem addr in
  Char.code (Bytes.get p (Int64.to_int addr land (page_size - 1)))

let write_u8 mem addr v =
  let p = page_of mem addr in
  Bytes.set p (Int64.to_int addr land (page_size - 1)) (Char.chr (v land 0xFF))

(* ---------- word-granularity fast paths ----------

   An access that lies entirely inside one page is served with a single
   [Bytes] primitive on the backing page; only accesses that straddle a
   page boundary take the byte-at-a-time loop below. The byte loops stay
   the semantic reference: every fast path must agree with them. *)

(* Bulk copies go page-by-page with [Bytes.blit] rather than byte-by-byte;
   a straddling copy is just several in-page blits. *)
let read_bytes mem addr n =
  let b = Bytes.create n in
  let rec go addr k =
    if k < n then begin
      let p = page_of mem addr in
      let off = Int64.to_int addr land (page_size - 1) in
      let chunk = min (n - k) (page_size - off) in
      Bytes.blit p off b k chunk;
      go (Int64.add addr (Int64.of_int chunk)) (k + chunk)
    end
  in
  go addr 0;
  b

let write_bytes mem addr b =
  let n = Bytes.length b in
  let rec go addr k =
    if k < n then begin
      let p = page_of mem addr in
      let off = Int64.to_int addr land (page_size - 1) in
      let chunk = min (n - k) (page_size - off) in
      Bytes.blit b k p off chunk;
      go (Int64.add addr (Int64.of_int chunk)) (k + chunk)
    end
  in
  go addr 0

(* Fill [n] bytes starting at [addr] with byte value [c]. *)
let fill mem addr n c =
  let ch = Char.chr (c land 0xFF) in
  let rec go addr k =
    if k < n then begin
      let p = page_of mem addr in
      let off = Int64.to_int addr land (page_size - 1) in
      let chunk = min (n - k) (page_size - off) in
      Bytes.fill p off chunk ch;
      go (Int64.add addr (Int64.of_int chunk)) (k + chunk)
    end
  in
  go addr 0

(* Multi-byte accesses honour the target's endianness. *)
let read_uint_slow mem addr n =
  let v = ref 0L in
  (match mem.target.Target.endian with
  | Target.Little ->
      for k = n - 1 downto 0 do
        v :=
          Int64.logor
            (Int64.shift_left !v 8)
            (Int64.of_int (read_u8 mem (Int64.add addr (Int64.of_int k))))
      done
  | Target.Big ->
      for k = 0 to n - 1 do
        v :=
          Int64.logor
            (Int64.shift_left !v 8)
            (Int64.of_int (read_u8 mem (Int64.add addr (Int64.of_int k))))
      done);
  !v

let write_uint_slow mem addr n value =
  match mem.target.Target.endian with
  | Target.Little ->
      for k = 0 to n - 1 do
        write_u8 mem
          (Int64.add addr (Int64.of_int k))
          (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * k)) 0xFFL))
      done
  | Target.Big ->
      for k = 0 to n - 1 do
        write_u8 mem
          (Int64.add addr (Int64.of_int k))
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical value (8 * (n - 1 - k))) 0xFFL))
      done

let read_uint mem addr n =
  let off = Int64.to_int addr land (page_size - 1) in
  if off + n <= page_size then
    let p = page_of mem addr in
    match (n, mem.target.Target.endian) with
    | 1, _ -> Int64.of_int (Bytes.get_uint8 p off)
    | 2, Target.Little -> Int64.of_int (Bytes.get_uint16_le p off)
    | 2, Target.Big -> Int64.of_int (Bytes.get_uint16_be p off)
    | 4, Target.Little ->
        Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xFFFF_FFFFL
    | 4, Target.Big ->
        Int64.logand (Int64.of_int32 (Bytes.get_int32_be p off)) 0xFFFF_FFFFL
    | 8, Target.Little -> Bytes.get_int64_le p off
    | 8, Target.Big -> Bytes.get_int64_be p off
    | _ -> read_uint_slow mem addr n
  else read_uint_slow mem addr n

let write_uint mem addr n value =
  let off = Int64.to_int addr land (page_size - 1) in
  if off + n <= page_size then
    let p = page_of mem addr in
    match (n, mem.target.Target.endian) with
    | 1, _ -> Bytes.set_uint8 p off (Int64.to_int value land 0xFF)
    | 2, Target.Little -> Bytes.set_uint16_le p off (Int64.to_int value land 0xFFFF)
    | 2, Target.Big -> Bytes.set_uint16_be p off (Int64.to_int value land 0xFFFF)
    | 4, Target.Little -> Bytes.set_int32_le p off (Int64.to_int32 value)
    | 4, Target.Big -> Bytes.set_int32_be p off (Int64.to_int32 value)
    | 8, Target.Little -> Bytes.set_int64_le p off value
    | 8, Target.Big -> Bytes.set_int64_be p off value
    | _ -> write_uint_slow mem addr n value
  else write_uint_slow mem addr n value

(* The simulators' native word accesses (stack slots, argument area,
   spills) are always 8 bytes; give them a dedicated entry point. *)
let read_u64 mem addr =
  let off = Int64.to_int addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = page_of mem addr in
    match mem.target.Target.endian with
    | Target.Little -> Bytes.get_int64_le p off
    | Target.Big -> Bytes.get_int64_be p off
  else read_uint_slow mem addr 8

let write_u64 mem addr v =
  let off = Int64.to_int addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = page_of mem addr in
    match mem.target.Target.endian with
    | Target.Little -> Bytes.set_int64_le p off v
    | Target.Big -> Bytes.set_int64_be p off v
  else write_uint_slow mem addr 8 v

(* ---------- typed scalar access ---------- *)

let read_scalar mem ty addr : Eval.scalar =
  match ty with
  | Types.Bool -> Eval.of_bool (read_u8 mem addr <> 0)
  | Types.Ubyte | Types.Sbyte | Types.Ushort | Types.Short | Types.Uint
  | Types.Int | Types.Ulong | Types.Long ->
      Eval.norm ty (read_uint mem addr (Types.scalar_bytes mem.target ty))
  | Types.Float ->
      let raw = read_uint mem addr 4 in
      Eval.F (ty, Int32.float_of_bits (Int64.to_int32 raw))
  | Types.Double ->
      let raw = read_uint mem addr 8 in
      Eval.F (ty, Int64.float_of_bits raw)
  | Types.Pointer _ ->
      let raw = read_uint mem addr mem.target.Target.ptr_size in
      Eval.P raw
  | _ -> invalid_arg ("Memory.read_scalar: " ^ Types.to_string ty)

let write_scalar mem ty addr (v : Eval.scalar) =
  match ty with
  | Types.Bool -> write_u8 mem addr (if Eval.to_bool v then 1 else 0)
  | Types.Ubyte | Types.Sbyte | Types.Ushort | Types.Short | Types.Uint
  | Types.Int | Types.Ulong | Types.Long ->
      write_uint mem addr (Types.scalar_bytes mem.target ty) (Eval.to_int64 v)
  | Types.Float ->
      write_uint mem addr 4
        (Int64.of_int32 (Int32.bits_of_float (Eval.to_float v)))
  | Types.Double -> write_uint mem addr 8 (Int64.bits_of_float (Eval.to_float v))
  | Types.Pointer _ ->
      write_uint mem addr mem.target.Target.ptr_size (Eval.to_int64 v)
  | _ -> invalid_arg ("Memory.write_scalar: " ^ Types.to_string ty)

(* ---------- heap allocator (runtime malloc/free for workloads) ---------- *)

(* the smallest power of two, at least 16, that holds [n] bytes; None
   when there is none below [max_int] *)
let size_class n =
  let rec go c =
    if c >= n then Some c else if c > max_int / 2 then None else go (c * 2)
  in
  go 16

(* the block at [addr] of size class [cls], zeroed so workloads see
   deterministic contents *)
let claim mem addr cls =
  Hashtbl.replace mem.allocated addr cls;
  fill mem addr cls 0;
  addr

(* A zeroed block of at least [n] bytes, or null (0) when no heap block
   that large fits below the stack. *)
let malloc mem n =
  if n < 0 then invalid_arg "Memory.malloc: negative size";
  match size_class (max n 1) with
  | None -> 0L
  | Some cls -> (
      match List.assoc_opt cls mem.free_lists with
      | Some (a :: rest) ->
          mem.free_lists <-
            (cls, rest) :: List.remove_assoc cls mem.free_lists;
          claim mem a cls
      | Some [] | None ->
          let a = mem.brk in
          if Int64.compare (Int64.sub stack_top a) (Int64.of_int cls) <= 0
          then 0L
          else begin
            mem.brk <- Int64.add a (Int64.of_int cls);
            claim mem a cls
          end)

let free mem addr =
  if Int64.equal addr 0L then ()
  else
    match Hashtbl.find_opt mem.allocated addr with
    | None -> raise (Fault addr)
    | Some cls ->
        Hashtbl.remove mem.allocated addr;
        let existing =
          match List.assoc_opt cls mem.free_lists with Some l -> l | None -> []
        in
        mem.free_lists <-
          (cls, addr :: existing) :: List.remove_assoc cls mem.free_lists

let live_bytes mem =
  Hashtbl.fold (fun _ size acc -> acc + size) mem.allocated 0

(* ---------- bump allocation for images and stacks ---------- *)

type cursor = { mutable next : int64 }

let globals_cursor () = { next = globals_base }

let bump cursor ~align n =
  let a = Int64.of_int align in
  let aligned =
    Int64.mul (Int64.div (Int64.add cursor.next (Int64.sub a 1L)) a) a
  in
  cursor.next <- Int64.add aligned (Int64.of_int (max n 1));
  aligned
