(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven. LLEE cache
   entries carry this checksum inside their magic frame so bit-rot
   anywhere in a stored payload is detected before unmarshalling — a
   damaged entry is quarantined and retranslated instead of feeding
   garbage to [Marshal]. *)

(* Slicing by eight: [tables] holds eight 256-entry tables one after
   the other. Entry [n] of the first is the CRC of byte [n]; entry [n]
   of table [k] is that of byte [n] followed by [k] zero bytes, so one
   step folds eight bytes into the CRC with eight lookups. *)
let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xFF)
    done
  done;
  t

(* entry [n] of table [k]; [n] is a byte, so the read is in bounds *)
let entry k n = Array.unsafe_get tables ((k lsl 8) + n)

(* the little-endian 32-bit word at [i], unsigned *)
let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

(* the CRC of [len] bytes of [s] from [off] *)
let sub s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.sub";
  let c = ref 0xFFFFFFFF and i = ref off in
  let blocks_end = off + (len land lnot 7) in
  while !i < blocks_end do
    let x = !c lxor word s !i and y = word s (!i + 4) in
    c :=
      entry 7 (x land 0xFF)
      lxor entry 6 ((x lsr 8) land 0xFF)
      lxor entry 5 ((x lsr 16) land 0xFF)
      lxor entry 4 (x lsr 24)
      lxor entry 3 (y land 0xFF)
      lxor entry 2 ((y lsr 8) land 0xFF)
      lxor entry 1 ((y lsr 16) land 0xFF)
      lxor entry 0 (y lsr 24);
    i := !i + 8
  done;
  for j = blocks_end to off + len - 1 do
    c := entry 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = sub s ~off:0 ~len:(String.length s)

(* fixed-width lowercase hex, the form stored in the cache frame *)
let to_hex crc = Printf.sprintf "%08x" crc
let hex s = to_hex (string s)
