(* The minimal runtime every execution engine (interpreter and machine
   simulators) provides to programs: heap allocation and console output.
   Output is captured in a buffer so differential tests can compare the
   interpreter against the simulated back-ends byte-for-byte. *)

open Llva

exception Exit_called of int

type t = { mem : Memory.t; out : Buffer.t }

let create mem = { mem; out = Buffer.create 256 }
let output rt = Buffer.contents rt.out

let read_cstring rt addr =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = Memory.read_u8 rt.mem a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (Int64.add a 1L)
    end
  in
  go addr;
  Buffer.contents buf

(* External functions the runtime implements, with their arity. Native
   code passes every argument as one 64-bit word; [float_arg] says the
   word holds the bits of a double. *)
let known =
  [
    ("malloc", 1); ("free", 1); ("print_int", 1); ("print_long", 1);
    ("print_char", 1); ("print_float", 1); ("print_str", 1); ("print_nl", 0);
    ("exit", 1); ("abort", 0); ("memcpy", 3); ("memset", 3); ("strlen", 1);
  ]

let is_known name = List.mem_assoc name known
let arity name = List.assoc name known
let float_arg name = name = "print_float"

(* Dispatch an external call. Arguments and result use [Eval.scalar]. *)
let call rt name (args : Eval.scalar list) : Eval.scalar =
  match (name, args) with
  | "malloc", [ n ] ->
      let n = Eval.to_int64 n in
      (* past max_int no size class exists: null, like any size too big *)
      Eval.P
        (if Int64.compare n (Int64.of_int max_int) > 0 then 0L
         else Memory.malloc rt.mem (Int64.to_int n))
  | "free", [ p ] ->
      Memory.free rt.mem (Eval.to_int64 p);
      Eval.Undef Types.Void
  | "print_int", [ v ] ->
      Buffer.add_string rt.out (Int64.to_string (Eval.to_int64 v));
      Eval.Undef Types.Void
  | "print_long", [ v ] ->
      Buffer.add_string rt.out (Int64.to_string (Eval.to_int64 v));
      Eval.Undef Types.Void
  | "print_char", [ v ] ->
      Buffer.add_char rt.out (Char.chr (Int64.to_int (Eval.to_int64 v) land 0xFF));
      Eval.Undef Types.Void
  | "print_float", [ v ] ->
      Buffer.add_string rt.out (Printf.sprintf "%.6g" (Eval.to_float v));
      Eval.Undef Types.Void
  | "print_str", [ p ] ->
      Buffer.add_string rt.out (read_cstring rt (Eval.to_int64 p));
      Eval.Undef Types.Void
  | "print_nl", [] ->
      Buffer.add_char rt.out '\n';
      Eval.Undef Types.Void
  | "exit", [ code ] -> raise (Exit_called (Int64.to_int (Eval.to_int64 code)))
  | "abort", [] -> raise (Exit_called 134)
  | "memcpy", [ dst; src; n ] ->
      let d = Eval.to_int64 dst and s = Eval.to_int64 src in
      let n = Int64.to_int (Eval.to_int64 n) in
      Memory.write_bytes rt.mem d (Memory.read_bytes rt.mem s n);
      Eval.P d
  | "memset", [ dst; c; n ] ->
      let d = Eval.to_int64 dst in
      let c = Int64.to_int (Eval.to_int64 c) land 0xFF in
      let n = Int64.to_int (Eval.to_int64 n) in
      Memory.fill rt.mem d n c;
      Eval.P d
  | "strlen", [ p ] ->
      let s = read_cstring rt (Eval.to_int64 p) in
      Eval.I (Types.Uint, Int64.of_int (String.length s))
  | _ ->
      invalid_arg
        (Printf.sprintf "Runtime.call: unknown external %s/%d" name
           (List.length args))

(* [call] from native code: argument [k] is the 64-bit word [word k]. *)
let call_words rt name (word : int -> int64) : Eval.scalar =
  let float = float_arg name in
  call rt name
    (List.init (arity name) (fun k ->
         let w = word k in
         if float then Eval.F (Types.Double, Int64.float_of_bits w)
         else Eval.I (Types.Long, w)))
