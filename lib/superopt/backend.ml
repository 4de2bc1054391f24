(* One back-end: an I-ISA's compiler, simulator, superoptimizer oracle
   and search vocabulary behind one signature, so the consumers above
   them (the peephole search, rule tables, LLEE's launch paths, the
   structured outcomes and the certifier) are written once. A new I-ISA
   costs one instance here plus its instruction selection, simulator
   core and search vocabulary; the instances only name what their
   modules already define.

   Named [Backend] because [Llva.Target] already names the data layout
   a module is compiled for. *)

open Llva

(* A rewrite rule over canonical windows. *)
type 'i rule = { lhs : 'i list; rhs : 'i list; saved : int }

(* A rule table's rules as [Table] marshals them: one constructor per
   back-end. *)
type rules =
  | X86_rules of X86lite.X86.instr rule list
  | Sparc_rules of Sparclite.Sparc.instr rule list

type 'i cfunc = 'i Codegen.Native.cfunc
type 'i cmodule = 'i Codegen.Native.cmodule

module type S = sig
  (* "x86lite" or "sparclite": part of cache entry names, table files
     and certification verdicts *)
  val name : string

  (* the code metrics, branch clean-up and peephole pass of
     [Codegen.Peephole] *)
  include Codegen.Peephole.S

  (* instruction selection with the back-end's default allocator *)
  val compile_module :
    ?peep:(instr list * instr list) list ->
    ?peep_stats:Codegen.Peephole.stats ->
    Ir.modl ->
    instr cmodule

  val compile_function :
    Ir.modl ->
    Vmem.Image.t ->
    peep:(instr list * instr list) list ->
    peep_stats:Codegen.Peephole.stats ->
    Ir.func ->
    instr cfunc

  (* the frame displacement of spill slot [k] *)
  val slot_disp : int -> int

  (* the simulator's half of [Codegen.Machine] *)
  val machine : instr Codegen.Machine.isa

  module Oracle : sig
    type h
    type session

    val make : unit -> h
    val session : h -> inputs:instr list -> instr list -> session option
    val screen_ok : session -> instr array -> bool
    val full_ok : session -> instr array -> bool
    val verify_rule : h -> instr list -> instr list -> bool
  end

  (* the search vocabulary (see [Vocab]) *)
  val admissible : instr -> bool
  val forms : instr list -> instr list

  (* the table projection *)
  val rules : instr rule list -> rules
  val rules_of : rules -> instr rule list option
end

module X86 = struct
  open X86lite

  let name = "x86lite"

  include (Compile : Codegen.Peephole.S with type instr = X86.instr)

  let compile_module ?peep ?peep_stats m =
    Compile.compile_module ?peep ?peep_stats m

  let compile_function m image ~peep ~peep_stats f =
    Compile.compile_function m image ~peep ~peep_stats f

  let slot_disp = Compile.slot_disp

  let machine = Sim.machine

  module Oracle = Oracle.X86

  let admissible = Vocab.X86.admissible
  let forms = Vocab.X86.forms
  let rules rs = X86_rules rs
  let rules_of = function X86_rules rs -> Some rs | Sparc_rules _ -> None
end

module Sparc = struct
  open Sparclite

  let name = "sparclite"

  include (Compile : Codegen.Peephole.S with type instr = Sparc.instr)

  let compile_module ?peep ?peep_stats m =
    Compile.compile_module ?peep ?peep_stats m

  let compile_function m image ~peep ~peep_stats f =
    Compile.compile_function m image ~peep ~peep_stats f

  let slot_disp = Compile.slot_disp

  let machine = Sim.machine

  module Oracle = Oracle.Sparc

  let admissible = Vocab.Sparc.admissible
  let forms = Vocab.Sparc.forms
  let rules rs = Sparc_rules rs
  let rules_of = function Sparc_rules rs -> Some rs | X86_rules _ -> None
end

let all : (module S) list = [ (module X86); (module Sparc) ]

let find name =
  List.find_opt (fun (module B : S) -> B.name = name) all

let of_name name =
  match find name with
  | Some b -> b
  | None -> invalid_arg ("Superopt.Backend.of_name: unknown back-end " ^ name)
