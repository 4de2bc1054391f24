(* One back-end: an I-ISA's compiler, simulator, superoptimizer oracle
   and search vocabulary behind one signature, so the consumers above
   them (the peephole search, rule tables, LLEE's launch paths, the
   structured outcomes and the certifier) are written once. A new I-ISA
   costs one instance here plus its instruction selection, simulator
   core and search vocabulary; the instances only name what their
   modules already define.

   Named [Backend] because [Llva.Target] already names the data layout
   a module is compiled for. *)

(* A rewrite rule over canonical windows. *)
type 'i rule = { lhs : 'i list; rhs : 'i list; saved : int }

(* A rule table's rules as [Table] marshals them: one constructor per
   back-end. *)
type rules =
  | X86_rules of X86lite.X86.instr rule list
  | Sparc_rules of Sparclite.Sparc.instr rule list

module type S = sig
  (* instruction selection, its spill-slot layout, the code metrics,
     branch clean-up and peephole pass ([Codegen.Select.S]); [name] is
     "x86lite" or "sparclite", part of cache entry names, table files
     and certification verdicts *)
  include Codegen.Select.S

  (* the simulator's half of [Codegen.Machine] *)
  val machine : instr Codegen.Machine.isa

  module Oracle : sig
    type h
    type session

    val make : unit -> h
    val session : h -> inputs:instr list -> instr list -> session option
    val probe : session -> (instr, instr Codegen.Machine.op) Oracle.probe

    (* the pre-screen bits of what some instructions change, from given
       harness states (see [Oracle.Make.changes]) *)
    val changes :
      session -> instr Codegen.Machine.op array -> int64 array list -> int

    val verify_rule : h -> instr list -> instr list -> bool
  end

  (* the search vocabulary (see [Vocab]): [forms w push] pushes each
     form of window [w] once *)
  val admissible : instr -> bool
  val forms : instr list -> (instr -> unit) -> unit

  (* the table projection *)
  val rules : instr rule list -> rules
  val rules_of : rules -> instr rule list option
end

module X86 = struct
  open X86lite

  include (Compile : Codegen.Select.S with type instr = X86.instr)

  let machine = Sim.machine

  module Oracle = Oracle.X86

  let admissible = Vocab.X86.admissible
  let forms = Vocab.X86.forms
  let rules rs = X86_rules rs
  let rules_of = function X86_rules rs -> Some rs | Sparc_rules _ -> None
end

module Sparc = struct
  open Sparclite

  include (Compile : Codegen.Select.S with type instr = Sparc.instr)

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
