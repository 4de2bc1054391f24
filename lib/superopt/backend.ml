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

  (* the simulator *)
  type state
  type cache

  val new_cache : unit -> cache
  val create : ?fuel:int -> ?cache:cache -> instr cmodule -> state
  val init_stack : state -> unit

  (* resolve functions by name through [f] (LLEE's cache and JIT) *)
  val set_lookup : state -> (string -> instr cfunc option) -> unit
  val call_function : state -> string -> int64 list -> int64
  val current : state -> string
  val output : state -> string
  val icount : state -> int
  val cycles : state -> int

  (* functions redirected by self-modifying code *)
  val redirects : state -> int

  (* the floating-point return register *)
  val f0 : state -> float
  val mem : state -> Vmem.Memory.t

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

  type state = Sim.state
  type cache = Sim.cache

  let new_cache = Sim.new_cache
  let create = Sim.create
  let init_stack = Sim.init_stack
  let set_lookup (st : state) f = st.lookup <- (fun _ name -> f name)
  let call_function = Sim.call_function
  let current = Sim.current
  let output = Sim.output
  let icount (st : state) = st.icount
  let cycles (st : state) = st.cycles
  let redirects (st : state) = Hashtbl.length st.redirects
  let f0 (st : state) = st.fregs.(0)
  let mem (st : state) = st.mem

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

  type state = Sim.state
  type cache = Sim.cache

  let new_cache = Sim.new_cache
  let create = Sim.create
  let init_stack = Sim.init_stack
  let set_lookup (st : state) f = st.lookup <- (fun _ name -> f name)
  let call_function = Sim.call_function
  let current = Sim.current
  let output = Sim.output
  let icount (st : state) = st.icount
  let cycles (st : state) = st.cycles
  let redirects (st : state) = Hashtbl.length st.redirects
  let f0 (st : state) = st.fregs.(0)
  let mem (st : state) = st.mem

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
