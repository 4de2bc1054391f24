(* Everything above instruction selection that the I-ISAs' compilers
   share, written once over a small view of the instruction set: the
   branch clean-up after selection, the learned peephole pass, and the
   code metrics.

   [apply_rules] rewrites straight-line windows of a finished code
   array against an oracle-verified rewrite table built offline by the
   superoptimizer (lib/superopt). Rules are stored in canonical form:
   frame-slot displacements are renamed to sentinel values
   [slot_var_base + 8k] in first-occurrence order, so a single rule
   covers every concrete frame offset. A window is canonicalized only
   when every memory operand is a frame-register-based, 8-byte-aligned,
   full-word slot and no operand names the stack or frame registers as
   data ([ISA.canon_instr] decides). Distinct aligned slots never
   overlap, so execution is isomorphic under slot renaming and a rule
   verified on one instantiation holds for all of them. Any other
   window is left concrete, where it can never match a canonical
   rule. *)

let slot_var_base = 1_000_000

exception Not_canon

type stats = { mutable rewrites : int; mutable cycles_saved : int }

let fresh_stats () = { rewrites = 0; cycles_saved = 0 }

module type ISA = sig
  type instr

  val cycles_of : instr -> int
  val size_of : instr -> int
  val to_string : instr -> string

  (* [Some l] for an unconditional jump to [l] *)
  val jump_target : instr -> int option

  (* the label a branch or an invoke names *)
  val branch_target : instr -> int option

  (* rebuild a branch or an invoke with its label mapped; every other
     instruction is returned as is *)
  val retarget : (int -> int) -> instr -> instr

  (* [invert ~fallthrough i next]: when [i; next] is [jcc a; jmp b] with
     [a = fallthrough], the pair [jcc (not cc) b; jmp a] *)
  val invert : fallthrough:int -> instr -> instr -> (instr * instr) option

  (* The canonical form of an instruction in a rewritable window, its
     frame-slot displacements mapped through [slot]. Raises [Not_canon]
     (as [slot] does for a displacement that is not an aligned slot)
     when the instruction is outside the rewritable subset. *)
  val canon_instr : slot:(int -> int) -> instr -> instr

  (* Map every frame-slot displacement of an instruction. The marshaled
     code and tables record physical sharing, so this rebuilds exactly
     the instructions and operands that can hold a slot and returns
     every other value as is. *)
  val map_slots : (int -> int) -> instr -> instr
end

module type S = sig
  include ISA

  val invert_branches : instr array -> instr array
  val relax : instr array -> instr array

  (* [t.(l)]: some branch or invoke of the code names label [l] *)
  val jump_targets : instr array -> bool array
  val canon_window : instr list -> instr list * int array
  val concretize : int array -> instr list -> instr list

  val apply_rules :
    rules:(instr list * instr list) list ->
    instr array ->
    instr array * int * int

  val finish_code :
    peep:(instr list * instr list) list ->
    ?peep_stats:stats ->
    instr array ->
    instr array

  val module_instr_count : instr Native.cmodule -> int
  val module_code_size : instr Native.cmodule -> int
  val disassemble : instr Native.cfunc -> string
end

module Make (I : ISA) : S with type instr = I.instr = struct
  include I

  (* "jcc a; jmp b" where a is the fall-through: invert the condition so
     the unconditional jump becomes removable by [relax] *)
  let invert_branches (code : instr array) =
    for k = 0 to Array.length code - 2 do
      match I.invert ~fallthrough:(k + 2) code.(k) code.(k + 1) with
      | Some (i, next) ->
          code.(k) <- i;
          code.(k + 1) <- next
      | None -> ()
    done;
    code

  (* Remove jumps to the immediately following instruction (fall-through),
     remapping all label targets; block layout thus affects both code size
     and cycle counts, which the LLEE trace optimizer exploits. *)
  let relax (code : instr array) =
    Relax.relax
      ~fallthrough:(fun k i ->
        match I.jump_target i with Some l -> l = k + 1 | None -> false)
      ~retarget:I.retarget code

  let jump_targets (code : instr array) =
    let t = Array.make (Array.length code + 2) false in
    Array.iter
      (fun i ->
        match I.branch_target i with
        | Some l when l >= 0 && l < Array.length t -> t.(l) <- true
        | _ -> ())
      code;
    t

  (* Canonicalize a window. Returns the canonical form plus the concrete
     displacement behind each slot variable; windows outside the
     rewritable subset come back unchanged with no variables, so they
     match no rule. *)
  let canon_window (w : instr list) : instr list * int array =
    let vars = ref [] in
    let slot d =
      if d mod 8 <> 0 || abs d >= slot_var_base then raise Not_canon;
      let k =
        match List.assoc_opt d !vars with
        | Some k -> k
        | None ->
            let k = List.length !vars in
            vars := !vars @ [ (d, k) ];
            k
      in
      slot_var_base + (8 * k)
    in
    match List.map (I.canon_instr ~slot) w with
    | cw -> (cw, Array.of_list (List.map fst !vars))
    | exception Not_canon -> (w, [||])

  (* Substitute concrete slot displacements back into a canonical
     instruction sequence (a rule's right-hand side). *)
  let concretize (vars : int array) (w : instr list) : instr list =
    let disp d =
      if d >= slot_var_base then begin
        let k = (d - slot_var_base) / 8 in
        if k >= Array.length vars then raise Not_canon;
        vars.(k)
      end
      else d
    in
    List.map (I.map_slots disp) w

  let window_cycles w = List.fold_left (fun acc i -> acc + I.cycles_of i) 0 w

  (* One left-to-right rewriting pass. Windows that contain a branch
     target strictly inside them are never rewritten (jumping into the
     middle of a replacement would be meaningless); targets at a window's
     first instruction are fine, since replacements are dropped in at
     exactly that position. All branch targets are remapped afterwards. *)
  let apply_rules_pass ~index ~max_len (code : instr array) =
    let n = Array.length code in
    let is_target = jump_targets code in
    let out = ref [] and out_len = ref 0 in
    let new_index = Array.make (n + 1) 0 in
    let rewrites = ref 0 and saved = ref 0 in
    let i = ref 0 in
    while !i < n do
      new_index.(!i) <- !out_len;
      let applied = ref false in
      let k = ref (min max_len (n - !i)) in
      while (not !applied) && !k >= 1 do
        let interior = ref false in
        for j = !i + 1 to !i + !k - 1 do
          if is_target.(j) then interior := true
        done;
        (if not !interior then
           let window = Array.to_list (Array.sub code !i !k) in
           let cw, vars = canon_window window in
           match Hashtbl.find_opt index cw with
           | Some rhs -> (
               match concretize vars rhs with
               | rhs_c ->
                   let before = window_cycles window
                   and after = window_cycles rhs_c in
                   if after < before then begin
                     List.iter
                       (fun ins ->
                         out := ins :: !out;
                         incr out_len)
                       rhs_c;
                     incr rewrites;
                     saved := !saved + (before - after);
                     i := !i + !k;
                     applied := true
                   end
               | exception Not_canon -> ())
           | None -> ());
        if not !applied then decr k
      done;
      if not !applied then begin
        out := code.(!i) :: !out;
        incr out_len;
        incr i
      end
    done;
    new_index.(n) <- !out_len;
    let remap l = if l >= 0 && l <= n then new_index.(min l n) else l in
    let arr = Array.map (I.retarget remap) (Array.of_list (List.rev !out)) in
    (arr, !rewrites, !saved)

  (* Apply a rewrite table (canonical lhs/rhs pairs) to fixpoint, bounded
     at four passes. Purely deterministic: same table in, same code out.
     Returns the rewritten code plus (rewrite count, static cycles
     saved). *)
  let apply_rules ~(rules : (instr list * instr list) list)
      (code : instr array) : instr array * int * int =
    if rules = [] then (code, 0, 0)
    else begin
      let index = Hashtbl.create 64 in
      let max_len = ref 1 in
      List.iter
        (fun (lhs, rhs) ->
          if lhs <> [] && not (Hashtbl.mem index lhs) then begin
            Hashtbl.replace index lhs rhs;
            max_len := max !max_len (List.length lhs)
          end)
        rules;
      let rec go code total_r total_s passes =
        if passes = 0 then (code, total_r, total_s)
        else
          let code', r, s = apply_rules_pass ~index ~max_len:!max_len code in
          if r = 0 then (code', total_r, total_s)
          else go code' (total_r + r) (total_s + s) (passes - 1)
      in
      go code 0 0 4
    end

  (* A selected function's code, its labels resolved to code positions:
     branch clean-up, then the learned rewrites [peep] (counted in
     [peep_stats]) and a second clean-up. *)
  let finish_code ~peep ?peep_stats (code : instr array) =
    let code = relax (invert_branches code) in
    match peep with
    | [] -> code
    | rules ->
        let code, r, s = apply_rules ~rules code in
        (match peep_stats with
        | Some ps ->
            ps.rewrites <- ps.rewrites + r;
            ps.cycles_saved <- ps.cycles_saved + s
        | None -> ());
        relax code

  (* ---------- metrics ---------- *)

  let func_instr_count (cf : instr Native.cfunc) = Array.length cf.code

  let func_code_size (cf : instr Native.cfunc) =
    Array.fold_left (fun acc i -> acc + I.size_of i) 0 cf.code

  let module_instr_count (cm : instr Native.cmodule) =
    Hashtbl.fold (fun _ cf acc -> acc + func_instr_count cf) cm.funcs 0

  (* native code bytes, comparable to Table 2's native size *)
  let module_code_size (cm : instr Native.cmodule) =
    Hashtbl.fold (fun _ cf acc -> acc + func_code_size cf) cm.funcs 0

  let disassemble (cf : instr Native.cfunc) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (cf.cf_name ^ ":\n");
    Array.iteri
      (fun k i ->
        Buffer.add_string buf (Printf.sprintf "  %3d: %s\n" k (I.to_string i)))
      cf.code;
    Buffer.contents buf
end
