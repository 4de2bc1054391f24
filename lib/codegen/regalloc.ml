(* Register allocation over IR-level live intervals.

   Two allocators, matching the paper's two back-ends:
   - [linear_scan]: Poletto–Sarkar linear scan with weight-based spilling
     (the "higher quality" SPARC V9 back-end);
   - [spill_everything]: every value lives in a stack slot (the paper's
     X86 back-end performed "virtually no optimization and very simple
     register allocation resulting in significant spill code"). *)

type location = Reg of int | Slot of int

(* the allocator a back-end's instruction selection runs *)
type alloc = Linear_scan | Spill_everything

type assignment = {
  index : Llva.Idtbl.t; (* value id -> place in [locs] *)
  locs : location option array; (* kept as options: a lookup allocates nothing *)
  mutable n_slots : int;
  mutable used_regs_int : int list; (* physical indices actually used *)
  mutable used_regs_float : int list;
}

(* an assignment of none of the values of [all] yet *)
let create (all : Intervals.interval list) =
  let index = Llva.Idtbl.create (List.length all) in
  List.iteri (fun k (iv : Intervals.interval) -> Llva.Idtbl.replace index iv.Intervals.vid k) all;
  { index; locs = Array.make (List.length all) None; n_slots = 0;
    used_regs_int = []; used_regs_float = [] }

let location_opt a vid =
  let k = Llva.Idtbl.find a.index vid in
  if k < 0 then None else a.locs.(k)

let location a vid =
  match location_opt a vid with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Regalloc.location: unknown value %d" vid)

(* [vid] is the value of one of the intervals the assignment was made for *)
let set a vid l = a.locs.(Llva.Idtbl.find a.index vid) <- Some l

let fresh_slot a =
  let s = a.n_slots in
  a.n_slots <- s + 1;
  Slot s

let spill_everything (ivs : Intervals.t) : assignment =
  let all = Intervals.all ivs in
  let a = create all in
  List.iter
    (fun (iv : Intervals.interval) -> set a iv.Intervals.vid (fresh_slot a))
    all;
  a

(* an interval holding a register, in the active list *)
type active = { a_end : int; a_reg : int; a_iv : Intervals.interval }

(* the active list's order: by end position, then register *)
let before x y = x.a_end < y.a_end || (x.a_end = y.a_end && x.a_reg < y.a_reg)

let rec insert e = function
  | x :: rest when before x e -> x :: insert e rest
  | l -> e :: l

(* [int_regs] and [float_regs] are the allocatable physical register
   indices for each class (scratch registers must be excluded by the
   caller). *)
let linear_scan ~(int_regs : int list) ~(float_regs : int list)
    (ivs : Intervals.t) : assignment =
  let all = Intervals.all ivs in
  let a = create all in
  let run klass regs =
    let free = ref regs in
    let active = ref [] in
    let note_used r =
      match klass with
      | Intervals.Kint ->
          if not (List.mem r a.used_regs_int) then
            a.used_regs_int <- r :: a.used_regs_int
      | Intervals.Kfloat ->
          if not (List.mem r a.used_regs_float) then
            a.used_regs_float <- r :: a.used_regs_float
    in
    (* the intervals ending before [pos] are a prefix of the list *)
    let rec expire pos = function
      | e :: rest when e.a_end < pos ->
          free := e.a_reg :: !free;
          expire pos rest
      | still -> still
    in
    let assign (iv : Intervals.interval) r =
      set a iv.Intervals.vid (Reg r);
      note_used r;
      active :=
        insert { a_end = iv.Intervals.end_pos; a_reg = r; a_iv = iv } !active
    in
    List.iter
      (fun (iv : Intervals.interval) ->
        if iv.Intervals.klass = klass then begin
          active := expire iv.Intervals.start_pos !active;
          match !free with
          | r :: rest ->
              free := rest;
              assign iv r
          | [] -> (
              (* spill the interval with the lowest weight among active +
                 current: the first such in the active list *)
              let worst =
                List.fold_left
                  (fun acc e ->
                    match acc with
                    | Some w
                      when w.a_iv.Intervals.weight <= e.a_iv.Intervals.weight ->
                        acc
                    | _ -> Some e)
                  None !active
              in
              match worst with
              | Some w when w.a_iv.Intervals.weight < iv.Intervals.weight ->
                  (* steal the register *)
                  set a w.a_iv.Intervals.vid (fresh_slot a);
                  active := List.filter (fun e -> e != w) !active;
                  assign iv w.a_reg
              | _ -> set a iv.Intervals.vid (fresh_slot a))
        end)
      all
  in
  run Intervals.Kint int_regs;
  run Intervals.Kfloat float_regs;
  a
