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
  locs : (int, location) Hashtbl.t; (* value id -> location *)
  mutable n_slots : int;
  mutable used_regs_int : int list; (* physical indices actually used *)
  mutable used_regs_float : int list;
}

let location a vid =
  match Hashtbl.find_opt a.locs vid with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Regalloc.location: unknown value %d" vid)

let location_opt a vid = Hashtbl.find_opt a.locs vid

let fresh_slot a =
  let s = a.n_slots in
  a.n_slots <- s + 1;
  Slot s

let spill_everything (ivs : Intervals.t) : assignment =
  let a =
    { locs = Hashtbl.create 64; n_slots = 0; used_regs_int = [];
      used_regs_float = [] }
  in
  List.iter
    (fun (iv : Intervals.interval) ->
      Hashtbl.replace a.locs iv.Intervals.vid (fresh_slot a))
    (Intervals.all ivs);
  a

(* [int_regs] and [float_regs] are the allocatable physical register
   indices for each class (scratch registers must be excluded by the
   caller). *)
let linear_scan ~(int_regs : int list) ~(float_regs : int list)
    (ivs : Intervals.t) : assignment =
  let a =
    { locs = Hashtbl.create 64; n_slots = 0; used_regs_int = [];
      used_regs_float = [] }
  in
  let run klass regs =
    let free = ref regs in
    (* active: (end_pos, reg, interval) sorted by end_pos *)
    let active : (int * int * Intervals.interval) list ref = ref [] in
    let note_used r =
      match klass with
      | Intervals.Kint ->
          if not (List.mem r a.used_regs_int) then
            a.used_regs_int <- r :: a.used_regs_int
      | Intervals.Kfloat ->
          if not (List.mem r a.used_regs_float) then
            a.used_regs_float <- r :: a.used_regs_float
    in
    let expire pos =
      let expired, still =
        List.partition (fun (e, _, _) -> e < pos) !active
      in
      List.iter (fun (_, r, _) -> free := r :: !free) expired;
      active := still
    in
    List.iter
      (fun (iv : Intervals.interval) ->
        if iv.Intervals.klass = klass then begin
          expire iv.Intervals.start_pos;
          match !free with
          | r :: rest ->
              free := rest;
              Hashtbl.replace a.locs iv.Intervals.vid (Reg r);
              note_used r;
              active :=
                List.sort compare ((iv.Intervals.end_pos, r, iv) :: !active)
          | [] -> (
              (* spill the interval with the lowest weight among active +
                 current *)
              let worst =
                List.fold_left
                  (fun (acc : (int * int * Intervals.interval) option) entry ->
                    let _, _, cand = entry in
                    match acc with
                    | None -> Some entry
                    | Some (_, _, best) ->
                        if cand.Intervals.weight < best.Intervals.weight then
                          Some entry
                        else acc)
                  None !active
              in
              match worst with
              | Some ((_, r, spilled) as entry)
                when spilled.Intervals.weight < iv.Intervals.weight ->
                  (* steal the register *)
                  Hashtbl.replace a.locs spilled.Intervals.vid (fresh_slot a);
                  active := List.filter (fun e -> e <> entry) !active;
                  Hashtbl.replace a.locs iv.Intervals.vid (Reg r);
                  note_used r;
                  active :=
                    List.sort compare ((iv.Intervals.end_pos, r, iv) :: !active)
              | _ -> Hashtbl.replace a.locs iv.Intervals.vid (fresh_slot a))
        end)
      (Intervals.all ivs)
  in
  run Intervals.Kint int_regs;
  run Intervals.Kfloat float_regs;
  a
