(* Call graph over a module's direct calls, with Tarjan SCCs for recursion
   detection (the inliner refuses to inline inside recursive cycles; global
   DCE uses reachability from main). *)

open Llva

type t = {
  m : Ir.modl;
  callees : (int, Ir.func list) Hashtbl.t; (* func id -> direct callees *)
  callers : (int, Ir.func list) Hashtbl.t;
  address_taken : (int, bool) Hashtbl.t; (* func whose address escapes *)
}

let direct_callee (i : Ir.instr) =
  match i.Ir.op with
  | Ir.Call | Ir.Invoke -> (
      match Ir.call_callee i with Ir.Vfunc f -> Some f | _ -> None)
  | _ -> None

let compute (m : Ir.modl) : t
    =
  let t =
    {
      m;
      callees = Hashtbl.create 32;
      callers = Hashtbl.create 32;
      address_taken = Hashtbl.create 32;
    }
  in
  let add tbl key f =
    let cur = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
    if not (List.exists (fun g -> g == f) cur) then
      Hashtbl.replace tbl key (f :: cur)
  in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_instrs
        (fun i ->
          (match direct_callee i with
          | Some callee ->
              add t.callees f.Ir.fid callee;
              add t.callers callee.Ir.fid f
          | None -> ());
          (* any non-callee operand mentioning a function takes its
             address *)
          Array.iteri
            (fun k v ->
              match v with
              | Ir.Vfunc g ->
                  let is_callee_slot =
                    (i.Ir.op = Ir.Call || i.Ir.op = Ir.Invoke) && k = 0
                  in
                  if not is_callee_slot then
                    Hashtbl.replace t.address_taken g.Ir.fid true
              | _ -> ())
            i.Ir.operands)
        f)
    m.Ir.funcs;
  (* global initializers referencing a function take its address *)
  let rec scan_const (c : Ir.const) =
    match c.Ir.ckind with
    | Ir.Cglobal_ref name -> (
        match Ir.find_func m name with
        | Some f -> Hashtbl.replace t.address_taken f.Ir.fid true
        | None -> ())
    | Ir.Carray cs | Ir.Cstruct cs -> List.iter scan_const cs
    | _ -> ()
  in
  List.iter
    (fun g -> match g.Ir.ginit with Some c -> scan_const c | None -> ())
    m.Ir.globals;
  t

let callees t (f : Ir.func) =
  match Hashtbl.find_opt t.callees f.Ir.fid with Some l -> l | None -> []

let callers t (f : Ir.func) =
  match Hashtbl.find_opt t.callers f.Ir.fid with Some l -> l | None -> []

let is_address_taken t (f : Ir.func) = Hashtbl.mem t.address_taken f.Ir.fid

(* ---------- Tarjan SCC ---------- *)

let sccs (t : t) : Ir.func list list =
  let index = Hashtbl.create 32 in
  let lowlink = Hashtbl.create 32 in
  let on_stack = Hashtbl.create 32 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect (f : Ir.func) =
    Hashtbl.replace index f.Ir.fid !counter;
    Hashtbl.replace lowlink f.Ir.fid !counter;
    incr counter;
    stack := f :: !stack;
    Hashtbl.replace on_stack f.Ir.fid ();
    List.iter
      (fun (g : Ir.func) ->
        if not (Hashtbl.mem index g.Ir.fid) then begin
          strongconnect g;
          Hashtbl.replace lowlink f.Ir.fid
            (min (Hashtbl.find lowlink f.Ir.fid) (Hashtbl.find lowlink g.Ir.fid))
        end
        else if Hashtbl.mem on_stack g.Ir.fid then
          Hashtbl.replace lowlink f.Ir.fid
            (min (Hashtbl.find lowlink f.Ir.fid) (Hashtbl.find index g.Ir.fid)))
      (callees t f);
    if Hashtbl.find lowlink f.Ir.fid = Hashtbl.find index f.Ir.fid then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | g :: rest ->
            stack := rest;
            Hashtbl.remove on_stack g.Ir.fid;
            if g == f then g :: acc else pop (g :: acc)
      in
      result := pop [] :: !result
    end
  in
  List.iter
    (fun f -> if not (Hashtbl.mem index f.Ir.fid) then strongconnect f)
    t.m.Ir.funcs;
  List.rev !result

(* Is [f] (mutually) recursive? *)
let is_recursive t (f : Ir.func) =
  List.exists (fun g -> g == f) (callees t f)
  || List.exists
       (fun scc -> List.length scc > 1 && List.exists (fun g -> g == f) scc)
       (sccs t)

(* Functions reachable from the given roots by direct calls; functions
   whose address is taken are treated as always reachable. *)
let reachable_from t (roots : Ir.func list) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 32 in
  let rec visit f =
    if not (Hashtbl.mem seen f.Ir.fid) then begin
      Hashtbl.replace seen f.Ir.fid ();
      List.iter visit (callees t f)
    end
  in
  List.iter visit roots;
  List.iter
    (fun f -> if is_address_taken t f then visit f)
    t.m.Ir.funcs;
  seen
