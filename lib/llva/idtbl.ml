(* Tables from the ids [Ir.next_id] hands out (every one positive) to
   non-negative ints: open addressing with linear probing, the id itself
   as the hash. A function's blocks, arguments and instructions were
   mostly made together, so their ids are close to consecutive and land
   in distinct slots; a lookup is an array read or two, with no hashing
   call and no allocation. *)

type t = {
  mutable keys : int array; (* 0: an empty slot *)
  mutable vals : int array;
  mutable count : int;
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap 0; vals = Array.make !cap 0; count = 0 }

(* the slot holding [id], or the empty slot where it would go *)
let rec slot keys mask id i =
  let k = keys.(i) in
  if k = id || k = 0 then i else slot keys mask id ((i + 1) land mask)

let find t id =
  let mask = Array.length t.keys - 1 in
  let i = slot t.keys mask id (id land mask) in
  if t.keys.(i) = id then t.vals.(i) else -1

let mem t id = find t id >= 0

(* Binds [id] to [v]; with [~keep:true], only when it has no binding
   yet. Whether [id] was bound before. *)
let rec bind ~keep t id v =
  let cap = Array.length t.keys in
  let i = slot t.keys (cap - 1) id (id land (cap - 1)) in
  if t.keys.(i) = id then begin
    if not keep then t.vals.(i) <- v;
    true
  end
  else if 2 * (t.count + 1) > cap then begin
    (* at most half full: double and re-insert *)
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * cap) 0;
    t.vals <- Array.make (2 * cap) 0;
    t.count <- 0;
    Array.iteri
      (fun j k -> if k <> 0 then ignore (bind ~keep:false t k vals.(j)))
      keys;
    bind ~keep t id v
  end
  else begin
    t.keys.(i) <- id;
    t.vals.(i) <- v;
    t.count <- t.count + 1;
    false
  end

let replace t id v = ignore (bind ~keep:false t id v)

(* binds [id] to [v] unless it is bound; whether it did *)
let add_absent t id v = not (bind ~keep:true t id v)
