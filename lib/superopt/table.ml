(* Versioned peephole rewrite tables.

   A table is the durable product of the offline superoptimizer
   ([Search]): a list of canonical-form rewrite rules for one backend,
   each carrying the static cycle saving claimed under that backend's
   [cycles_of] model. Tables travel through the LLEE storage cache as a
   [#peep#.v<N>] entry (framed and CRC'd by LLEE like every other
   entry), and through files via [to_string]/[of_string].

   [of_string] is strict: bad magic, an undecodable payload, a
   target/rules mismatch, an empty left-hand side, or a rule whose
   recorded saving disagrees with the current cost model all raise
   [Invalid_table]. The cost re-check matters: it orphans tables
   serialized under an older cycle model instead of letting them apply
   with stale savings accounting. *)

type 'i rule = 'i Backend.rule = { lhs : 'i list; rhs : 'i list; saved : int }
type t = { target : string; rules : Backend.rules }

(* Bump on any change to the rule representation or the canonical form;
   the version is baked into both the serialized magic and the cache
   entry name, so old entries are orphaned rather than misread. *)
let version = 1
let magic = Printf.sprintf "LLVAPEEP%d\x00" version

exception Invalid_table of string

let make (type i) (module B : Backend.S with type instr = i) (rs : i rule list)
    =
  { target = B.name; rules = B.rules rs }

(* A table's rules together with their back-end. *)
type unpacked =
  | Rules : (module Backend.S with type instr = 'i) * 'i rule list -> unpacked

let unpack t =
  match Backend.find t.target with
  | None ->
      raise (Invalid_table (Printf.sprintf "unknown table target %S" t.target))
  | Some (module B) -> (
      match B.rules_of t.rules with
      | Some rs -> Rules ((module B : Backend.S with type instr = B.instr), rs)
      | None ->
          raise
            (Invalid_table
               (Printf.sprintf
                  "table target %S carries another back-end's rules" t.target)))

let count t = match unpack t with Rules (_, rs) -> List.length rs

let total_saved t =
  match unpack t with
  | Rules (_, rs) -> List.fold_left (fun a r -> a + r.saved) 0 rs

(* Rule pairs in the shape [Codegen.Peephole.apply_rules] consumes. *)
let pairs (type i) (module B : Backend.S with type instr = i) t :
    (i list * i list) list =
  match B.rules_of t.rules with
  | Some rs -> List.map (fun r -> (r.lhs, r.rhs)) rs
  | None ->
      raise
        (Invalid_table
           (Printf.sprintf "%s rules requested from a %s table" B.name
              t.target))

let validate t =
  let check (type i) (module B : Backend.S with type instr = i)
      (rs : i rule list) =
    List.iter
      (fun r ->
        if r.lhs = [] then raise (Invalid_table "empty rule left-hand side");
        let sum = List.fold_left (fun a i -> a + B.cycles_of i) 0 in
        if sum r.lhs - sum r.rhs <> r.saved || r.saved <= 0 then
          raise
            (Invalid_table "rule saving disagrees with the current cycle model"))
      rs
  in
  match unpack t with Rules (b, rs) -> check b rs

(* The payload is [Marshal]'s, which records physical sharing: equal
   tables whose values are shared differently serialize to different
   bytes. These bytes feed [fingerprint], the native cache entry names
   and the [#peep#] cache entry, so a search must reproduce how its
   rules share values, not only the rules (see [Search.best_rewrite]). *)
let to_string (t : t) : string =
  validate t;
  magic ^ Marshal.to_string t []

let of_string ?expect_target (s : string) : t =
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    raise (Invalid_table "bad magic or table version");
  let t =
    try (Marshal.from_string s mlen : t)
    with _ -> raise (Invalid_table "undecodable table payload")
  in
  validate t;
  (match expect_target with
  | Some tgt when tgt <> t.target ->
      raise
        (Invalid_table
           (Printf.sprintf "table for %s where %s was expected" t.target tgt))
  | _ -> ());
  t

(* Short content hash; suffixed onto LLEE cache identities so native
   code compiled under different tables never shares an entry. *)
let fingerprint t = String.sub (Digest.to_hex (Digest.string (to_string t))) 0 8

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "peephole table: target=%s version=%d rules=%d saved=%d\n"
       t.target version (count t) (total_saved t));
  let dump (type i) (module B : Backend.S with type instr = i)
      (rs : i rule list) =
    List.iteri
      (fun k r ->
        Buffer.add_string buf (Printf.sprintf "rule %d (saves %d):\n" k r.saved);
        List.iter
          (fun i -> Buffer.add_string buf ("  - " ^ B.to_string i ^ "\n"))
          r.lhs;
        List.iter
          (fun i -> Buffer.add_string buf ("  + " ^ B.to_string i ^ "\n"))
          r.rhs)
      rs
  in
  (match unpack t with Rules (b, rs) -> dump b rs);
  Buffer.contents buf
