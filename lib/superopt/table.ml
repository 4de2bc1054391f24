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

type 'i rule = { lhs : 'i list; rhs : 'i list; saved : int }

type rules =
  | X86_rules of X86lite.X86.instr rule list
  | Sparc_rules of Sparclite.Sparc.instr rule list

type t = { target : string; rules : rules }

(* Bump on any change to the rule representation or the canonical form;
   the version is baked into both the serialized magic and the cache
   entry name, so old entries are orphaned rather than misread. *)
let version = 1
let magic = Printf.sprintf "LLVAPEEP%d\x00" version

exception Invalid_table of string

let x86 rules = { target = "x86lite"; rules = X86_rules rules }
let sparc rules = { target = "sparclite"; rules = Sparc_rules rules }

let count t =
  match t.rules with
  | X86_rules rs -> List.length rs
  | Sparc_rules rs -> List.length rs

let total_saved t =
  match t.rules with
  | X86_rules rs -> List.fold_left (fun a r -> a + r.saved) 0 rs
  | Sparc_rules rs -> List.fold_left (fun a r -> a + r.saved) 0 rs

(* Rule pairs in the shape [Compile.apply_rules] consumes. *)
let x86_pairs t =
  match t.rules with
  | X86_rules rs -> List.map (fun r -> (r.lhs, r.rhs)) rs
  | Sparc_rules _ ->
      raise (Invalid_table "x86lite rules requested from a sparclite table")

let sparc_pairs t =
  match t.rules with
  | Sparc_rules rs -> List.map (fun r -> (r.lhs, r.rhs)) rs
  | X86_rules _ ->
      raise (Invalid_table "sparclite rules requested from an x86lite table")

let validate t =
  let check name cost rs =
    if t.target <> name then
      raise
        (Invalid_table
           (Printf.sprintf "table target %S carries %s rules" t.target name));
    List.iter
      (fun r ->
        if r.lhs = [] then raise (Invalid_table "empty rule left-hand side");
        let sum = List.fold_left (fun a i -> a + cost i) 0 in
        if sum r.lhs - sum r.rhs <> r.saved || r.saved <= 0 then
          raise
            (Invalid_table "rule saving disagrees with the current cycle model"))
      rs
  in
  match t.rules with
  | X86_rules rs -> check "x86lite" X86lite.X86.cycles_of rs
  | Sparc_rules rs -> check "sparclite" Sparclite.Sparc.cycles_of rs

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
  let dump ito rs =
    List.iteri
      (fun k r ->
        Buffer.add_string buf (Printf.sprintf "rule %d (saves %d):\n" k r.saved);
        List.iter
          (fun i -> Buffer.add_string buf ("  - " ^ ito i ^ "\n"))
          r.lhs;
        List.iter
          (fun i -> Buffer.add_string buf ("  + " ^ ito i ^ "\n"))
          r.rhs)
      rs
  in
  (match t.rules with
  | X86_rules rs -> dump X86lite.X86.to_string rs
  | Sparc_rules rs -> dump Sparclite.Sparc.to_string rs);
  Buffer.contents buf
