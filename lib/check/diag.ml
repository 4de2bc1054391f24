(* Structured diagnostics for llva-lint.

   A diagnostic names the check that produced it, a severity, a precise
   location inside the module (function / block / instruction index), and
   a human-readable message. Ordering is fully deterministic: diagnostics
   sort by position in the module (function order, block order within the
   function, instruction index), then by check id and message, so two
   runs over the same module always print identical reports regardless of
   hashtable iteration or checker scheduling. *)

open Llva

type severity = Note | Warning | Error

let severity_name = function
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_name = function
  | "note" -> Some Note
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

type t = {
  check : string; (* check id, e.g. "uninit-load" *)
  sev : severity;
  func : string; (* "" for module-level diagnostics *)
  block : string; (* "" when not tied to a block *)
  instr : int; (* instruction index within the block; -1 when none *)
  site : string; (* short printed form of the site, e.g. "load %p" *)
  msg : string;
  related : string list;
      (* other functions implicated by an interprocedural finding (the
         callee of a bad call, every member of an offending SCC); the
         per-function cache gate blames them alongside [func] *)
  relation : string;
      (* v3: the relational fact a range-proven finding rests on, e.g.
         "%n >= len(%buf)"; "" when the finding is interval-only *)
  (* ordering keys (function / block position in the module); not part of
     the rendered record *)
  k_func : int;
  k_block : int;
}

let mk ~check ~sev ?(func = "") ?(block = "") ?(instr = -1) ?(site = "")
    ?(related = []) ?(relation = "") ?(k_func = -1) ?(k_block = -1) msg =
  { check; sev; func; block; instr; site; msg; related; relation; k_func; k_block }

(* Describe an instruction site compactly: "%name = opcode" or just the
   opcode for unnamed/void instructions. *)
let describe_instr (i : Ir.instr) =
  if i.Ir.iname = "" then Ir.opcode_name i.Ir.op
  else Printf.sprintf "%%%s = %s" i.Ir.iname (Ir.opcode_name i.Ir.op)

(* Location of [i] inside function [f] (which sits at [k_func] in the
   module): block position and instruction index are recovered from the
   function body, so every checker reports positions the same way. *)
let at_instr ~check ~sev ?(related = []) ?(relation = "") ~k_func (f : Ir.func)
    (i : Ir.instr) msg =
  let k_block = ref (-1) and instr_idx = ref (-1) and block_name = ref "" in
  List.iteri
    (fun bk (b : Ir.block) ->
      List.iteri
        (fun ik i' ->
          if i' == i then begin
            k_block := bk;
            instr_idx := ik;
            block_name := b.Ir.bname
          end)
        b.Ir.instrs)
    f.Ir.fblocks;
  {
    check;
    sev;
    func = f.Ir.fname;
    block = !block_name;
    instr = !instr_idx;
    site = describe_instr i;
    msg;
    related;
    relation;
    k_func;
    k_block = !k_block;
  }

let at_block ~check ~sev ?(related = []) ~k_func (f : Ir.func) (b : Ir.block)
    msg =
  let k_block = ref (-1) in
  List.iteri (fun bk b' -> if b' == b then k_block := bk) f.Ir.fblocks;
  {
    check;
    sev;
    func = f.Ir.fname;
    block = b.Ir.bname;
    instr = -1;
    site = Printf.sprintf "block %%%s" b.Ir.bname;
    msg;
    related;
    relation = "";
    k_func;
    k_block = !k_block;
  }

let compare_diag (a : t) (b : t) =
  let c = compare a.k_func b.k_func in
  if c <> 0 then c
  else
    let c = compare a.k_block b.k_block in
    if c <> 0 then c
    else
      let c = compare a.instr b.instr in
      if c <> 0 then c
      else
        let c = compare a.check b.check in
        if c <> 0 then c
        else
          let c = compare a.msg b.msg in
          if c <> 0 then c
          else
            let c = compare a.related b.related in
            if c <> 0 then c else compare a.relation b.relation

let sort diags = List.stable_sort compare_diag diags

let count_severity sev diags = List.length (List.filter (fun d -> d.sev = sev) diags)

(* ---------- text renderer ---------- *)

let to_text (d : t) =
  let where =
    if d.func = "" then "module"
    else if d.block = "" then Printf.sprintf "%%%s" d.func
    else if d.instr < 0 then Printf.sprintf "%%%s:%%%s" d.func d.block
    else Printf.sprintf "%%%s:%%%s:#%d" d.func d.block d.instr
  in
  let site = if d.site = "" then "" else Printf.sprintf " (%s)" d.site in
  let rel =
    if d.relation = "" then "" else Printf.sprintf " [rel: %s]" d.relation
  in
  Printf.sprintf "%s: %s[%s]%s: %s%s" where (severity_name d.sev) d.check site
    d.msg rel

let render_text diags = String.concat "\n" (List.map to_text diags)

(* ---------- JSON renderer / reader ---------- *)

(* v2: every diagnostic carries a "related" function list so per-function
   verdicts can blame interprocedural findings on all involved parties.
   v3: a "relation" field records the relational (difference-bound) fact a
   range-proven finding rests on; "" for interval-only findings. *)
let schema_version = 3

let diag_to_json (d : t) =
  Json.Obj
    [
      ("check", Json.Str d.check);
      ("severity", Json.Str (severity_name d.sev));
      ("function", Json.Str d.func);
      ("block", Json.Str d.block);
      ("instr", Json.Int d.instr);
      ("site", Json.Str d.site);
      ("message", Json.Str d.msg);
      ("related", Json.List (List.map (fun f -> Json.Str f) d.related));
      ("relation", Json.Str d.relation);
    ]

let to_json diags =
  Json.Obj
    [
      ("version", Json.Int schema_version);
      ("errors", Json.Int (count_severity Error diags));
      ("warnings", Json.Int (count_severity Warning diags));
      ("diagnostics", Json.List (List.map diag_to_json diags));
    ]

let render_json ?(pretty = true) diags = Json.to_string ~pretty (to_json diags)

(* Strict reader for the JSON schema above; raises [Json.Parse_error] on a
   missing or mistyped field. Positional sort keys are not part of the
   wire format, so round-tripped diagnostics keep only array order. *)
let diag_of_json (j : Json.t) : t =
  let s key = Json.get_string key (Json.get_member "diagnostic" key j) in
  let n key = Json.get_int key (Json.get_member "diagnostic" key j) in
  let sev =
    match severity_of_name (s "severity") with
    | Some sev -> sev
    | None -> raise (Json.Parse_error ("bad severity: " ^ s "severity"))
  in
  let related =
    List.map
      (Json.get_string "related")
      (Json.get_list "related" (Json.get_member "diagnostic" "related" j))
  in
  {
    check = s "check";
    sev;
    func = s "function";
    block = s "block";
    instr = n "instr";
    site = s "site";
    msg = s "message";
    related;
    relation = s "relation";
    k_func = -1;
    k_block = -1;
  }

let of_json (j : Json.t) : t list =
  let version = Json.get_int "version" (Json.get_member "report" "version" j) in
  if version <> schema_version then
    raise (Json.Parse_error (Printf.sprintf "unsupported version %d" version));
  List.map diag_of_json
    (Json.get_list "diagnostics" (Json.get_member "report" "diagnostics" j))
