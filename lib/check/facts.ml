(* One lint run's per-function facts: each function's CFG, dominator
   tree and value numbering, built the first time an analysis asks for
   them and then shared by the range analysis, the call summaries and
   the checks. A table lives for one [Lint.run]; nothing outlives it. *)

open Llva

type fn = {
  cfg : Analysis.Cfg.t;
  dom : Analysis.Dominance.t;
  num : Analysis.Numbering.t;
}

type t = (int, fn) Hashtbl.t (* function id -> its facts *)

let create () : t = Hashtbl.create 32

let get (t : t) (f : Ir.func) =
  match Hashtbl.find_opt t f.Ir.fid with
  | Some fn -> fn
  | None ->
      let cfg = Analysis.Cfg.build f in
      let fn =
        { cfg; dom = Analysis.Dominance.compute cfg; num = Analysis.Numbering.build f }
      in
      Hashtbl.replace t f.Ir.fid fn;
      fn
