(* One run's metrics, the result files that collect runs, and the
   verdicts [--compare] gives when it sets two collections side by side
   under the bounds in BENCHMARK.json. *)

type metric = {
  name : string;
  unit : string;
  summary : Quant.summary; (* over the rounds of the run *)
  samples : float list;
}

type run = {
  workload : string;
  seed : int;
  traced : bool;
  ops : int;
  ops_failed : int;
  metrics : metric list;
}

(* Metrics in these units are deterministic and must repeat exactly. *)
let exact_units = [ "count"; "bytes"; "cycles" ]

let metric_to_json m =
  Jsonf.Obj
    [
      ("name", Str m.name);
      ("unit", Str m.unit);
      ("value", Num m.summary.median);
      ("q1", Num m.summary.q1);
      ("q3", Num m.summary.q3);
      ("n", Num (float_of_int m.summary.n));
      ("samples", List (List.map (fun x -> Jsonf.Num x) m.samples));
    ]

let metric_of_json j =
  let num k = Jsonf.to_num (Jsonf.member k j) in
  {
    name = Jsonf.to_str (Jsonf.member "name" j);
    unit = Jsonf.to_str (Jsonf.member "unit" j);
    summary =
      {
        median = num "value";
        q1 = num "q1";
        q3 = num "q3";
        n = int_of_float (num "n");
      };
    samples = List.map Jsonf.to_num (Jsonf.to_list (Jsonf.member "samples" j));
  }

let run_to_json r =
  Jsonf.Obj
    [
      ("workload", Str r.workload);
      ("seed", Num (float_of_int r.seed));
      ("traced", Bool r.traced);
      ("ops", Num (float_of_int r.ops));
      ("ops_failed", Num (float_of_int r.ops_failed));
      ("metrics", List (List.map metric_to_json r.metrics));
    ]

let run_of_json j =
  let int k = int_of_float (Jsonf.to_num (Jsonf.member k j)) in
  {
    workload = Jsonf.to_str (Jsonf.member "workload" j);
    seed = int "seed";
    traced = Jsonf.member "traced" j = Bool true;
    ops = int "ops";
    ops_failed = int "ops_failed";
    metrics = List.map metric_of_json (Jsonf.to_list (Jsonf.member "metrics" j));
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A result file is a JSON array of runs, one per line; [append] adds
   one. *)
let load path : run list =
  List.map run_of_json (Jsonf.to_list (Jsonf.parse (read_file path)))

let append path r =
  let old = if Sys.file_exists path then load path else [] in
  let lines = List.map (fun r -> Jsonf.to_string (run_to_json r)) (old @ [ r ]) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc ("[\n" ^ String.concat ",\n" lines ^ "\n]\n"))

(* ---------- bounds ---------- *)

type spec = { unit : string; lower_better : bool; bound : float option }

(* Every metric BENCHMARK.json names: end-to-end ones carry a bound,
   per-layer ones do not. *)
let load_specs path : (string * spec) list =
  let j = Jsonf.parse (read_file path) in
  let entries key =
    List.map
      (fun e ->
        ( Jsonf.to_str (Jsonf.member "name" e),
          {
            unit = Jsonf.to_str (Jsonf.member "unit" e);
            lower_better = Jsonf.member "better" e = Str "lower";
            bound =
              (match e with
              | Obj fields when List.mem_assoc "bound" fields ->
                  Some (Jsonf.to_num (List.assoc "bound" fields))
              | _ -> None);
          } ))
      (Jsonf.to_list (Jsonf.member key j))
  in
  entries "end_to_end" @ entries "per_layer"

type verdict =
  | Exact
  | Mismatch
  | Unchanged
  | Better
  | Worse
  | Unresolved
  | Info
  | Missing

let verdict_name = function
  | Exact -> "exact"
  | Mismatch -> "MISMATCH"
  | Unchanged -> "unchanged"
  | Better -> "better"
  | Worse -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Info -> "-"
  | Missing -> "MISSING"

let fails = function Mismatch | Worse | Missing -> true | _ -> false

(* [judge spec a b]: [a] is the baseline, [b] the candidate. A bounded
   metric whose run-to-run spread on either side is wider than its bound
   is unresolved, unless every sample of [b] beats every sample of [a]. *)
let judge (spec : spec) (a : metric) (b : metric) : verdict =
  if List.mem b.unit exact_units then
    if a.summary.median = b.summary.median then Exact else Mismatch
  else
    match spec.bound with
    | None -> Info
    | Some bound ->
        let beats x y = if spec.lower_better then x < y else x > y in
        let worse_by =
          (b.summary.median -. a.summary.median)
          /. a.summary.median
          *. if spec.lower_better then 1.0 else -1.0
        in
        if Float.max (Quant.spread a.summary) (Quant.spread b.summary) > bound
        then
          if
            List.for_all (fun x -> List.for_all (beats x) a.samples) b.samples
          then Better
          else Unresolved
        else if worse_by > bound then Worse
        else if worse_by < -.bound then Better
        else Unchanged

(* Several runs of one metric: the median over the runs and their
   run-to-run spread. A single run keeps the spread of its rounds. *)
let pool = function
  | [ m ] -> m
  | m :: _ as ms ->
      let medians = List.map (fun m -> m.summary.median) ms in
      { m with summary = Quant.summarize medians; samples = medians }
  | [] -> invalid_arg "Results.pool"

(* One collection's metrics per workload, pooled over its runs; traced
   and untraced runs report different metrics, and failed operations add
   up. *)
let by_workload (runs : run list) =
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] runs
  in
  List.map
    (fun w ->
      let rs = List.filter (fun r -> r.workload = w) runs in
      let ms = List.concat_map (fun r -> r.metrics) rs in
      let names = List.sort_uniq compare (List.map (fun m -> m.name) ms) in
      ( w,
        ( List.fold_left (fun acc r -> acc + r.ops_failed) 0 rs,
          List.map
            (fun n -> (n, pool (List.filter (fun m -> m.name = n) ms)))
            names ) ))
    workloads

type row = {
  r_workload : string;
  r_metric : string;
  r_a : float option;
  r_b : float option;
  r_verdict : verdict;
}

(* One row per workload of [a] and metric of either side, plus one for
   failed operations; a metric on one side only is missing. *)
let compare_runs specs (a : run list) (b : run list) : row list =
  let b = by_workload b in
  List.concat_map
    (fun (w, (fa, ma)) ->
      let fb, mb = Option.value ~default:(0, []) (List.assoc_opt w b) in
      let failed_row =
        {
          r_workload = w;
          r_metric = "ops_failed";
          r_a = Some (float_of_int fa);
          r_b = Some (float_of_int fb);
          r_verdict = (if fa = 0 && fb = 0 then Exact else Mismatch);
        }
      in
      let names = List.sort_uniq compare (List.map fst ma @ List.map fst mb) in
      failed_row
      :: List.map
           (fun name ->
             let ma = List.assoc_opt name ma and mb = List.assoc_opt name mb in
             let value = Option.map (fun m -> m.summary.median) in
             let verdict =
               match (ma, mb, List.assoc_opt name specs) with
               | Some x, Some y, Some spec -> judge spec x y
               | Some x, Some y, None ->
                   judge { unit = y.unit; lower_better = true; bound = None } x y
               | _ -> Missing
             in
             {
               r_workload = w;
               r_metric = name;
               r_a = value ma;
               r_b = value mb;
               r_verdict = verdict;
             })
           names)
    (by_workload a)

(* Rows whose metric reads 0 on both sides (a layer the workload does
   not use) are left out. *)
let print_rows rows =
  let cell = function Some x -> Printf.sprintf "%.6g" x | None -> "-" in
  Printf.printf "%-9s %-26s %14s %14s %9s  %s\n" "workload" "metric" "A" "B"
    "change" "verdict";
  List.iter
    (fun r ->
      if r.r_metric = "ops_failed" || r.r_a <> Some 0.0 || r.r_b <> Some 0.0 then
      let change =
        match (r.r_a, r.r_b) with
        | Some a, Some b when a <> 0.0 ->
            Printf.sprintf "%+.1f%%" (100.0 *. (b -. a) /. a)
        | _ -> "-"
      in
      Printf.printf "%-9s %-26s %14s %14s %9s  %s\n" r.r_workload r.r_metric
        (cell r.r_a) (cell r.r_b) change (verdict_name r.r_verdict))
    rows
