(* Unit tests of the benchmark's pure parts: order statistics, the
   --compare verdicts, span self times and the trace format. *)

open Benchsuite

let close = Alcotest.float 1e-9

let test_quantiles () =
  let s = Quant.summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.check close "median" 2.5 s.median;
  Alcotest.check close "q1" 1.75 s.q1;
  Alcotest.check close "q3" 3.25 s.q3;
  Alcotest.(check int) "n" 4 s.n;
  let odd = Quant.summarize [ 5.0; 1.0; 3.0 ] in
  Alcotest.check close "odd median" 3.0 odd.median;
  let one = Quant.summarize [ 7.0 ] in
  Alcotest.check close "one sample has no spread" 0.0 (Quant.spread one);
  Alcotest.check close "spread" (1.5 /. 2.5) (Quant.spread s)

let metric ?(unit = "ms") samples : Results.metric =
  { name = "m"; unit; summary = Quant.summarize samples; samples }

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Results.verdict_name v))
    ( = )

let bounded = { Results.unit = "ms"; lower_better = true; bound = Some 0.1 }

let test_verdicts () =
  let judge spec a b = Results.judge spec (metric a) (metric b) in
  let count = { bounded with unit = "count"; bound = None } in
  Alcotest.check verdict "counts equal" Exact
    (Results.judge count (metric ~unit:"count" [ 5.0 ]) (metric ~unit:"count" [ 5.0 ]));
  Alcotest.check verdict "counts differ" Mismatch
    (Results.judge count (metric ~unit:"count" [ 5.0 ]) (metric ~unit:"count" [ 6.0 ]));
  Alcotest.check verdict "within bound" Unchanged
    (judge bounded [ 100.0; 101.0; 102.0 ] [ 105.0; 106.0; 107.0 ]);
  Alcotest.check verdict "outside bound" Worse
    (judge bounded [ 100.0; 101.0; 102.0 ] [ 120.0; 121.0; 122.0 ]);
  Alcotest.check verdict "better" Better
    (judge bounded [ 120.0; 121.0; 122.0 ] [ 100.0; 101.0; 102.0 ]);
  Alcotest.check verdict "higher is better" Worse
    (judge { bounded with lower_better = false } [ 120.0; 121.0 ] [ 100.0; 101.0 ]);
  Alcotest.check verdict "spread wider than the bound" Unresolved
    (judge bounded [ 80.0; 100.0; 130.0 ] [ 100.0; 101.0; 102.0 ]);
  Alcotest.check verdict "unresolved, but every sample better" Better
    (judge bounded [ 110.0; 130.0; 160.0 ] [ 80.0; 100.0; 105.0 ]);
  Alcotest.check verdict "no bound" Info
    (judge { bounded with bound = None } [ 1.0 ] [ 9.0 ])

let test_compare_rows () =
  let run failed metrics : Results.run =
    {
      workload = "w";
      seed = 1;
      traced = false;
      ops = 10;
      ops_failed = failed;
      metrics;
    }
  in
  let m name v : Results.metric = { (metric [ v ]) with name } in
  let rows =
    Results.compare_runs
      [ ("t", bounded) ]
      [ run 0 [ m "t" 100.0; m "gone" 1.0 ] ]
      [ run 2 [ m "t" 101.0 ] ]
  in
  let find rows name = List.find (fun (r : Results.row) -> r.r_metric = name) rows in
  Alcotest.check verdict "failed ops" Mismatch (find rows "ops_failed").r_verdict;
  Alcotest.check verdict "timing" Unchanged (find rows "t").r_verdict;
  Alcotest.check verdict "missing metric" Missing (find rows "gone").r_verdict;
  (* runs of one side pool: their run-to-run spread decides *)
  let pooled =
    Results.compare_runs
      [ ("t", bounded) ]
      [ run 0 [ m "t" 100.0 ]; run 0 [ m "t" 140.0 ] ]
      [ run 0 [ m "t" 101.0 ] ]
  in
  Alcotest.check verdict "run-to-run spread" Unresolved (find pooled "t").r_verdict;
  Alcotest.(check (option (float 1e-9))) "median over runs" (Some 120.0)
    (find pooled "t").r_a

let test_self_times () =
  let s id parent start stop : Spans.span =
    { id; name = string_of_int id; parent; launch = 0; detail = ""; start; stop }
  in
  let spans =
    [ s 0 (-1) 0.0 10.0; s 1 0 1.0 4.0; s 2 0 5.0 9.0; s 3 2 6.0 7.0 ]
  in
  let selfs =
    List.map (fun ((sp : Spans.span), t) -> (sp.id, t)) (Spans.self_times spans)
  in
  List.iter
    (fun (id, want) ->
      Alcotest.check close (string_of_int id) want (List.assoc id selfs))
    [ (0, 3.0); (1, 3.0); (2, 3.0); (3, 1.0) ];
  (* spans recorded live nest the same way and cover their root *)
  let t = Spans.create ~enabled:true in
  Spans.record t ~launch:7 "root" (fun () ->
      Spans.record t "a" ignore;
      Spans.record t "b" (fun () -> Spans.record t ~detail:"x" "c" ignore));
  let recorded = Spans.take t in
  Alcotest.(check (list string)) "order" [ "a"; "c"; "b"; "root" ]
    (List.map (fun (s : Spans.span) -> s.name) recorded);
  Alcotest.(check bool) "launch id inherited" true
    (List.for_all (fun (s : Spans.span) -> s.launch = 7) recorded);
  let root = List.find (fun (s : Spans.span) -> s.parent = -1) recorded in
  let total =
    List.fold_left (fun acc (_, x) -> acc +. x) 0.0 (Spans.self_times recorded)
  in
  Alcotest.(check (float 1e-6)) "self times add up" (Spans.duration root) total;
  Alcotest.(check (list string)) "disabled records nothing" []
    (let off = Spans.create ~enabled:false in
     Spans.record off "x" ignore;
     List.map (fun (s : Spans.span) -> s.name) (Spans.take off))

let test_trace_json () =
  let t = Spans.create ~enabled:true in
  Spans.record t "outer" (fun () ->
      Spans.record t ~detail:"k\"ey" "inner" ignore);
  let j = Spans.to_json t in
  Alcotest.(check bool) "round trip" true
    (Check.Json.parse (Check.Json.to_string j) = j);
  match Check.Json.member "traceEvents" j with
  | Some (List [ first; _ ]) ->
      Alcotest.(check (option string)) "complete event" (Some "X")
        (Option.map (Check.Json.get_string "ph") (Check.Json.member "ph" first));
      Alcotest.(check (option string)) "oldest first" (Some "inner")
        (Option.map (Check.Json.get_string "name") (Check.Json.member "name" first))
  | _ -> Alcotest.fail "expected two trace events"

let test_jsonf () =
  let v =
    Jsonf.Obj
      [
        ("a", Num 0.1);
        ("b", List [ Num 12.0; Num 1e-7; Str "x\ty" ]);
        ("c", Bool true);
      ]
  in
  Alcotest.(check bool) "round trip" true (Jsonf.parse (Jsonf.to_string v) = v);
  Alcotest.(check string) "shortest digits" "0.1" (Jsonf.number 0.1);
  Alcotest.(check string) "integral" "141599471" (Jsonf.number 141599471.0);
  Alcotest.check_raises "trailing" (Jsonf.Error "trailing characters at offset 2")
    (fun () -> ignore (Jsonf.parse "1 2"))

let () =
  Alcotest.run "benchsuite"
    [
      ( "benchsuite",
        [
          Alcotest.test_case "median and quartiles" `Quick test_quantiles;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
          Alcotest.test_case "compare rows" `Quick test_compare_rows;
          Alcotest.test_case "self time of nested spans" `Quick test_self_times;
          Alcotest.test_case "trace json round trip" `Quick test_trace_json;
          Alcotest.test_case "float json" `Quick test_jsonf;
        ] );
    ]
