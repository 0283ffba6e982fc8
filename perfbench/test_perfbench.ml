(* The benchmark's own arithmetic: the tail-percentile rule, span self
   time, and the base every per-op ratio divides by. *)

module S = Tdb_perfbench.Perf_stats
module T = Tdb_perfbench.Perf_trace

let close_to = Alcotest.float 1e-9

let test_tail_rule () =
  (* p99 needs 1 000 samples so that ten lie beyond it *)
  Alcotest.check close_to "1000 -> p99" 99. (S.tail_percentile 1000);
  Alcotest.check close_to "999 -> p95" 95. (S.tail_percentile 999);
  Alcotest.check close_to "200 -> p95" 95. (S.tail_percentile 200);
  Alcotest.check close_to "199 -> p90" 90. (S.tail_percentile 199);
  Alcotest.check close_to "10000 capped at p99" 99. (S.tail_percentile 10_000);
  Alcotest.check close_to "uncapped 10000 -> p99.9" 99.9 (S.tail_percentile ~cap:100. 10_000);
  Alcotest.check close_to "too few -> median" 50. (S.tail_percentile 15);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (S.beyond 1000 99.)

let test_nearest_rank () =
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let s = S.summarize xs in
  Alcotest.check close_to "median" 500. s.S.p50;
  Alcotest.check close_to "p99 is the 990th sample" 990. s.S.tail;
  Alcotest.check close_to "mean" 500.5 s.S.mean;
  (* order of the input does not matter *)
  let rev = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.check close_to "unsorted input" 990. (S.summarize rev).S.tail;
  (* fewer than 1 000 samples: the tail falls back to p95 *)
  let s = S.summarize (Array.init 500 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close_to "500 -> p95" 95. s.S.tail_p;
  Alcotest.check close_to "p95 of 500 is the 475th sample" 475. s.S.tail

let test_self_time () =
  Alcotest.check close_to "no children" 10. (S.self_time ~start:0. ~stop:10. []);
  Alcotest.check close_to "back-to-back children" 4. (S.self_time ~start:0. ~stop:10. [ (1., 4.); (4., 7.) ]);
  Alcotest.check close_to "overlapping children count once" 4. (S.self_time ~start:0. ~stop:10. [ (1., 5.); (3., 7.) ]);
  Alcotest.check close_to "nested child inside a child" 5. (S.self_time ~start:0. ~stop:10. [ (2., 7.); (3., 4.) ]);
  Alcotest.check close_to "children clipped to the parent" 7. (S.self_time ~start:0. ~stop:10. [ (-5., 1.); (8., 20.) ])

let test_per_op_base () =
  Alcotest.check close_to "divides by ops" 2.5 (S.per_op ~ops:4 10.);
  Alcotest.check close_to "no ops" 0. (S.per_op ~ops:0 10.);
  Alcotest.check close_to "ratio" 0.25 (S.ratio 1. 4.);
  Alcotest.check close_to "ratio of nothing" 0. (S.ratio 1. 0.);
  Alcotest.check close_to "rate: ops over their summed latency" 4. (S.rate [| 0.25; 0.5; 0.125; 0.125 |])

(* Spans recorded through the tracer: self times under [op] roots partition
   the ops' wall time, and nesting follows the per-thread open stack. *)
let test_trace_partition () =
  T.reset ();
  Atomic.set T.enabled true;
  for id = 0 to 2 do
    T.root "op" ~id (fun () ->
        T.span "layer" (fun () -> T.span "platform" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))));
        T.span "layer" ignore)
  done;
  T.root "maint" ~id:0 (fun () -> T.span "platform" ignore);
  Atomic.set T.enabled false;
  T.span "untraced" ignore;
  let agg, op_self = T.aggregate () in
  let get n = Hashtbl.find agg n in
  Alcotest.(check int) "ops" 3 (get "op").T.count;
  Alcotest.(check int) "layer calls" 6 (get "layer").T.count;
  Alcotest.(check int) "platform calls, maint included" 4 (get "platform").T.count;
  Alcotest.(check bool) "untraced span not recorded" false (Hashtbl.mem agg "untraced");
  Alcotest.(check (float 1e-12)) "self times add up to op time" (get "op").T.total op_self;
  Alcotest.(check bool) "platform op_total excludes maint" true
    ((get "platform").T.op_total <= (get "platform").T.total)

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank summary" `Quick test_nearest_rank;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "per-op base" `Quick test_per_op_base;
          Alcotest.test_case "trace self times partition ops" `Quick test_trace_partition;
        ] );
    ]
