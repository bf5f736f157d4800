(* Tests for the benchmark's own helpers: the tail-percentile rule, span
   self time, failure accounting and the seeded pass order. *)

open Perfbench

let samples n = Stats.sorted (Array.init n (fun i -> n - i))

let tail_label n =
  match Stats.tail (samples n) with Some t -> Some (t.Stats.label, t.Stats.value, t.Stats.n) | None -> None

let test_tail () =
  let opt = Alcotest.(option (triple string int int)) in
  (* 1000 samples: p99 is rank 990 with exactly ten beyond it. *)
  Alcotest.check opt "n=1000" (Some ("p99", 990, 1000)) (tail_label 1000);
  (* 100 samples: p99 and p95 have 1 and 5 beyond; p90 has 10. *)
  Alcotest.check opt "n=100" (Some ("p90", 90, 100)) (tail_label 100);
  Alcotest.check opt "n=20" (Some ("p50", 10, 20)) (tail_label 20);
  Alcotest.check opt "n=19 has none" None (tail_label 19);
  Alcotest.check opt "n=20000" (Some ("p99.9", 19980, 20000)) (tail_label 20000)

let test_median () =
  Alcotest.(check (float 0.0)) "median even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_self_time () =
  let self = Spans.self_time ~start:0 ~stop:100 in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint children" 70 (self [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping children count once" 75 (self [ (10, 20); (15, 30); (60, 65) ]);
  Alcotest.(check int) "nested grandchild interval inside a child" 80 (self [ (10, 30); (12, 20) ]);
  Alcotest.(check int) "children clipped to the parent" 85 (self [ (-10, 5); (90, 120) ]);
  Alcotest.(check int) "child covering the parent" 0 (self [ (0, 100) ])

(* Spans recorded through the recorder: a parent's self time plus its
   children's durations is its duration, and the parent links hold. *)
let test_recorder () =
  let r = Spans.create ~traced:true () in
  let spin () = for _ = 1 to 10_000 do ignore (Sys.opaque_identity (ref 0)) done in
  let (), _, _ =
    Spans.time r "outer" (fun () ->
        spin ();
        let (), _, _ = Spans.time r "inner" spin in
        let (), _, _ = Spans.time r ~req:7 "inner" spin in
        spin ())
  in
  Alcotest.(check int) "three spans" 3 (Spans.length r);
  let totals = Spans.totals r in
  let outer = Spans.find totals "outer" and inner = Spans.find totals "inner" in
  Alcotest.(check int) "inner count" 2 inner.Spans.count;
  Alcotest.(check int) "outer self = outer - inner" (outer.Spans.total_ns - inner.Spans.total_ns)
    outer.Spans.self_ns;
  Alcotest.(check int) "leaf self = total" inner.Spans.total_ns inner.Spans.self_ns;
  let untraced = Spans.create ~traced:false () in
  let x, _, _ = Spans.time untraced "outer" (fun () -> 42) in
  Alcotest.(check int) "untraced returns the result" 42 x;
  Alcotest.(check int) "untraced keeps no spans" 0 (Spans.length untraced)

let test_tally () =
  let t = Tally.create () in
  Tally.record t [];
  Tally.record t (Tally.errors [ Tally.check false "a"; Tally.check false "b" ]);
  Tally.record t (Tally.errors [ Tally.check true "c" ]);
  Alcotest.(check int) "attempted" 3 t.Tally.attempted;
  Alcotest.(check int) "an operation fails once however many checks fail" 1 t.Tally.failed;
  Alcotest.(check (float 1e-12)) "share" (1.0 /. 3.0) (Tally.failure_share t);
  Alcotest.(check (list string)) "notes" [ "a; b" ] t.Tally.notes;
  Alcotest.(check (float 0.0)) "empty share" 0.0 (Tally.failure_share (Tally.create ()))

let test_permutation () =
  let p = Runs.permutation ~seed:5 ~pass:2 12 in
  Alcotest.(check (list int)) "a permutation" (List.init 12 Fun.id)
    (List.sort compare (Array.to_list p));
  Alcotest.(check (array int)) "same seed, same order" p (Runs.permutation ~seed:5 ~pass:2 12)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested intervals" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("tally", [ Alcotest.test_case "failures against attempts" `Quick test_tally ]);
      ("runs", [ Alcotest.test_case "seeded pass order" `Quick test_permutation ]);
    ]
