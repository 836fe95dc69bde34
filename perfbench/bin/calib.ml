(* A fixed CPU kernel timed before and after the timed phase. It does the
   same work on every run, so its time tracks how fast the host is
   running at that moment and explains run-to-run spread; it is not used
   to correct any other figure. *)

let kernel () =
  let acc = ref 0 in
  for i = 1 to 2_000_000 do
    acc := ((!acc * 31) + i) land 0xFFFFFF
  done;
  Sys.opaque_identity !acc

(* Median of 15 timings, in ms. *)
let measure () =
  Perfbench.Stats.median
    (List.init 15 (fun _ ->
         let t0 = Perfbench.Spans.now_ns () in
         ignore (kernel ());
         float_of_int (Perfbench.Spans.now_ns () - t0) /. 1e6))
