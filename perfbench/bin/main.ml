(* perfbench: the serving benchmark.

     main.exe --workload compare_cold --seed 1 --seconds 20 --trace 0

   Run from the root of a checkout with bin/xsact_serve.exe built (see
   run.sh). Prints a report, then one JSON line: the end-to-end metrics
   with --trace 0, the per-layer metrics from the traced replay with
   --trace 1. *)

module Stats = Perfbench.Stats

let usage () =
  prerr_endline
    "usage: main.exe --workload compare_cold|compare_hot|session_edit \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Option.map (fun wl -> (w, wl)) (E2e.workload_of_string w);
      go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (w, s, secs, t)
  | _ -> usage ()

let server_exe = "_build/default/bin/xsact_serve.exe"
let out_dir = ".perfbench"

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
          metrics))

let () =
  let (name, workload), seed, seconds, trace = parse_args () in
  if not (Sys.file_exists server_exe) then begin
    prerr_endline ("perfbench: " ^ server_exe ^ " not found; run perfbench/run.sh from a checkout");
    exit 1
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  E2e.rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  Printf.printf "perfbench %s seed=%d seconds=%g connections=%d (closed loop, keep-alive, loopback)\n%!"
    name seed seconds (E2e.connections workload);
  (* the corpora are needed for the key space only; drop them before the
     timed phase so the load generator runs with a small heap *)
  let queries = (World.load ()).World.queries in
  let give_up msg =
    E2e.rm_rf run_dir;
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  in
  Result.iter_error give_up (E2e.key_space ~workload ~seconds queries);
  Gc.compact ();
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let calib_before = Calib.measure () in
  let r =
    try E2e.run ~exe:server_exe ~queries ~workload ~seed ~seconds ~run_dir
    with Perfbench.Keygen.Exhausted n ->
      give_up (Printf.sprintf "all %d compare_cold keys were sent before the run ended; run fewer seconds" n)
  in
  let calib_after = Calib.measure () in
  let world = World.load () in
  E2e.check ~world ~seed r;
  (* Throughput, p50, p99 and server CPU per op are taken over the calm
     windows: the half of the timed phase in which the hypervisor gave the
     least CPU time to other guests (see README.md). *)
  let n = Array.length r.E2e.latencies_ms in
  let need = Stats.samples_needed ~p:0.99 in
  if n < need then begin
    Printf.eprintf "perfbench: %d requests are too few for a p99 (%d needed); run longer\n" n need;
    exit 1
  end;
  let calm, ranges, calm_s =
    Stats.calm ~windows:r.E2e.windows ~done_s:r.E2e.done_s ~min_samples:need
  in
  let lat =
    Stats.sorted
      (Array.concat (List.map (fun (lo, hi) -> Array.sub r.E2e.latencies_ms lo (hi - lo)) ranges))
  in
  let m = Array.length lat in
  let pct p sorted = Result.get_ok (Stats.percentile ~p sorted) in
  let p50 = pct 0.5 lat and p99 = pct 0.99 lat in
  let throughput = float_of_int m /. calm_s in
  let calm_ticks = List.fold_left (fun acc w -> acc + w.Stats.data) 0 calm in
  let cpu_ms_per_op = float_of_int calm_ticks *. Proc.ms_per_tick /. float_of_int m in
  Printf.printf "  host.steal_pct per window: [%s]; %.2f overall\n"
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.0f" (100. *. w.Stats.steal)) r.E2e.windows))
    r.E2e.steal_pct;
  Printf.printf "  latency: %d samples, %d of them in the calm %.1f s; %d beyond their p99\n" n m
    calm_s
    (m - int_of_float (Float.ceil (0.99 *. float_of_int m)));
  (let all = Stats.sorted r.E2e.latencies_ms in
   Printf.printf
     "  whole timed phase, for comparison: %.6g ops/s, p50 %.6g ms, p99 %.6g ms, server cpu %.6g ms/op\n"
     (float_of_int n /. r.E2e.done_s.(n - 1))
     (pct 0.5 all) (pct 0.99 all)
     (r.E2e.cpu_ms /. float_of_int n));
  let setup_s = Stats.median r.E2e.setups_s in
  Printf.printf "  host.calib_ms before=%.3f after=%.3f\n" calib_before calib_after;
  Printf.printf "  setup_s: median of %d set-ups [%s]\n"
    (List.length r.E2e.setups_s)
    (String.concat "; " (List.map (Printf.sprintf "%.4f") r.E2e.setups_s));
  Printf.printf "  X-Cache hits %d of %d; intern hits %d of %d lookups\n" r.E2e.cache_hits
    r.E2e.cache_lookups r.E2e.intern_hits r.E2e.intern_lookups;
  if workload = E2e.Session_edit then
    Printf.printf
      "  durability: state dir %s, default fsync policy (interval:0.1); %d journal appends, %d bytes, %d compactions\n"
      (E2e.state_dir run_dir) r.E2e.journal_appends r.E2e.journal_bytes r.E2e.compactions;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.E2e.tally.E2e.problems;
  let correct = r.E2e.tally.E2e.failed = 0 in
  let e2e =
    [
      ("throughput_ops_s", throughput, "ops/s");
      ("latency_p50_ms", p50, "ms");
      ("latency_p99_ms", p99, "ms");
      ("server_cpu_ms_per_op", cpu_ms_per_op, "ms");
      ("server_rss_mb", r.E2e.rss_mb, "MiB");
      ("setup_s", setup_s, "s");
    ]
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %s = %.6g %s\n" name v unit) e2e;
  let correct, metrics =
    if not trace then (correct, e2e)
    else begin
      let o =
        Replay.run ~world ~workload ~seed ~run_dir
          ~hot_bodies:(match r.E2e.evidence with E2e.Hot b -> b | _ -> [||])
      in
      let spans_path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" name seed) in
      Perfbench.Spans.write_tsv spans_path o.Replay.spans;
      Printf.printf "  traced replay: %d requests, spans in %s\n" o.Replay.requests spans_path;
      if not o.Replay.bodies_equal then
        print_endline "  FAILED: a decomposed body differs from Server.handle's";
      if not o.Replay.nesting_ok then print_endline "  FAILED: a child span exceeds its parent";
      let layers =
        Layers.metrics ~world ~replay:o ~e2e:r ~client_p50_ms:p50
          ~calib_ms:(Stats.median [ calib_before; calib_after ])
      in
      Layers.print_breakdown o;
      (correct && o.Replay.bodies_equal && o.Replay.nesting_ok, layers)
    end
  in
  E2e.rm_rf run_dir;
  print_result ~correct ~attempted:r.E2e.attempted ~failed:r.E2e.tally.E2e.failed metrics
