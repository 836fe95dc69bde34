(* Per-layer metrics derived from the traced replay's spans and counts,
   plus the cache ratios the end-to-end run observed. *)

module Spans = Perfbench.Spans
module Stats = Perfbench.Stats

let mean_int = function
  | [] -> 0.
  | xs -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Mean duration of the spans called [name], in µs (0 when none ran). *)
let mean_us totals name =
  match Hashtbl.find_opt totals name with
  | Some t when t.Spans.count > 0 -> float_of_int t.Spans.total_ns /. float_of_int t.Spans.count /. 1e3
  | _ -> 0.

(* Σ server.handle − Σ (direct children of each request's [layers] root),
   per request: the dispatch time no layer call accounts for. *)
let unattributed_us (o : Replay.outcome) =
  let layer_roots = Hashtbl.create 1024 in
  List.iter (fun s -> if s.Spans.name = "layers" then Hashtbl.replace layer_roots s.Spans.id ()) o.spans;
  let handle, attributed =
    List.fold_left
      (fun (h, a) s ->
        if s.Spans.name = "server.handle" then (h + Spans.duration s, a)
        else if Hashtbl.mem layer_roots s.Spans.parent then (h, a + Spans.duration s)
        else (h, a))
      (0, 0) o.spans
  in
  float_of_int (handle - attributed) /. float_of_int o.requests /. 1e3

let metrics ~(world : World.t) ~(replay : Replay.outcome) ~(e2e : E2e.result) ~client_p50_ms ~calib_ms =
  let o = replay in
  let totals = Spans.totals o.spans in
  let us = mean_us totals in
  let handle_p50_us =
    match
      List.filter_map
        (fun s -> if s.Spans.name = "server.handle" then Some (float_of_int (Spans.duration s) /. 1e3) else None)
        o.spans
    with
    | [] -> 0.
    | xs -> Stats.median xs
  in
  let c = o.counts in
  let appends, jbytes, compactions = Option.value ~default:(0, 0, 0) o.journal in
  [
    ("dataset.build_ms", world.build_ms, "ms");
    ("search.index_ms", world.index_ms, "ms");
    ("search.query_us", us "search.query", "us");
    ("search.results", mean_int c.results, "count");
    ("extract.profile_us", us "extract.profile", "us");
    ("extract.features", mean_int c.features, "count");
    ("dod.make_context_us", us "dod.make_context", "us");
    ("dod.pair_tables", mean_int c.pair_tables, "count");
    ("dod.context_kb", mean_int c.context_bytes /. 1024., "KiB");
    ("algorithm.generate_us", us "algorithm.generate", "us");
    ("algorithm.dod_total", float_of_int c.dod_total, "count");
    ("table.build_us", us "table.build", "us");
    ("session.apply_us", us "session.apply", "us");
    ("session.create_us", us "session.create", "us");
    ("api.decode_us", us "api.decode", "us");
    ("api.key_us", us "api.key", "us");
    ("api.encode_us", us "api.encode", "us");
    ("api.body_bytes", mean_int c.body_bytes, "bytes");
    ("lru.find_us", us "lru.find", "us");
    ("http.read_us", us "http.read", "us");
    ("http.write_us", us "http.write", "us");
    ("server.handle_us", us "server.handle", "us");
    ("server.unattributed_us", unattributed_us o, "us");
    ("server.wait_us", (client_p50_ms *. 1e3) -. handle_p50_us, "us");
    ("lru.hit_ratio", ratio e2e.E2e.cache_hits e2e.E2e.cache_lookups, "ratio");
    ("intern.reuse_ratio", ratio e2e.E2e.intern_hits e2e.E2e.intern_lookups, "ratio");
    ("journal.append_us", us "journal.append", "us");
    ("journal.bytes_per_op", ratio jbytes appends, "bytes");
    ("journal.compactions", float_of_int compactions, "count");
    ("gc.minor_words_per_op", o.minor_words_per_op, "words");
    ("gc.major_collections_per_kop", o.major_per_kop, "count");
    ("host.calib_ms", calib_ms, "ms");
    ("host.steal_pct", e2e.E2e.steal_pct, "%");
    ("trace.overhead_pct", o.overhead_pct, "%");
  ]

(* The report lines: each span name's calls, mean and self time per
   request, and how server.handle splits into layers. *)
let print_breakdown (o : Replay.outcome) =
  let totals = Spans.totals o.spans in
  let n = float_of_int o.requests in
  Printf.printf "  %-20s %8s %14s %14s\n" "span" "calls" "us/request" "self us/req";
  List.iter
    (fun name ->
      let t = Hashtbl.find totals name in
      Printf.printf "  %-20s %8d %14.2f %14.2f\n" name t.Spans.count
        (float_of_int t.Spans.total_ns /. n /. 1e3)
        (float_of_int t.Spans.self_ns /. n /. 1e3))
    (List.sort_uniq compare (List.map (fun s -> s.Spans.name) o.spans));
  Printf.printf "  server.handle %.2f us/request = layer spans %.2f + unattributed %.2f\n"
    (mean_us totals "server.handle")
    (mean_us totals "server.handle" -. unattributed_us o)
    (unattributed_us o)
