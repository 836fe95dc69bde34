(* Tests of the benchmark's own logic: the cold key generator, the
   percentile rule, the calm-window selection and span self-time
   arithmetic. *)

open Perfbench

let check name cond = if not cond then failwith ("FAILED: " ^ name)

let queries =
  [
    { Keygen.dataset = "a"; q = "x"; available = 3 };
    { Keygen.dataset = "a"; q = "y"; available = 40 };
    { Keygen.dataset = "b"; q = "x"; available = 7 };
    { Keygen.dataset = "b"; q = "none"; available = 0 };
    { Keygen.dataset = "c"; q = "one"; available = 1 };
  ]

let test_cold_keys () =
  let draw seed n =
    let g = Keygen.cold ~seed queries in
    List.init n (fun _ -> Keygen.next_cold g)
  in
  (* a.x: C(3,2) + C(3,3); a.y: four full pages of 10, each
     C(10,2) + ... + C(10,6) = 837; b.x: C(7,2) + ... + C(7,6) *)
  let space = 4 + (4 * 837) + 119 in
  check "the space is every selection on one page" (Keygen.cold_space (Keygen.cold ~seed:7 queries) = space);
  let a = draw 7 space and b = draw 7 space in
  check "same seed, same keys" (List.map Keygen.key_id a = List.map Keygen.key_id b);
  check "another seed, other keys" (List.map Keygen.key_id (draw 8 50) <> List.map Keygen.key_id (draw 7 50));
  let ids = List.map Keygen.key_id a in
  check "no key repeats" (List.length (List.sort_uniq compare ids) = space);
  List.iter
    (fun (k : Keygen.key) ->
      let n = List.length k.ranks in
      check "selection size in range" (n >= Keygen.min_select && n <= Keygen.max_select);
      check "ranks in range" (List.for_all (fun r -> r >= 1 && r <= k.query.available) k.ranks);
      check "ranks on one page"
        (List.for_all (fun r -> (r - 1) / Keygen.page_size = (List.hd k.ranks - 1) / Keygen.page_size) k.ranks);
      check "ranks distinct and sorted" (List.sort_uniq compare k.ranks = k.ranks);
      check "queries with fewer than two results are never used" (k.query.available >= 2))
    a;
  (* every third of the order has the mix of the whole space *)
  let share keys size =
    float_of_int (List.length (List.filter (fun (k : Keygen.key) -> List.length k.ranks = size) keys))
    /. float_of_int (List.length keys)
  in
  let third i = List.filteri (fun j _ -> j * 3 / space = i) a in
  for size = Keygen.min_select to Keygen.max_select do
    for i = 0 to 2 do
      check "the selection-size mix does not drift through a run"
        (Float.abs (share (third i) size -. share a size) < 0.03)
    done
  done;
  let g = Keygen.cold ~seed:1 queries in
  for _ = 1 to space do ignore (Keygen.next_cold g) done;
  check "fails instead of repeating once every key is sent"
    (match Keygen.next_cold g with _ -> false | exception Keygen.Exhausted n -> n = space)

let test_session_ops () =
  let run seed =
    let ss = Keygen.sessions ~seed ~n:4 queries in
    let next = Keygen.session_ops ~seed ss in
    let ops = List.init 500 (fun _ -> next ()) in
    (ops, ss)
  in
  let a, ss = run 3 and b, _ = run 3 in
  check "session ops are seed-deterministic" (a = b);
  Array.iter
    (fun (s : Keygen.session) ->
      let m = min s.s_query.available Keygen.page_size in
      check "session ranks stay in range" (List.for_all (fun r -> r >= 1 && r <= m) s.s_ranks);
      check "session ranks stay distinct"
        (List.length (List.sort_uniq compare s.s_ranks) = List.length s.s_ranks))
    ss

let test_percentile () =
  let sorted n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p99 needs 1000 samples" (Stats.samples_needed ~p:0.99 = 1000);
  check "p99 of 999 is refused" (Result.is_error (Stats.percentile ~p:0.99 (sorted 999)));
  check "p99 of 1000 is the 990th" (Stats.percentile ~p:0.99 (sorted 1000) = Ok 990.);
  check "p99 of 2000 is the 1980th" (Stats.percentile ~p:0.99 (sorted 2000) = Ok 1980.);
  check "p50 of 21 is the 11th" (Stats.percentile ~p:0.5 (sorted 21) = Ok 11.);
  check "p50 of 19 is refused" (Result.is_error (Stats.percentile ~p:0.5 (sorted 19)));
  check "nothing from nothing" (Result.is_error (Stats.percentile ~p:0.5 [||]));
  (* four one-second windows; requests complete at 0.1 s steps *)
  let done_s = Array.init 40 (fun i -> (0.1 *. float_of_int i) +. 0.05) in
  let windows =
    List.mapi
      (fun i steal -> { Stats.start = float_of_int i; stop = float_of_int (i + 1); steal; data = i })
      [ 0.20; 0.01; 0.05; 0.01 ]
  in
  let picked, ranges, dur = Stats.calm ~windows ~done_s ~min_samples:5 in
  check "calmest half: the two quietest windows, in time order"
    (List.map (fun w -> w.Stats.data) picked = [ 1; 3 ] && ranges = [ (10, 20); (30, 40) ] && dur = 2.);
  let _, ranges, dur = Stats.calm ~windows ~done_s ~min_samples:25 in
  check "more windows when the calm half holds too few samples"
    (ranges = [ (10, 20); (20, 30); (30, 40) ] && dur = 3.);
  let _, ranges, _ = Stats.calm ~windows ~done_s ~min_samples:1000 in
  check "every window when even that is short" (List.length ranges = 4);
  check "median of even count" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "median of odd count" (Stats.median [ 5.; 1.; 3. ] = 3.)

let span id name ?(req = 0) parent start_ns stop_ns =
  { Spans.id; name; req; parent; start_ns; stop_ns }

let test_self_times () =
  (* root [0,100]; children [10,30] and [20,50] overlap, [60,70] apart; a
     grandchild [12,18] belongs to the first child only *)
  let spans =
    [
      span 0 "root" (-1) 0 100;
      span 1 "a" 0 10 30;
      span 2 "b" 0 20 50;
      span 3 "c" 0 60 70;
      span 4 "a.x" 1 12 18;
    ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.name, t)) (Spans.self_times spans) in
  check "root self = 100 - |[10,50] u [60,70]|" (List.assoc "root" self = 50);
  check "child self excludes its own child" (List.assoc "a" self = 14);
  check "leaf self = duration" (List.assoc "b" self = 30 && List.assoc "a.x" self = 6);
  let totals = Spans.totals spans in
  check "totals count and sum"
    (let t = Hashtbl.find totals "a" in
     t.Spans.count = 1 && t.Spans.total_ns = 20 && t.Spans.self_ns = 14);
  check "well-nested spans pass" (Spans.nesting_violations spans = []);
  let bad = [ span 0 "root" (-1) 0 100; span 1 "late" 0 90 110; span 2 "other" ~req:1 0 10 20 ] in
  check "a child past its parent's end, or of another request, is flagged"
    (List.length (Spans.nesting_violations bad) = 2);
  (* the recorder nests what it times *)
  let t = Spans.create ~enabled:true in
  Spans.set_request t 5;
  Spans.with_span t "outer" (fun () -> Spans.with_span t "inner" (fun () -> ()));
  let recorded = Spans.spans t in
  check "recorder keeps parent links" (Spans.nesting_violations recorded = []);
  check "recorder records both"
    (List.sort compare (List.map (fun s -> (s.Spans.name, s.Spans.req)) recorded)
    = [ ("inner", 5); ("outer", 5) ]);
  let off = Spans.create ~enabled:false in
  Spans.with_span off "x" ignore;
  check "a disabled recorder records nothing" (Spans.spans off = [])

let () =
  test_cold_keys ();
  test_session_ops ();
  test_percentile ();
  test_self_times ();
  print_endline "perfbench tests: ok"
