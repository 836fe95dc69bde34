(* In-memory span recorder for the traced replay.

   A span is one timed call into a layer: its name, the request it served,
   the span that caused it, and its start and stop on the monotonic clock.
   Spans stay in memory while the replay runs and are written out once at
   the end, so recording costs a clock read and an allocation. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable req : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create ~enabled = { enabled; spans = []; next_id = 0; stack = []; req = -1 }
let set_request t req = t.req <- req
let spans t = List.rev t.spans

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; req = t.req; parent; start_ns; stop_ns } :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let duration s = s.stop_ns - s.start_ns

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

let children_index spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    spans;
  tbl

(* A span's self time: its duration minus the part of its interval that
   its direct children cover (overlapping children counted once). *)
let self_times spans =
  let kids = children_index spans in
  List.map
    (fun s ->
      let intervals = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
      (s, duration s - covered ~lo:s.start_ns ~hi:s.stop_ns intervals))
    spans

(* Every child must lie inside its parent's interval and serve the same
   request; returns the offending (child, parent) pairs. *)
let nesting_violations spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter_map
    (fun s ->
      if s.parent < 0 then None
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> Some (s, s)
        | Some p ->
          if s.start_ns < p.start_ns || s.stop_ns > p.stop_ns || s.req <> p.req
          then Some (s, p)
          else None)
    spans

type totals = { count : int; total_ns : int; self_ns : int }

(* Per-name totals over all spans. *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let c =
        Option.value
          ~default:{ count = 0; total_ns = 0; self_ns = 0 }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        {
          count = c.count + 1;
          total_ns = c.total_ns + duration s;
          self_ns = c.self_ns + self;
        })
    (self_times spans);
  tbl

let write_tsv path spans =
  let oc = open_out path in
  output_string oc "id\tname\treq\tparent\tstart_ns\tstop_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" s.id s.name s.req s.parent
        s.start_ns s.stop_ns)
    spans;
  close_out oc
