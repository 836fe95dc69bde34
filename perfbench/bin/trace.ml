(* What the decomposed layer calls record: spans, and counts taken at the
   same boundaries (work done per call). *)

open Xsact_core
module Spans = Perfbench.Spans

type counts = {
  mutable results : int list;  (** per search *)
  mutable features : int list;  (** per extracted profile *)
  mutable pair_tables : int list;  (** per built context *)
  mutable context_bytes : int list;
  mutable dod_total : int;
  mutable body_bytes : int list;
}

type t = { spans : Spans.t; counts : counts }

let fresh_counts () =
  { results = []; features = []; pair_tables = []; context_bytes = []; dod_total = 0; body_bytes = [] }

let create spans = { spans; counts = fresh_counts () }
let off () = create (Spans.create ~enabled:false)
let span t name f = Spans.with_span t.spans name f

let search t pipeline keywords =
  let results = span t "search.query" (fun () -> Pipeline.search pipeline keywords) in
  t.counts.results <- List.length results :: t.counts.results;
  results

let profile t pipeline keywords r =
  let p = span t "extract.profile" (fun () -> Pipeline.profile_of ~keywords pipeline r) in
  t.counts.features <- p.Result_profile.total_features :: t.counts.features;
  p

let context t ctx =
  t.counts.pair_tables <- Dod.num_pair_tables ctx :: t.counts.pair_tables;
  t.counts.context_bytes <- Dod.approx_bytes ctx :: t.counts.context_bytes

let dod t d = t.counts.dod_total <- t.counts.dod_total + d
let body t b = t.counts.body_bytes <- String.length b :: t.counts.body_bytes
