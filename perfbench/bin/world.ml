(* The in-process copy of what the server loads: every registry dataset,
   indexed, plus the canned queries with their result counts. The key
   generators need the counts, and the correctness checks and the traced
   replay need the corpora. *)

open Xsact_core
module Dataset = Xsact_dataset.Dataset
module Json = Xsact_server.Json
module Api = Xsact_server.Api

type t = {
  pipelines : (string * Pipeline.t) list;
  queries : Perfbench.Keygen.query list;
  build_ms : float;  (** generating the XML corpora *)
  index_ms : float;  (** [Pipeline.create] over them *)
}

let ms_since t0 = float_of_int (Perfbench.Spans.now_ns () - t0) /. 1e6

let load () =
  let t0 = Perfbench.Spans.now_ns () in
  let datasets = List.map (fun n -> Option.get (Dataset.by_name n)) Dataset.names in
  let build_ms = ms_since t0 in
  let t1 = Perfbench.Spans.now_ns () in
  let pipelines =
    List.map (fun d -> (d.Dataset.name, Pipeline.create d.Dataset.document)) datasets
  in
  let index_ms = ms_since t1 in
  let queries =
    List.concat_map
      (fun d ->
        let p = List.assoc d.Dataset.name pipelines in
        List.map
          (fun (_, q) ->
            let q = Api.normalize_keywords q in
            { Perfbench.Keygen.dataset = d.Dataset.name; q;
              available = List.length (Pipeline.search p q) })
          d.Dataset.queries)
      datasets
  in
  { pipelines; queries; build_ms; index_ms }

let pipeline t name = List.assoc name t.pipelines

let compare_body (k : Perfbench.Keygen.key) =
  Json.to_string
    (Json.Obj
       [
         ("dataset", Json.String k.query.dataset);
         ("q", Json.String k.query.q);
         ("select", Json.List (List.map (fun r -> Json.Int r) k.ranks));
       ])

(* Bodies compared modulo the generation time, the one field that differs
   between two computations of one comparison. *)
let rec without_elapsed = function
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) -> if k = "elapsed_s" then (k, Json.Null) else (k, without_elapsed v))
         fields)
  | Json.List xs -> Json.List (List.map without_elapsed xs)
  | v -> v

let normalize body =
  match Json.of_string body with
  | Ok j -> Json.to_string (without_elapsed j)
  | Error e -> "unparsable: " ^ e

(* What [Server.handle] does for a cold POST /compare, layer by layer,
   each call traced into [tr]: the body it would send (with elapsed_s 0). *)
let compare_layers tr t body =
  let creq =
    Trace.span tr "api.decode" (fun () ->
        match Result.bind (Json.of_string body) Api.decode_compare with
        | Ok c -> c
        | Error e -> failwith e)
  in
  ignore (Trace.span tr "api.key" (fun () -> Api.canonical_key ~scope:Api.Full creq));
  let p = pipeline t creq.Api.dataset in
  let keywords = creq.Api.keywords in
  let results = Array.of_list (Trace.search tr p keywords) in
  let profiles =
    Array.of_list
      (List.map (fun rank -> Trace.profile tr p keywords results.(rank - 1)) (Option.get creq.Api.select))
  in
  let { Config.params; weight; algorithm; domains; incremental = _ } = Api.to_config creq in
  let context =
    Trace.span tr "dod.make_context" (fun () -> Dod.make_context ~params ~weight ?domains profiles)
  in
  Trace.context tr context;
  let size_bound = creq.Api.size_bound in
  let dfss, _ =
    Trace.span tr "algorithm.generate" (fun () ->
        Algorithm.generate_within ?domains algorithm context ~limit:size_bound)
  in
  let table = Trace.span tr "table.build" (fun () -> Table.build ~size_bound context dfss) in
  let dod = Dod.total context dfss in
  Trace.dod tr dod;
  Trace.span tr "api.encode" (fun () ->
      Json.to_string
        (Api.json_of_comparison
           {
             Pipeline.keywords; profiles; context; dfss; dod; table; algorithm; size_bound;
             elapsed_s = 0.; degraded = false;
           }))
