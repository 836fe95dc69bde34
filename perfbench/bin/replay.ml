(* The traced replay: the run's first requests again, in this process,
   through the public functions of each layer, with spans recorded around
   every call.

   Pass A sends each request through an in-process socketpair into the
   real dispatch: [Http.read_request], [Server.handle], [Http.write_response].
   Pass B computes the same response from the decomposed layer calls
   (decode, search, extract, make_context, generate, encode, journal
   append, ...) under one [layers] root per request; its body must equal
   pass A's (modulo [elapsed_s]). [server.handle] minus the layer spans of
   the same request is the time the dispatch spends outside every layer.
   Pass B runs once traced and twice untraced, for the tracing overhead
   and the GC counters. *)

open Xsact_core
module Spans = Perfbench.Spans
module Keygen = Perfbench.Keygen
module Http = Xsact_server.Http
module Server = Xsact_server.Server
module Api = Xsact_server.Api
module Json = Xsact_server.Json
module Lru = Xsact_server.Lru
module Durability = Xsact_server.Durability

let cold_requests = 150
let hot_requests = 3000
let session_requests = 1500

(* ---- pass A ------------------------------------------------------------ *)

type wire = { client : Client.conn; ic : in_channel; oc : out_channel }

let wire () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  {
    client = { Client.fd = a; buf = Bytes.create 65536; len = 0; started_ns = -1 };
    ic = Unix.in_channel_of_descr b;
    oc = Unix.out_channel_of_descr b;
  }

(* The client side writes the request's bytes, the server side reads,
   dispatches and writes back, the client side reads the response. *)
let through_server spans w srv raw =
  Spans.with_span spans "request" (fun () ->
      Client.write_all w.client.Client.fd raw 0;
      let req =
        Spans.with_span spans "http.read" (fun () ->
            match Http.read_request w.ic with
            | Ok r -> r
            | Error _ -> failwith "replay: Http.read_request failed")
      in
      let resp = Spans.with_span spans "server.handle" (fun () -> Server.handle srv req) in
      Spans.with_span spans "http.write" (fun () -> Http.write_response w.oc resp);
      let r = Client.await w.client in
      if r.Client.status / 100 <> 2 then
        failwith (Printf.sprintf "replay: status %d: %s" r.Client.status r.Client.body);
      r.Client.body)

(* ---- pass B ------------------------------------------------------------ *)

(* What [Server.handle] does for a cached POST /compare; the cold one is
   [World.compare_layers]. *)
let hot_layers tr cache body =
  let creq =
    Trace.span tr "api.decode" (fun () ->
        Result.get_ok (Result.bind (Json.of_string body) Api.decode_compare))
  in
  let key = Trace.span tr "api.key" (fun () -> Api.canonical_key ~scope:Api.Full creq) in
  match Trace.span tr "lru.find" (fun () -> Lru.find cache key) with
  | Some (body, dod) ->
    Trace.dod tr dod;
    body
  | None -> failwith "replay: hot key not cached"

type request = { raw : string; body : string option; meth : string; target : string }

let of_http (meth, target, body) = { raw = Client.request ?body meth target; body; meth; target }
let post target body = of_http ("POST", target, Some body)

(* A fresh pass-B responder for session_edit: the session model plus a
   journal of its own, as the server journals every create and write. *)
let session_layers ~world ~ids ~dir =
  E2e.rm_rf dir;
  let d, _ = Durability.recover ~dir ~fsync:(Xsact_persist.Journal.Interval 0.1) ~snapshot_every:256 in
  let s0 = Durability.stats_json d in
  let models = Array.make (Array.length ids) None in
  let log tr ~op m =
    Trace.span tr "journal.append" (fun () ->
        Durability.log_upsert d ~op ~id:m.Sessions.id ~at:(Unix.gettimeofday ())
          ~entry:(Sessions.stored_entry m))
  in
  let respond tr i r =
    if i < Array.length ids then begin
      let m = Sessions.create tr world ~id:ids.(i) (Option.get r.body) in
      models.(i) <- Some m;
      log tr ~op:"create" m;
      Trace.span tr "api.encode" (fun () -> Json.to_string (Sessions.summary m))
    end
    else begin
      let m = Option.get models.(Scanf.sscanf r.target "/session/s%d" (fun k -> k - 1)) in
      let body = Sessions.apply tr m (r.meth, r.target, r.body) in
      if r.body <> None then log tr ~op:(if r.meth = "PATCH" then "params" else "apply") m;
      Trace.dod tr (Session.dod m.Sessions.session);
      body
    end
  in
  let journal () =
    let s1 = Durability.stats_json d in
    let delta k = E2e.int_at [ k ] s1 - E2e.int_at [ k ] s0 in
    (delta "journal_appends", delta "journal_bytes", delta "snapshots_total")
  in
  (respond, journal)

(* ---- the replay -------------------------------------------------------- *)

type outcome = {
  spans : Spans.span list;
  counts : Trace.counts;
  bodies_equal : bool;
  nesting_ok : bool;
  overhead_pct : float;
  minor_words_per_op : float;
  major_per_kop : float;
  journal : (int * int * int) option;  (** appends, bytes, compactions *)
  requests : int;
}

let run ~world ~workload ~seed ~run_dir ~hot_bodies =
  let queries = world.World.queries in
  let hot_keys = Keygen.hot_keys ~seed ~n:E2e.hot_key_count queries in
  let ids = Array.init E2e.session_count (fun i -> Printf.sprintf "s%d" (i + 1)) in
  let requests =
    match workload with
    | E2e.Compare_cold ->
      let g = Keygen.cold ~seed queries in
      List.init cold_requests (fun _ -> post "/compare" (World.compare_body (Keygen.next_cold g)))
    | E2e.Compare_hot ->
      let next = Keygen.hot_order ~seed ~n:E2e.hot_key_count in
      List.init hot_requests (fun _ -> post "/compare" (World.compare_body hot_keys.(next ())))
    | E2e.Session_edit ->
      let ss = Keygen.sessions ~seed ~n:E2e.session_count queries in
      let creates = Array.to_list (Array.map Sessions.create_body ss) in
      let ops = Keygen.session_ops ~seed ss in
      List.map (post "/session") creates
      @ List.init session_requests (fun _ -> of_http (Sessions.http_of_op ids (ops ())))
  in
  let n = List.length requests in
  (* pass A *)
  let spans = Spans.create ~enabled:true in
  let srv =
    match workload with
    | E2e.Session_edit -> Server.create ~state_dir:(Filename.concat run_dir "replay-a") ()
    | E2e.Compare_cold | E2e.Compare_hot -> Server.create ()
  in
  Server.recover srv;
  let w = wire () in
  if workload = E2e.Compare_hot then
    Array.iter
      (fun k ->
        ignore
          (through_server (Spans.create ~enabled:false) w srv
             (Client.request ~body:(World.compare_body k) "POST" "/compare")))
      hot_keys;
  let server_bodies =
    List.mapi
      (fun i r ->
        Spans.set_request spans i;
        through_server spans w srv r.raw)
      requests
  in
  (* pass B, recording into [sp] *)
  let pass_b sp ~dir =
    let tr = Trace.create sp in
    let respond, journal =
      match workload with
      | E2e.Compare_cold -> ((fun tr _ r -> World.compare_layers tr world (Option.get r.body)), None)
      | E2e.Compare_hot ->
        let cache = Lru.create ~capacity:128 in
        Array.iteri
          (fun i k ->
            let creq = Result.get_ok (Result.bind (Json.of_string (World.compare_body k)) Api.decode_compare) in
            let dod = E2e.int_at [ "dod" ] (Result.get_ok (Json.of_string hot_bodies.(i))) in
            Lru.add cache (Api.canonical_key ~scope:Api.Full creq) (hot_bodies.(i), dod))
          hot_keys;
        ((fun tr _ r -> hot_layers tr cache (Option.get r.body)), None)
      | E2e.Session_edit ->
        let respond, journal = session_layers ~world ~ids ~dir:(Filename.concat run_dir dir) in
        (respond, Some journal)
    in
    let gc0 = Gc.quick_stat () in
    let t0 = Spans.now_ns () in
    let bodies =
      List.mapi
        (fun i r ->
          Spans.set_request sp i;
          let body = Spans.with_span sp "layers" (fun () -> respond tr i r) in
          Trace.body tr body;
          body)
        requests
    in
    let elapsed = Spans.now_ns () - t0 in
    let gc1 = Gc.quick_stat () in
    (tr.Trace.counts, bodies, elapsed, (gc0, gc1), Option.map (fun f -> f ()) journal)
  in
  let off = Spans.create ~enabled:false in
  let _, _, untraced1, (gc0, gc1), _ = pass_b off ~dir:"replay-b1" in
  let counts, bodies, traced, _, journal = pass_b spans ~dir:"replay-b2" in
  let _, _, untraced2, _, _ = pass_b off ~dir:"replay-b3" in
  let all = Spans.spans spans in
  let untraced = float_of_int (untraced1 + untraced2) /. 2. in
  let ops = float_of_int n in
  {
    spans = all;
    counts;
    bodies_equal =
      List.for_all2 (fun a b -> String.equal (World.normalize a) (World.normalize b)) server_bodies bodies;
    nesting_ok = Spans.nesting_violations all = [];
    overhead_pct = (float_of_int traced -. untraced) /. untraced *. 100.;
    minor_words_per_op = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops;
    major_per_kop = float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. ops *. 1000.;
    journal;
    requests = n;
  }
