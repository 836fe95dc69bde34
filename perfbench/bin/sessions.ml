(* session_edit's requests, and an in-process model that applies the same
   request bodies through the server's own library path (Api decode and
   rank translation, Session.create / Session.apply) to predict every
   session's state. The model is both the end-of-run oracle and the
   decomposed side of the traced replay, so each layer call is traced. *)

open Xsact_core
open Xsact_search
module Json = Xsact_server.Json
module Api = Xsact_server.Api
module Keygen = Perfbench.Keygen

let create_body (s : Keygen.session) =
  Json.to_string
    (Json.Obj
       [
         ("dataset", Json.String s.s_query.dataset);
         ("q", Json.String s.s_query.q);
         ("select", Json.List (List.map (fun r -> Json.Int r) s.s_ranks));
         ("size_bound", Json.Int s.s_size);
       ])

let op_json name fields = Json.Obj (("op", Json.String name) :: fields)

(* (method, target, body) of one op against session [ids.(i)]. *)
let http_of_op ids = function
  | Keygen.Read i -> ("GET", "/session/" ^ ids.(i), None)
  | Keygen.Swap (i, r_out, r_in) ->
    ( "POST",
      "/session/" ^ ids.(i) ^ "/apply",
      Some
        (Json.to_string
           (Json.Obj
              [
                ( "ops",
                  Json.List
                    [
                      op_json "remove" [ ("rank", Json.Int r_out) ];
                      op_json "add" [ ("rank", Json.Int r_in) ];
                    ] );
              ])) )
  | Keygen.Size (i, size) ->
    ( "POST",
      "/session/" ^ ids.(i) ^ "/apply",
      Some
        (Json.to_string
           (Json.Obj
              [ ("ops", Json.List [ op_json "size" [ ("size_bound", Json.Int size) ] ]) ]))
    )
  | Keygen.Params (i, patch) ->
    let body =
      match patch with
      | Keygen.Threshold x -> Json.Obj [ ("threshold_pct", Json.Float x) ]
      | Keygen.Weight (pat, w) -> Json.Obj [ ("weights", Json.Obj [ (pat, Json.Int w) ]) ]
    in
    ("PATCH", "/session/" ^ ids.(i) ^ "/params", Some (Json.to_string body))

let session_index = function
  | Keygen.Read i | Keygen.Swap (i, _, _) | Keygen.Size (i, _) | Keygen.Params (i, _) -> i

(* ---- the model ------------------------------------------------------- *)

type model = {
  id : string;
  dataset : string;
  pipeline : Pipeline.t;
  results : Search.result list;
  mutable request : Api.compare_request;
  mutable ranks : int list;
  mutable session : Session.t;
}

let summary m =
  Json.Obj
    [
      ("id", Json.String m.id);
      ("dataset", Json.String m.dataset);
      ("q", Json.String m.request.Api.keywords);
      ("ranks", Json.List (List.map (fun r -> Json.Int r) m.ranks));
      ("size_bound", Json.Int (Session.size_bound m.session));
      ("dod", Json.Int (Session.dod m.session));
      ("algorithm", Json.String (Algorithm.to_string (Session.config m.session).Config.algorithm));
      ("runs", Json.Int (Session.stats m.session));
    ]

let profile_of tr pipeline keywords results rank =
  Trace.profile tr pipeline keywords (List.find (fun r -> r.Search.rank = rank) results)

let decode tr body =
  Trace.span tr "api.decode" (fun () ->
      match Json.of_string body with Ok j -> j | Error e -> failwith e)

let create tr world ~id body =
  let creq =
    Trace.span tr "api.decode" (fun () ->
        match Result.bind (Json.of_string body) Api.decode_compare with
        | Ok c -> c
        | Error e -> failwith e)
  in
  let pipeline = World.pipeline world creq.Api.dataset in
  let keywords = creq.Api.keywords in
  let results = Trace.search tr pipeline keywords in
  let ranks = Option.get creq.Api.select in
  let profiles = List.map (profile_of tr pipeline keywords results) ranks in
  let session =
    Trace.span tr "session.create" (fun () ->
        match
          Session.create ~config:(Api.to_config creq) ~size_bound:creq.Api.size_bound profiles
        with
        | Ok s -> s
        | Error e -> failwith (Error.to_string e))
  in
  Trace.context tr (Session.context session);
  { id; dataset = creq.Api.dataset; pipeline; results; request = creq; ranks; session }

let fail_op e = failwith (Api.message_of_op_error e)

(* Apply one op's request, as the server's handlers do, and return the
   response body the server should send. *)
let apply tr m (meth, _target, body) =
  match body with
  | None ->
    (* a read: the summary plus the rendered table *)
    let table = Trace.span tr "table.build" (fun () -> Session.table m.session) in
    Trace.span tr "api.encode" (fun () ->
        let fields = match summary m with Json.Obj f -> f | _ -> [] in
        Json.to_string (Json.Obj (fields @ [ ("table", Api.json_of_table table) ])))
  | Some body ->
    let json = decode tr body in
    let ops =
      if meth = "PATCH" then
        match Api.decode_params_patch json with
        | Ok p -> [ Api.Op_params p ]
        | Error e -> fail_op e
      else match Api.decode_ops json with Ok ops -> ops | Error e -> fail_op e
    in
    let sops, ranks, creq =
      Trace.span tr "api.translate" (fun () ->
          match
            Api.translate_ops ~request:m.request ~ranks:m.ranks
              ~available:(List.length m.results)
              ~profile_of:(profile_of tr m.pipeline m.request.Api.keywords m.results)
              ~config_of:Api.to_config ops
          with
          | Ok x -> x
          | Error (`Op e) -> fail_op e
          | Error (`Core e) -> failwith (Error.to_string e))
    in
    let session =
      Trace.span tr "session.apply" (fun () ->
          match Session.apply m.session sops with
          | Ok s -> s
          | Error e -> failwith (Error.to_string e))
    in
    m.request <- creq;
    m.ranks <- ranks;
    m.session <- session;
    Trace.span tr "api.encode" (fun () -> Json.to_string (summary m))

(* The durable entry the server journals for a session (its recipe). *)
let stored_entry m =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("dataset", Json.String m.dataset);
      ("request", Api.json_of_compare m.request);
      ("ranks", Json.List (List.map (fun r -> Json.Int r) m.ranks));
      ("size_bound", Json.Int (Session.size_bound m.session));
    ]
