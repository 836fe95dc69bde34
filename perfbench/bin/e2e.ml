(* The end-to-end run: spawn xsact_serve.exe, set up the workload, drive
   it closed-loop over keep-alive loopback connections for the run's
   seconds with tracing off, and check every response.

   The timed phase runs with this process's heap small (the in-process
   corpora are not loaded then), so the load generator's own garbage
   collection does not show up in the server's latencies. The checks
   that need the corpora run afterwards, in [check]. *)

module Json = Xsact_server.Json
module Keygen = Perfbench.Keygen
module Spans = Perfbench.Spans
module Stats = Perfbench.Stats

type workload = Compare_cold | Compare_hot | Session_edit

let workload_of_string = function
  | "compare_cold" -> Some Compare_cold
  | "compare_hot" -> Some Compare_hot
  | "session_edit" -> Some Session_edit
  | _ -> None

(* Never more connections than CPUs; the workloads are sized for two.
   session_edit is one user editing. *)
let connections = function Compare_cold | Compare_hot -> 2 | Session_edit -> 1

let setups_per_run = 5
let hot_key_count = 32  (* well under the server's 128-entry body cache *)
let session_count = 8
let checked_cold_bodies = 20

(* compare_cold never repeats a key, so a run may send no more requests
   than the key space holds. It is sized for this rate, more than three
   times the 410 ops/s measured on a shared 2-vCPU virtual machine when
   the benchmark was written; [key_space] refuses a run the space cannot
   cover at it. *)
let cold_rate_ceiling = 1500.

(* Load before the timed phase, untimed but checked. Without it the first
   seconds of a run showed a heavier tail than the rest (a fresh server
   heap reaching its steady state). *)
let warmup_s = 2.

let key_space ~workload ~seconds queries =
  match workload with
  | Compare_hot | Session_edit -> Ok ()
  | Compare_cold ->
    let space = Keygen.cold_space (Keygen.cold ~seed:0 queries) in
    let need = int_of_float (Float.ceil ((warmup_s +. seconds) *. cold_rate_ceiling)) in
    if space >= need then Ok ()
    else
      Error
        (Printf.sprintf
           "compare_cold has %d distinct keys; %g s at up to %g ops/s may need %d. Run fewer seconds."
           space (warmup_s +. seconds) cold_rate_ceiling need)

(* What the checks after the timed phase compare against the in-process
   computation. *)
type evidence =
  | Cold of (Keygen.key * string) list  (** the first responses *)
  | Hot of string array  (** the warmed body of each hot key *)
  | Edits of {
      ids : string array;
      ops : Keygen.op list;  (** in the order sent *)
      write_bodies : (int, string) Hashtbl.t;  (** op index → response *)
      readback : (int * string) array;  (** GET /session/:id after the run *)
    }

(* Failed ops, with the first few reasons. *)
type tally = { mutable failed : int; mutable problems : string list }

let fail ?(ops = 1) t msg =
  t.failed <- t.failed + ops;
  if List.length t.problems < 5 then t.problems <- t.problems @ [ msg ]

type result = {
  attempted : int;
  tally : tally;
  latencies_ms : float array;  (** in completion order *)
  done_s : float array;  (** completion times, seconds into the timed phase *)
  windows : int Stats.window list;
      (** consecutive stretches of the timed phase with their steal share
          (from /proc/stat) and the server's CPU ticks *)
  cpu_ms : float;  (** server utime + stime over the timed phase *)
  steal_pct : float;  (** host CPU time stolen by the hypervisor, timed phase *)
  rss_mb : float;
  setups_s : float list;
  cache_hits : int;  (** X-Cache: hit responses *)
  cache_lookups : int;  (** responses carrying X-Cache *)
  intern_hits : int;
  intern_lookups : int;
  journal_appends : int;
  journal_bytes : int;
  compactions : int;
  evidence : evidence;
}

(* ---- /metrics readings ------------------------------------------------ *)

let metrics port =
  let c = Client.connect port in
  let r = Client.call c (Client.request "GET" "/metrics") in
  Client.close c;
  match Json.of_string r.Client.body with Ok j -> j | Error e -> failwith e

let int_at path j =
  let rec go j = function
    | [] -> Option.value ~default:0 (Json.to_int j)
    | k :: rest -> (match Json.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

(* ---- per-workload plumbing -------------------------------------------- *)

let state_dir run_dir = Filename.concat run_dir "state"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let server_args workload run_dir =
  match workload with
  | Session_edit -> [ "--state-dir"; state_dir run_dir ]
  | Compare_cold | Compare_hot -> []

(* The server prints its state-dir line only after recovery. *)
let ready_line = function
  | Session_edit -> "  state: "
  | Compare_cold | Compare_hot -> "  workers: "

let comparison_shape ~ranks body =
  match Json.of_string body with
  | Error e -> Error ("unparsable body: " ^ e)
  | Ok j -> (
    match
      ( Option.bind (Json.member "dfs_sizes" j) Json.to_list,
        Option.bind (Json.member "dod" j) Json.to_int,
        Option.bind (Json.member "table" j) (Json.member "rows") )
    with
    | Some sizes, Some _, Some _ when List.length sizes = List.length ranks -> Ok ()
    | _ -> Error "comparison body has the wrong shape")

(* Share of the host's CPU time stolen between two /proc/stat readings. *)
let steal_share (total0, steal0) (total1, steal1) =
  float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))

(* The timed phase is cut into windows of about a second, each with
   its own steal share. *)
let window_ns = 1_000_000_000

(* A growable float buffer: latency samples without a cons cell each. *)
type samples = { mutable a : float array; mutable n : int }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let run ~exe ~queries ~workload ~seed ~seconds ~run_dir =
  let tally = { failed = 0; problems = [] } in
  let fail_now = fail tally in
  let hits = ref 0 and lookups = ref 0 in
  let latencies = { a = Array.make 65536 0.; n = 0 } in
  let done_at = { a = Array.make 65536 0.; n = 0 } in
  let hot_keys = Keygen.hot_keys ~seed ~n:hot_key_count queries in
  let hot_requests =
    Array.map (fun k -> Client.request ~body:(World.compare_body k) "POST" "/compare") hot_keys
  in
  let hot_bodies = Array.make hot_key_count "" in
  let sessions = Keygen.sessions ~seed ~n:session_count queries in
  let session_ids = Array.make session_count "" in
  (* set-up: [setups_per_run] fresh servers, the last one kept *)
  let setup () =
    rm_rf (state_dir run_dir);
    let t0 = Spans.now_ns () in
    let srv =
      Proc.spawn ~exe ~args:(server_args workload run_dir)
        ~stderr_path:(Filename.concat run_dir "server.stderr")
        ~ready_line:(ready_line workload)
    in
    let c = Client.connect srv.Proc.port in
    (match workload with
    | Compare_cold -> ()
    | Compare_hot ->
      Array.iteri
        (fun i raw ->
          let r = Client.call c raw in
          if r.Client.status <> 200 || r.Client.cache <> Some "miss" then
            failwith "compare_hot warm-up: expected a 200 miss";
          hot_bodies.(i) <- r.Client.body)
        hot_requests
    | Session_edit ->
      Array.iteri
        (fun i s ->
          let r = Client.call c (Client.request ~body:(Sessions.create_body s) "POST" "/session") in
          if r.Client.status <> 201 then failwith "session_edit set-up: POST /session failed";
          match Option.bind (Result.to_option (Json.of_string r.Client.body)) (Json.member "id") with
          | Some (Json.String id) -> session_ids.(i) <- id
          | _ -> failwith "session_edit set-up: no session id")
        sessions);
    Client.close c;
    (srv, float_of_int (Spans.now_ns () - t0) /. 1e9)
  in
  let rec setups n acc =
    let srv, dt = setup () in
    if n = 1 then (srv, List.rev (dt :: acc))
    else begin
      Proc.stop srv;
      setups (n - 1) (dt :: acc)
    end
  in
  let srv, setups_s = setups setups_per_run [] in
  let conns = Array.init (connections workload) (fun _ -> Client.connect srv.Proc.port) in
  (* the request stream *)
  let cold = Keygen.cold ~seed queries in
  let checked = ref [] in
  let hot_next = Keygen.hot_order ~seed ~n:hot_key_count in
  let ops = Keygen.session_ops ~seed sessions in
  let sent_ops = ref [] and op_count = ref 0 in
  let next () =
    match workload with
    | Compare_cold ->
      let k = Keygen.next_cold cold in
      (Client.request ~body:(World.compare_body k) "POST" "/compare", `Cold k)
    | Compare_hot ->
      let i = hot_next () in
      (hot_requests.(i), `Hot i)
    | Session_edit ->
      let op = ops () in
      let meth, target, body = Sessions.http_of_op session_ids op in
      let n = !op_count in
      incr op_count;
      sent_ops := op :: !sent_ops;
      (Client.request ?body meth target, `Op (n, op))
  in
  let write_bodies = Hashtbl.create 4096 in
  let timing = ref false and warmup_ops = ref 0 and samples = ref [] in
  let on_done tag (r : Client.response) latency_ns =
    if !timing then begin
      let now = Spans.now_ns () in
      push latencies (float_of_int latency_ns /. 1e6);
      push done_at (float_of_int now);
      (match !samples with
      | (t, _, _) :: _ when now - t < window_ns -> ()
      | _ -> samples := (now, Proc.host_jiffies (), Proc.cpu_ticks srv) :: !samples);
      match r.Client.cache with
      | Some c ->
        incr lookups;
        if c = "hit" then incr hits
      | None -> ()
    end
    else incr warmup_ops;
    if r.Client.status <> 200 then fail_now (Printf.sprintf "status %d: %s" r.Client.status r.Client.body)
    else
      match tag with
      | `Cold (k : Keygen.key) -> (
        if r.Client.cache <> Some "miss" then fail_now "compare_cold: a cache hit"
        else
          match comparison_shape ~ranks:k.ranks r.Client.body with
          | Error e -> fail_now e
          | Ok () ->
            if List.length !checked < checked_cold_bodies then
              checked := (k, r.Client.body) :: !checked)
      | `Hot i ->
        if r.Client.cache <> Some "hit" then fail_now "compare_hot: a cache miss"
        else if not (String.equal r.Client.body hot_bodies.(i)) then
          fail_now "compare_hot: body differs from the warmed one"
      | `Op (n, op) -> (
        let prefix = "{\"id\":\"" ^ session_ids.(Sessions.session_index op) ^ "\"," in
        if not (String.starts_with ~prefix r.Client.body) then
          fail_now "session_edit: body has the wrong shape"
        else
          match op with
          | Keygen.Read _ -> ()
          | _ -> Hashtbl.replace write_bodies n r.Client.body)
  in
  let run_for s start = Client.closed_loop conns ~stop_ns:(start + int_of_float (s *. 1e9)) ~next ~on_done in
  run_for warmup_s (Spans.now_ns ());
  timing := true;
  let m0 = metrics srv.Proc.port in
  let ticks0 = Proc.cpu_ticks srv and host0 = Proc.host_jiffies () in
  let t0 = Spans.now_ns () in
  samples := [ (t0, host0, ticks0) ];
  run_for seconds t0;
  let t1 = Spans.now_ns () and ticks1 = Proc.cpu_ticks srv and host1 = Proc.host_jiffies () in
  samples := (t1 + 1, host1, ticks1) :: !samples;
  let m1 = metrics srv.Proc.port in
  let rss_mb = Proc.peak_rss_mb srv in
  let evidence =
    match workload with
    | Compare_cold -> Cold (List.rev !checked)
    | Compare_hot -> Hot hot_bodies
    | Session_edit ->
      let readback =
        Array.map
          (fun id ->
            let r = Client.call conns.(0) (Client.request "GET" ("/session/" ^ id)) in
            (r.Client.status, r.Client.body))
          session_ids
      in
      Edits { ids = session_ids; ops = List.rev !sent_ops; write_bodies; readback }
  in
  Array.iter Client.close conns;
  Proc.stop srv;
  let delta path = int_at path m1 - int_at path m0 in
  let intern_hits = delta [ "context_intern"; "hits" ] in
  (* a reused context means a request skipped search, extraction and
     make_context: not cold *)
  if workload = Compare_cold && intern_hits > 0 then
    fail ~ops:intern_hits tally
      (Printf.sprintf "compare_cold: %d requests reused an interned context" intern_hits);
  {
    (* the loop completes every request it sends; warm-up requests are
       checked like the rest *)
    attempted = !warmup_ops + latencies.n;
    tally;
    latencies_ms = Array.sub latencies.a 0 latencies.n;
    done_s = Array.init done_at.n (fun i -> (done_at.a.(i) -. float_of_int t0) /. 1e9);
    cpu_ms = float_of_int (ticks1 - ticks0) *. Proc.ms_per_tick;
    steal_pct = 100. *. steal_share host0 host1;
    windows =
      (let secs t = float_of_int (t - t0) /. 1e9 in
       let rec windows = function
         | (ta, ha, ca) :: ((tb, hb, cb) :: _ as rest) ->
           { Stats.start = secs ta; stop = secs tb; steal = steal_share ha hb; data = cb - ca }
           :: windows rest
         | _ -> []
       in
       windows (List.rev !samples));
    rss_mb;
    setups_s;
    cache_hits = !hits;
    cache_lookups = !lookups;
    intern_hits;
    intern_lookups = intern_hits + delta [ "context_intern"; "misses" ];
    journal_appends = delta [ "durability"; "journal_appends" ];
    journal_bytes = delta [ "durability"; "journal_bytes" ];
    compactions = delta [ "durability"; "snapshots_total" ];
    evidence;
  }

(* The checks that need the corpora: responses against the same
   computation done here, and for session_edit, every write's response and
   every session's final state against an in-process replay of the ops
   sent. A mismatch counts as a failed op. *)
let check ~world ~seed r =
  let same_comparison k body =
    World.normalize (World.compare_layers (Trace.off ()) world (World.compare_body k))
    = World.normalize body
  in
  match r.evidence with
  | Cold checked ->
    List.iter
      (fun (k, body) ->
        if not (same_comparison k body) then
          fail r.tally ("compare_cold: body differs from the in-process comparison for " ^ Keygen.key_id k))
      checked
  | Hot bodies ->
    Array.iteri
      (fun i k ->
        if not (same_comparison k bodies.(i)) then
          fail r.tally ("compare_hot: warmed body differs from the in-process comparison for " ^ Keygen.key_id k))
      (Keygen.hot_keys ~seed ~n:hot_key_count world.World.queries)
  | Edits { ids; ops; write_bodies; readback } ->
    let tr = Trace.off () in
    let models =
      Array.mapi
        (fun i s -> Sessions.create tr world ~id:ids.(i) (Sessions.create_body s))
        (Keygen.sessions ~seed ~n:session_count world.World.queries)
    in
    List.iteri
      (fun n op ->
        match op with
        | Keygen.Read _ -> () (* reads change nothing; read-backs are checked below *)
        | _ -> (
          let want = Sessions.apply tr models.(Sessions.session_index op) (Sessions.http_of_op ids op) in
          match Hashtbl.find_opt write_bodies n with
          | Some got when not (String.equal got want) ->
            fail r.tally (Printf.sprintf "session_edit: op %d answered %s, the replay says %s" n got want)
          | _ -> ()))
      ops;
    Array.iteri
      (fun i (status, body) ->
        let want = Sessions.apply tr models.(i) ("GET", "", None) in
        if status <> 200 || not (String.equal body want) then
          fail r.tally ("session_edit: read-back of " ^ ids.(i) ^ " differs from the replay"))
      readback
