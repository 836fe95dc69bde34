(* The server under test as a child process: spawn, wait for readiness,
   read its CPU time and peak RSS from /proc, stop it. *)

type t = { pid : int; out : Unix.file_descr; port : int }

(* Read one line from [fd] without buffering past it, so nothing the
   server prints later is swallowed. [None] at end of file. *)
let read_line fd =
  let b = Buffer.create 80 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | _ ->
      if Bytes.get c 0 = '\n' then Some (Buffer.contents b)
      else begin
        Buffer.add_char b (Bytes.get c 0);
        go ()
      end
  in
  go ()

(* Children still running; any left when this process exits, normally or
   on an uncaught exception, are killed and reaped. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let listening_prefix = "xsact-serve listening on http://127.0.0.1:"

(* Spawn [exe] on an ephemeral port and block on its stdout until it has
   printed [ready_line] (a line prefix), then until GET /ready answers
   200. Blocking reads, not a polling interval, so the measured set-up
   time is not rounded up to a poll period. *)
let spawn ~exe ~args ~stderr_path ~ready_line =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--port" :: "0" :: args))
      Unix.stdin w err
  in
  live := pid :: !live;
  Unix.close w;
  Unix.close err;
  let port = ref None and ready = ref false in
  while not !ready do
    match read_line r with
    | None -> failwith ("server exited during start-up; see " ^ stderr_path)
    | Some line ->
      let pl = String.length listening_prefix in
      if String.length line > pl && String.sub line 0 pl = listening_prefix
      then port := Some (int_of_string (String.sub line pl (String.length line - pl)));
      if String.starts_with ~prefix:ready_line line then ready := true
  done;
  let t = { pid; out = r; port = Option.get !port } in
  let c = Client.connect t.port in
  let rec until_ready () =
    if (Client.call c (Client.request "GET" "/ready")).Client.status <> 200
    then begin
      Unix.sleepf 0.0005;
      until_ready ()
    end
  in
  until_ready ();
  Client.close c;
  t

(* SIGTERM, drain stdout to end of file (the server closes it on exit),
   and reap. A server still running after [grace] seconds is killed. *)
let stop ?(grace = 10.) t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let buf = Bytes.create 4096 in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ())
    else
      match Unix.select [ t.out ] [] [] left with
      | [], _, _ -> drain ()
      | _ -> if Unix.read t.out buf 0 4096 > 0 then drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close t.out;
  ignore (Unix.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* utime + stime in clock ticks (USER_HZ, 100 on Linux). *)
let cpu_ticks t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  (* fields after the parenthesised command name; utime and stime are the
     12th and 13th of them *)
  let i = String.rindex s ')' + 2 in
  let fields = String.split_on_char ' ' (String.sub s i (String.length s - i)) in
  int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12)

let ms_per_tick = 10.

(* Peak resident set (VmHWM), in MiB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Host-wide (total, steal) jiffies from the first line of /proc/stat:
   time the hypervisor ran something else while this VM wanted a CPU. *)
let host_jiffies () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    (List.fold_left ( + ) 0 v, List.nth v 7)
  | _ -> failwith "unexpected /proc/stat"
