(* Closed-loop HTTP/1.1 keep-alive client over a few connections, driven
   from one thread with [Unix.select].

   Each connection sends its next request only after the previous response
   has arrived in full. One thread and no locks keep the generator's own
   cost small and steady next to the server's. *)

type response = { status : int; cache : string option; body : string }

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable started_ns : int;  (** [-1] when idle *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; len = 0; started_ns = -1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request ?body meth target =
  match body with
  | None ->
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" meth target
  | Some b ->
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      meth target (String.length b) b

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let find_crlf2 buf len =
  let rec go i =
    if i + 3 >= len then None
    else if
      Bytes.get buf i = '\r'
      && Bytes.get buf (i + 1) = '\n'
      && Bytes.get buf (i + 2) = '\r'
      && Bytes.get buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

(* A complete response at the front of [c.buf], if one has arrived. *)
let parse c =
  match find_crlf2 c.buf c.len with
  | None -> None
  | Some hend -> (
    let head = Bytes.sub_string c.buf 0 hend in
    match String.split_on_char '\n' head with
    | [] -> failwith "empty response head"
    | status_line :: header_lines ->
      let status =
        match String.split_on_char ' ' (String.trim status_line) with
        | _ :: code :: _ -> int_of_string code
        | _ -> failwith ("bad status line: " ^ status_line)
      in
      let clen = ref 0 and cache = ref None in
      List.iter
        (fun line ->
          match String.index_opt line ':' with
          | None -> ()
          | Some i ->
            let name = String.lowercase_ascii (String.sub line 0 i) in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            if name = "content-length" then clen := int_of_string value
            else if name = "x-cache" then cache := Some value)
        header_lines;
      let total = hend + 4 + !clen in
      if c.len < total then None
      else begin
        let body = Bytes.sub_string c.buf (hend + 4) !clen in
        Bytes.blit c.buf total c.buf 0 (c.len - total);
        c.len <- c.len - total;
        Some { status; cache = !cache; body }
      end)

let fill c =
  if c.len = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then failwith "server closed the connection";
  c.len <- c.len + n

(* Wait for the response to the request in flight on [c]. *)
let rec await c =
  match parse c with
  | Some r -> r
  | None ->
    fill c;
    await c

(* One request on one connection, outside any timed loop. *)
let call c raw =
  write_all c.fd raw 0;
  await c

(* Drive [conns] until [stop_ns] (monotonic) passes: each idle connection
   sends [next ()], and [on_done tag response latency_ns] sees every
   completed request. Requests in flight at the stop time still complete
   and are reported. *)
let closed_loop conns ~stop_ns ~next ~on_done =
  let tags = Array.make (Array.length conns) None in
  let send i =
    if Perfbench.Spans.now_ns () < stop_ns then begin
      let raw, tag = next () in
      let c = conns.(i) in
      tags.(i) <- Some tag;
      c.started_ns <- Perfbench.Spans.now_ns ();
      write_all c.fd raw 0
    end
  in
  Array.iteri (fun i _ -> send i) conns;
  let rec loop () =
    match List.filter (fun c -> c.started_ns >= 0) (Array.to_list conns) with
    | [] -> ()
    | busy ->
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) busy) [] [] (-1.)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iteri
        (fun i c ->
          if c.started_ns >= 0 && List.mem c.fd ready then begin
            fill c;
            match parse c with
            | None -> ()
            | Some resp ->
              let latency = Perfbench.Spans.now_ns () - c.started_ns in
              c.started_ns <- -1;
              on_done (Option.get tags.(i)) resp latency;
              send i
          end)
        conns;
      loop ()
  in
  loop ()
