(* Seeded request keys for the comparison and session workloads.

   Everything here is a pure function of the seed and of the result-set
   sizes, so two runs with one seed send the same requests, and the
   in-process replay can regenerate exactly what the server received. *)

module Prng = Xsact_util.Prng

type query = { dataset : string; q : string; available : int }
(** One canned query and the number of ranked results it returns. *)

type key = { query : query; ranks : int list  (** sorted, 1-based *) }

(* The server's default GET /search page: [limit] 10 (lib/serve/server.ml). *)
let page_size = 10
let min_select = 2
let max_select = 6

(* Ranks a session may use: the first page of results. *)
let rank_limit query = min query.available page_size

let usable queries =
  let qs = Array.of_list (List.filter (fun q -> rank_limit q >= min_select) queries) in
  if qs = [||] then invalid_arg "Keygen: no query has two results";
  qs

(* [k] distinct ranks drawn uniformly from 1..[m], sorted. *)
let draw_ranks g ~m ~k =
  let rec go acc n =
    if n = 0 then List.sort compare acc
    else
      let r = Prng.int_in g 1 m in
      if List.mem r acc then go acc n else go (r :: acc) (n - 1)
  in
  go [] k

let key_id k =
  Printf.sprintf "%s|%s|%s" k.query.dataset k.query.q
    (String.concat "," (List.map string_of_int k.ranks))

(* The cold key space: every (query, selection) whose [min_select] to
   [max_select] ranks lie on one page of [page_size] consecutive results
   (ranks 1-10, 11-20, ...), over every query. The first page alone holds
   too few keys for one run (see README.md). A key is packed in one int
   (query index, page, bit set of the ranks on the page) so the whole space
   costs the load generator one unboxed array. *)
let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

let pack ~qi ~page ~mask = (qi lsl 24) lor (page lsl 12) lor mask

let unpack qs p =
  let query = qs.(p lsr 24) and page = (p lsr 12) land 0xfff and mask = p land 0xfff in
  let ranks =
    List.filter_map
      (fun b -> if mask land (1 lsl b) <> 0 then Some ((page * page_size) + b + 1) else None)
      (List.init page_size Fun.id)
  in
  { query; ranks }

let enumerate qs =
  let keys = ref [] in
  Array.iteri
    (fun qi q ->
      for page = 0 to (q.available - 1) / page_size do
        let m = min page_size (q.available - (page * page_size)) in
        for mask = (1 lsl m) - 1 downto 1 do
          let k = popcount mask in
          if k >= min_select && k <= max_select then keys := pack ~qi ~page ~mask :: !keys
        done
      done)
    qs;
  Array.of_list !keys

(* The keys of the whole space in a seeded order (Fisher-Yates), sent in
   that order: every prefix is a uniform sample of the space, so the mix
   of queries and selection sizes is the same throughout a run and at any
   throughput. *)
type cold = { qs : query array; order : int array; mutable next : int }

exception Exhausted of int

let cold ~seed queries =
  let qs = usable queries in
  let order = enumerate qs in
  let g = Prng.of_int seed in
  for i = Array.length order - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  { qs; order; next = 0 }

let cold_space c = Array.length c.order

(* Raises [Exhausted] with the size of the space rather than repeat a key. *)
let next_cold c =
  if c.next = Array.length c.order then raise (Exhausted (Array.length c.order));
  let k = unpack c.qs c.order.(c.next) in
  c.next <- c.next + 1;
  k

(* The hot workload's key set: [n] distinct keys from the cold stream,
   and a seeded sequence of indices into it. *)
let hot_keys ~seed ~n queries =
  let c = cold ~seed queries in
  Array.init n (fun _ -> next_cold c)

let hot_order ~seed ~n =
  let g = Prng.of_int (seed lxor 0x5eed) in
  fun () -> Prng.int g n

(* ---- session edits ---------------------------------------------------- *)

type patch = Threshold of float | Weight of string * int

type op =
  | Read of int  (** session index *)
  | Swap of int * int * int  (** session, rank out, rank in *)
  | Size of int * int  (** session, new size bound *)
  | Params of int * patch

type session = {
  s_query : query;
  mutable s_ranks : int list;  (** in server order: additions go last *)
  mutable s_size : int;
}

let initial_size = 8
let sizes = [| 4; 6; 8; 10; 12 |]
let thresholds = [| 5.; 10.; 15.; 20. |]
let weight_patterns = [| "a"; "e"; "o" |]

(* [n] sessions over queries spread evenly through the usable ones (so
   over every corpus), each selecting four ranks of the first page. *)
let sessions ~seed ~n queries =
  let g = Prng.of_int (seed lxor 0x5e55) in
  let qs = usable queries in
  let nq = Array.length qs in
  Array.init n (fun i ->
      let query = qs.(i * nq / n mod nq) in
      let m = rank_limit query in
      { s_query = query; s_ranks = draw_ranks g ~m ~k:(min 4 m); s_size = initial_size })

(* A seeded stream of session ops over [sessions], which it mutates to
   track each selection: 40% reads, 30% swaps, 15% resizes, 15% params
   patches. The shares are assumptions, not recorded usage (README.md). A
   swap needs a rank outside the selection; a session without one is read
   instead. *)
let session_ops ~seed sessions =
  let g = Prng.of_int (seed lxor 0x0b5) in
  fun () ->
    let i = Prng.int g (Array.length sessions) in
    let s = sessions.(i) in
    let roll = Prng.int g 100 in
    if roll < 40 then Read i
    else if roll < 70 then begin
      let m = rank_limit s.s_query in
      let outside = List.filter (fun r -> not (List.mem r s.s_ranks)) (List.init m succ) in
      match outside with
      | [] -> Read i
      | _ ->
        let r_out = List.nth s.s_ranks (Prng.int g (List.length s.s_ranks)) in
        let r_in = List.nth outside (Prng.int g (List.length outside)) in
        s.s_ranks <- List.filter (( <> ) r_out) s.s_ranks @ [ r_in ];
        Swap (i, r_out, r_in)
    end
    else if roll < 85 then begin
      let others = List.filter (( <> ) s.s_size) (Array.to_list sizes) in
      let size = List.nth others (Prng.int g (List.length others)) in
      s.s_size <- size;
      Size (i, size)
    end
    else if Prng.bool g then
      Params (i, Threshold thresholds.(Prng.int g (Array.length thresholds)))
    else
      Params
        ( i,
          Weight
            ( weight_patterns.(Prng.int g (Array.length weight_patterns)),
              Prng.int_in g 1 3 ) )
