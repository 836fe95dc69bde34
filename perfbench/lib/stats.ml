(* Order statistics for latency samples. *)

let min_beyond = 10

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the value at rank ceil(p * n). A percentile is
   only reported when at least [min_beyond] samples lie beyond that rank,
   so a tail figure never rests on a handful of observations. *)
let percentile ~p sorted =
  if not (p > 0. && p < 1.) then invalid_arg "Stats.percentile: p";
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  let beyond = n - rank in
  if n = 0 || beyond < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d"
         (p *. 100.) min_beyond n (max 0 beyond))
  else Ok sorted.(rank - 1)

let samples_needed ~p =
  (* the smallest n with n - ceil(p n) >= min_beyond *)
  let rec go n =
    if n - int_of_float (Float.ceil (p *. float_of_int n)) >= min_beyond then n
    else go (n + 1)
  in
  go 1

(* Plain median of a small set (setup times, calibration repeats). *)
let median xs =
  match sorted (Array.of_list xs) with
  | [||] -> invalid_arg "Stats.median: empty"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One stretch of a timed phase: [steal] is the share of the host's CPU
   time its hypervisor gave to other guests during it; [data] is whatever
   else the caller measured over it. *)
type 'a window = { start : float; stop : float; steal : float; data : 'a }

(* The calm part of a timed phase. [windows] are consecutive; [done_s]
   holds the request completion times, ascending. Windows are taken
   calmest first (earlier first on ties) until they cover half the phase
   and hold at least [min_samples] requests, or run out. Returns the
   selected windows and the index ranges [lo, hi) of their requests, both
   in time order, and the selected duration. *)
let calm ~windows ~done_s ~min_samples =
  let n = Array.length done_s in
  (* first index whose completion time is >= t *)
  let first_at t =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if done_s.(mid) < t then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  let total = List.fold_left (fun acc w -> acc +. (w.stop -. w.start)) 0. windows in
  let order = List.stable_sort (fun a b -> Float.compare a.steal b.steal) windows in
  let rec take picked dur count = function
    | w :: rest when dur < total /. 2. || count < min_samples ->
      let lo = first_at w.start and hi = first_at w.stop in
      take ((w, (lo, hi)) :: picked) (dur +. (w.stop -. w.start)) (count + hi - lo) rest
    | _ ->
      let picked = List.sort (fun (a, _) (b, _) -> Float.compare a.start b.start) picked in
      (List.map fst picked, List.map snd picked, dur)
  in
  take [] 0. 0 order
