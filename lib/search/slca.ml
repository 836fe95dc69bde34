let full_mask k = (1 lsl k) - 1

(* Bottom-up keyword-mask aggregation: masks.(id) accumulates the set of
   keywords matched in the subtree of [id]. Pre-order ids guarantee
   parent < child, so one descending scan pushes every mask to the parent. *)
let subtree_masks index keywords =
  let tree = Index.doctree index in
  let n = Doctree.size tree in
  let masks = Array.make n 0 in
  List.iteri
    (fun ki kw ->
      let bit = 1 lsl ki in
      Array.iter
        (fun id -> masks.(id) <- masks.(id) lor bit)
        (Index.postings index kw))
    keywords;
  let nodes = Doctree.nodes tree in
  for id = n - 1 downto 1 do
    let p = nodes.(id).parent in
    masks.(p) <- masks.(p) lor masks.(id)
  done;
  masks

let lca_candidates index keywords =
  match keywords with
  | [] -> []
  | _ ->
    let k = List.length keywords in
    let full = full_mask k in
    let masks = subtree_masks index keywords in
    let acc = ref [] in
    for id = Array.length masks - 1 downto 0 do
      if masks.(id) = full then acc := id :: !acc
    done;
    !acc

(* The oracle for [by_merge]: one pass over every node of the corpus. *)
let by_aggregation index keywords =
  match keywords with
  | [] -> []
  | _ ->
    let k = List.length keywords in
    let full = full_mask k in
    let tree = Index.doctree index in
    let masks = subtree_masks index keywords in
    let n = Array.length masks in
    (* A candidate is smallest iff no child subtree is also a candidate.
       covered.(id) = some proper descendant of id is a candidate. *)
    let covered = Array.make n false in
    let nodes = Doctree.nodes tree in
    for id = n - 1 downto 1 do
      if masks.(id) = full then begin
        let p = nodes.(id).parent in
        covered.(p) <- true
      end
    done;
    (* Propagate coverage upward: a node whose child is covered is covered
       too (the candidate sits deeper). *)
    for id = n - 1 downto 1 do
      if covered.(id) then covered.(nodes.(id).parent) <- true
    done;
    let acc = ref [] in
    for id = n - 1 downto 0 do
      if masks.(id) = full && not covered.(id) then acc := id :: !acc
    done;
    !acc

let elca index keywords =
  match keywords with
  | [] -> []
  | _ ->
    let k = List.length keywords in
    let full = full_mask k in
    let tree = Index.doctree index in
    let n = Doctree.size tree in
    let masks = subtree_masks index keywords in
    (* Direct-match bits per node. *)
    let direct = Array.make n 0 in
    List.iteri
      (fun ki kw ->
        let bit = 1 lsl ki in
        Array.iter
          (fun id -> direct.(id) <- direct.(id) lor bit)
          (Index.postings index kw))
      keywords;
    (* contribution.(v) = keywords witnessed in v's subtree outside every
       descendant LCA candidate. Children have larger pre-order ids, so a
       descending pass sees each child's final contribution before its
       parent accumulates it; full-mask children contribute nothing (their
       witnesses belong to the nested result). *)
    let contribution = Array.copy direct in
    let nodes = Doctree.nodes tree in
    for id = n - 1 downto 1 do
      let p = nodes.(id).parent in
      if masks.(id) <> full then
        contribution.(p) <- contribution.(p) lor contribution.(id)
    done;
    let acc = ref [] in
    for id = n - 1 downto 0 do
      if contribution.(id) = full then acc := id :: !acc
    done;
    !acc

(* Indexed lookup in the style of Xu & Papakonstantinou, over pre-order ids
   instead of Dewey labels: the production SLCA.

   For each match v of the rarest keyword, and for each other keyword list
   L, the elements of L closest to v in document order (predecessor and
   successor) are found by binary search; the lowest ancestor of v whose
   subtree holds one of them is the deeper of lca(v, pred) and
   lca(v, succ), the lowest ancestor of v with a match of that keyword.
   Taking the shallowest of these over all lists gives the lowest ancestor
   of v covering all keywords. Since every per-list answer is an ancestor
   of v, the running answer is refined by climbing [parent] until its
   subtree interval covers the predecessor or the successor. The SLCAs are
   the minimal elements of the candidate set. The cost depends on the
   posting lists and the depth of the tree, never on the corpus size. *)

(* Index of the last element of [arr] that is <= [v], or -1. *)
let predecessor arr v =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Ascending distinct ids of the sorted array [ids] with every id that is a
   proper ancestor of another dropped. Pre-order intervals nest, so an id
   has a descendant in the array iff the next larger id falls inside its
   subtree. *)
let minimal_ids tree ids =
  let acc = ref [] and next = ref max_int in
  for i = Array.length ids - 1 downto 0 do
    let id = ids.(i) in
    if id <> !next then begin
      if !next >= Doctree.subtree_end tree id then acc := id :: !acc;
      next := id
    end
  done;
  !acc

let by_merge index keywords =
  match keywords with
  | [] -> []
  | _ ->
    let tree = Index.doctree index in
    let lists = List.map (fun kw -> Index.postings index kw) keywords in
    if List.exists (fun arr -> Array.length arr = 0) lists then []
    else
      let nodes = Doctree.nodes tree in
      let rarest, others =
        let sorted =
          List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) lists
        in
        (List.hd sorted, List.tl sorted)
      in
      let covering_ancestor v =
        List.fold_left
          (fun cur arr ->
            let i = predecessor arr v in
            let pred = if i >= 0 then arr.(i) else -1 in
            let succ = if i + 1 < Array.length arr then arr.(i + 1) else -1 in
            (* [cur] is an ancestor-or-self of v, so it covers [pred] iff
               [pred >= cur] and [succ] iff [succ < subtree_end cur]. *)
            let rec climb a =
              if (pred >= 0 && pred >= a)
                 || (succ >= 0 && succ < Doctree.subtree_end tree a)
              then a
              else climb nodes.(a).Doctree.parent
            in
            climb cur)
          v others
      in
      let candidates = Array.map covering_ancestor rarest in
      Array.sort Int.compare candidates;
      minimal_ids tree candidates
