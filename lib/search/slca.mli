(** Smallest Lowest Common Ancestor computation.

    The match semantics XSeek [3,4] builds on: a node is an LCA candidate if
    its subtree contains at least one direct match of every query keyword; it
    is a {e smallest} LCA (SLCA) if additionally no proper descendant is
    itself an LCA candidate. Two independent implementations are provided:
    - {!by_merge}, the production one ({!Search.query} calls it): an indexed
      lookup in the style of Xu & Papakonstantinou over pre-order ids, whose
      cost follows the query's posting lists, not the corpus size;
    - {!by_aggregation}, a linear bottom-up aggregation over the whole node
      table, kept as the oracle the property tests compare against. *)

val by_merge : Index.t -> string list -> int list
(** Ascending ids of the SLCAs of the keywords' match lists. Keywords with
    empty posting lists make the result empty (conjunctive semantics). An
    empty keyword list yields []. For each match of the rarest keyword, two
    binary searches per other keyword and a climb up the [parent] chain:
    O(m·k·(log p + depth) + m log m) for m matches of the rarest keyword,
    k keywords and p the longest posting list. *)

val by_aggregation : Index.t -> string list -> int list
(** Same contract, computed by one pass over every node of the corpus: the
    test oracle for {!by_merge}. *)

val lca_candidates : Index.t -> string list -> int list
(** Ascending ids of {e all} LCA candidates (every node whose subtree covers
    all keywords). Linear in the corpus; used by tests. *)

val elca : Index.t -> string list -> int list
(** Exclusive LCAs (XRank semantics): [v] is an ELCA iff every keyword has a
    witness match inside [v]'s subtree that does not sit inside any
    descendant LCA candidate. Every SLCA is an ELCA; an ELCA may additionally
    own matches "of its own" above nested results (e.g. a department node
    naming a keyword that also appears in each of its employees). Ascending
    ids; same conjunctive contract as {!by_aggregation}. *)
