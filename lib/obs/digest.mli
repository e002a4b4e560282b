(** Streaming quantile sketch: a fixed-size merging digest over
    adaptive value intervals ("centroids"), dependency-free and
    mergeable.

    The digest keeps at most [capacity] centroids; each centroid is a
    value interval [[c_min, c_max]] with an occupancy count and value
    sum. While the observation count is at most [capacity] every
    centroid is a singleton and quantiles are {b exact} (identical to
    linear interpolation over the sorted sample array). Beyond that,
    compression repeatedly merges the adjacent centroid pair of least
    combined occupancy: among the [k-1] adjacent pairs of [k] centroids
    the minimum combined count is at most [2n/(k-1)], so every centroid
    a compression step ever creates holds at most [ceil (2n /
    capacity)] observations.

    Rank-error certificate: intervals of a single add-stream stay
    pairwise disjoint (a new value strictly inside an existing interval
    is absorbed into it, and only adjacent intervals merge), so the
    value returned for a target rank lies in the one centroid covering
    that rank and its true rank is off by at most that centroid's
    occupancy. {!rank_error} computes this bound from the live centroid
    layout — max occupancy plus, after cross-digest {!merge}s (which
    can overlap intervals), the occupancy of overlapping neighbours.
    Tests validate estimates against sorted-array ground truth within
    exactly this bound.

    Not thread-safe: guard a shared digest with a mutex. Queries
    flush an internal insert buffer, so they mutate the representation
    but never the distribution. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 128, clamped to at least 8) bounds the number
    of retained centroids, i.e. the memory, and sets the accuracy:
    rank error is O(n/capacity) for n observations. *)

val add : t -> float -> unit
(** Observe one value. Non-finite values are ignored. *)

val add_list : t -> float list -> unit

val of_list : ?capacity:int -> float list -> t

val merge : t -> t -> t
(** [merge a b] is a fresh digest over the union of both observation
    streams (inputs are not mutated); its capacity is the larger of
    the two. Merged intervals may overlap, which {!rank_error}
    accounts for. *)

val count : t -> int
(** Number of observations. *)

val sum : t -> float

val minimum : t -> float option

val maximum : t -> float option

val mean : t -> float option

val trimmed_mean : t -> float
(** Mean after dropping one minimum and one maximum sample — exactly
    the bench harness's trimmed mean ([(sum - min - max) / (n - 2)]
    for [n >= 3], the plain mean for [1 <= n <= 2], [0.] when empty).
    Exact up to float addition order: min, max and sum are tracked
    exactly. *)

val quantile : t -> float -> float option
(** [quantile t q] for [0 <= q <= 1]: the estimated value of (0-based,
    real) rank [q * (count - 1)], linearly interpolated inside and
    between centroids. [None] on the empty digest. [quantile t 0.] and
    [quantile t 1.] are the exact minimum and maximum; estimates are
    monotone in [q]. *)

val quantiles : t -> float list -> float list
(** Batch {!quantile} on a non-empty digest ([[]] when empty). *)

val rank_error : t -> int
(** Certified rank-error bound for the current layout: every
    {!quantile} estimate's true rank differs from its target rank by
    at most this many positions (0 while the digest is exact). *)

val centroids : t -> int
(** Number of live centroids (at most the capacity). *)

val capacity : t -> int
