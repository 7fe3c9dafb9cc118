"""Local inertia invariants of y^2 = f(x) read off from polynomial shapes.

Two cluster-picture families are supported: the picture of a polynomial with
a t-Eisenstein block pattern (one cluster of size q and depth t/q per block)
and the picture of a reduction whose roots have multiplicity at most 2 (one
size-2 cluster of unknown positive depth per double root). For these the
module computes the numerical cluster data, the dimensions of the abelian
and toric parts of H^1, tame inertia eigenvalue multisets, and semistability
and toric dimension bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .arith import is_prime, poly_deg, poly_derivative, poly_trim, resultant
from .localtypes import multiplicity_profile

SUPPORTED_FAMILIES = ("type", "double_roots")


@dataclass(frozen=True)
class Cluster:
    """One cluster: a set of root labels with its depth and parent link.

    depth is min v(r - r') over members, None when the data defining the
    picture does not pin it (size-2 clusters of a reduction picture,
    singletons); parent_index points into ClusterPicture.clusters.
    """

    members: frozenset[str]
    depth: Fraction | None
    parent_index: int | None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterPicture:
    """A laminar family of clusters on an abstract root set.

    clusters[0] is the full root set; every other cluster names a parent it
    is strictly contained in; child depth strictly exceeds parent depth
    whenever both are known.
    """

    clusters: tuple[Cluster, ...]
    root_count: int
    family: str

    def __post_init__(self) -> None:
        if self.family not in SUPPORTED_FAMILIES:
            raise ValueError("outside supported cluster family")
        if not self.clusters:
            raise ValueError("picture needs at least the full root set")
        top = self.clusters[0]
        if top.parent_index is not None or top.size != self.root_count:
            raise ValueError("clusters[0] must be the full root set")
        for i, c in enumerate(self.clusters[1:], start=1):
            if c.parent_index is None or not 0 <= c.parent_index < len(self.clusters):
                raise ValueError(f"cluster {i} has no valid parent")
            parent = self.clusters[c.parent_index]
            if not c.members < parent.members:
                raise ValueError(f"cluster {i} is not strictly inside its parent")
            if c.depth is not None and parent.depth is not None and c.depth <= parent.depth:
                raise ValueError(f"cluster {i} is not deeper than its parent")
        for a, b in itertools.combinations(self.clusters, 2):
            inter = a.members & b.members
            if inter and inter != a.members and inter != b.members:
                raise ValueError("clusters must be nested or disjoint")

    def children_of(self, index: int) -> list[int]:
        return [i for i, c in enumerate(self.clusters) if c.parent_index == index]


@dataclass(frozen=True)
class ClusterInvariants:
    """Numerical data of one cluster: depth, mu, lambda, epsilon, gamma, V.

    lambda_s = (mu_s + d_s * |s_0|) / 2 where s_0 is the set of odd-size
    maximal subclusters; epsilon_kind is "trivial" or "order-two" for
    even-size clusters and "zero" for odd; gamma_order is the prime-to-p
    part of the denominator of lambda_s. Fields are None when the picture
    does not determine them.
    """

    d_s: Fraction | None
    mu_s: Fraction
    lambda_s: Fraction | None
    epsilon_kind: str
    gamma_order: int | None
    v_dim: int


@dataclass(frozen=True)
class EtaleDecomposition:
    """Dimensions of the abelian part and the toric multiplier of H^1."""

    dim_h1_ab: int
    dim_h1_t: int


@dataclass(frozen=True)
class EigenvalueMultiset:
    """Tame inertia eigenvalues as symbols (sign, order, exponent).

    An entry (s, q, j) stands for s * zeta_q^j under the compatible choice
    of roots of unity; trivial_count counts eigenvalue-1 entries on top of
    those, and the tame image has order dividing inertia_order_divisor.
    """

    entries: tuple[tuple[int, int, int], ...]
    trivial_count: int
    inertia_order_divisor: int


@dataclass(frozen=True)
class ReductionStatus:
    """Semistability verdict from a reduction: sufficient criterion only."""

    status: str
    toric_dim: int | None


def _validate_type_data(t: int, qs: list[int]) -> None:
    if t < 1:
        raise ValueError("t must be >= 1")
    for q in qs:
        if q == 2 or not is_prime(q):
            raise ValueError("block sizes must be odd primes")
        if gcd(q, t) != 1:
            raise ValueError("block sizes must be coprime to t")


def clusters_from_type(t: int, qs: list[int], deg: int) -> ClusterPicture:
    """Cluster picture of a degree-deg polynomial with block pattern t-{qs}.

    The full root set sits at depth 0; each block of size q contributes a
    cluster of depth t/q whose members are singletons; the remaining
    separable roots are singletons at top level. The degenerate case of a
    single block filling the whole degree has no depth-0 top cluster and is
    rejected.
    """
    _validate_type_data(t, qs)
    if deg < 2:
        raise ValueError("degree must be >= 2")
    if sum(qs) > deg:
        raise ValueError("block sizes exceed the degree")
    if len(qs) == 1 and qs[0] == deg:
        raise ValueError("outside supported cluster family")
    labels: list[str] = []
    clusters: list[Cluster] = []
    block_members = []
    for i, q in enumerate(qs, start=1):
        names = [f"b{i}.{a}" for a in range(1, q + 1)]
        labels.extend(names)
        block_members.append(frozenset(names))
    simple = [f"s{j}" for j in range(1, deg - sum(qs) + 1)]
    labels.extend(simple)
    clusters.append(Cluster(frozenset(labels), Fraction(0), None))
    for q, members in zip(qs, block_members):
        clusters.append(Cluster(members, Fraction(t, q), 0))
    for idx, members in enumerate(block_members, start=1):
        for name in sorted(members):
            clusters.append(Cluster(frozenset([name]), None, idx))
    for name in simple:
        clusters.append(Cluster(frozenset([name]), None, 0))
    return ClusterPicture(tuple(clusters), deg, "type")


def clusters_from_double_roots(d: int, deg: int) -> ClusterPicture:
    """Cluster picture of a reduction with d double roots and the rest simple.

    Each double root contributes a size-2 cluster whose depth is positive
    but not determined by the reduction; remaining roots are top-level
    singletons.
    """
    if d < 0 or deg < 2:
        raise ValueError("need d >= 0 and degree >= 2")
    if 2 * d > deg:
        raise ValueError("too many double roots for the degree")
    if d == 1 and deg == 2:
        raise ValueError("outside supported cluster family")
    labels: list[str] = []
    pair_members = []
    for i in range(1, d + 1):
        names = [f"r{i}", f"r{i}'"]
        labels.extend(names)
        pair_members.append(frozenset(names))
    simple = [f"s{j}" for j in range(1, deg - 2 * d + 1)]
    labels.extend(simple)
    clusters = [Cluster(frozenset(labels), Fraction(0), None)]
    for members in pair_members:
        clusters.append(Cluster(members, None, 0))
    for idx, members in enumerate(pair_members, start=1):
        for name in sorted(members):
            clusters.append(Cluster(frozenset([name]), None, idx))
    for name in simple:
        clusters.append(Cluster(frozenset([name]), None, 0))
    return ClusterPicture(tuple(clusters), deg, "double_roots")


def _in_etale_support(picture: ClusterPicture, index: int) -> bool:
    cluster = picture.clusters[index]
    if cluster.size <= 1:
        return False
    children = picture.children_of(index)
    return any(picture.clusters[i].size % 2 for i in children)


def cluster_invariants(picture: ClusterPicture, index: int, t: int) -> ClusterInvariants:
    """Numerical data of picture.clusters[index] for the supported families.

    Both families have mu_s = 0 for every cluster: roots outside a proper
    cluster sit at distance 0 from it, and the top cluster has nothing
    outside. For type pictures t is cross-checked against the block depths;
    reduction pictures carry no t and the argument is ignored. Size-2
    clusters of unknown depth get lambda_s and gamma_order None.
    """
    if not 0 <= index < len(picture.clusters):
        raise ValueError("no such cluster")
    cluster = picture.clusters[index]
    if cluster.size < 2:
        raise ValueError("invariants are defined only for clusters of size >= 2")
    if picture.family == "type" and cluster.parent_index is not None:
        if cluster.depth is None or cluster.depth * cluster.size != t:
            raise ValueError("t does not match the picture")
    children = picture.children_of(index)
    n0 = sum(1 for i in children if picture.clusters[i].size % 2)
    mu = Fraction(0)
    if cluster.depth is None:
        lam = None
        gamma = None
    else:
        lam = (mu + cluster.depth * n0) / 2
        gamma = lam.denominator
    if cluster.size % 2 == 0:
        epsilon_kind = "trivial"  # mu = 0 has infinite 2-adic valuation
        eps_dim = 1
    else:
        epsilon_kind = "zero"
        eps_dim = 0
    if _in_etale_support(picture, index):
        v_dim = n0 - 1 - eps_dim
    else:
        v_dim = 0
    return ClusterInvariants(
        d_s=cluster.depth,
        mu_s=mu,
        lambda_s=lam,
        epsilon_kind=epsilon_kind,
        gamma_order=gamma,
        v_dim=v_dim,
    )


def etale_decomposition(picture: ClusterPicture, t: int, g: int) -> EtaleDecomposition:
    """Dimensions (dim H^1_ab, dim H^1_t) for a genus-g picture.

    H^1_ab collects the V_s of clusters that are neither singletons nor
    disjoint unions of even-size clusters; H^1_t counts the even clusters
    among those, minus the top-cluster character. Always satisfies
    dim_h1_ab + 2 * dim_h1_t = 2g.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if picture.root_count != 2 * g + 2:
        raise ValueError("picture does not match the genus")
    support = [
        i for i in range(len(picture.clusters)) if _in_etale_support(picture, i)
    ]
    dim_ab = sum(cluster_invariants(picture, i, t).v_dim for i in support)
    even_count = sum(1 for i in support if picture.clusters[i].size % 2 == 0)
    dim_t = even_count - (1 if picture.root_count % 2 == 0 else 0)
    if dim_ab + 2 * dim_t != 2 * g:
        raise AssertionError("cluster dimension bookkeeping is inconsistent")
    return EtaleDecomposition(dim_h1_ab=dim_ab, dim_h1_t=dim_t)


def tame_eigenvalues(t: int, qs: list[int], g: int) -> EigenvalueMultiset:
    """Eigenvalue multiset of a tame inertia generator on the 2g-dimensional H^1.

    For a block pattern t-{q_1,...,q_k} the nontrivial eigenvalues are
    (-1)^t * zeta_{q_i}^j for 1 <= j <= q_i - 1, and the remaining
    2g - sum(q_i - 1) eigenvalues are trivial; the tame image has order
    dividing 2 * prod(q_i). The block sizes must differ from the residue
    characteristic, which this function cannot see.
    """
    _validate_type_data(t, qs)
    if g < 1:
        raise ValueError("genus must be >= 1")
    nontrivial = sum(q - 1 for q in qs)
    if nontrivial > 2 * g:
        raise ValueError("block sizes exceed the representation dimension")
    sign = -1 if t % 2 else 1
    entries = []
    for q in sorted(qs):
        entries.extend((sign, q, j) for j in range(1, q))
    return EigenvalueMultiset(
        entries=tuple(entries),
        trivial_count=2 * g - nontrivial,
        inertia_order_divisor=2 * prod(qs),
    )


def semistable_from_reduction(f: list[int], p: int, g: int) -> ReductionStatus:
    """Semistability of y^2 = f(x) at odd p from root multiplicities mod p.

    If every root of f mod p has multiplicity at most 2 and d of them are
    double, the Jacobian is semistable at p with toric dimension min(d, g).
    The criterion is sufficient only, so anything else reports unknown.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if g < 1:
        raise ValueError("genus must be >= 1")
    f = poly_trim(list(f))
    if poly_deg(f) != 2 * g + 2 or f[-1] != 1:
        raise ValueError("f must be monic of degree 2g + 2")
    if resultant(f, poly_derivative(f)) == 0:
        raise ValueError("f must be squarefree")
    profile = multiplicity_profile(f, p)
    if max(profile) <= 2:
        d = profile.count(2)
        return ReductionStatus(status="semistable", toric_dim=min(d, g))
    return ReductionStatus(status="unknown", toric_dim=None)


def is_totally_toric(f: list[int], ell: int, g: int) -> bool:
    """True iff the reduction criterion certifies toric dimension g at ell.

    That is semistable_from_reduction's criterion (every root of f mod ell
    of multiplicity at most 2) with at least g double roots. Unlike it, f is
    not validated here: the caller has checked that f is monic, squarefree
    and of degree 2g + 2.
    """
    profile = multiplicity_profile(f, ell)
    return max(profile) <= 2 and profile.count(2) >= g
