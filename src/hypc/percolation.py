"""Monte-Carlo threshold estimation on kernel-graph lattices.

The graph has vertices on a W x H cylinder (rows wrap) with bonds from
(m, n) to (m+1, (n+i) mod H) for i = 0 .. r-1: the connectivity pattern of a
one-dimensional convolution with kernel size r and stride 1. A trial opens
each bond independently with probability p and asks whether an open path
joins the first column to the last. Crossing frequency as a function of p
locates the threshold; the same uniform draws are reused across p so the
crossing indicator is exactly monotone. Connectivity is undirected, so
walk counting bounds the threshold below by 1/(2r-1), since every vertex has
degree 2r; the 1/r bound holds only for directed (forward-only) paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest lattice a trial builds: kernel * (width - 1) * height bonds. At the
# cap the cached bond endpoints take about 48 MB.
MAX_BONDS = 1 << 22


@dataclass(frozen=True)
class LatticeSpec:
    """One trial's lattice geometry, bond probability, and RNG seed."""

    kernel: int  # r: out-edges per vertex toward the next column
    width: int  # W: columns (network depth)
    height: int  # H: rows, periodic
    p: float
    seed: int

    def __post_init__(self):
        if self.kernel < 2:
            raise ValueError(f"kernel must be >= 2, got {self.kernel}")
        if self.width < 2 or self.height < 2:
            raise ValueError("width and height must be >= 2")
        if self.kernel > self.height:
            raise ValueError(f"kernel {self.kernel} exceeds height {self.height}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        bonds = self.kernel * (self.width - 1) * self.height
        if bonds > MAX_BONDS:
            raise ValueError(
                f"lattice has {bonds} bonds (kernel * (width - 1) * height), "
                f"above the cap of {MAX_BONDS}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PercolationEstimate:
    """Bisection result: threshold estimate and its bracketing interval."""

    kernel: int
    height: int
    width: int
    trials: int
    probes: int
    p_hat: float
    half_width: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.p_hat - self.half_width, self.p_hat + self.half_width)

    def to_json_dict(self) -> dict:
        return {
            "r": self.kernel,
            "H": self.height,
            "W": self.width,
            "trials": self.trials,
            "p_hat": self.p_hat,
            "interval": list(self.interval),
        }


@lru_cache(maxsize=4)
def _edge_endpoints(kernel: int, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Static bond endpoints (vertex index = column * height + row), with u
    sorted; v is int32, the index type of the CSR graph."""
    m = np.arange(width - 1)[:, None, None]
    n = np.arange(height)[None, :, None]
    i = np.arange(kernel)[None, None, :]
    u = np.broadcast_to(m * height + n, (width - 1, height, kernel)).ravel()
    v = ((m + 1) * height + (n + i) % height).ravel().astype(np.int32)
    return np.ascontiguousarray(u), v


def percolation_trial(spec: LatticeSpec) -> bool:
    """True iff an open path joins column 0 to column W-1.

    Bonds open independently with probability p (open iff draw < p, so a fixed
    seed couples trials across different p). Connectivity is undirected.
    Because u is sorted, the open bonds already form the rows of a CSR graph.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    u, v = _edge_endpoints(spec.kernel, spec.width, spec.height)
    rng = np.random.default_rng(spec.seed)
    bonds = np.flatnonzero(rng.random(u.size) < spec.p)
    if bonds.size == 0:
        return False
    n_vertices = spec.width * spec.height
    indptr = np.zeros(n_vertices + 1, dtype=np.int32)
    np.cumsum(np.bincount(u.take(bonds), minlength=n_vertices), out=indptr[1:])
    graph = csr_matrix(
        (np.ones(bonds.size), v.take(bonds), indptr), shape=(n_vertices, n_vertices)
    )
    _, labels = connected_components(graph, directed=False)
    left = labels[: spec.height]
    right = labels[-spec.height :]
    return bool(np.isin(right, left).any())


def _trial_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def estimate_threshold(
    kernel: int,
    height: int,
    width: int,
    trials: int,
    probes: int = 12,
    seed: int = 0,
) -> PercolationEstimate:
    """Bisection on p for crossing frequency 1/2; estimate is the interval midpoint.

    Trial t reuses the seed derived from (seed, t) at every probe, so its
    crossing is non-decreasing in p and bisection is exact. That coupling gives
    each trial a bracket: it fails at every p <= fails_at[t] and crosses at
    every p >= crosses_at[t]. A probe at mid only asks whether at least half of
    the trials cross. It counts the trials whose bracket already settles them,
    then runs the open ones in index order and stops as soon as the answer is
    known: enough have crossed, or too few are left to reach half. Trials it
    did not run keep their brackets for a later probe. Each probe's verdict,
    and so the estimate, is the same as re-running every trial.
    """
    if trials < 50:
        raise ValueError(f"trials must be >= 50, got {trials}")
    if probes < 10:
        raise ValueError(f"probes must be >= 10, got {probes}")
    LatticeSpec(kernel, width, height, 0.0, seed)  # refuse a bad lattice or seed first
    seeds = [_trial_seed(seed, t) for t in range(trials)]
    # No bond opens at p = 0 and every bond opens at p = 1.
    fails_at = [0.0] * trials
    crosses_at = [1.0] * trials
    need = (trials + 1) // 2  # crossings / trials >= 0.5
    lo, hi = 0.0, 1.0
    for _ in range(probes):
        mid = 0.5 * (lo + hi)
        crossings = sum(c <= mid for c in crosses_at)
        pending = [t for t in range(trials) if fails_at[t] < mid < crosses_at[t]]
        left = len(pending)
        for t in pending:
            if crossings >= need or crossings + left < need:
                break
            left -= 1
            if percolation_trial(LatticeSpec(kernel, width, height, mid, seeds[t])):
                crosses_at[t] = mid
                crossings += 1
            else:
                fails_at[t] = mid
        if crossings >= need:
            hi = mid
        else:
            lo = mid
    return PercolationEstimate(
        kernel, height, width, trials, probes, 0.5 * (lo + hi), 0.5 * (hi - lo)
    )


def solve_p0(tol: float = 1e-10) -> float:
    """Root of 2p + p^2 - p^4 = 1 on (0, 1), by bisection to absolute tol."""

    def f(p: float) -> float:
        return 2.0 * p + p * p - p ** 4 - 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _shear_map(m: int, n: int) -> tuple[int, int]:
    return (m - n, n)


def check_g2_isomorphism(patch_size: int, vertex_map=None) -> bool:
    """Verify that the kernel-2 graph maps onto the square lattice.

    Enumerates every kernel-2 bond inside a patch_size x patch_size patch,
    pushes both endpoints through the vertex map (default (m, n) -> (m - n, n)),
    and checks that each image bond is a unit horizontal or vertical step and
    that the map is injective on the patch.
    """
    if patch_size < 2:
        raise ValueError(f"patch_size must be >= 2, got {patch_size}")
    vmap = vertex_map or _shear_map
    vertices = [(m, n) for m in range(patch_size) for n in range(patch_size)]
    images = [vmap(m, n) for m, n in vertices]
    if len(set(images)) != len(images):
        return False
    for m in range(patch_size - 1):
        for n in range(patch_size):
            for i in (0, 1):
                if n + i >= patch_size:
                    continue
                am, an = vmap(m, n)
                bm, bn = vmap(m + 1, n + i)
                if abs(am - bm) + abs(an - bn) != 1:
                    return False
    return True
