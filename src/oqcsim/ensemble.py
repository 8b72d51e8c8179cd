"""Monte-Carlo dopant ensembles on a simple-cubic lattice.

Distances are measured in units of the lattice constant a.  Sites are
occupied independently with the dopant concentration, frequencies are
drawn i.i.d. from the inhomogeneous line (gaussian by default,
lorentzian selectable), and all distance computations use periodic
boundary conditions to avoid edge bias at desk scale.

The first two stages work on linear site keys (z*L + y)*L + x.
Sampling draws one uniform double per site in site-key order, in
chunks of at most _SLICE_LIMIT sites through one reused buffer, so
the draw buffer is bounded for any box, and it is pure given (spec,
seed): a fixed seed reproduces every array bit for bit, whatever the
chunk size.  Pair identification and the ensemble neighborhood are exact
integer searches on the lattice that break distance ties by the
smaller site key, so their results depend only on the positions,
never on the order of the input.  The pair search tests shifted keys
in a packed occupancy filter of O(n) bits and confirms only its hits
against the sorted keys, so its memory does not grow with the box.
Nearest-neighbor distances come from a cell-grid search on the same
integer squared distances, exact and near-linear for points spread
through the box.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError, ValidationError

GAUSSIAN_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
# central probability mass of a gaussian between its half-maximum points
_GAUSSIAN_FWHM_MASS = math.erf(math.sqrt(math.log(2.0)))

_SLICE_LIMIT = 1 << 16    # sites per RNG chunk when sampling occupancy
_NN_CHUNK_PAIRS = 1 << 16  # point pairs per chunk of the nearest-neighbor search
_NN_DENSE_PAIRS = 1 << 20  # open points times n at which that search goes dense
_NN_CELL_FILL = 1          # mean points per cell of its grid
# Largest pair radius, lattice units: the search stencil then holds 2,108
# offsets; an unbounded radius would make the stencil unbounded.
PAIR_RADIUS_MAX = 8.0
# Largest box edge, lattice sites: 10^9 sites, whose draw alone took about
# 4 s on a 2-vCPU machine; the draw time grows with the cube of the edge.
BOX_SIZE_CAP = 1000
# Largest expected dopant count, concentration times box edge cubed: a run
# peaked at about 210 bytes of resident memory a dopant (236 MB for 10^6
# dopants, box 100 at concentration 1, against 36 MB before the run), so the
# cap bounds a run near 10 GB; the box cap alone admits 10^9 dopants.
DOPANT_CAP = 5 * 10 ** 7


@dataclass(frozen=True)
class CrystalSpec:
    """Doped-crystal parameters for ensemble sampling."""

    concentration: float
    gamma_inh: float          # inhomogeneous FWHM, Hz
    gamma_h: float            # homogeneous width, Hz
    box_size: int             # lattice units per box edge
    distribution: str = "gaussian"

    def __post_init__(self):
        if not (0.0 < self.concentration <= 1.0):
            raise ValidationError(f"concentration must be in (0, 1], got {self.concentration}")
        if not (self.gamma_inh > self.gamma_h > 0.0):
            raise ValidationError("need gamma_inh > gamma_h > 0")
        if self.box_size < 1:
            raise ValidationError("box size must be >= 1")
        if self.box_size > BOX_SIZE_CAP:
            raise ResourceLimitError(
                f"box size {self.box_size} exceeds the cap {BOX_SIZE_CAP} sites per edge")
        dopants = self.concentration * self.box_size ** 3
        if dopants > DOPANT_CAP:
            raise ResourceLimitError(
                f"expected dopant count {dopants:.4g} (concentration times box size cubed) "
                f"exceeds the cap {DOPANT_CAP:.4g}")
        if self.distribution not in ("gaussian", "lorentzian"):
            raise ValidationError(f"unknown distribution {self.distribution!r}")


class CenterSet:
    """Array-backed collection of doped centers in one periodic box."""

    def __init__(self, positions: np.ndarray, box_size: int,
                 frequencies: np.ndarray | None = None,
                 partner_index: np.ndarray | None = None):
        self.positions = np.asarray(positions, dtype=np.int64).reshape(-1, 3)
        self.box_size = int(box_size)
        self.frequencies = None if frequencies is None else np.asarray(frequencies, dtype=float)
        if self.frequencies is not None and len(self.frequencies) != len(self.positions):
            raise ValidationError("frequency array length mismatch")
        if partner_index is None:
            partner_index = np.full(len(self.positions), -1, dtype=np.int64)
        self.partner_index = np.asarray(partner_index, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def is_pair_member(self) -> np.ndarray:
        return self.partner_index >= 0

    def subset(self, indices: np.ndarray) -> "CenterSet":
        indices = np.asarray(indices)
        freqs = None if self.frequencies is None else self.frequencies[indices]
        # partner links do not survive subsetting
        return CenterSet(self.positions[indices], self.box_size, freqs)


def sample_lattice(spec: CrystalSpec, seed: int) -> CenterSet:
    """Occupy each cation site of the box independently with probability c.

    Sites are drawn in site-key order (z*L + y)*L + x, one uniform double
    per site, in chunks of at most _SLICE_LIMIT sites that reuse one
    buffer; the generator yields one double per 64-bit draw, so the
    stream, and hence the output, is the one-shot draw of the whole box
    under the seed, whatever the chunk size.  Positions come out in
    site-key order.  A box expected to hold fewer than ~10 dopants draws
    a statistics warning.
    """
    rng = np.random.default_rng(seed)
    n = spec.box_size
    sites = n**3
    if spec.concentration * sites < 10:
        warnings.warn(
            f"box of {n}^3 sites holds ~{spec.concentration * sites:.1f} dopants; "
            "statistics will be poor", stacklevel=2)
    buf = np.empty(min(sites, _SLICE_LIMIT))
    keys = []
    for k0 in range(0, sites, len(buf)):
        draw = buf[:min(len(buf), sites - k0)]
        rng.random(out=draw)
        keys.append(np.flatnonzero(draw < spec.concentration) + k0)
    zy, x = np.divmod(np.concatenate(keys), n)
    z, y = np.divmod(zy, n)
    return CenterSet(np.stack([x, y, z], axis=1), n)


def assign_frequencies(centers: CenterSet, spec: CrystalSpec, seed: int) -> CenterSet:
    """Draw i.i.d. center frequencies (Hz offsets) with FWHM gamma_inh."""
    rng = np.random.default_rng(seed)
    n = len(centers)
    if spec.distribution == "gaussian":
        sigma = spec.gamma_inh / GAUSSIAN_FWHM_SIGMA
        freqs = rng.normal(0.0, sigma, size=n)
    else:
        freqs = rng.standard_cauchy(size=n) * (spec.gamma_inh / 2.0)
    return CenterSet(centers.positions, centers.box_size, freqs, centers.partner_index.copy())


def spectral_select(centers: CenterSet, f0: float, gamma_l: float) -> CenterSet:
    """Centers whose frequency lies within the window |f - f0| <= Gamma_L / 2.

    For f0 at line center the selected fraction is approximately
    c_eff = (Gamma_L / Gamma_inh) * p, where p is the peak-density
    correction of the line shape (0.939 for a gaussian, 2/pi for a
    lorentzian).  A zero-width window selects nothing.
    """
    if centers.frequencies is None:
        raise ValidationError("assign frequencies before spectral selection")
    if gamma_l < 0:
        raise DomainError("window width must be >= 0")
    if gamma_l == 0.0:
        return centers.subset(np.empty(0, dtype=np.int64))
    # f - f0 overflows to inf for far-apart huge frequencies, which rightly
    # falls outside every finite window
    with np.errstate(over="ignore"):
        mask = np.abs(centers.frequencies - f0) <= gamma_l / 2.0
    return centers.subset(np.flatnonzero(mask))


def mean_qubit_spacing(concentration: float, gamma_l: float, gamma_inh: float) -> float:
    """Mean spacing R0 (lattice units) between same-frequency centers.

    The concentration of centers sharing a frequency to within Gamma_L
    is c * Gamma_L / Gamma_inh; R0 is its inverse cube root.  This is
    the mean inter-center spacing, also read as the size of the
    microcrystal that works as one processor instance.
    """
    if concentration <= 0 or gamma_l <= 0 or gamma_inh <= 0:
        raise DomainError("all arguments must be > 0")
    density = concentration * gamma_l / gamma_inh
    if not 0.0 < density < math.inf:
        raise DomainError("c * Gamma_L / Gamma_inh is outside double precision")
    return density ** (-1.0 / 3.0)


def ensemble_radius(n_centers: float, concentration: float) -> float:
    """Size (N / c)^(1/3) in lattice units of the N-dopant neighborhood."""
    if n_centers < 1:
        raise DomainError("ensemble must contain at least one center")
    if concentration <= 0:
        raise DomainError("concentration must be > 0")
    radius = (n_centers / concentration) ** (1.0 / 3.0)
    if not math.isfinite(radius):
        raise DomainError("(N / c)^(1/3) overflows double precision")
    return radius


def min_pair_concentration(r0: float) -> float:
    """Minimum pair-center concentration 1 / R0^3 to keep spacing <= R0.

    At the documented working point R0 = 10^(5/3) a ~ 46.4 a this gives
    c ~ 1e-5.
    """
    if r0 <= 0:
        raise DomainError("R0 must be > 0")
    try:
        return r0 ** -3.0
    except OverflowError:
        raise DomainError("1 / R0^3 overflows double precision") from None


def _site_keys(positions: np.ndarray, box_size: int) -> np.ndarray:
    """Linear site keys (z*L + y)*L + x of lattice positions, wrapped into the box."""
    x, y, z = (positions % box_size).T
    return (z * box_size + y) * box_size + x


def _stencil(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero integer offsets with sqrt(d2) <= radius and their d2, by d2."""
    span = np.arange(-math.floor(radius), math.floor(radius) + 1)
    offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    d2 = (offsets ** 2).sum(axis=1)
    inside = (d2 > 0) & (np.sqrt(d2) <= radius)
    order = np.argsort(d2[inside], kind="stable")
    return offsets[inside][order], d2[inside][order]


def identify_pairs(centers: CenterSet, pair_radius: float = 2.0) -> CenterSet:
    """Flag mutual-nearest-neighbor pairs closer than pair_radius.

    Geometric stand-in for heat-treatment conversion of close single
    centers into pair centers.  Each center joins at most one pair; the
    partner relation is symmetric.  Distances are periodic; a center's
    nearest neighbor is the one at the smallest distance and, among
    equidistant ones, the one with the smallest site key (z*L + y)*L + x.
    Two centers pair when each is the other's nearest neighbor and
    sqrt(d2) <= pair_radius for their integer squared distance d2.  The
    result depends only on the positions, not on their order.

    The search is exact: it walks the lattice offsets inside the radius
    in order of increasing distance, only for the centers that have no
    neighbor yet.  A shifted site key is key + delta for a center whose
    coordinates all lie in [r, L - r), r = floor(pair_radius), and is
    rebuilt from the wrapped coordinates for the others.  Each is looked
    up in a packed filter of M bits, M the smallest power of two >= 16n
    (at least 64), which has bit key & (M - 1) set for every center.
    Only lookups on a set bit are confirmed against the sorted keys, so
    a collision costs one extra search, never a wrong pair, and memory
    is O(n) whatever the box size.  pair_radius must lie in
    (0, PAIR_RADIUS_MAX].
    """
    if not 0.0 < pair_radius <= PAIR_RADIUS_MAX:
        raise DomainError(f"pair radius must be in (0, {PAIR_RADIUS_MAX:g}]")
    n = len(centers)
    box = centers.box_size
    partner = np.full(n, -1, dtype=np.int64)
    if n >= 2:
        wrapped = centers.positions % box
        keys = _site_keys(wrapped, box)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise ValidationError("two centers occupy the same lattice site")
        mask = max(64, 1 << (16 * n - 1).bit_length()) - 1
        slots = sorted_keys & mask
        occupied = np.zeros((mask + 1) >> 3, dtype=np.uint8)
        np.bitwise_or.at(occupied, slots >> 3, (1 << (slots & 7)).astype(np.uint8))
        offsets, d2 = _stencil(pair_radius)
        reach = math.floor(pair_radius)
        # a shift of up to reach sites moves a center off the box only across
        # a face within reach of it; elsewhere the shifted key is key + delta
        near_face = ((wrapped < reach) | (wrapped >= box - reach)).any(axis=1)
        nearest = np.full(n, -1, dtype=np.int64)
        pending = order                          # no neighbor yet, in key order
        none = np.iinfo(np.int64).max
        start = 0
        while start < len(d2) and len(pending):
            stop = int(np.searchsorted(d2, d2[start], side="right"))
            shell = offsets[start:stop]
            pending_keys = keys[pending]
            edge = np.flatnonzero(near_face[pending])
            x, y, z = wrapped[pending[edge]].T
            # wrapped key parts of each coordinate shift this shell uses
            kx = {d: (x + d) % box for d in set(shell[:, 0].tolist())}
            ky = {d: (y + d) % box * box for d in set(shell[:, 1].tolist())}
            kz = {d: (z + d) % box * (box * box) for d in set(shell[:, 2].tolist())}
            best = np.full(len(pending), none)
            for dx, dy, dz in shell.tolist():
                k = pending_keys + ((dz * box + dy) * box + dx)
                k[edge] = kx[dx] + ky[dy] + kz[dz]
                slot = k & mask
                seen = np.flatnonzero(occupied.take(slot >> 3) >> (slot & 7).astype(np.uint8) & 1)
                k = k[seen]
                found = sorted_keys[np.minimum(np.searchsorted(sorted_keys, k), n - 1)]
                best[seen] = np.minimum(best[seen], np.where(found == k, k, none))
            # an offset that wraps onto the center itself has d2 >= L^2, beyond
            # every other site of the box (d2 <= 3L^2/4), so it never comes first
            hit = best != none
            nearest[pending[hit]] = order[np.searchsorted(sorted_keys, best[hit])]
            pending = pending[~hit]
            start = stop
        linked = np.flatnonzero(nearest >= 0)
        mutual = linked[nearest[nearest[linked]] == linked]
        partner[mutual] = nearest[mutual]
    return CenterSet(centers.positions, box,
                     None if centers.frequencies is None else centers.frequencies.copy(),
                     partner)


@dataclass(frozen=True)
class ChannelAllocation:
    """Frequencies selected for individually addressable channels."""

    selected_indices: tuple[int, ...]
    min_gap: float
    channel_frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = self.channel_frequencies
        for a, b in zip(freqs, freqs[1:]):
            if not (b - a > self.min_gap):
                raise ValidationError("channel frequencies violate the gap constraint")


def allocate_channels(frequencies, min_gap: float) -> ChannelAllocation:
    """Largest subset of frequencies with pairwise gaps above min_gap.

    Sort-and-sweep greedy: walk the frequencies in increasing order and
    keep each one that clears the last kept frequency by more than
    min_gap.  For this one-dimensional packing the greedy subset has
    maximum cardinality.  The frequencies that clear a kept one, f -
    last > min_gap, are a suffix of the sorted ones (NaN sorts last and
    clears nothing), so each step is a binary search, corrected against
    that exact test; ties keep the input order.
    """
    if min_gap < 0:
        raise DomainError("minimum gap must be >= 0")
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1:
        raise ValidationError("frequencies must be a flat list")
    order = np.argsort(freqs, kind="stable")
    ordered = freqs[order]
    end = len(ordered) - int(np.count_nonzero(np.isnan(freqs)))
    kept: list[int] = []
    j = 0
    # f - last overflows to inf for far-apart huge frequencies and is NaN
    # for equal infinities; both answer the gap test rightly, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while j < len(ordered) and (not kept or j < end):
            kept.append(j)
            last, lo = ordered[j], j + 1
            j = lo + int(ordered[lo:end].searchsorted(last + min_gap, side="right"))
            while j > lo and ordered[j - 1] - last > min_gap:
                j -= 1
            while j < end and not ordered[j] - last > min_gap:
                j += 1
    return ChannelAllocation(
        selected_indices=tuple(order[kept].tolist()),
        min_gap=min_gap,
        channel_frequencies=tuple(ordered[kept].tolist()),
    )


def _periodic_d2(components, period: int) -> np.ndarray:
    """Squared minimum-image length of integer offsets given as their x, y, z arrays.

    Each component must satisfy |delta| <= period.
    """
    d2 = 0
    for delta in components:
        delta = np.abs(delta)
        d2 = d2 + np.minimum(delta, period - delta) ** 2
    return d2


def _cell_ring(r: int, m: int) -> np.ndarray:
    """Offsets mod m of the cells at cyclic Chebyshev distance r in an m^3 grid."""
    span = np.unique(np.arange(-r, r + 1) % m)
    offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    return offsets[~np.isin(offsets, np.arange(1 - r, r) % m).all(axis=1)]


def _runs(counts: np.ndarray, budget: int):
    """Slices of consecutive counts summing to at most budget (or one count)."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(start, stop)
        start = stop


def nearest_neighbor_distances(positions: np.ndarray, box_size: int) -> np.ndarray:
    """Periodic nearest-neighbor distance of every lattice point (lattice units).

    Exact, on integer squared distances.  The points go into an m^3 grid
    of cells of edge L/m, about _NN_CELL_FILL points per cell, and each
    point scans the cells around its own ring by ring: after rings 0..r
    every point not yet seen lies farther than r*L/m, so a point whose
    best d2 is at most (r*L/m)^2 is done.  Once the open points times n
    is at most _NN_DENSE_PAIRS, the rest are compared with every point
    (for n <= 1024 that is the whole job).  Pairs are formed in chunks
    of at most max(n, _NN_CHUNK_PAIRS).  Each point meets each other
    point at most once, so the worst case is the O(n^2) dense pass; for
    points spread through the box a point meets the points of about 27
    cells, and the cost is O(n log n).
    """
    pos = np.asarray(positions, dtype=np.int64).reshape(-1, 3) % box_size
    n = len(pos)
    if n < 2:
        return np.empty(0)
    m = min(box_size, max(1, round((n / _NN_CELL_FILL) ** (1.0 / 3.0))))
    cells = pos.T * m // box_size                  # x, y, z cell indices
    cell_keys = (cells[0] * m + cells[1]) * m + cells[2]
    order = np.argsort(cell_keys, kind="stable")
    cells, coords = cells[:, order], pos.T[:, order]  # points of one cell are consecutive
    cell_start = np.concatenate(([0], np.cumsum(np.bincount(cell_keys, minlength=m**3))))
    far = np.iinfo(np.int64).max
    best = np.full(n, far)
    pending = np.arange(n)
    r = 0
    while len(pending) * n > _NN_DENSE_PAIRS:
        ring = _cell_ring(r, m)
        step = max(1, _NN_CHUNK_PAIRS // len(ring))
        for start in range(0, len(pending), step):
            rows = pending[start:start + step]
            near_keys = 0
            for cell, offset in zip(cells, ring.T):      # offsets are reduced mod m
                near = cell[rows, None] + offset
                near_keys = near_keys * m + np.where(near >= m, near - m, near)
            near_keys = near_keys.ravel()
            lo = cell_start[near_keys]
            counts = cell_start[near_keys + 1] - lo
            owners = np.repeat(rows, len(ring))
            for run in _runs(counts, _NN_CHUNK_PAIRS):
                # pair j of a lookup is the j-th point of its cell
                c = counts[run]
                a = np.repeat(owners[run], c)
                b = np.arange(len(a)) + np.repeat(lo[run] - (np.cumsum(c) - c), c)
                d2 = _periodic_d2([x.take(a) - x.take(b) for x in coords], box_size)
                d2[a == b] = far
                np.minimum.at(best, a, d2)
        if 2 * r + 1 >= m:          # every cell seen
            pending = pending[:0]
        else:
            pending = pending[best[pending] > (r * box_size) ** 2 // (m * m)]
        r += 1
    step = max(1, _NN_CHUNK_PAIRS // n)
    for start in range(0, len(pending), step):
        rows = pending[start:start + step]
        d2 = _periodic_d2([x[rows, None] - x for x in coords], box_size)
        d2[np.arange(len(rows)), rows] = far
        best[rows] = d2.min(axis=1)
    nearest = np.empty(n)
    nearest[order] = np.sqrt(best)
    return nearest


def _closest(delta: np.ndarray, period: int, keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest (periodic d2 of delta, key), in that order."""
    d2 = _periodic_d2(delta.T, period)
    near = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
    return near[np.lexsort((keys[near], d2[near]))[:k]]


def ensemble_neighborhood(centers: CenterSet, n_ensemble: int) -> np.ndarray:
    """Indices of the reference center plus its n_ensemble nearest dopants.

    The reference is the dopant closest to the box center; distances are
    periodic and ties go to the smaller site key, so the indices are
    ordered by (distance, site key) and do not depend on the order of
    the input.  Mirrors the working unit of one processor instance: an
    excited center and the N dopants around it.
    """
    n = len(centers)
    if n < n_ensemble + 1:
        raise DomainError(f"need at least {n_ensemble + 1} centers, have {n}")
    box = centers.box_size
    wrapped = centers.positions % box
    keys = _site_keys(wrapped, box)
    # doubled coordinates put the box center L/2 on the integer grid
    ref = _closest(2 * wrapped - box, 2 * box, keys, 1)[0]
    return _closest(wrapped - wrapped[ref], box, keys, n_ensemble + 1)


def estimate_fwhm(frequencies, distribution: str = "gaussian") -> float:
    """Empirical FWHM of a frequency sample.

    Quantile-based: for a gaussian the central 76.1% of the mass spans
    exactly one FWHM; for a lorentzian the interquartile range does.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if len(freqs) < 8:
        raise DomainError("too few samples for a width estimate")
    if distribution == "gaussian":
        lo, hi = (1.0 - _GAUSSIAN_FWHM_MASS) / 2.0, (1.0 + _GAUSSIAN_FWHM_MASS) / 2.0
    elif distribution == "lorentzian":
        lo, hi = 0.25, 0.75
    else:
        raise DomainError(f"unknown distribution {distribution!r}")
    q = np.quantile(freqs, [lo, hi])
    return float(q[1] - q[0])

