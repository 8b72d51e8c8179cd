import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from oqcsim import ensemble
from oqcsim.ensemble import (PAIR_RADIUS_MAX, CenterSet, ChannelAllocation, CrystalSpec,
                             allocate_channels, assign_frequencies, ensemble_neighborhood,
                             ensemble_radius, estimate_fwhm, identify_pairs,
                             mean_qubit_spacing, export_allocation_csv, export_centers_csv,
                             min_pair_concentration,
                             nearest_neighbor_distances, sample_lattice, spectral_select)
from oqcsim.errors import DomainError, ValidationError


def spec(c=0.01, box=40, dist="gaussian", gamma_inh=1e12, gamma_h=1e6):
    return CrystalSpec(concentration=c, gamma_inh=gamma_inh, gamma_h=gamma_h,
                       box_size=box, distribution=dist)


# -- lattice sampling -----------------------------------------------------

def test_occupancy_within_binomial_bounds():
    s = spec(c=0.01, box=100)
    centers = sample_lattice(s, seed=123)
    n_sites = 100**3
    mean, sigma = n_sites * 0.01, math.sqrt(n_sites * 0.01 * 0.99)
    assert abs(len(centers) - mean) < 3 * sigma


def test_full_and_tiny_concentration():
    assert len(sample_lattice(spec(c=1.0, box=5), seed=1)) == 125
    with pytest.warns(UserWarning):   # ~0.1 dopants expected: statistics warning
        few = sample_lattice(spec(c=1e-4, box=10), seed=1)
    assert len(few) <= 2


def test_sampling_deterministic_under_seed():
    a = sample_lattice(spec(), seed=77)
    b = sample_lattice(spec(), seed=77)
    assert np.array_equal(a.positions, b.positions)
    fa = assign_frequencies(a, spec(), seed=78)
    fb = assign_frequencies(b, spec(), seed=78)
    assert np.array_equal(fa.frequencies, fb.frequencies)


@pytest.mark.parametrize("limit, box", [(1, 7), (50, 7), (1000, 7), (None, 102)])
def test_sampling_equals_one_shot_draw(monkeypatch, limit, box):
    # chunks of one site, a last chunk of 343 % 50 = 43 sites, one chunk
    # larger than the box, and the default limit over the 102^3 sites: 16
    # full chunks and a last one of 12,632 sites
    if limit is not None:
        monkeypatch.setattr(ensemble, "_SLICE_LIMIT", limit)
    seed, c = 31, 0.05
    oracle = np.argwhere(np.random.default_rng(seed).random((box, box, box)) < c)[:, ::-1]
    positions = sample_lattice(spec(c=c, box=box), seed=seed).positions
    assert positions.shape == oracle.shape
    assert (positions == oracle).all()


def test_crystal_spec_invariants():
    with pytest.raises(ValidationError):
        spec(c=0.0)
    with pytest.raises(ValidationError):
        spec(c=1.5)
    with pytest.raises(ValidationError):
        CrystalSpec(concentration=0.1, gamma_inh=1e6, gamma_h=1e9, box_size=10)
    with pytest.raises(ValidationError):
        spec(dist="voigt")


# -- frequency assignment -------------------------------------------------

def test_gaussian_fwhm_matches_target():
    s = spec(c=0.5, box=126)   # ~1e6 dopants
    centers = assign_frequencies(sample_lattice(s, seed=9), s, seed=10)
    assert len(centers) > 9e5
    assert abs(np.median(centers.frequencies)) < 0.01 * s.gamma_inh
    assert estimate_fwhm(centers.frequencies, "gaussian") == pytest.approx(
        s.gamma_inh, rel=0.02)


def test_lorentzian_fwhm_matches_target():
    s = spec(c=0.2, box=80, dist="lorentzian")
    centers = assign_frequencies(sample_lattice(s, seed=3), s, seed=4)
    assert estimate_fwhm(centers.frequencies, "lorentzian") == pytest.approx(
        s.gamma_inh, rel=0.05)


def test_frequencies_scale_linearly_with_width():
    # narrow-line limit: offsets shrink proportionally to Gamma_inh
    wide = spec(c=0.05, box=20, gamma_inh=1e12, gamma_h=1e5)
    narrow = spec(c=0.05, box=20, gamma_inh=1e6, gamma_h=1e-1)
    base = sample_lattice(wide, seed=2)
    f_wide = assign_frequencies(base, wide, seed=3).frequencies
    f_narrow = assign_frequencies(base, narrow, seed=3).frequencies
    assert np.allclose(f_narrow, f_wide * 1e-6, rtol=1e-12)
    assert np.max(np.abs(f_narrow)) < 1e7


# -- spectral selection ---------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_whole_line_and_nothing():
    s = spec(box=20)
    centers = assign_frequencies(sample_lattice(s, seed=5), s, seed=6)
    span = centers.frequencies.max() - centers.frequencies.min()
    assert len(spectral_select(centers, 0.0, 10 * span)) == len(centers)
    assert len(spectral_select(centers, 0.0, 0.0)) == 0
    # f - f0 overflows: the far line lies outside the window, without a warning
    far = CenterSet(np.zeros((2, 3)), 4, np.array([-1.7e308, 1.7e308]))
    assert spectral_select(far, 1.7e308, 1e9).frequencies.tolist() == [1.7e308]


def test_selected_fraction_order_of_magnitude():
    s = spec(c=0.5, box=126)
    centers = assign_frequencies(sample_lattice(s, seed=21), s, seed=22)
    sel = spectral_select(centers, 0.0, 1e8)   # Gamma_L / Gamma_inh = 1e-4
    frac = len(sel) / len(centers)
    # gaussian peak-density correction: expected 0.939e-4
    assert frac == pytest.approx(0.939e-4, rel=0.25)


def test_select_requires_frequencies():
    with pytest.raises(ValidationError):
        spectral_select(sample_lattice(spec(box=10), seed=1), 0.0, 1e9)


# -- scaling formulas -----------------------------------------------------

def test_mean_qubit_spacing_reference_point():
    assert mean_qubit_spacing(0.01, 0.1e9, 1e12) == pytest.approx(100.0, rel=1e-12)


def test_mean_qubit_spacing_cube_root_law():
    r = mean_qubit_spacing(0.01, 1e8, 1e12)
    assert mean_qubit_spacing(0.08, 1e8, 1e12) == pytest.approx(r / 2, rel=1e-12)


def test_ensemble_radius_values():
    assert ensemble_radius(50, 0.01) == pytest.approx(17.0998, rel=1e-4)
    assert ensemble_radius(1, 1.0) == 1.0
    assert ensemble_radius(400, 0.01) == pytest.approx(2 * ensemble_radius(50, 0.01))


def test_min_pair_concentration_values():
    assert min_pair_concentration(10 ** (5 / 3)) == pytest.approx(1e-5, rel=1e-12)
    assert min_pair_concentration(1.0) == 1.0
    assert min_pair_concentration(100.0) == pytest.approx(1e-6, rel=1e-12)


def test_same_frequency_spacing_consistent_with_formula():
    # Monte-Carlo median same-frequency nearest-neighbor spacing stays
    # within a factor 2 of the mean-spacing formula (geometric factor ~0.56)
    s = spec(c=0.02, box=150, gamma_inh=1e12)
    gamma_l = 1e9
    centers = assign_frequencies(sample_lattice(s, seed=777), s, seed=778)
    sel = spectral_select(centers, 0.0, gamma_l)
    assert len(sel) > 30
    med = float(np.median(nearest_neighbor_distances(sel.positions, s.box_size)))
    r0 = mean_qubit_spacing(s.concentration, gamma_l, s.gamma_inh)
    assert r0 / 2 <= med <= r0 * 2


def kdtree_nearest(positions, box):
    points = np.asarray(positions, dtype=float)
    return cKDTree(points, boxsize=box).query(points, k=2)[0][:, 1]


def test_nearest_neighbor_distances_equal_the_kdtree_query():
    rng = np.random.default_rng(12)
    # crowded integer points: distances repeat, and points may coincide;
    # above 1,024 points the search scans a cell grid ring by ring
    for box, n in [(3, 2), (3, 40), (5, 200), (8, 500), (30, 1500), (12, 5000), (250, 3000)]:
        positions = rng.integers(0, box, size=(n, 3))
        assert np.array_equal(nearest_neighbor_distances(positions, box),
                              kdtree_nearest(positions, box))
    # a dense cluster in a thin haze keeps rings 2 and up open
    clustered = np.vstack([rng.integers(100, 110, size=(3000, 3)),
                           rng.integers(0, 1000, size=(1000, 3))])
    straddling = rng.integers(-6, 6, size=(2000, 3))        # across the box faces
    for positions, box in [(clustered, 1000), (straddling, 200)]:
        assert np.array_equal(nearest_neighbor_distances(positions, box),
                              kdtree_nearest(positions % box, box))
    # the box calibrate_blockade_constants measures
    centers = sample_lattice(spec(c=0.01, box=50), seed=20240101)
    assert len(centers) == 1224
    assert np.array_equal(nearest_neighbor_distances(centers.positions, 50),
                          kdtree_nearest(centers.positions, 50))


def test_nearest_neighbor_search_meets_few_points_each(monkeypatch):
    # a spectral window as wide as the line selects most of a box: the
    # search must stay near-linear there, not compare every pair
    centers = sample_lattice(spec(c=0.05, box=120), seed=5)
    met = []
    periodic_d2 = ensemble._periodic_d2

    def counted(components, period):
        d2 = periodic_d2(components, period)
        met.append(d2.size)
        return d2

    monkeypatch.setattr(ensemble, "_periodic_d2", counted)
    nn = nearest_neighbor_distances(centers.positions, 120)
    assert len(centers) > 80_000
    assert sum(met) <= 40 * len(centers)       # about 30 at one point per cell
    assert np.array_equal(nn, kdtree_nearest(centers.positions, 120))


# -- pair identification --------------------------------------------------

def periodic_d2(positions, origin, box):
    d = np.abs(positions - origin) % box
    return (np.minimum(d, box - d) ** 2).sum(axis=-1)


def site_keys(positions, box):
    x, y, z = (positions % box).T
    return (z * box + y) * box + x


def brute_force_mutual_pairs(positions, box, radius):
    """O(n^2) oracle: periodic mutual nearest neighbors within radius.

    A center's nearest neighbor has the smallest squared distance d2 and,
    among equidistant ones, the smallest site key; a mutual pair counts
    when sqrt(d2) <= radius.
    """
    n = len(positions)
    if n < 2:
        return np.full(n, -1)
    d2 = periodic_d2(positions[:, None, :], positions[None, :, :], box)
    rank = d2 * box**3 + site_keys(positions, box)[None, :]   # (d2, key) order
    np.fill_diagonal(rank, np.iinfo(np.int64).max)
    nn = rank.argmin(axis=1)
    partner = np.full(n, -1)
    for i in range(n):
        j = nn[i]
        if nn[j] == i and math.sqrt(d2[i, j]) <= radius:
            partner[i] = j
    return partner


def brute_force_neighborhood(positions, box, n_ensemble):
    """Oracle: the center nearest the box center, then all by (d2, key)."""
    keys = site_keys(positions, box)
    to_mid = periodic_d2(2 * positions, box, 2 * box)
    ref = min(range(len(positions)), key=lambda i: (to_mid[i], keys[i]))
    d2 = periodic_d2(positions, positions[ref], box)
    return np.array(sorted(range(len(positions)), key=lambda i: (d2[i], keys[i]))
                    [:n_ensemble + 1])


def random_occupation(rng, box):
    """Distinct sites of a box at a log-uniform filling in [3%, 1], in random order."""
    occupied = np.flatnonzero(rng.random(box**3) < 10 ** rng.uniform(-1.5, 0.0))
    sites = rng.permutation(occupied)
    return np.stack([sites % box, sites // box % box, sites // box**2], axis=1)


def test_two_isolated_centers_pair_up():
    cs = CenterSet(np.array([[1, 1, 1], [2, 1, 1], [10, 10, 10]]), box_size=20)
    flagged = identify_pairs(cs, pair_radius=2.0)
    assert flagged.partner_index[0] == 1
    assert flagged.partner_index[1] == 0
    assert not flagged.is_pair_member[2]


def test_single_center_no_pairs():
    cs = CenterSet(np.array([[0, 0, 0]]), box_size=10)
    assert not identify_pairs(cs).is_pair_member.any()


def test_pairs_match_brute_force_oracle():
    for seed in (1, 2, 3):
        centers = sample_lattice(spec(c=0.01, box=22), seed=seed)
        flagged = identify_pairs(centers, pair_radius=2.0)
        oracle = brute_force_mutual_pairs(centers.positions, 22, 2.0)
        assert np.array_equal(flagged.partner_index, oracle)
    # boxes narrower than 2r + 1 wrap stencil offsets onto one site or the center
    rng = np.random.default_rng(8)
    for box, radius, _ in itertools.product(range(1, 9), (math.sqrt(3), 2.0, 3.5), range(6)):
        positions = random_occupation(rng, box)
        flagged = identify_pairs(CenterSet(positions, box), pair_radius=radius)
        assert np.array_equal(flagged.partner_index,
                              brute_force_mutual_pairs(positions, box, radius))


@settings(max_examples=60, deadline=None)
@given(box=st.integers(2, 8), radius=st.sampled_from([1.0, math.sqrt(3), 2.0, 3.5]),
       data=st.data())
def test_pairs_and_neighborhood_ignore_input_order(box, radius, data):
    sites = data.draw(st.lists(st.integers(0, box**3 - 1), min_size=2,
                               max_size=min(box**3, 60), unique=True))
    positions = np.array([[s % box, s // box % box, s // box**2] for s in sites])
    perm = np.array(data.draw(st.permutations(range(len(sites)))))
    shuffled = CenterSet(positions[perm], box)

    partner = identify_pairs(CenterSet(positions, box), radius).partner_index
    shuffled_partner = identify_pairs(shuffled, radius).partner_index
    mapped = np.full(len(sites), -1)
    linked = shuffled_partner >= 0
    mapped[perm[linked]] = perm[shuffled_partner[linked]]
    assert np.array_equal(mapped, partner)

    n_ensemble = data.draw(st.integers(1, len(sites) - 1))
    idx = ensemble_neighborhood(CenterSet(positions, box), n_ensemble)
    assert np.array_equal(idx, brute_force_neighborhood(positions, box, n_ensemble))
    assert np.array_equal(perm[ensemble_neighborhood(shuffled, n_ensemble)], idx)


def test_pair_filter_collisions_and_memory():
    # a box of 4096 (6.9e10 sites) holding copies of random parts of one
    # 5^3 cluster; the first straddles the periodic corner, the others are
    # shifted by 2048 in x or by whole rows, keys apart by multiples of 2048
    box = 4096
    rng = np.random.default_rng(13)
    cube = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    shifts = [(0, 0, 0), (2048, 0, 0), (0, 8, 0), (0, 0, 8), (2048, 2048, 2048)]
    positions = np.concatenate([cube[rng.choice(len(cube), 8, replace=False)] + shift
                                for shift in shifts]) % box
    positions = positions[rng.permutation(len(positions))]
    n = len(positions)
    # the filter has M = 1024 bits: lookups of empty sites land on set bits
    m = max(64, 1 << (16 * n - 1).bit_length())
    keys = site_keys(positions, box)
    looked_up = site_keys((positions[:, None, :] + cube).reshape(-1, 3), box)
    collide = ~np.isin(looked_up, keys) & np.isin(looked_up % m, keys % m)
    assert m == 1024 and collide.sum() > 100

    centers = CenterSet(positions, box)
    tracemalloc.start()
    try:
        flagged = identify_pairs(centers, pair_radius=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    oracle = brute_force_mutual_pairs(positions, box, 2.0)
    assert np.array_equal(flagged.partner_index, oracle)
    assert (oracle >= 0).sum() >= 10
    assert peak < 1 << 20      # a box^3 bitset would take 8.6 GB


def test_pair_radius_bounded_and_sites_distinct():
    centers = CenterSet(np.array([[0, 0, 0], [1, 0, 0]]), box_size=20)
    for bad in (0.0, -1.0, math.nan, PAIR_RADIUS_MAX + 1e-9, 1e6):
        with pytest.raises(DomainError):
            identify_pairs(centers, pair_radius=bad)
    assert identify_pairs(centers, pair_radius=PAIR_RADIUS_MAX).partner_index.tolist() == [1, 0]
    with pytest.raises(ValidationError):
        identify_pairs(CenterSet(np.array([[0, 0, 0], [20, 0, 0]]), box_size=20))


def test_pair_relation_symmetric_and_idempotent():
    s = spec(c=0.02, box=25)
    flagged = identify_pairs(sample_lattice(s, seed=11), pair_radius=2.0)
    for i, p in enumerate(flagged.partner_index):
        if p >= 0:
            assert flagged.partner_index[p] == i
    again = identify_pairs(flagged, pair_radius=2.0)
    assert np.array_equal(again.partner_index, flagged.partner_index)


# -- channel allocation ---------------------------------------------------

def dp_max_channels(freqs, min_gap):
    """Independent oracle: O(n^2) longest chain with gaps above min_gap."""
    order = sorted(range(len(freqs)), key=lambda i: freqs[i])
    best = [1] * len(freqs)
    for a in range(len(order)):
        for b in range(a):
            if freqs[order[a]] - freqs[order[b]] > min_gap:
                best[a] = max(best[a], best[b] + 1)
    return max(best, default=0)


def exhaustive_max_channels(freqs, min_gap):
    """Exponential oracle for tiny instances."""
    best = 0
    for r in range(len(freqs), best, -1):
        for combo in itertools.combinations(sorted(freqs), r):
            if all(b - a > min_gap for a, b in zip(combo, combo[1:])):
                return r
    return best


def test_identical_frequencies_collapse_to_one():
    alloc = allocate_channels([5.0] * 7, min_gap=0.0)
    assert len(alloc.selected_indices) == 1


def test_grid_spacing_twice_gap_takes_all():
    freqs = np.arange(10) * 2.0
    alloc = allocate_channels(freqs, min_gap=1.0)
    assert len(alloc.selected_indices) == 10


def test_greedy_matches_dp_and_exhaustive_oracles():
    rng = np.random.default_rng(404)
    for trial in range(60):
        n = int(rng.integers(1, 21))
        freqs = rng.uniform(0, 10, size=n)
        gap = float(rng.uniform(0.05, 3.0))
        got = len(allocate_channels(freqs, gap).selected_indices)
        assert got == dp_max_channels(list(freqs), gap)
        if n <= 10:
            assert got == exhaustive_max_channels(list(freqs), gap)


def greedy_scan(freqs, min_gap):
    """The plain greedy scan over every frequency in stable sorted order."""
    freqs = np.asarray(freqs, dtype=float)
    selected, last = [], -math.inf
    with np.errstate(over="ignore", invalid="ignore"):     # plain IEEE gap test
        for i in np.argsort(freqs, kind="stable"):
            if freqs[i] - last > min_gap or not selected:
                selected.append(int(i))
                last = freqs[i]
    return tuple(selected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_allocation_equals_the_plain_greedy_scan():
    rng = np.random.default_rng(9)
    cases = [(rng.normal(0, 1e12, size=5000), 3e8),           # the ensemble's scale
             (rng.uniform(0, 10, size=2000), 0.0),              # every distinct value
             (rng.integers(0, 30, size=3000).astype(float), 0.0),    # duplicate-heavy
             (rng.integers(0, 30, size=3000).astype(float), 2.0),
             (np.repeat([0.1, 0.2, 0.3 + 1e-17, 0.4], 50), 0.1),      # gaps at rounding
             ([math.nan, 1.0, -math.inf, 2.0, math.inf, math.nan, 1.0], 0.5),
             ([math.nan, math.nan], 1.0), ([3.0], 0.0), ([-math.inf, -math.inf, 0.0], 0.0),
             ([1.7e308, -1.7e308, 1e308, math.inf, -1.7e308], 1e300)]   # gaps overflow
    cases += [(rng.choice([0.0, 0.1, 0.2, 0.30000000000000004, 0.7], size=n),
               float(rng.choice([0.0, 0.1, 0.2, 0.5]))) for n in (1, 2, 5, 40, 400)]
    for freqs, gap in cases:
        alloc = allocate_channels(freqs, gap)
        assert alloc.selected_indices == greedy_scan(freqs, gap)
        assert np.array_equal(alloc.channel_frequencies,
                              np.asarray(freqs)[list(alloc.selected_indices)], equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1e-300, -2.5, 1e16, 1e16 + 2]) |
                st.floats(-1e3, 1e3), max_size=60),
       st.sampled_from([0.0, 0.1, 0.2, 1.0, 2.0, 1e-300]))
def test_allocation_equals_the_plain_greedy_scan_fuzzed(freqs, gap):
    assert allocate_channels(freqs, gap).selected_indices == greedy_scan(freqs, gap)


def test_allocation_output_respects_gap_and_subset():
    rng = np.random.default_rng(5)
    freqs = rng.normal(0, 1e9, size=200)
    alloc = allocate_channels(freqs, min_gap=1e8)
    chans = alloc.channel_frequencies
    assert all(b - a > 1e8 for a, b in zip(chans, chans[1:]))
    assert set(alloc.selected_indices) <= set(range(200))
    assert chans == tuple(float(freqs[i]) for i in alloc.selected_indices)


def test_allocation_invariant_enforced():
    with pytest.raises(ValidationError):
        ChannelAllocation((0, 1), 1.0, (0.0, 0.5))


def test_allocation_rejects_negative_gap():
    with pytest.raises(DomainError):
        allocate_channels([1.0, 2.0], -1.0)


def test_allocation_empty_input():
    alloc = allocate_channels([], 1.0)
    assert alloc.selected_indices == ()
    assert alloc.channel_frequencies == ()


@pytest.mark.parametrize("with_frequencies", [True, False])
def test_centers_csv_rows_across_blocks(tmp_path, with_frequencies):
    # 9000 centers span several write blocks, 4097 rows just cross one;
    # the file holds the bytes csv.writer writes for the same rows
    s = spec(c=0.05, box=60)
    centers = identify_pairs(sample_lattice(s, 5), 2.0)
    if with_frequencies:
        centers = assign_frequencies(centers, s, 6)
    assert len(centers) > 9000
    head = CenterSet(centers.positions[:4097], s.box_size,
                     None if centers.frequencies is None else centers.frequencies[:4097],
                     centers.partner_index[:4097])
    for rows in (centers, head):
        path, reference = tmp_path / "centers.csv", tmp_path / "reference.csv"
        export_centers_csv(path, rows)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z", "frequency_hz", "is_pair_member",
                             "partner_index"])
            for i in range(len(rows)):
                partner = int(rows.partner_index[i])
                freq = "" if rows.frequencies is None else repr(float(rows.frequencies[i]))
                writer.writerow([*rows.positions[i].tolist(), freq, int(partner >= 0),
                                 partner if partner >= 0 else ""])
        assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("freqs", [
    [-math.inf, -1e300, -0.0, 5e-324, 1.5, 1e300, math.inf],
    [math.nan],
    [],
])
def test_allocation_csv_equals_csv_writer(tmp_path, freqs):
    allocation = ChannelAllocation(tuple(range(3 * len(freqs), 0, -3)), 0.0, tuple(freqs))
    path, reference = tmp_path / "channels.csv", tmp_path / "reference.csv"
    export_allocation_csv(path, allocation)
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "input_index", "frequency_hz"])
        for ch, (idx, f) in enumerate(zip(allocation.selected_indices,
                                          allocation.channel_frequencies)):
            writer.writerow([ch, idx, repr(f)])
    assert path.read_bytes() == reference.read_bytes()
