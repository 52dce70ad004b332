"""Backend agreement for the determinant-enumeration kernels.

Both backends (the int64 numpy scan and the exact python path) must return
identical spectra and identical witness index tuples; inputs that could
overflow int64 must fall back to the exact path silently.
"""

from itertools import combinations, product
from math import comb, gcd, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _reference import bareiss_det, wedge_rows
from latspec import kernels
from latspec.config import LimitError
from latspec.lattice import det_exact
from latspec.prng import SplitMix64

BACKENDS = ["python", "numpy"]


def _refuse(*args):
    raise AssertionError("exact Python path taken")


def _random_points(seed, n, rank, bound):
    rng = SplitMix64(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(-bound, bound) for _ in range(rank)))
    return sorted(pts)


@pytest.mark.parametrize(
    "rank, seed, cap",
    [
        pytest.param(2, 9, None, id="2"),
        pytest.param(3, 10, None, id="3"),
        pytest.param(2, 41, None, id="2-seed41"),
        pytest.param(2, 42, 30, id="2-seed42-cap30"),
        pytest.param(3, 43, None, id="3-seed43"),
        pytest.param(3, 44, 30, id="3-seed44-cap30"),
        pytest.param(4, 45, None, id="4"),
        pytest.param(4, 46, 30, id="4-seed46-cap30"),
        pytest.param(5, 47, None, id="5"),
        pytest.param(5, 48, 3000, id="5-seed48-cap3000"),
    ],
)
def test_backends_agree_on_spectra(monkeypatch, rank, seed, cap):
    pts = _random_points(seed, {2: 18, 3: 18, 4: 14, 5: 11}[rank], rank, 9)
    results = {}
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        results[backend] = kernels.distinct_abs_dets(pts, rank, cap)
    baseline = results["python"]
    assert baseline
    for backend, got in results.items():
        assert got == baseline, backend


@pytest.mark.parametrize(
    "rank, seed, n",
    [
        pytest.param(2, 33, 14, id="2"),
        pytest.param(3, 34, 14, id="3"),
        pytest.param(2, 35, 40, id="2-seed35-n40"),
        pytest.param(3, 36, 24, id="3-seed36-n24"),
        pytest.param(4, 37, 14, id="4"),
        pytest.param(5, 38, 11, id="5"),
    ],
)
def test_backends_agree_on_witnesses(monkeypatch, rank, seed, n):
    pts = _random_points(seed, n, rank, 6)
    monkeypatch.setenv("LATSPEC_KERNELS", "python")
    spectrum = sorted(kernels.distinct_abs_dets(pts, rank))
    # the largest values are rare, so their first witnesses sit in later blocks;
    # the unreachable target stays under TABLE_LIMIT so the int64 scan runs
    unreachable = kernels.det_bound(6, rank) + 1
    targets = spectrum[:5] + spectrum[-5:] + [unreachable]
    results = {}
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        results[backend] = kernels.find_det_witnesses(pts, rank, targets)
    for backend, got in results.items():
        assert got == results["python"], backend
    assert unreachable not in results["python"]
    assert max(results["python"].values())[0] > 0  # some witness lies past the first block


def test_cap_respected(monkeypatch):
    pts = [p for p in product(range(-4, 5), repeat=2)]
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        spec = kernels.distinct_abs_dets(pts, 2, cap=6)
        assert spec and max(spec) <= 6


def test_overflow_falls_back_to_exact(monkeypatch):
    big = 10**13
    pts = [(0, 0, 0), (big, 0, 0), (0, big, 0), (0, 0, big), (big, big, big)]
    assert kernels.det_bound(big, 3) >= 1 << 62
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        spec = kernels.distinct_abs_dets(pts, 3)
        assert big**3 in spec  # exact cube, far beyond int64


def test_small_inputs():
    assert kernels.distinct_abs_dets([(0, 0), (1, 0)], 2) == set()
    assert kernels.find_det_witnesses([(0, 0)], 2, [1]) == {}


def test_backend_env_validation(monkeypatch):
    for value in ("weird", "numba"):  # numba is a retired backend
        monkeypatch.setenv("LATSPEC_KERNELS", value)
        with pytest.raises(ValueError):
            kernels.backend_name()
    monkeypatch.delenv("LATSPEC_KERNELS", raising=False)
    assert kernels.backend_name() == "numpy"


def test_rank_one_uses_python_path(monkeypatch):
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    pts = [(0,), (3,), (7,)]
    assert kernels.distinct_abs_dets(pts, 1) == {3, 4, 7}


def test_translated_grid_stays_on_the_int64_scan(monkeypatch):
    # the determinant bound follows the coordinate spread, so a grid far from
    # the origin is scanned like the same grid at the origin
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "_distinct_py", _refuse)
    monkeypatch.setattr(kernels, "_witness_py", _refuse)
    grid = [(x, y) for x in range(12) for y in range(12)]
    shifted = [(x + 5000, y + 5000) for x, y in grid]
    spectrum = kernels.distinct_abs_dets(grid, 2)
    targets = sorted(spectrum)[:5] + sorted(spectrum)[-5:]
    assert kernels.distinct_abs_dets(shifted, 2) == spectrum
    assert kernels.find_det_witnesses(shifted, 2, targets) == kernels.find_det_witnesses(
        grid, 2, targets
    )


@pytest.mark.parametrize("rank", [2, 3])
def test_square_blocks_match_the_python_path(monkeypatch, rank):
    line = [tuple(t * c for c in (1, 2, -3)[:rank]) for t in range(-4, 6)]
    plane = [(x, y, 2 * x - y) for x in range(-2, 3) for y in range(-2, 2)]
    cases = {
        "generic": _random_points(50 + rank, 22, rank, 7),
        "collinear": line,
        "one simplex": _random_points(60 + rank, rank + 1, rank, 5),
    }
    if rank == 3:
        cases["coplanar"] = plane
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    for name, pts in cases.items():
        bound = kernels._simplex_bound(kernels._spreads(pts), rank)
        caps = [None, -2, -1, 0, 1, 17, bound - 1, bound, bound + 5]
        want_spectra = {cap: kernels._distinct_py(pts, rank, cap) for cap in caps}
        targets = sorted(want_spectra[None]) + [bound]
        want_witnesses = kernels._witness_py(pts, rank, targets)
        with monkeypatch.context() as m:
            m.setattr(kernels, "_distinct_py", _refuse)
            m.setattr(kernels, "_witness_py", _refuse)
            for cap in caps:
                assert kernels.distinct_abs_dets(pts, rank, cap) == want_spectra[cap], (name, cap)
            assert kernels.find_det_witnesses(pts, rank, targets) == want_witnesses, name
        if name == "generic":
            assert max(want_witnesses.values())[0] > 0  # some witness lies past the first block
        else:
            assert (name == "one simplex") == bool(want_spectra[None])


def _bareiss_per_subset(pts, rank):
    """``(subset, |det|)`` for every (rank+1)-subset in lexicographic order,
    one difference matrix per subset: ``det_exact``, which runs the kernels'
    elimination step, checked against the reference's in-place Bareiss loop."""
    for idx in combinations(range(len(pts)), rank + 1):
        base = pts[idx[0]]
        rows = [[pts[j][k] - base[k] for j in idx[1:]] for k in range(rank)]
        det = det_exact(rows)
        assert det == bareiss_det(rows), rows
        yield idx, abs(det)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_exact_path_matches_bareiss_per_subset(rank):
    generic = _random_points(120 + rank, {1: 12, 2: 16, 3: 11, 4: 8, 5: 8}[rank], rank, 7)
    cases = {
        "generic": generic,
        # coordinates past 2^63, and determinants far past int64
        "huge": [tuple(x * (1 << 64) + x * x for x in p) for p in generic],
        "far": [tuple(x + (1 << 70) for x in p) for p in generic],
    }
    if rank > 1:
        # the last coordinate is a linear form in the others: one hyperplane
        flat = _random_points(130 + rank, 9, rank - 1, 4)
        cases["flat"] = [(*p, 2 * p[0] - sum(p[1:])) for p in flat]
    for name, pts in cases.items():
        dets = list(_bareiss_per_subset(pts, rank))
        spectrum = sorted({v for _, v in dets if v})
        assert bool(spectrum) == (name != "flat"), name
        top = spectrum[-1] if spectrum else 1
        caps = [None, -1, 0, 1, spectrum[len(spectrum) // 2] if spectrum else 2, top, top + 1]
        for cap in caps:
            want = {v for v in spectrum if cap is None or v <= cap}
            assert kernels._distinct_py(pts, rank, cap) == want, (name, cap)
        first = {}
        for idx, v in dets:
            first.setdefault(v, idx)
        targets = spectrum + [top + 1]
        want_witnesses = {v: first[v] for v in spectrum}
        assert kernels._witness_py(pts, rank, targets) == want_witnesses, name


@st.composite
def _row_inputs(draw):
    """``(rank, points, small)``: points at ranks 1-8, small or past 2^64, with
    maybe a repeated point, the zero vector and a point planted in the affine
    span of rank - 1 others; ``small`` when the int64 scan can take them."""
    rank = draw(st.integers(1, 8))
    small = draw(st.booleans())
    coord = st.integers(-3, 3) if small else st.integers(-(1 << 70), 1 << 70)
    pts = draw(st.lists(st.tuples(*[coord] * rank), min_size=rank, max_size=rank + 4))
    if draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    if draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))), (0,) * rank)
    if rank > 1 and draw(st.booleans()):
        base, *others = draw(st.permutations(pts))[:rank]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=rank - 1, max_size=rank - 1))
        planted = tuple(b + sum(c * (o[k] - b) for c, o in zip(coeffs, others)) for k, b in enumerate(base))
        if not small or max(map(abs, planted)) <= 30:
            pts.insert(draw(st.integers(0, len(pts))), planted)
    return rank, pts, small


@given(_row_inputs())
@example((3, [(0, 0, 0), (1, 2, 3), (0, 0, 0), (2, 4, 6), (1 << 66, 1, 1), (5, -7, 1 << 65)], False))
@example((4, [(1, 1, 1, 1), (1, 1, 1, 1), (0, 1, 2, 3), (2, 1, 0, 1), (1, 0, 1, 0), (3, 2, 1, 0)], True))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rows_and_blocks_equal_the_wedge_reference(case):
    rank, pts, small = case
    for i in range(len(pts) - rank):
        want = wedge_rows(pts[i:], rank)
        assert list(kernels.base0_rows(pts[i:], rank)) == want, i
        if small and 2 <= rank <= 6:
            # chunks may split differently from the rows: compare the values
            blocks = kernels._base(kernels._int64_points(pts), rank, i)
            assert {v for _, m in blocks for v in m.ravel().tolist()} - {0} == {v for _, row in want for v in row} - {0}, i


def test_a_rank5_set_past_the_product_clause_scans_on_the_exact_path(monkeypatch):
    # the elimination multiplies two minors of r - 2 rows, so det_bound(c, 3)^2
    # must stay below 2^62 at rank 5: it does to c = 355 and fails from c = 356,
    # where det_bound(c, 5) and the table still admit the int64 scan; the answers
    # are those the int64 scan gave before the clause
    base = [(0, 0, 1, 1, 1), (0, 1, 1, 0, 1), (0, 1, 1, 1, 0), (1, 0, 1, 0, 1), (1, 0, 1, 1, 0), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1)]
    for far, int64 in ((710, True), (711, False)):
        pts = base + [(far, 1, 0, 1, 0)]
        spreads = kernels._spreads(pts)
        top = kernels._simplex_bound(spreads, 5)
        c = (max(spreads) + 1) // 2
        assert c == (355 if int64 else 356) and kernels.det_bound(c, 5) < 1 << 62 and top <= kernels.TABLE_LIMIT
        assert kernels._int64_ok(spreads, 5, top) == int64
        spectrum = [1, far - 2, far - 1, far]
        witnesses = {1: (0, 1, 2, 3, 5, 6), far - 2: (0, 1, 2, 3, 6, 8), far - 1: (0, 2, 3, 6, 7, 8), far: (2, 3, 5, 6, 7, 8)}
        with monkeypatch.context() as m:
            m.setenv("LATSPEC_KERNELS", "numpy")
            for name in ("_distinct_py", "_witness_py") if int64 else ("_distinct_np", "_witness_np"):
                m.setattr(kernels, name, _refuse)
            assert sorted(kernels.distinct_abs_dets(pts, 5)) == spectrum, far
            assert kernels.find_det_witnesses(pts, 5, spectrum + [top + 1]) == witnesses, far


def test_rank2_blocks_across_chunk_boundaries_match_the_python_path(monkeypatch):
    # k = sqrt(2 CHUNK_CELLS) points follow the first one: the first chunk of
    # its base holds about half of its k - 1 rows, the second the rest
    k = round((2 * kernels.CHUNK_CELLS) ** 0.5)
    pts = _random_points(87, k + 1, 2, 40)
    assert len(list(kernels._base(kernels._int64_points(pts), 2, 0))) == 2
    caps = [None, 40, 3000]
    spectrum = kernels._distinct_py(pts, 2, None)
    want_spectra = {cap: {v for v in spectrum if cap is None or v <= cap} for cap in caps}
    targets = sorted(spectrum) + [kernels.det_bound(40, 2)]
    want_witnesses = kernels._witness_py(pts, 2, targets)

    def past_first_chunk(idx):
        k = len(pts) - idx[0] - 1
        return idx[1] - idx[0] - 1 >= max(1, kernels.CHUNK_CELLS // (k - 1))

    assert any(past_first_chunk(idx) for idx in want_witnesses.values())
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "_distinct_py", _refuse)
    monkeypatch.setattr(kernels, "_witness_py", _refuse)
    # the default chunks, one row per chunk, and ragged chunks of a few rows
    for cells in (kernels.CHUNK_CELLS, 1, 700):
        monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
        for cap in caps:
            assert kernels.distinct_abs_dets(pts, 2, cap) == want_spectra[cap], (cells, cap)
        assert kernels.find_det_witnesses(pts, 2, targets) == want_witnesses, cells


def test_rank3_blocks_across_chunk_boundaries_match_the_python_path(monkeypatch):
    # k = (2 CHUNK_CELLS)^(1/3) points follow the first one: the first chunk
    # of its base holds about half of its k - 2 rows, the second the rest
    k = round((2 * kernels.CHUNK_CELLS) ** (1 / 3))
    pts = _random_points(88, k + 1, 3, 6)
    assert len(list(kernels._base(kernels._int64_points(pts), 3, 0))) == 2
    caps = [None, 40, 3000]
    want_spectra = {cap: kernels._distinct_py(pts, 3, cap) for cap in caps}
    targets = sorted(want_spectra[None]) + [kernels.det_bound(6, 3)]
    want_witnesses = kernels._witness_py(pts, 3, targets)

    def past_first_chunk(idx):
        k = len(pts) - idx[0] - 1
        return idx[1] - idx[0] - 1 >= max(1, kernels.CHUNK_CELLS // (k - 1) ** 2)

    assert any(past_first_chunk(idx) for idx in want_witnesses.values())
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "_distinct_py", _refuse)
    monkeypatch.setattr(kernels, "_witness_py", _refuse)
    # the default chunks, one row per chunk, and ragged chunks of a few rows
    for cells in (kernels.CHUNK_CELLS, 1, 5000):
        monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
        for cap in caps:
            assert kernels.distinct_abs_dets(pts, 3, cap) == want_spectra[cap], (cells, cap)
        assert kernels.find_det_witnesses(pts, 3, targets) == want_witnesses, cells


def test_rank4_blocks_across_chunk_boundaries_match_the_python_path(monkeypatch):
    # 20 points follow the first one: its 153 prefixes take two chunks by
    # default; then one prefix per chunk, and ragged chunks whose prefixes end
    # in falling indices, so a block's rows start after the smallest of them
    pts = _random_points(89, 21, 4, 3)
    ipts = kernels._int64_points(pts)
    assert len(list(kernels._base(ipts, 4, 0))) == 2
    caps = [None, 40, 300]
    want_spectra = {cap: kernels._distinct_py(pts, 4, cap) for cap in caps}
    targets = sorted(want_spectra[None]) + [kernels.det_bound(3, 4)]
    want_witnesses = kernels._witness_py(pts, 4, targets)
    first_chunks = {i: {tuple(p) for p in next(kernels._base(ipts, 4, i))[0][1]} for i in range(len(pts) - 4)}
    assert any(tuple(j - idx[0] - 1 for j in idx[1:3]) not in first_chunks[idx[0]] for idx in want_witnesses.values())
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "_distinct_py", _refuse)
    monkeypatch.setattr(kernels, "_witness_py", _refuse)
    for cells in (kernels.CHUNK_CELLS, 1, 500):
        monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
        for cap in caps:
            assert kernels.distinct_abs_dets(pts, 4, cap) == want_spectra[cap], (cells, cap)
        assert kernels.find_det_witnesses(pts, 4, targets) == want_witnesses, cells


@pytest.mark.parametrize("rank, n", [(2, 390), (3, 70), (4, 30)])
def test_blocks_hold_at_most_chunk_cells_entries(monkeypatch, rank, n):
    # a chunk holds at least one row: m - 1 entries for m points after the base
    pts = kernels._int64_points(_random_points(90 + rank, n, rank, 30))
    for cells in (kernels.CHUNK_CELLS, 1, 300):
        monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
        for i in range(n - rank):
            bound = max(cells, n - i - 2)
            sizes = [m.size for _, m in kernels._base(pts, rank, i)]
            assert max(sizes) <= bound, (cells, i, max(sizes))


def test_subset_limit_is_checked_before_the_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("scan started")

    for name in ("_blocks", "_distinct_py", "_witness_py"):
        monkeypatch.setattr(kernels, name, refuse)
    # C(1900, 3) and C(400, 4) both exceed 10^9
    for rank, n in ((2, 1900), (3, 400)):
        pts = [(x,) + (0,) * (rank - 1) for x in range(n)]
        for backend in BACKENDS:
            monkeypatch.setenv("LATSPEC_KERNELS", backend)
            with pytest.raises(ValueError, match="simplices"):
                kernels.distinct_abs_dets(pts, rank)
            with pytest.raises(ValueError, match="simplices"):
                kernels.find_det_witnesses(pts, rank, [1])


def test_spectra_are_refused_by_the_size_of_their_answer(monkeypatch):
    # 300 points in [0, 10^4)^2 scanned 7.1 s to a spectrum of 4145354
    # values, 886 MB at peak: C(300, 3) bounds the answer past ANSWER_LIMIT
    pts = _random_points(300, 300, 2, 5000)
    assert kernels.ANSWER_LIMIT < comb(300, 3)
    monkeypatch.setattr(kernels, "_distinct_np", _refuse)
    monkeypatch.setattr(kernels, "_distinct_py", _refuse)
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        with pytest.raises(LimitError, match=f"spectrum values of a 300-point set, cap None = {comb(300, 3)}, over the limit of 1000000"):
            kernels.distinct_abs_dets(pts, 2)
        with pytest.raises(LimitError, match=f"300-point set, cap 10000000 = {comb(300, 3)}"):
            kernels.distinct_abs_dets(pts, 2, cap=10**7)
    # at rank 4 too, g comes from base 0 and C(50, 5) bounds the answer
    with pytest.raises(LimitError, match=f"50-point set, cap None = {comb(50, 5)}"):
        kernels.distinct_abs_dets(_random_points(302, 50, 4, 1000), 4)
    monkeypatch.undo()
    # a cap bounds the answer, and so does the divisor g of base 0: on 7 * Z^2
    # every value is a multiple of 49, at most U / 49 = 89401 of them
    sparse = [(7 * x, 7 * y) for x, y in _random_points(301, 300, 2, 150)]
    assert min(kernels._simplex_bound(kernels._spreads(sparse), 2), comb(300, 3)) > kernels.ANSWER_LIMIT
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        monkeypatch.setattr(kernels, "_distinct_np", lambda *args: "scanned")
        monkeypatch.setattr(kernels, "_distinct_py", lambda *args: "scanned")
        assert kernels.distinct_abs_dets(pts, 2, cap=1000) == kernels.distinct_abs_dets(sparse, 2) == "scanned"
    monkeypatch.undo()
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    assert gcd(*kernels.distinct_abs_dets(sparse, 2)) == 49


def test_rank_below_one_is_refused_before_the_scan(monkeypatch):
    # rank 0 used to fail inside the scan: an empty max() on the int64 path,
    # an empty determinant on the Python path
    for backend in BACKENDS:
        monkeypatch.setenv("LATSPEC_KERNELS", backend)
        for rank, pts in ((0, [()]), (0, []), (-1, [(0,), (1,)])):
            with pytest.raises(ValueError, match=f"rank must be at least 1, got {rank}"):
                kernels.distinct_abs_dets(pts, rank)
            with pytest.raises(ValueError, match=f"rank must be at least 1, got {rank}"):
                kernels.find_det_witnesses(pts, rank, [1])
            with pytest.raises(ValueError, match=f"rank must be at least 1, got {rank}"):
                list(kernels.base0_rows(pts, rank))


@st.composite
def _scan_inputs(draw):
    """``(rank, points)``: full boxes, congruence sets, random sets and sets
    in one hyperplane, each possibly translated far from 0."""
    rank = draw(st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(["full", "congruence", "random", "flat"]))
    if kind == "full":
        spans = draw(st.lists(st.integers(0, {2: 4, 3: 2, 4: 1}[rank]), min_size=rank, max_size=rank))
        if rank == 3:
            spans[-1] = min(spans[-1], 1)  # at most 18 points for the Python oracle
        pts = list(product(*(range(s + 1) for s in spans)))
    elif kind == "congruence":
        n = draw(st.integers(1, 5))
        offset = draw(st.lists(st.integers(0, n - 1), min_size=rank, max_size=rank))
        cells = product(range(draw(st.integers(1, 5 if rank == 2 else 2))), repeat=rank)
        pts = [tuple(o + n * c for o, c in zip(offset, cell)) for cell in cells]
    elif kind == "random":
        coord = st.integers(-6, 6)
        pts = draw(st.lists(st.tuples(*[coord] * rank), min_size=rank + 1, max_size={2: 20, 3: 12, 4: 10}[rank]))
    else:
        # integer combinations of rank-1 directions: a line, a plane or a 3-space
        dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=rank - 1, max_size=rank - 1))
        coeffs = product(range(-2, 3) if rank < 4 else range(-1, 1), repeat=rank - 1)
        pts = [tuple(sum(c * v[k] for c, v in zip(cs, dirs)) for k in range(rank)) for cs in coeffs]
    shift = draw(st.sampled_from([0, 7, -(10**6)]))
    return rank, sorted({tuple(x + shift for x in p) for p in pts})


@given(
    _scan_inputs(),
    st.sampled_from(["none", "below g", "g to U", "above U"]),
    st.integers(0, 10**6),
)
# caps that the first base alone leaves without a value, or with values whose
# gcd is 2 while the spectrum's is 1: the gcd must count values above the cap
@example((2, [(0, 3), (0, 6), (3, 3), (4, 6), (5, 3), (6, 0), (6, 1)]), "g to U", 0)
@example((2, [(0, 0), (0, 3), (2, 0), (2, 5), (4, 0), (5, 4), (6, 1)]), "g to U", 6)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_early_stopped_spectrum_matches_the_python_path(case, where, pick):
    rank, pts = case
    spectrum = kernels._distinct_py(pts, rank, None)
    g, top = gcd(*spectrum), kernels._simplex_bound(kernels._spreads(pts), rank)
    cap = {
        "none": None,
        "below g": pick % max(g, 1),
        "g to U": max(g, 1) + pick % max(top - g + 1, 1),
        "above U": top + 1 + pick % 50,
    }[where]
    want = {v for v in spectrum if cap is None or v <= cap}
    with pytest.MonkeyPatch.context() as m:
        m.setenv("LATSPEC_KERNELS", "numpy")
        m.setattr(kernels, "_distinct_py", _refuse)
        assert kernels.distinct_abs_dets(pts, rank, cap) == want


@pytest.mark.parametrize(
    "rank, boxes",
    [
        pytest.param(2, [(1, 1), (4, 2), (3, 1)], id="2"),
        pytest.param(3, [(1, 1, 1), (4, 2, 1), (3, 1, 2)], id="3"),
        pytest.param(4, [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2)], id="4"),
        pytest.param(5, [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1)], id="5"),
    ],
)
def test_simplex_bound_covers_every_det_and_is_met_on_full_boxes(rank, boxes):
    for seed in range(6):
        pts = _random_points(70 + seed, {2: 16, 3: 10, 4: 9, 5: 8}[rank], rank, 5)
        assert kernels._simplex_bound(kernels._spreads(pts), rank) >= max(kernels._distinct_py(pts, rank, None))
    # U = h(r) * prod(spans): h(r) is met by a simplex on the box's corners
    for spans in boxes:
        box = list(product(*(range(-1, s) for s in spans)))
        bound = kernels._simplex_bound(kernels._spreads(box), rank)
        assert bound == max(kernels.distinct_abs_dets(box, rank)) == {2: 1, 3: 2, 4: 3, 5: 5}[rank] * prod(spans)


def test_h_is_the_largest_determinant_of_a_01_matrix():
    # every r x r 0/1 matrix for r <= 4 (65536 at r = 4); float determinants
    # of such small integer matrices round to the exact value
    for r in range(1, 5):
        mats = np.array(list(product((0, 1), repeat=r * r)), dtype=float).reshape(-1, r, r)
        assert kernels._H[r - 1] == int(np.rint(np.abs(np.linalg.det(mats))).max())
    # past the table, Hadamard's bound is at least h(10) = 320
    assert kernels._simplex_bound([1] * 10, 10) >= 320


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_first_base_gcd_is_the_spectrum_gcd(rank):
    # sheared and scaled random sets, so the gcd is seldom 1
    shears = ([[2, 1], [0, 3]], [[1, 0, 2], [0, 2, 1], [0, 0, 3]], [[1, 0, 2, 1], [0, 2, 1, 0], [0, 0, 3, 1], [0, 0, 0, 1]])
    shear = np.array(shears[rank - 2])
    for seed in range(8):
        raw = _random_points(90 + seed, {2: 9, 3: 7, 4: 7}[rank], rank, 3)
        pts = sorted(tuple(int(x) for x in shear @ p * (1 + seed % 3)) for p in raw)
        first = kernels._base(kernels._int64_points(pts), rank, 0)
        base_gcd = gcd(*(int(np.gcd.reduce(m, axis=None)) for _, m in first))
        assert base_gcd == gcd(*kernels._distinct_py(pts, rank, None)) > 0


def test_dense_windows_stop_after_two_bases(monkeypatch):
    # the 15 x 15 grid and the modulus-11 congruence set with 15 points per
    # axis: every multiple of g up to U appears within the first two bases
    visited = []
    base = kernels._base

    def counting(pts, rank, i):
        visited.append(i)
        return base(pts, rank, i)

    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "_base", counting)
    grid = [(x, y) for x in range(-7, 8) for y in range(-7, 8)]
    congruence = [(3 + 11 * a - 82, 5 + 11 * b - 82) for a in range(15) for b in range(15)]
    for pts, g in ((grid, 1), (congruence, 121)):
        visited.clear()
        assert kernels.distinct_abs_dets(pts, 2) == {g * k for k in range(1, 197)}
        assert len(pts) == 225 and visited in ([0], [0, 1])


def test_rank3_table_sized_by_the_simplex_bound_stays_on_int64(monkeypatch):
    # |coord| <= 200: the spread bound 3! * spread^3 exceeds TABLE_LIMIT, the
    # simplex bound 2 * prod(spreads) does not
    pts = _random_points(77, 16, 3, 200)
    spreads = kernels._spreads(pts)
    assert kernels.det_bound((max(spreads) + 1) // 2, 3) > kernels.TABLE_LIMIT
    assert kernels._simplex_bound(spreads, 3) <= kernels.TABLE_LIMIT
    want = kernels._distinct_py(pts, 3, None)
    monkeypatch.setenv("LATSPEC_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "_distinct_py", _refuse)
    assert kernels.distinct_abs_dets(pts, 3) == want
