"""Certified intervals, formal reals and exact root-of-unity arithmetic."""

import hashlib
import random
from dataclasses import astuple
from fractions import Fraction
from math import cos, gcd, pi, sin

import numpy as np
import pytest

from _cyclotomic import cyclotomic_polynomial, reduction_matrix, root_values
from _fleet import random_fleet
from _reference import birkhoff_annihilator_average
from latspec.cyclotomic import _cos_grid, enclose_real_root_grid, ramanujan_sums, totient
from latspec.formal import FormalReal
from latspec.intervals import (
    GRID_BITS,
    PI,
    Weight,
    _sin_taylor_grid,
    cospi,
    round_out,
    sinpi,
    sinpi_grid,
    sinpi_sq_exact,
)
from latspec.spectral import annihilator_mass, expansion_bound_check, shrink_rational_spectrum, spectral_measure
from latspec.systems import orbit_saturation


def test_pi_bounds():
    # classic sandwich 333/106 < pi < 355/113 must strictly contain our bounds
    assert Fraction(333, 106) < PI.lower < PI.upper < Fraction(355, 113)
    assert abs(float(PI.lower) - pi) < 1e-15
    assert float(PI.upper - PI.lower) < 1e-49


@pytest.mark.parametrize("q", [Fraction(1, 12), Fraction(1, 7), Fraction(2, 5), Fraction(9, 8), Fraction(-1, 3), Fraction(13, 6)])
def test_sinpi_matches_float(q):
    iv = sinpi(q)
    ref = sin(pi * float(q))
    assert iv.lower - Fraction(1, 10**12) <= Fraction(ref) <= iv.upper + Fraction(1, 10**12)
    assert float(iv.upper - iv.lower) < 1e-20


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_sinpi_exact_points(q):
    iv = sinpi(q)
    assert iv.lower == iv.upper == Fraction(round(sin(pi * float(q))))


def test_cospi_matches_float():
    for q in (Fraction(1, 5), Fraction(3, 7), Fraction(5, 4)):
        iv = cospi(q)
        assert iv.lower <= Fraction(cos(pi * float(q))).limit_denominator(10**12) <= iv.upper or (
            iv.lower - Fraction(1, 10**10) <= Fraction(cos(pi * float(q))) <= iv.upper + Fraction(1, 10**10)
        )


def test_sinpi_sq_exact_table():
    assert sinpi_sq_exact(Fraction(0)) == 0
    assert sinpi_sq_exact(Fraction(1, 2)) == 1
    assert sinpi_sq_exact(Fraction(1, 6)) == Fraction(1, 4)
    assert sinpi_sq_exact(Fraction(1, 4)) == Fraction(1, 2)
    assert sinpi_sq_exact(Fraction(5, 6)) == Fraction(1, 4)
    assert sinpi_sq_exact(Fraction(1, 7)) is None


def test_interval_ops_outward():
    a = Weight(Fraction(1, 3), Fraction(1, 2), False)
    b = Weight(Fraction(-2), Fraction(3), False)
    prod = a * b
    assert prod.lower == -1 and prod.upper == Fraction(3, 2)
    assert (a - a).lower <= 0 <= (a - a).upper
    r = round_out(Weight(Fraction(1, 3), Fraction(1, 3), False))
    assert r.lower <= Fraction(1, 3) <= r.upper
    with pytest.raises(ZeroDivisionError):
        b.recip()
    assert b.square().lower == 0


def test_weight_refuses_ends_out_of_order():
    # an exact weight and an enclosure alike; this used to be accepted silently
    with pytest.raises(ValueError, match="out of order"):
        Weight(Fraction(2), Fraction(1), False)
    with pytest.raises(ValueError, match="out of order"):
        Weight(Fraction(2), Fraction(1), True)
    with pytest.raises(ValueError, match="out of order"):
        Weight.of(1).clamp(Fraction(2), Fraction(3))


def test_weight_arithmetic_is_exact_only_on_exact_operands():
    a, b = Weight.of(Fraction(1, 3)), Weight.of(-2)
    enclosure = Weight(Fraction(1, 4), Fraction(1, 2), False)
    exact_results = [a + b, a - b, -a, a * b, a.scale(-3), b.square(), b.recip(), a.clamp(Fraction(0), Fraction(1))]
    assert [w.exact for w in exact_results] == [True] * len(exact_results)
    assert [w.value for w in exact_results] == [
        Fraction(-5, 3), Fraction(7, 3), Fraction(-1, 3), Fraction(-2, 3), -1, 4, Fraction(-1, 2), Fraction(1, 3)
    ]
    mixed = [
        a + enclosure, enclosure + a, a - enclosure, enclosure - a, -enclosure, a * enclosure, enclosure * b,
        enclosure.scale(2), enclosure.square(), enclosure.recip(), enclosure.clamp(Fraction(0), Fraction(1)),
    ]
    assert not any(w.exact for w in mixed)
    # an enclosure stays one where its ends meet
    assert Weight(Fraction(1, 3), Fraction(1, 3), False) * Weight.of(1) == Weight(Fraction(1, 3), Fraction(1, 3), False)


def test_transcendental_results_are_enclosures_even_where_the_ends_meet():
    results = [round_out(Weight.of(Fraction(1, 2))), round_out(Weight.of(Fraction(1, 3))), PI, sinpi(0), sinpi(Fraction(1, 2)), cospi(0)]
    assert not any(w.exact for w in results)
    assert results[0].lower == results[0].upper == Fraction(1, 2)
    assert sinpi(0).lower == sinpi(0).upper == 0
    assert cospi(0).lower == cospi(0).upper == sinpi(Fraction(1, 2)).upper == 1
    for w in results:
        with pytest.raises(ValueError, match="not an exact value"):
            w.value


def _sin_taylor_reference(x: Weight, terms: int = 14) -> Weight:
    """The series on Weight / Fraction arithmetic, term by term."""
    xsq = round_out(x.square())
    term = x
    total = x
    sign = -1
    fact_arg = 1
    for _ in range(terms):
        fact_arg += 2
        term = round_out(term * xsq).scale(Fraction(1, (fact_arg - 1) * fact_arg))
        total = total + term.scale(sign)
        sign = -sign
    fact_arg += 2
    err = round_out(term * xsq).scale(Fraction(1, (fact_arg - 1) * fact_arg))
    bound = max(abs(err.lower), abs(err.upper))
    out = Weight(total.lower - bound, total.upper + bound, False)
    return round_out(out.clamp(Fraction(0), Fraction(1)))


def _sin_taylor_iv(x: Weight, terms: int = 14) -> Weight:
    """``_sin_taylor_grid`` on the ends of x, read as an interval."""
    lo, hi = _sin_taylor_grid(x.lower.numerator, x.lower.denominator, x.upper.numerator, x.upper.denominator, terms)
    return Weight(Fraction(lo, 1 << GRID_BITS), Fraction(hi, 1 << GRID_BITS), False)


def test_integer_sin_taylor_equals_fraction_series():
    angles = [
        Fraction(k, n) for n in range(3, 121) for k in range(1, (n + 1) // 2) if gcd(k, n) == 1
    ]
    assert len(angles) > 2000
    for q in angles:
        x = PI.scale(q)
        assert _sin_taylor_iv(x) == _sin_taylor_reference(x), q
    # other series lengths, including none: only the error term
    for terms in (0, 1, 5):
        x = PI.scale(Fraction(3, 7))
        assert _sin_taylor_iv(x, terms) == _sin_taylor_reference(x, terms)


def _sin_from_grid(k: int, n: int) -> Weight:
    """sin(pi k / n) as the Weight of the ``sinpi_grid`` numerators, brought to
    the first quadrant on the unreduced k / n."""
    k %= 2 * n
    lo, hi = sinpi_grid(min(k % n, n - k % n), n)
    if k > n:
        lo, hi = -hi, -lo
    return Weight(Fraction(lo, 1 << GRID_BITS), Fraction(hi, 1 << GRID_BITS), False)


def test_sinpi_and_cospi_are_the_grid_enclosures():
    # every first-quadrant angle k / n with n < 400 (cospi reads the same
    # route through q + 1/2), then every quadrant for small n, and
    # denominators up to 10**12
    for n in range(1, 400):
        for k in range(n // 2 + 1):
            if gcd(k, n) == 1:
                assert sinpi(Fraction(k, n)) == _sin_from_grid(k, n), (k, n)
    rng = random.Random(19)
    cases = [(k, n) for n in range(1, 25) for k in range(-3 * n, 5 * n)]
    cases += [(rng.randrange(-3 * n, 3 * n), n) for n in (rng.randint(1, 10**12) for _ in range(300))]
    for k, n in cases:
        q = Fraction(k, n)
        assert sinpi(q) == _sin_from_grid(k, n), q
        assert cospi(q) == _sin_from_grid(2 * k + n, 2 * n), q


# ---------------------------------------------------------------------------
# cyclotomic

def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _polydiv_exact(num, den):
    """Quotient of num by monic den over Z; raises if the division is inexact."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _cyclotomic_polynomials_reference(ns):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d, by long division."""
    memo = {}

    def phi(n):
        if n not in memo:
            poly = [-1] + [0] * (n - 1) + [1]
            for d in range(1, n):
                if n % d == 0:
                    poly = _polydiv_exact(poly, phi(d))
            memo[n] = tuple(poly)
        return memo[n]

    return {n: phi(n) for n in ns}


def test_cyclotomic_polynomials_equal_the_division_reference():
    ns = [*range(1, 401), 1155, 2310]
    for n, poly in _cyclotomic_polynomials_reference(ns).items():
        assert cyclotomic_polynomial(n) == poly, n
    # the division reference takes 0.3-0.7 s for each of these; pinned by
    # the SHA-256 of their coefficients as the reference gave them
    pinned = {
        3003: "6e258a24e84f9f304f394462e3c7b531c1674510bc816b3541711ce3f14d5f64",
        4095: "37efb3a5cecbb411a86a23679de7061b67bae8348f1edec317a3ee784d209712",
        4472: "7b7e58141088b4e9bff96cfbda88e768acad0655d41c33921d8dbdf688fab79a",
    }
    for n, digest in pinned.items():
        coeffs = ",".join(map(str, cyclotomic_polynomial(n)))
        assert hashlib.sha256(coeffs.encode()).hexdigest() == digest, n


def _reduction_rows_reference(n):
    """The Python-tuple recurrence the reduction rows were first built by."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    for k in range(min(n, deg)):
        rows.append(tuple(1 if i == k else 0 for i in range(deg)))
    cur = list(rows[-1]) if rows else []
    for _ in range(deg, n):
        carry = cur[deg - 1]
        nxt = [0] + cur[: deg - 1]
        if carry:
            for i in range(deg):
                nxt[i] -= carry * phi[i]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


def test_reduction_rows_match_the_tuple_recurrence():
    for n in [*range(1, 301), 1001, 1155, 2310]:
        red = reduction_matrix(n)
        assert red.tolist() == [list(row) for row in _reduction_rows_reference(n)]
        assert red.dtype == np.int64 and not red.flags.writeable


def _trace_values(rows):
    """The value of each row by the trace test: an integer, or None where irrational."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    sums, rational = ramanujan_sums(rows)
    phi = totient(rows.shape[1])
    return [tr // phi if ok else None for tr, ok in zip(sums[:, 0].tolist(), rational)]


def test_sum_of_all_roots_is_zero():
    for n in (2, 3, 4, 5, 6, 8, 12, 30):
        assert _trace_values(np.ones(n, dtype=np.int64)) == root_values(n, np.ones(n, dtype=np.int64)) == [0]


def test_root_vector_value_checks():
    rows = np.array(
        [
            [1, 0, 1, 0],  # 1 + z^2 = 0 for z = i
            [0, 1, 0, 1],  # z + z^3 = i + (-i) = 0
            [3, 0, 0, 0],  # a constant is its own value
            [2, 1, 1, 1],  # 1 + (1 + z + z^2 + z^3) = 1
        ]
    )
    assert _trace_values(rows) == root_values(4, rows) == [0, 0, 3, 1]
    # geometric identity: 1 + z + z^2 + z^3 + z^4 = 0 at n = 5, while
    # z + z^4 = 2 cos(2 pi / 5) is not rational
    rows = np.array([[1] * 5, [0, 1, 0, 0, 1]])
    assert _trace_values(rows) == root_values(5, rows) == [0, None]
    # at n = 8, z + z^7 = sqrt(2) is irrational and z^2 + z^6 = i - i = 0
    rows = np.array([[0, 1, 0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0, 1, 0]])
    assert _trace_values(rows) == root_values(8, rows) == [None, 0]


def _ramanujan_reference(d, rows):
    """R[:, e] = sum_j rows[:, j] c_d(j + e), each c_d(k) the value of the sum
    of z^(u k) over the units u mod d, decided by the reduction oracle."""
    units = np.array([u for u in range(1, d + 1) if gcd(u, d) == 1])
    c = [root_values(d, np.bincount(units * k % d, minlength=d))[0] for k in range(d)]
    return np.array([[sum(row[j] * c[(j + e) % d] for j in range(d)) for e in range(d)] for row in rows])


def test_trace_test_agrees_with_reduction_modulo_phi():
    rng = random.Random(17)
    for d in range(1, 61):
        hists = [[rng.randint(0, 3) * rng.randint(0, 1) for _ in range(d)] for _ in range(4)]
        hists.append([0] * (d - 1) + [2])
        # autocorrelation rows: the (a, b) with a - b = j, a histogram's own pairs
        rows = np.array([[sum(h[i] * h[(i + j) % d] for i in range(d)) for j in range(d)] for h in hists])
        sums, rational = ramanujan_sums(rows)
        assert np.array_equal(sums, _ramanujan_reference(d, rows)), d
        values = root_values(d, rows)
        assert rational == [v is not None for v in values], d
        assert _trace_values(rows) == values, d
    # every orbit of the fleet, with each character's own row moved by its unit
    for sys_, b in random_fleet(5, 25):
        t = spectral_measure(sys_, b)
        n = sys_.exponent
        for c in range(sys_.size):
            o = t.subgroups.subgroup_of[c]
            row = np.zeros(n, dtype=np.int64)
            row[t.subgroups.unit_of[c] * np.arange(n) % n] = t.rows[o]
            (value,) = root_values(n, row)
            assert t.rational[o] == (value is not None)
        for o in range(len(t.rows)):
            chars = np.flatnonzero(t.subgroups.subgroup_of == o)
            moved = t.subgroups.unit_of[chars, None] * np.arange(n) % n
            total = np.zeros(n, dtype=np.int64)
            np.add.at(total, moved, np.broadcast_to(t.rows[o], moved.shape))
            assert root_values(n, total) == [t.sums[o, 0]]


def _fractions(value):
    """The Fractions in a value of nested tuples, as ``astuple`` gives a dataclass."""
    if isinstance(value, tuple):
        for v in value:
            yield from _fractions(v)
    elif isinstance(value, Fraction):
        yield value


def test_exact_values_hold_python_integers():
    # a Fraction over a numpy integer multiplies and compares in int64, which
    # wraps with no more than a RuntimeWarning
    for sys_, b in random_fleet(19, 20):
        lam = (1,) + (0,) * (sys_.rank - 1)
        values = [
            sys_.measure(b),
            orbit_saturation(sys_, b, lam)[1],
            *_fractions(astuple(annihilator_mass(spectral_measure(sys_, b), lam))),
            *_fractions(astuple(expansion_bound_check(sys_, b, lam))),
            birkhoff_annihilator_average(sys_, b, lam, 5),
            shrink_rational_spectrum(sys_, b, Fraction(1, 10)).nu_b,
        ]
        assert len(values) == 10
        for q in values:
            assert type(q.numerator) is int and type(q.denominator) is int, (sys_.moduli, q)


def _enclosures(n, rows, den=1):
    """``enclose_real_root_grid`` read as intervals, one per row."""
    scale = 1 << GRID_BITS
    return [Weight(Fraction(lo, scale), Fraction(hi, scale), False) for lo, hi in zip(*enclose_real_root_grid(n, rows, den))]


def test_enclose_real_root_vector():
    # z + z^4 at n = 5 is the golden-ratio conjugate 2cos(72 deg)
    (iv,) = _enclosures(5, [[0, 1, 0, 0, 1]])
    assert _enclosures(5, np.zeros((0, 5))) == []
    ref = 2 * cos(2 * pi / 5)
    assert iv.lower <= Fraction(ref).limit_denominator(10**9) <= iv.upper or (
        float(iv.lower) - 1e-9 <= ref <= float(iv.upper) + 1e-9
    )


def test_cos_grid_lies_on_the_rounding_grid():
    scale = 1 << GRID_BITS
    for n in range(1, 257):
        los, his = _cos_grid(n)
        assert len(los) == len(his) == n
        for k, (lo, hi) in enumerate(zip(los, his)):
            iv = cospi(Fraction(2 * k, n))
            assert (Fraction(lo, scale), Fraction(hi, scale)) == (iv.lower, iv.upper), (n, k)
            assert lo <= hi


def _enclose_reference(n, vec, den=1):
    """One nonnegative root vector at a time: its Python dot products with
    the two ends of the cosine table."""
    los, his = _cos_grid(n)
    lo = sum(c * l for c, l in zip(vec, los)) // den
    hi = -(-sum(c * h for c, h in zip(vec, his)) // den)
    return Weight(Fraction(lo, 1 << GRID_BITS), Fraction(hi, 1 << GRID_BITS), False)


def _padded(n, vecs):
    return np.array([vec + [0] * (n - len(vec)) for vec in vecs], dtype=np.int64).reshape(len(vecs), n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 60, 120])
def test_enclose_real_root_vector_equals_term_by_term_sum(n):
    rng = random.Random(1000 + n)
    vecs = []
    for _ in range(6):
        size = rng.randint(1, n)
        vecs.append([rng.randint(0, 40) * rng.randint(0, 1) for _ in range(size)])
    ivs = _enclosures(n, _padded(n, vecs))
    assert len(ivs) == len(vecs)
    for vec, iv in zip(vecs, ivs):
        ref = Weight.of(0)
        for k, c in enumerate(vec):
            if c:
                ref = ref + cospi(Fraction(2 * k, n)).scale(c)
        assert iv == round_out(ref) == _enclose_reference(n, vec)
        value = sum(c * cos(2 * pi * k / n) for k, c in enumerate(vec))
        assert iv.lower - Fraction(1, 10**9) <= Fraction(value) <= iv.upper + Fraction(1, 10**9)
        assert float(iv.upper - iv.lower) < 1e-20
    with pytest.raises(ValueError):
        _enclosures(n, [[1] * (n + 1)])
    with pytest.raises(OverflowError):
        _enclosures(n, [[1 << 30] * 2 + [0] * (n - 2)] if n > 1 else [[1 << 31]])
    with pytest.raises(OverflowError):
        # two entries whose int64 total wraps negative
        _enclosures(n, [[1 << 62] * 2 + [0] * (n - 2)] if n > 1 else [[1 << 62]])


@pytest.mark.parametrize("n", [3, 5, 12, 60, 120])
def test_enclosure_divided_on_the_grid_equals_scaled_round_out(n):
    # the spectral atoms divide each enclosure by |A|^2 on the grid numerators;
    # the endpoints must be those of Weight.scale(1 / den) followed by round_out
    rng = random.Random(2000 + n)
    for den in (1, 2, 9, 144, 441**2, 3600**2, rng.randint(2, 10**9)):
        vecs = [[rng.randint(0, 50) * rng.randint(0, 1) for _ in range(rng.randint(1, n))] for _ in range(4)]
        got = _enclosures(n, _padded(n, vecs), den)
        for vec, iv in zip(vecs, got):
            ref = round_out(_enclose_reference(n, vec).scale(Fraction(1, den)))
            assert (iv.lower, iv.upper, iv.exact) == (ref.lower, ref.upper, ref.exact) == astuple(_enclose_reference(n, vec, den))
    with pytest.raises(ValueError):
        _enclosures(n, _padded(n, [[1]]), 0)


@pytest.mark.parametrize("n", [1, 5, 60])
def test_a_negative_root_row_is_refused(n):
    # a finite measure's rows are pair counts; a signed row has no caller
    rows = _padded(n, [[3] * n, [0] * (n - 1) + [-1]])
    with pytest.raises(ValueError, match="nonnegative"):
        enclose_real_root_grid(n, rows, 1)
    assert _enclosures(n, rows[:1]) == [_enclose_reference(n, [3] * n)]


# ---------------------------------------------------------------------------
# formal reals

def test_formal_real_basics():
    a = FormalReal.sym("alpha")
    x = a * 2 + Fraction(1, 3)
    assert not x.is_rational
    y = x - 2 * a
    assert y.is_rational and y.rational == Fraction(1, 3)
    assert (y * 3).is_integer
    assert FormalReal.of(5).is_integer
    assert not FormalReal.of(Fraction(1, 2)).is_integer


def test_formal_real_product_rules():
    a = FormalReal.sym("alpha")
    b = FormalReal.sym("beta")
    assert (a * 0).is_rational
    with pytest.raises(TypeError):
        _ = a * b


def test_formal_real_cancellation():
    a = FormalReal.sym("alpha")
    z = a + (-1 * a)
    assert z.is_rational and z.rational == 0
    assert z.terms == ()
