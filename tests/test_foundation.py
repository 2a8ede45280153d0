"""Foundation layer: canonical split, phased scalars."""
import cmath
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbicurve import foundation
from orbicurve.foundation import (
    PhasedScalar,
    canonical_split,
)


def all_valid_splits(l, a, b):
    """Independent oracle: every factor pair of l meeting the gcd constraints."""
    out = []
    for l1 in range(1, l + 1):
        if l % l1 == 0:
            l2 = l // l1
            if gcd(l1, l2) == 1 and gcd(l1, b) == 1 and gcd(l2, a) == 1:
                out.append((l1, l2))
    return out


def test_canonical_split_trivial():
    assert canonical_split(1, 5, 7) == (1, 1)


def test_canonical_split_unique_case():
    # (2,2,3): the oracle shows (2,1) is the only admissible factor pair
    assert all_valid_splits(2, 2, 3) == [(2, 1)]
    assert canonical_split(2, 2, 3) == (2, 1)


def test_canonical_split_routes_primes():
    # 2 | a forces 2 into l1, 3 | b forces 3 into l2
    assert canonical_split(6, 2, 3) == (2, 3)
    assert (2, 3) in all_valid_splits(6, 2, 3)


def test_canonical_split_always_admissible():
    for l in range(1, 13):
        for a in range(1, 8):
            for b in range(1, 8):
                if gcd(a, b) != 1:
                    continue
                l1, l2 = canonical_split(l, a, b)
                assert (l1, l2) in all_valid_splits(l, a, b)


def test_canonical_split_matches_factorization():
    # reference: route each prime power of l by whether its prime divides b
    for l in range(1, 200):
        primes = foundation.factorize(l)
        for a in range(1, 30):
            for b in range(1, 30):
                if gcd(a, b) != 1:
                    continue
                l2 = 1
                for p, e in primes.items():
                    if b % p == 0:
                        l2 *= p**e
                assert canonical_split(l, a, b) == (l // l2, l2), (l, a, b)


def test_canonical_split_rejects_common_factor():
    with pytest.raises(ValueError, match=r"gcd\(a,b\)=1"):
        canonical_split(2, 2, 4)


def test_rational_arithmetic_exact():
    # (a/b + c/d) * (b*d) == a*d + c*b on an enumerated grid
    for a in range(-4, 5):
        for b in range(1, 5):
            for c in range(-4, 5):
                for d in range(1, 5):
                    assert (F(a, b) + F(c, d)) * (b * d) == a * d + c * b


def test_canonical_split_check_raises_under_python_O():
    # the admissibility check must not be an assertion: python -O would strip it
    script = textwrap.dedent(
        """
        import sys
        from orbicurve import foundation

        if not sys.flags.optimize:
            sys.exit(2)
        # a gcd that answers 1 the first time the true answer is not 1: the
        # split then keeps the factor 3 of l in l1, although 3 divides b
        true_gcd = foundation.gcd
        lied = []

        def lying_gcd(x, y):
            g = true_gcd(x, y)
            if g > 1 and not lied:
                lied.append(g)
                return 1
            return g

        foundation.gcd = lying_gcd
        try:
            foundation.canonical_split(6, 2, 3)
        except foundation.InternalInconsistency as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(pathlib.Path(foundation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "inadmissible" in proc.stdout


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
phased = st.builds(
    lambda pairs: PhasedScalar({e: c for e, c in pairs}),
    st.lists(st.tuples(rationals, rationals), max_size=4),
)


@given(phased, phased, phased)
def test_phased_scalar_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + PhasedScalar() == x
    assert x * PhasedScalar.from_rational(1) == x
    assert (x - x).is_zero()


@pytest.mark.parametrize(
    "make", [foundation.as_rational, PhasedScalar.from_rational], ids=["as_rational", "from_rational"]
)
def test_a_bool_is_not_a_rational(make):
    with pytest.raises(TypeError, match="^not an exact rational: True$"):
        make(True)


def test_a_phased_scalar_never_equals_a_bool():
    one = PhasedScalar.from_rational(1)
    assert one == 1 and (one == True) is False


def test_phased_scalar_folds_half_turn():
    # e^{i*pi} is -1: exponent-1 terms fold onto the rational part
    assert PhasedScalar.root(1, 1) == PhasedScalar.from_rational(-1)
    assert PhasedScalar.root(3, 2) == -PhasedScalar.root(1, 2)
    i = PhasedScalar.root(1, 2)
    assert i * i == PhasedScalar.from_rational(-1)


def test_root_is_the_phase_of_k_over_n_at_the_reduced_conductor():
    for n in range(1, 13):
        for k in range(-3 * n, 3 * n + 1):
            for c in (0, 1, -2, F(3, 4), F(-5, 6)):
                got = PhasedScalar.root(k, n, c)
                want = PhasedScalar({F(k, n): c})  # the reduced fraction
                assert (got._n, got._num, got._den) == (want._n, want._num, want._den)
                assert got._n == n // gcd(k, n) and str(got) == str(want)
                # e^{i*pi*k/n} with k/n folded into [0, 1) by a sign
                e, sign = (F(k, n) % 2, 1) if F(k, n) % 2 < 1 else (F(k, n) % 2 - 1, -1)
                assert got.terms == ({e: sign * F(c)} if c else {})
    assert PhasedScalar.root(4, 6) == PhasedScalar({F(2, 3): 1}) and PhasedScalar.root(0, 5, 7) == 7
    # the group law of the roots: exponents add mod 2, and e^{i*pi*k/n} has order dividing 2n
    for n in (1, 2, 3, 4, 6):
        for k in range(-2 * n, 2 * n):
            z, power = PhasedScalar.root(k, n), PhasedScalar.from_rational(1)
            assert z * PhasedScalar.root(-k, n) == 1 and z * PhasedScalar.root(1, n) == PhasedScalar.root(k + 1, n)
            for _ in range(2 * n):
                power = power * z
            assert power == 1


def test_phased_scalar_rational_specialization():
    x = PhasedScalar({F(0): F(3, 2)})
    assert x.is_rational() and x.to_rational() == F(3, 2)
    y = PhasedScalar.root(1, 3)
    assert not y.is_rational()
    with pytest.raises(ValueError):
        y.to_rational()


def test_phased_scalar_drops_zero_terms():
    x = PhasedScalar({F(1, 2): F(1)}) + PhasedScalar({F(1, 2): F(-1)})
    assert x.is_zero() and x.terms == {}


def zeta(e) -> PhasedScalar:
    return PhasedScalar({F(e): 1})


def test_cube_roots_of_unity_sum_to_zero():
    w = zeta(F(2, 3))
    x = 1 + w + w * w
    assert x.terms != {}  # the group-ring form keeps three terms...
    assert x.is_zero() and x == 0 and x == PhasedScalar()  # ...of a zero number
    assert x.is_rational() and x.to_rational() == 0


def test_conjugate_phases_add_to_a_rational():
    x = zeta(F(1, 3)) + zeta(F(-1, 3))
    assert x == 1 and x == F(1) and PhasedScalar.from_rational(1) == x
    assert x.is_rational() and x.to_rational() == 1
    y = zeta(F(1, 3)) - zeta(F(2, 3))
    assert y.is_rational() and y.to_rational() == 1
    assert hash(x) == hash(y) == hash(PhasedScalar.from_rational(1)) == hash(F(1))
    # i + i^{-1} = 0, but i - i^{-1} = 2i is not rational
    assert zeta(F(1, 2)) + zeta(F(-1, 2)) == 0
    assert not (zeta(F(1, 2)) - zeta(F(-1, 2))).is_rational()


@settings(deadline=None)
@given(phased, st.integers(2, 12), rationals)
def test_adding_a_vanishing_sum_leaves_the_value(x, m, c):
    # sum_{k < m} zeta_m^k = 0 for every m > 1, with zeta_m = e^{2*pi*i/m}
    vanishing = sum((zeta(F(2 * k, m)) * c for k in range(m)), PhasedScalar())
    assert vanishing.is_zero()
    y = x + vanishing
    assert y == x and x == y and not (y != x)
    assert hash(y) == hash(x)
    assert y.is_rational() == x.is_rational()
    if x.is_rational():
        assert y.to_rational() == x.to_rational()


@settings(deadline=None)
@given(phased, phased)
def test_equal_values_have_equal_hashes(x, y):
    # x * y, y * x and x * y + (x - x) * y are one value in three representations
    z = x * y + (x - x) * y + zeta(F(1, 5)) * (1 + zeta(F(2, 5)) + zeta(F(4, 5)) + zeta(F(6, 5)) + zeta(F(8, 5)))
    assert z == y * x
    assert hash(z) == hash(y * x) == hash(x * y)


def complex_value(x: PhasedScalar, j: int = 1) -> complex:
    """The value of x, or with j coprime to the order of its phases, the value
    of its Galois conjugate e^{i*pi*e} -> e^{i*pi*e*j}."""
    return sum(complex(c) * cmath.exp(1j * cmath.pi * e * j) for e, c in x.terms.items())


# exponents of order dividing 24 and integer coefficients: a nonzero value is
# then an algebraic integer of absolute norm >= 1, so far from 0 in C.
small_exponents = st.sampled_from(sorted({F(k, d) for d in (1, 2, 3, 4, 6, 8, 12) for k in range(2 * d)}))
small_phased = st.builds(
    lambda pairs: PhasedScalar(dict(pairs)),
    st.lists(st.tuples(small_exponents, st.integers(-2, 2)), max_size=6),
)


# c * e^{i*pi*a} * (sum of the p-th roots of unity): a zero of the form of 1 + w + w^2
zero_sums = st.builds(
    lambda c, a, p: zeta(a) * c * sum(zeta(F(2 * k, p)) for k in range(p)),
    st.integers(-2, 2),
    small_exponents,
    st.sampled_from([2, 3, 4, 6]),
)


@settings(deadline=None, max_examples=300)
@given(small_phased, zero_sums, st.one_of(st.just(PhasedScalar()), small_phased))
def test_equality_agrees_with_complex_evaluation(x, zero, noise):
    y = x + zero + noise
    assert (x == y) == (abs(complex_value(x) - complex_value(y)) < 1e-9)
    d = x - y
    assert d.is_zero() == (abs(complex_value(d)) < 1e-9)
    # rational iff fixed by the Galois group of Q(zeta_24)
    conjugates = [complex_value(d, j) for j in range(1, 24) if gcd(j, 24) == 1]
    assert d.is_rational() == all(abs(v - conjugates[0]) < 1e-9 for v in conjugates)
    if d.is_rational():
        assert abs(float(d.to_rational()) - complex_value(d).real) < 1e-9


def cyclotomic(m: int) -> list[int]:
    """Phi_m, constant term first: x^m - 1 divided by Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rest = divmod_monic(poly, cyclotomic(d))
            assert not any(rest)
    return poly


def divmod_monic(num: list, den: list) -> tuple[list, list]:
    num, d = list(num), len(den) - 1
    quot = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        quot[i - d] = c = num[i]
        for j, b in enumerate(den):
            num[i - d + j] -= c * b
    return quot, num[:d]


def test_cyclotomic_oracle():
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for m in range(1, 61):
        phi = cyclotomic(m)
        assert len(phi) - 1 == sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert phi[-1] == 1
        primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]
        # Phi_m(1) is 0 for m = 1, p for a power of the prime p, and 1 otherwise
        assert sum(phi) == (0 if m == 1 else primes[0] if len(primes) == 1 else 1)
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                product = poly_mul(product, cyclotomic(d))
        assert product == [-1] + [0] * (m - 1) + [1]


@settings(deadline=None, max_examples=300)
@given(small_phased, zero_sums, st.one_of(st.just(PhasedScalar()), small_phased))
def test_is_zero_agrees_with_reduction_modulo_the_cyclotomic_polynomial(x, zero, noise):
    # sum_e c_e e^{i*pi*e} = P(z) for z = e^{2*pi*i/N}: zero iff Phi_N divides P
    d = x + zero + noise
    n = 1
    for e in d.terms:
        n = n * e.denominator // gcd(n, e.denominator)
    poly = [0] * (2 * n)
    for e, c in d.terms.items():
        poly[int(e * n)] = c
    assert d.is_zero() == (not any(divmod_monic(poly, cyclotomic(2 * n))[1]))


def test_zero_test_cost_does_not_grow_with_the_conductor():
    # conductors 27720 and 27720 * 13: the zero test works on the few terms, not on a polynomial of that degree
    big = zeta(F(1, 27720)) * 3 + zeta(F(7, 13860))
    for p in (5, 13):
        vanishing = sum((zeta(F(2 * k, p)) for k in range(p)), PhasedScalar())
        assert (big * vanishing).is_zero()
        assert big * vanishing * zeta(F(1, 3)) + big == big
        assert big + vanishing * zeta(F(1, 27720)) != big + zeta(F(1, 27720))


def test_printed_form_is_unchanged():
    # strings of the group-ring PhasedScalar, so CLI reports keep their bytes
    assert str(PhasedScalar()) == "0"
    assert str(PhasedScalar.from_rational(F(-3, 2))) == "-3/2"
    assert str(PhasedScalar.root(1, 3, F(2))) == "2*e^{i*pi*1/3}"
    assert str(PhasedScalar({0: 1, F(5, 6): F(-2, 3), F(1, 4): 3})) == "1 + 3*e^{i*pi*1/4} + -2/3*e^{i*pi*5/6}"
    assert str(PhasedScalar({F(7, 4): F(1, 2)})) == "-1/2*e^{i*pi*3/4}"
    assert str((zeta(F(1, 3)) + 1) * zeta(F(5, 6))) == "-1*e^{i*pi*1/6} + 1*e^{i*pi*5/6}"
    w = zeta(F(2, 3))
    assert str(w * w + w + 1) == "1 + -1*e^{i*pi*1/3} + 1*e^{i*pi*2/3}"


# A group-ring reference with Fraction coefficients: {exponent in [0, 1): nonzero Fraction},
# an exponent in [1, 2) folded to exponent - 1 with the coefficient negated.
def ref_term(e: F, c: F) -> dict:
    e %= 2
    if e >= 1:
        e, c = e - 1, -c
    return {e: c} if c else {}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = ref_add(out, ref_term(e1 + e2, c1 * c2))
    return out


def ref_str(a: dict) -> str:
    bits = [str(c) if e == 0 else f"{c}*e^{{i*pi*{e}}}" for e, c in sorted(a.items())]
    return " + ".join(bits) or "0"


def ref_trace(a: dict) -> F:
    """Normalized trace: mu(m)/phi(m) for each term, m the order of its phase."""
    out = F(0)
    for e, c in a.items():
        m = (e / 2).denominator
        primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
        phi = m
        for p in primes:
            phi = phi // p * (p - 1)
        squarefree = all(m % (p * p) for p in primes)
        out += c * F((-1) ** len(primes) if squarefree else 0, phi)
    return out


mixed_exponents = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
mixed_pairs = st.lists(st.tuples(mixed_exponents, rationals), max_size=4)


def both(pairs) -> tuple[PhasedScalar, dict]:
    terms, ref = dict(pairs), {}
    for e, c in terms.items():
        ref = ref_add(ref, ref_term(e, c))
    return PhasedScalar(terms), ref


def assert_matches(x: PhasedScalar, ref: dict):
    assert x.terms == ref
    assert str(x) == ref_str(ref)
    # the stored form: int numerators over one positive int denominator, reduced
    num, den = x._num, x._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 and 0 <= k < x._n for k, c in num.items())
    assert gcd(den, *num.values()) == 1
    if ref.keys() <= {0}:
        assert x.is_rational() and x.to_rational() == ref.get(0, 0)
    if x.is_rational():
        assert x.to_rational() == ref_trace(ref)


@settings(deadline=None, max_examples=300)
@given(mixed_pairs, mixed_pairs, mixed_pairs)
def test_integer_form_matches_the_fraction_map_reference(p, q, r):
    (x, rx), (y, ry), (z, rz) = both(p), both(q), both(r)
    conjugates = zeta(F(1, 3)) + zeta(F(-1, 3))  # the rational 1 in two terms
    cases = [
        (x, rx),
        (-x, {e: -c for e, c in rx.items()}),
        (x + y, ref_add(rx, ry)),
        (x - y, ref_add(rx, {e: -c for e, c in ry.items()})),
        (x * y, ref_mul(rx, ry)),
        ((x + y) * z, ref_mul(ref_add(rx, ry), rz)),
        (x + y - y, rx),
        (x * y - y * x, {}),
        (x * conjugates, ref_mul(rx, {F(1, 3): F(1), F(2, 3): F(-1)})),
        (conjugates * 3 + x - x, {F(1, 3): F(3), F(2, 3): F(-3)}),
    ]
    for got, ref in cases:
        assert_matches(got, ref)
    assert (x == y) == (x - y).is_zero()
    if rx == ry:
        assert x == y


def test_equal_values_by_different_routes_share_the_stored_form(monkeypatch):
    half, third = F(1, 2), F(1, 3)
    three = [
        (PhasedScalar.from_rational(half) * 2, PhasedScalar.from_rational(1)),
        (PhasedScalar({third: F(2, 4)}), PhasedScalar.root(1, 3, half)),
        (PhasedScalar({0: half, third: F(3, 6), F(5, 4): F(-4, 8)}), PhasedScalar({0: 1, third: 1, F(1, 4): 1}) * half),
    ]
    pairs = three + [(x * PhasedScalar.root(1, 5), y * PhasedScalar.root(11, 5)) for x, y in three]
    hashes = [(hash(x), hash(y)) for x, y in pairs]
    # equal numerators over different denominators are different values
    assert PhasedScalar({third: half}) != PhasedScalar({third: third})

    # a difference of equal maps is empty and never reaches `_vanishes`, so the
    # subtraction is refused too: == must answer from the stored forms alone
    def refuse(*args):
        raise AssertionError("the equal-map fast path was not taken")

    monkeypatch.setattr(foundation, "_vanishes", refuse)
    monkeypatch.setattr(PhasedScalar, "__sub__", refuse)
    for (x, y), (hx, hy) in zip(pairs, hashes):
        assert (x._n, x._num, x._den) == (y._n, y._num, y._den)
        assert x == y and hx == hy
