"""Foundation layer: canonical split, phases, phased scalars."""
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from orbicurve import foundation
from orbicurve.foundation import (
    PHASE_MINUS_ONE,
    PHASE_ONE,
    Phase,
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
        foundation.factorize = lambda n: {2: 1}
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


def test_phase_pow_examples():
    assert Phase(F(1)).pow(2) == Phase(F(0))
    assert Phase(F(1, 2)).pow(3) == Phase(F(3, 2))
    assert Phase(F(0)).pow(17) == Phase(F(0))


def test_is_sign():
    assert Phase(F(0)).is_sign() == 1
    assert Phase(F(1)).is_sign() == -1
    assert Phase(F(1, 2)).is_sign() is None


def test_phase_group_law():
    fracs = [F(0), F(1), F(1, 2), F(2, 3), F(5, 4), F(7, 6)]
    for x in fracs:
        p = Phase(x)
        assert p * PHASE_ONE == p
        for y in fracs:
            q = Phase(y)
            assert p * q == q * p
            for z in fracs:
                r = Phase(z)
                assert (p * q) * r == p * (q * r)
        # order divides 2 * denominator
        assert p.pow(2 * x.denominator) == PHASE_ONE
        assert p * p.inverse() == PHASE_ONE


def test_phase_exponent_normalized():
    assert Phase(F(7, 2)).exponent == F(3, 2)
    assert Phase(F(-1, 2)).exponent == F(3, 2)
    assert 0 <= Phase(F(-13, 6)).exponent < 2


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


def test_phased_scalar_folds_half_turn():
    # e^{i*pi} is -1: exponent-1 terms fold onto the rational part
    assert PhasedScalar.from_phase(PHASE_MINUS_ONE) == PhasedScalar.from_rational(-1)
    assert PhasedScalar.from_phase(Phase(F(3, 2))) == -PhasedScalar.from_phase(Phase(F(1, 2)))
    i = PhasedScalar.from_phase(Phase(F(1, 2)))
    assert i * i == PhasedScalar.from_rational(-1)


def test_phased_scalar_rational_specialization():
    x = PhasedScalar({F(0): F(3, 2)})
    assert x.is_rational() and x.to_rational() == F(3, 2)
    y = PhasedScalar.from_phase(Phase(F(1, 3)))
    assert not y.is_rational()
    with pytest.raises(ValueError):
        y.to_rational()


def test_phased_scalar_drops_zero_terms():
    x = PhasedScalar({F(1, 2): F(1)}) + PhasedScalar({F(1, 2): F(-1)})
    assert x.is_zero() and x.terms == {}
