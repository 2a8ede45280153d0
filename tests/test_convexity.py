"""Semi-positivity, convexity, concavity, and the log-canonical certificate."""
import dataclasses

import pytest

from orbicurve import cohomology, convexity
from orbicurve.bundles import ChainBundle, EqLineBundle, SplitBundle
from orbicurve.convexity import (
    convexity_verdict,
    is_weakly_concave_on_dual,
    is_weakly_convex_on,
    is_weakly_semipositive,
    log_canonical_certificate,
)
from orbicurve.curves import X2, CurveChain, present
from orbicurve.foundation import InternalInconsistency
from orbicurve.suites import suite_weak_concavity, suite_weak_convexity

P1 = present(1, 1)
P12 = present(1, 2)


def split_on_p1(*degree_rows):
    chain = CurveChain(tuple(P1 for _ in degree_rows[0]))
    return SplitBundle(
        tuple(
            ChainBundle(chain, tuple(EqLineBundle(P1, 0, 0, d) for d in row))
            for row in degree_rows
        )
    )


def test_semipositive_examples():
    ok, witnesses = is_weakly_semipositive(split_on_p1([1], [0]))
    assert ok and witnesses == []
    ok, witnesses = is_weakly_semipositive(split_on_p1([-1]))
    assert not ok and witnesses == [(0, 0)]
    ok, witnesses = is_weakly_semipositive(split_on_p1([1, -1]))
    assert not ok and witnesses == [(0, 1)]


def test_convexity_examples():
    assert not is_weakly_convex_on(split_on_p1([-1]))
    single = CurveChain((P12,))
    B = SplitBundle((ChainBundle(single, (EqLineBundle(P12, 0, 0, 0),)),))
    assert is_weakly_convex_on(B)


def test_concavity_examples():
    assert is_weakly_concave_on_dual(split_on_p1([2]))
    assert is_weakly_concave_on_dual(split_on_p1([0]))


def test_verdict_consistency_on_samples():
    for rows in ([[0]], [[3]], [[-2]], [[1, 0], [0, 2]], [[-1, 2]], [[0, 0], [1, 1]]):
        verdict = convexity_verdict(split_on_p1(*rows))
        assert verdict.weakly_convex == verdict.weakly_concave_dual
        if verdict.weakly_semipositive:
            assert verdict.weakly_convex


def test_a_concavity_that_differs_from_convexity_raises(monkeypatch):
    concave = convexity.is_weakly_concave_on_dual
    monkeypatch.setattr(convexity, "is_weakly_concave_on_dual", lambda B: not concave(B))
    for rows in ([[0]], [[-2]], [[1, 0], [0, 2]]):
        with pytest.raises(InternalInconsistency, match=r"^convexity/concavity mismatch: "):
            convexity_verdict(split_on_p1(*rows))


def test_a_semipositive_bundle_that_is_not_convex_raises(monkeypatch):
    monkeypatch.setattr(convexity, "is_weakly_convex_on", lambda B: False)
    with pytest.raises(InternalInconsistency, match=r"^semi-positive bundle failed convexity: "):
        convexity_verdict(split_on_p1([1], [0]))
    # a bundle that is not semi-positive owes no convexity
    verdict = convexity_verdict(split_on_p1([-2]))
    assert not (verdict.weakly_semipositive or verdict.weakly_convex or verdict.weakly_concave_dual)


def test_a_log_canonical_bundle_with_cohomology_fails_the_certificate(monkeypatch):
    # h0 and h1 one higher on each trivial piece: Riemann-Roch still holds, so
    # only the certificate's own check sees it
    piece_data = convexity._piece_data

    def raised(L):
        num, den, ends = piece_data(L)
        if (L.k1, L.k2, L.d) == (0, 0, 0):
            ends = (ends[0] + 1, ends[1] + 1, *ends[2:])
        return num, den, ends

    monkeypatch.setattr(convexity, "_piece_data", raised)
    with pytest.raises(InternalInconsistency, match=r"^log canonical bundle not trivial on chain: h0=3, h1=2$"):
        log_canonical_certificate(CurveChain((P1, P1)))


def test_log_canonical_certificate_examples():
    cert = log_canonical_certificate(CurveChain((P1,)))
    assert (cert.h0_log_canonical, cert.h1_log_canonical) == (1, 0)
    cert = log_canonical_certificate(CurveChain((P1, P1, P1)))
    assert (cert.h0_log_canonical, cert.h1_log_canonical) == (1, 0)
    assert (cert.h0_omega_x2, cert.h1_omega_x2) == (0, 0)
    cert = log_canonical_certificate(CurveChain((present(4, 6),)))
    assert (cert.h0_log_canonical, cert.h1_log_canonical) == (1, 0)


def test_log_canonical_certificate_rejects_invalid_chain():
    with pytest.raises(ValueError):
        log_canonical_certificate(CurveChain((present(1, 2), present(3, 1))))


def test_a_fault_in_one_components_log_canonical_bundle_fails_the_certificate(monkeypatch):
    chain = CurveChain((P1, P12, present(2, 1)))
    assert log_canonical_certificate(chain).h0_log_canonical == 1
    twist = convexity.twist_marked

    def shifted(L, pt, sign):  # omega(x1+x2) of component 1 comes out one degree off
        M = twist(L, pt, sign)
        return dataclasses.replace(M, d=M.d + 1) if pt is X2 and M.comp is chain.components[1] else M

    monkeypatch.setattr(convexity, "twist_marked", shifted)
    with pytest.raises(InternalInconsistency, match=r"^component 1: omega\(x1\+x2\) = O\^\{0,0\}\(1\) on "):
        log_canonical_certificate(chain)


def test_the_certificate_reads_each_piece_once_through_piece_ends(monkeypatch):
    # omega(x1+x2) and omega(x2) differ only in their first piece, so the two
    # folds read n + 1 pieces' data, and a patch of `cohomology.piece_ends`
    # reaches both of them
    chain = CurveChain((P1, P12, present(2, 1)))
    seen = []
    ends = cohomology.piece_ends
    monkeypatch.setattr(cohomology, "piece_ends", lambda L, *known: seen.append(L) or ends(L, *known))
    cert = log_canonical_certificate(chain)
    assert seen == [*cert.log_canonical.pieces, cert.omega_x2.pieces[0]]
    # h0 and h1 one too large (so Riemann-Roch still holds) on omega(x2)'s first
    # piece, the only piece of either bundle with d != 0
    bump = lambda e, by: (e[0] + by, e[1] + by, *e[2:])
    monkeypatch.setattr(cohomology, "piece_ends", lambda L, *known: bump(ends(L, *known), L.d != 0))
    with pytest.raises(InternalInconsistency, match=r"^omega\(x2\) cohomology nonzero: h0=1, h1=1"):
        log_canonical_certificate(chain)


def test_theorem_suites_small_bounds():
    res = suite_weak_convexity(max_ab=2, max_l=2, max_d=4, max_len=2)
    assert res.ok and res.instances > 0
    res = suite_weak_concavity(max_ab=2, max_l=2, max_d=4, max_len=2)
    assert res.ok and res.instances > 0
    assert res.details["n_tf"] == 0 and res.details["n_ft"] == 0
