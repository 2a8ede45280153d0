"""Decision procedures for weak semi-positivity, weak convexity and weak concavity.

For a split bundle E = L_1 + ... + L_r on a two-pointed chain:
  * weakly semi-positive: every summand has non-negative degree on every
    component (the per-component reading, which is what the vanishing
    argument actually uses);
  * weakly convex: h^1(C, L_i(-x2)) = 0 for every summand;
  * the dual is weakly concave: h^0(C, dual(L_i)(-x1)) = 0 for every summand.

Semi-positivity implies convexity, and convexity of E is equivalent to
concavity of its dual; both facts are verified here rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bundles import (
    ChainBundle,
    SplitBundle,
    canonical_bundle,
    chain_dual,
    chain_twist,
    twist_marked,
)
from .cohomology import _fold, _piece_data, h_twisted
from .curves import X1, X2, CurveChain


class CertificateError(RuntimeError):
    """A certificate condition failed; this signals an implementation bug."""


@dataclass
class ConvexityVerdict:
    weakly_semipositive: bool
    weakly_convex: bool
    weakly_concave_dual: bool
    witnesses: list[tuple[int, int]]  # (summand, component) indices violating semi-positivity


def is_weakly_semipositive(B: SplitBundle) -> tuple[bool, list[tuple[int, int]]]:
    witnesses = [
        (i, j)
        for i, summand in enumerate(B.summands)
        for j, piece in enumerate(summand.pieces)
        if piece.d < 0
    ]
    return not witnesses, witnesses


def is_weakly_convex_on(B: SplitBundle) -> bool:
    return all(h_twisted(s, X2, -1).h1 == 0 for s in B.summands)


def is_weakly_concave_on_dual(B: SplitBundle) -> bool:
    return all(h_twisted(chain_dual(s), X1, -1).h0 == 0 for s in B.summands)


def convexity_verdict(B: SplitBundle) -> ConvexityVerdict:
    semipos, witnesses = is_weakly_semipositive(B)
    convex = is_weakly_convex_on(B)
    concave = is_weakly_concave_on_dual(B)
    verdict = ConvexityVerdict(semipos, convex, concave, witnesses)
    # Post-hoc theorem assertions, never used as computational shortcuts.
    if verdict.weakly_semipositive and not verdict.weakly_convex:
        raise CertificateError(f"semi-positive bundle failed convexity: {B}")
    if verdict.weakly_convex != verdict.weakly_concave_dual:
        raise CertificateError(f"convexity/concavity mismatch: {B}")
    return verdict


@dataclass
class LogCanonicalCertificate:
    h0_log_canonical: int
    h1_log_canonical: int
    h0_omega_x2: int
    h1_omega_x2: int
    # the bundles the figures were computed on: omega(x1+x2) and omega(x2)
    log_canonical: ChainBundle
    omega_x2: ChainBundle


def log_canonical_certificate(chain: CurveChain) -> LogCanonicalCertificate:
    """Certify that omega(x1+x2) is trivial on the chain.

    Checks, with exact chain cohomology:
      * omega(x1+x2) restricts to the trivial equivariant bundle on every
        component (so the all-trivial chain bundle represents it);
      * h^0(omega(x1+x2)) = 1 and h^1 = 0;
      * h^0(omega(x2)) = h^1(omega(x2)) = 0, the conditions that make the
        residue trivialization work in families.

    Each bundle is built once: the chain bundle of omega(x1+x2) is made of
    the checked pieces, and the certificate carries both chain bundles, so a
    replay can hand the same input to an independent oracle.  The bundles
    differ only in the first piece, so the folds share the others' data.
    """
    pieces = []
    for j, comp in enumerate(chain.components):
        log_can = twist_marked(twist_marked(canonical_bundle(comp), X1, 1), X2, 1)
        if log_can.k1 or log_can.k2 or log_can.d:
            raise CertificateError(f"component {j}: omega(x1+x2) = {log_can} is not trivial")
        pieces.append(log_can)

    log_chain = ChainBundle(chain, tuple(pieces))  # the all-trivial bundle, built from the checked pieces
    data = [_piece_data(p) for p in log_chain.pieces]
    h0, h1, _, _ = _fold(log_chain.pieces, data)
    omega_x2 = chain_twist(log_chain, X1, -1)  # omega(x2) = omega(x1+x2) - x1
    h0_x2, h1_x2, _, _ = _fold(omega_x2.pieces, [_piece_data(omega_x2.pieces[0]), *data[1:]])
    cert = LogCanonicalCertificate(h0, h1, h0_x2, h1_x2, log_chain, omega_x2)
    if h0 != 1 or h1 != 0:
        raise CertificateError(f"log canonical bundle not trivial on chain: h0={h0}, h1={h1}")
    if h0_x2 != 0 or h1_x2 != 0:
        raise CertificateError(f"omega(x2) cohomology nonzero: h0={h0_x2}, h1={h1_x2}")
    return cert
