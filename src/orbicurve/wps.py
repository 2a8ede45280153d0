"""State spaces of weighted projective ambients with split bundles.

The ambient is the weighted projective stack with weights (w_1..w_n); the
bundle is a sum of O(k_j), k_j > 0.  Twisted sectors are indexed by rational
rotation numbers f in [0,1) fixing at least one coordinate; the sector with
rotation f is the sub-weighted-projective space on the fixed weights, its
cohomology the truncated polynomial ring Q[H]/(H^{dim+1}) with exact top
integral 1/(product of fixed weights).

Three pairings are computed exactly on these rings:
  * the orbifold Poincare pairing (sector f couples with sector 1-f);
  * the ambient pairing of the cut-out substack, which inserts the Euler
    factor of the fixed bundle part e = (prod k_j) * H^{rank_fixed};
  * the compact-type pairing of the dual bundle total space, which inserts
    the dual Euler factor (-1)^{rank_fixed} * e.

Each pairing is block-anti-diagonal over the sector pairs (f, 1-f): with
e_f = coeff * H^power the Euler factor it inserts (1 for the orbifold
Poincare pairing) and vol_f the top integral of sector f,

    <H^p on f, H^q on 1-f> = coeff_f * vol_f * [p + q = dim_f - power_f],

and every other entry is zero.  `pairing_gram` assembles the Gram matrix on
the basis (f, H^p) from one walk over the sectors; the verification routines
and the compact-type pairing matrices of `series` read it.  The pairings of
arbitrary classes, summed sector by sector, live in `oracles`;
`suites.suite_pairing_comparison` replays the comparison through them on
every `PAIRING_SAMPLE_EVERY`-th model.

The transport delta multiplies a class supported on the sector with rotation
f by the exact phase e^{i*pi*age_f} and reinterprets it as an ambient class;
the verification routines below confirm that it matches the pairings up to
the global sign (-1)^rank and has the right image dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .foundation import PhasedScalar
from .linalg import mat_nullspace, mat_rank
from .sectors import SectorAction, age


@dataclass(frozen=True)
class WPSModel:
    weights: tuple[int, ...]
    bundle_degrees: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "bundle_degrees", tuple(int(k) for k in self.bundle_degrees))
        if len(self.weights) < 2 or any(w < 1 for w in self.weights):
            raise ValueError("need at least two positive weights")
        if any(k < 1 for k in self.bundle_degrees):
            raise ValueError("bundle degrees must be positive")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    @property
    def rank(self) -> int:
        return len(self.bundle_degrees)

    def __str__(self) -> str:
        w = ",".join(map(str, self.weights))
        k = ",".join(map(str, self.bundle_degrees))
        return f"P({w})/O({k})" if self.bundle_degrees else f"P({w})"


@dataclass(frozen=True)
class Sector:
    f: Fraction
    fixed_indices: tuple[int, ...]
    fiber_weights: SectorAction

    @property
    def dim(self) -> int:
        return len(self.fixed_indices) - 1

    @property
    def rank_fixed(self) -> int:
        return self.fiber_weights.rank_fixed

    @property
    def age(self) -> Fraction:
        return age(self.fiber_weights)


def sector_at(m: WPSModel, f: Fraction) -> Sector:
    f = Fraction(f) % 1
    fixed = tuple(i for i, w in enumerate(m.weights) if (f * w).denominator == 1)
    if not fixed:
        raise ValueError(f"rotation {f} fixes no coordinate of {m}")
    fibers = SectorAction(tuple((f * k) % 1 for k in m.bundle_degrees))
    return Sector(f, fixed, fibers)


def enumerate_sectors(m: WPSModel) -> list[Sector]:
    rotations = {Fraction(0)}
    for w in m.weights:
        for k in range(w):
            rotations.add(Fraction(k, w))
    return [sector_at(m, f) for f in sorted(rotations)]


def euler_factor(m: WPSModel, s: Sector) -> tuple[int, int]:
    """e(E_f) = coeff * H^power on the sector: the fixed summands contribute k_j*H."""
    coeff = 1
    power = 0
    for k, w in zip(m.bundle_degrees, s.fiber_weights.weights):
        if w == 0:
            coeff *= k
            power += 1
    return coeff, power


def dual_euler_factor(m: WPSModel, s: Sector) -> tuple[int, int]:
    coeff, power = euler_factor(m, s)
    return (-1) ** power * coeff, power


def integrate(m: WPSModel, s: Sector, power: int) -> Fraction:
    """Integral of H^power over the sector; nonzero only in top degree."""
    if power > s.dim:
        raise ValueError(f"H^{power} exceeds sector dimension {s.dim}")
    if power < s.dim:
        return Fraction(0)
    denom = 1
    for i in s.fixed_indices:
        denom *= m.weights[i]
    return Fraction(1, denom)


def _no_euler(m: WPSModel, s: Sector) -> tuple[int, int]:
    return 1, 0


@dataclass
class PairingComparisonReport:
    model: WPSModel
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def state_basis(sectors: list[Sector]) -> list[tuple[Fraction, int]]:
    """The spanning set (f, p) of sector monomials H^p, in sector order."""
    return [(s.f, p) for s in sectors for p in range(s.dim + 1)]


def _offsets(sectors: list[Sector]) -> dict[Fraction, int]:
    """Index in `state_basis` of each sector's H^0."""
    out, n = {}, 0
    for s in sectors:
        out[s.f] = n
        n += s.dim + 1
    return out


def pairing_gram(m: WPSModel, kind: str, sectors: list[Sector] | None = None) -> list[list[Fraction]]:
    """Gram matrix of the "cr", "ambient" or "ct" pairing on `state_basis`.

    `sectors` defaults to `enumerate_sectors(m)`; each sector f contributes
    the anti-diagonal p + q = dim_f - power_f of its block against 1-f.
    """
    euler = {"cr": _no_euler, "ambient": euler_factor, "ct": dual_euler_factor}[kind]
    sectors = enumerate_sectors(m) if sectors is None else sectors
    start = _offsets(sectors)
    n = sum(s.dim + 1 for s in sectors)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for s in sectors:
        coeff, power = euler(m, s)
        top = s.dim - power
        value = coeff * integrate(m, s, s.dim)
        i, j = start[s.f], start[(1 - s.f) % 1]
        for p in range(top + 1):
            gram[i + p][j + top - p] = value
    return gram


def comparison_sides(m: WPSModel, sectors: list[Sector] | None = None) -> tuple[list, list, list]:
    """(`state_basis`, <delta(g1), delta(g2)>_ambient, (-1)^rank <g1, g2>_ct),
    the two matrices as PhasedScalars; `sectors` as in `pairing_gram`."""
    sectors = enumerate_sectors(m) if sectors is None else sectors
    ages = [s.age for s in sectors for _ in range(s.dim + 1)]
    sign = (-1) ** m.rank
    lhs = [
        [PhasedScalar({a + b: x}) if x else PhasedScalar() for b, x in zip(ages, row)]
        for a, row in zip(ages, pairing_gram(m, "ambient", sectors))
    ]
    rhs = [
        [PhasedScalar({0: sign * x}) if x else PhasedScalar() for x in row]
        for row in pairing_gram(m, "ct", sectors)
    ]
    return state_basis(sectors), lhs, rhs


def verify_pairing_comparison(m: WPSModel, sectors: list[Sector] | None = None) -> PairingComparisonReport:
    """Check <delta(g1), delta(g2)>_ambient = (-1)^rank <g1, g2>_compact-type
    over the full spanning set of sector monomials; `sectors` as in `pairing_gram`."""
    report = PairingComparisonReport(m)
    basis, lhs, rhs = comparison_sides(m, sectors)
    for i, g1 in enumerate(basis):
        for j, g2 in enumerate(basis):
            report.checks += 1
            if lhs[i][j] != rhs[i][j]:
                report.failures.append({"g1": g1, "g2": g2, "lhs": str(lhs[i][j]), "rhs": str(rhs[i][j])})
    return report


@dataclass
class SectorDimReport:
    f: Fraction
    image_dim: int
    ambient_pairing_rank: int
    kernel_stable: bool

    @property
    def ok(self) -> bool:
        return self.image_dim == self.ambient_pairing_rank and self.kernel_stable


@dataclass
class DeltaIsoReport:
    model: WPSModel
    sectors: list[SectorDimReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sectors)


def _euler_mult_matrix(m: WPSModel, s: Sector) -> list[list[Fraction]]:
    """Matrix of multiplication by e(E_f) on Q[H]/(H^{dim+1}), columns H^p."""
    coeff, power = euler_factor(m, s)
    n = s.dim + 1
    mat = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        if p + power < n:
            mat[p + power][p] = Fraction(coeff)
    return mat


def verify_delta_iso_dims(m: WPSModel, sectors: list[Sector] | None = None) -> DeltaIsoReport:
    """Per sector: image dimension of the Euler-factor multiplication equals
    the rank of the ambient pairing block, and the pairing kernel is stable
    under that multiplication (well-definedness of the quotient model);
    `sectors` as in `pairing_gram`."""
    report = DeltaIsoReport(m)
    sectors = enumerate_sectors(m) if sectors is None else sectors
    gram = pairing_gram(m, "ambient", sectors)
    start = _offsets(sectors)
    for s in sectors:
        mult = _euler_mult_matrix(m, s)
        image_dim = mat_rank(mult)
        r0, c0, n = start[s.f], start[(1 - s.f) % 1], s.dim + 1
        block = [row[c0 : c0 + n] for row in gram[r0 : r0 + n]]
        # the block is square (sectors f and 1-f fix the same coordinates), so
        # its rank is n minus the dimension of the kernel of its transpose
        kernel = mat_nullspace([list(r) for r in zip(*block)])
        rank = n - len(kernel)
        stable = True
        for v in kernel:
            image = [sum(a * x for a, x in zip(row, v) if a) for row in mult]
            paired = [sum(y * row[q] for y, row in zip(image, block) if y) for q in range(n)]
            if any(x != 0 for x in paired):
                stable = False
        report.sectors.append(SectorDimReport(s.f, image_dim, rank, stable))
    return report
