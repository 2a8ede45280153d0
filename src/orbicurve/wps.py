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
arbitrary classes (`cr_pairing`, `ambient_pairing`, `ct_pairing`) sum the
same products sector by sector; `suites.suite_pairing_comparison` replays
the comparison through them on every `PAIRING_SAMPLE_EVERY`-th model as an
independent oracle.

The transformation delta_tilde multiplies a class supported on the sector
with rotation f by the exact phase e^{i*pi*age_f} and reinterprets it as an
ambient class; the verification routines below confirm that it matches the
pairings up to the global sign (-1)^rank and has the right image dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .foundation import Phase, PhasedScalar
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


class StateElement:
    """A sector-graded polynomial class: rotation f -> coefficients of 1, H, H^2, ...

    Coefficients are Fractions or PhasedScalars; each sector's list is
    truncated at the sector dimension.
    """

    def __init__(self, model: WPSModel, parts: dict[Fraction, list] | None = None):
        self.model = model
        self.parts: dict[Fraction, list] = {}
        for f, coeffs in (parts or {}).items():
            f = Fraction(f) % 1
            dim = sector_at(model, f).dim
            coeffs = list(coeffs)
            if len(coeffs) > dim + 1:
                raise ValueError(f"class of degree > {dim} on sector {f}")
            coeffs += [Fraction(0)] * (dim + 1 - len(coeffs))
            self.parts[f] = coeffs

    @classmethod
    def basis(cls, model: WPSModel, f: Fraction, power: int) -> "StateElement":
        dim = sector_at(model, f).dim
        coeffs = [Fraction(0)] * (dim + 1)
        coeffs[power] = Fraction(1)
        return cls(model, {f: coeffs})

    def __add__(self, other: "StateElement") -> "StateElement":
        out = {f: list(c) for f, c in self.parts.items()}
        for f, coeffs in other.parts.items():
            if f in out:
                out[f] = [a + b for a, b in zip(out[f], coeffs)]
            else:
                out[f] = list(coeffs)
        return StateElement(self.model, out)

    def scale(self, c) -> "StateElement":
        return StateElement(
            self.model, {f: [c * x for x in coeffs] for f, coeffs in self.parts.items()}
        )

    def coeff(self, f: Fraction, power: int):
        f = Fraction(f) % 1
        if f not in self.parts:
            return Fraction(0)
        return self.parts[f][power]


def _is_zero(x) -> bool:
    if isinstance(x, PhasedScalar):
        return x.is_zero()
    return x == 0


def _pair_sectorwise(m: WPSModel, alpha: StateElement, beta: StateElement, euler) -> PhasedScalar:
    """Common core of the three pairings: sum over f of the top-degree part of
    alpha_f * beta_{1-f} * (extra Euler factor from `euler`)."""
    acc = PhasedScalar()
    for f, a_coeffs in alpha.parts.items():
        g = (1 - f) % 1
        if g not in beta.parts:
            continue
        s = sector_at(m, f)
        e_coeff, e_power = euler(m, s)
        top = s.dim - e_power
        if top < 0:
            continue
        vol = integrate(m, s, s.dim)
        b_coeffs = beta.parts[g]
        for p, a in enumerate(a_coeffs):
            q = top - p
            if not (0 <= q < len(b_coeffs)):
                continue
            b = b_coeffs[q]
            if _is_zero(a) or _is_zero(b):
                continue
            acc = acc + PhasedScalar.coerce(a) * PhasedScalar.coerce(b) * (e_coeff * vol)
    return acc


def _no_euler(m: WPSModel, s: Sector) -> tuple[int, int]:
    return 1, 0


def _specialize(x: PhasedScalar):
    return x.to_rational() if x.is_rational() else x


def cr_pairing(m: WPSModel, alpha: StateElement, beta: StateElement):
    """Orbifold Poincare pairing; rational for rational inputs."""
    return _specialize(_pair_sectorwise(m, alpha, beta, _no_euler))


def ambient_pairing(m: WPSModel, alpha: StateElement, beta: StateElement):
    """Pairing of ambient classes on the cut-out substack, via the Euler factor."""
    return _specialize(_pair_sectorwise(m, alpha, beta, euler_factor))


def ct_pairing(m: WPSModel, alpha: StateElement, beta: StateElement):
    """Compact-type pairing on the dual bundle total space (classes given by
    their zero-section preimages)."""
    return _specialize(_pair_sectorwise(m, alpha, beta, dual_euler_factor))


def delta_tilde(m: WPSModel, gamma: StateElement) -> StateElement:
    """Phase-corrected transport of a compact-type class to an ambient class."""
    out: dict[Fraction, list] = {}
    for f, coeffs in gamma.parts.items():
        phase = PhasedScalar.from_phase(Phase(sector_at(m, f).age))
        out[f] = [phase * PhasedScalar.coerce(c) for c in coeffs]
    return StateElement(m, out)


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


def comparison_sides(m: WPSModel) -> tuple[list, list, list]:
    """(`state_basis`, <delta(g1), delta(g2)>_ambient, (-1)^rank <g1, g2>_ct),
    the two matrices as PhasedScalars."""
    sectors = enumerate_sectors(m)
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


def verify_pairing_comparison(m: WPSModel) -> PairingComparisonReport:
    """Check <delta(g1), delta(g2)>_ambient = (-1)^rank <g1, g2>_compact-type
    over the full spanning set of sector monomials."""
    report = PairingComparisonReport(m)
    basis, lhs, rhs = comparison_sides(m)
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


def verify_delta_iso_dims(m: WPSModel) -> DeltaIsoReport:
    """Per sector: image dimension of the Euler-factor multiplication equals
    the rank of the ambient pairing block, and the pairing kernel is stable
    under that multiplication (well-definedness of the quotient model)."""
    report = DeltaIsoReport(m)
    sectors = enumerate_sectors(m)
    gram = pairing_gram(m, "ambient", sectors)
    start = _offsets(sectors)
    for s in sectors:
        mult = _euler_mult_matrix(m, s)
        image_dim = mat_rank(mult)
        r0, c0, n = start[s.f], start[(1 - s.f) % 1], s.dim + 1
        block = [row[c0 : c0 + n] for row in gram[r0 : r0 + n]]
        rank = mat_rank(block)
        transpose = [list(r) for r in zip(*block)]
        kernel = mat_nullspace(transpose)
        stable = True
        for v in kernel:
            image = [sum(a * x for a, x in zip(row, v) if a) for row in mult]
            paired = [sum(y * row[q] for y, row in zip(image, block) if y) for q in range(n)]
            if any(x != 0 for x in paired):
                stable = False
        report.sectors.append(SectorDimReport(s.f, image_dim, rank, stable))
    return report
