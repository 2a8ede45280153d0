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

and every other entry is zero.  `pairing_blocks` gives each sector's
anti-diagonal (value, top index), and the verification routines read those
blocks.  `pairing_rows` gives the one cell of each row on a given basis of
monomials (f, H^p): `series.build_L` inverts it on the compact-type basis,
and `pairing_gram` expands it to the Gram matrix on `state_basis`, for
printing and for the dense replay of `comparison_sides`.  The pairings of
arbitrary classes, summed sector by sector, live in `oracles`;
`suites.suite_pairing_comparison` replays the comparison through them on
every `PAIRING_SAMPLE_EVERY`-th model.

A model walks its sectors once, on the first read of `WPSModel.sectors`, and
keeps the tuple.  The walk is in integers: the rotations are k/N, with
N = lcm(weights) computed once per model as `WPSModel.N`; on f = j/n a weight
w is fixed when n | j*w, and the fiber action holds the numerators (j*k) mod n
over n of the degrees k.  A sector stores its age once, as the int
`age_num` = age * N, and every transport phase is `PhasedScalar.root` of it
over N.  Pairing blocks, the ct basis and its rows are kept in
`WPSModel.kept` on first use; a model's equality, hash, repr and pickle read
only its weights and degrees.

The transport delta multiplies a class supported on the sector with rotation
f by the exact phase e^{i*pi*age_f} and reinterprets it as an ambient class;
the verification routines below confirm that it matches the pairings up to
the global sign (-1)^rank and has the right image dimensions, those of the
Euler-factor multiplications: multiplying by coeff * H^power is a shift of
the monomials, so `euler_image_dim` counts its image without a matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .foundation import PhasedScalar, as_rational
from .sectors import SectorAction, _over


@dataclass(frozen=True)
class WPSModel:
    weights: tuple[int, ...]
    bundle_degrees: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "bundle_degrees", tuple(self.bundle_degrees))
        for name, values in (("weight", self.weights), ("bundle degree", self.bundle_degrees)):
            for v in values:
                if type(v) is not int:  # a bool is an int subclass
                    raise ValueError(f"{name} must be an integer, got {v!r}")
        if len(self.weights) < 2 or any(w < 1 for w in self.weights):
            raise ValueError("need at least two positive weights")
        if any(k < 1 for k in self.bundle_degrees):
            raise ValueError("bundle degrees must be positive")
        # the conductor of the transport phases: a sector's age is age_num / N
        object.__setattr__(self, "N", lcm(*self.weights))
        # derived data by key: `pairing_blocks` by kind, "ct basis" and "ct basis rows"
        object.__setattr__(self, "kept", {})

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    @property
    def rank(self) -> int:
        return len(self.bundle_degrees)

    @cached_property
    def sectors(self) -> tuple["Sector", ...]:
        """The twisted sectors in increasing rotation from 0, walked on first
        read and kept on the model (equality, hash and repr read only the fields)."""
        rotations = sorted({k * (self.N // w) for w in self.weights for k in range(w)})
        return tuple(sector_at(self, Fraction(k, self.N)) for k in rotations)

    def __reduce__(self):
        return WPSModel, (self.weights, self.bundle_degrees)

    def __str__(self) -> str:
        w = ",".join(map(str, self.weights))
        k = ",".join(map(str, self.bundle_degrees))
        return f"P({w})/O({k})" if self.bundle_degrees else f"P({w})"


@dataclass(frozen=True)
class Sector:
    f: Fraction
    fixed_indices: tuple[int, ...]
    fiber_weights: SectorAction
    age_num: int = field(repr=False, compare=False)  # the age (the sum of the fiber weights) times the model's N

    @property
    def dim(self) -> int:
        return len(self.fixed_indices) - 1

    @property
    def rank_fixed(self) -> int:
        return self.fiber_weights.rank_fixed


def sector_at(m: WPSModel, f: Fraction) -> Sector:
    """The sector of rotation f mod 1; f is an exact rational (a float or a bool raises TypeError)."""
    f = f if type(f) is Fraction and 0 <= f.numerator < f.denominator else as_rational(f) % 1
    j, n = f.numerator, f.denominator
    fixed = tuple(i for i, w in enumerate(m.weights) if (j * w) % n == 0)
    if not fixed:
        raise ValueError(f"rotation {f} fixes no coordinate of {m}")
    fibers = _over(tuple(j * k % n for k in m.bundle_degrees), n)
    return Sector(f, fixed, fibers, sum(fibers.nums) * (m.N // fibers.den))


def euler_factor(m: WPSModel, s: Sector) -> tuple[int, int]:
    """e(E_f) = coeff * H^power on the sector: the fixed summands contribute k_j*H."""
    fixed = [k for k, a in zip(m.bundle_degrees, s.fiber_weights.nums) if a == 0]
    return prod(fixed), len(fixed)


def euler_image_dim(m: WPSModel, s: Sector) -> int:
    """Dimension of the image of multiplication by e(E_f) = coeff * H^power on
    Q[H]/(H^{dim+1}): a shift, so the H^p with p + power <= dim span it."""
    coeff, power = euler_factor(m, s)
    return max(0, s.dim + 1 - power) if coeff else 0


def dual_euler_factor(m: WPSModel, s: Sector) -> tuple[int, int]:
    coeff, power = euler_factor(m, s)
    return (-1) ** power * coeff, power


def integrate(m: WPSModel, s: Sector, power: int) -> Fraction:
    """Integral of H^power over the sector; nonzero only in top degree."""
    if power > s.dim:
        raise ValueError(f"H^{power} exceeds sector dimension {s.dim}")
    if power < s.dim:
        return Fraction(0)
    return Fraction(1, prod(m.weights[i] for i in s.fixed_indices))


def _no_euler(m: WPSModel, s: Sector) -> tuple[int, int]:
    return 1, 0


@dataclass
class PairingComparisonReport:
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def state_basis(m: WPSModel) -> list[tuple[Fraction, int]]:
    """The spanning set (f, p) of sector monomials H^p, in sector order."""
    return [(s.f, p) for s in m.sectors for p in range(s.dim + 1)]


def _partner(i: int, m: WPSModel) -> int:
    """Index of the sector 1-f of sector i.  `WPSModel.sectors` lists the
    rotations in increasing order from 0, so the others pair off from both ends."""
    return -i % len(m.sectors)


def pairing_blocks(m: WPSModel, kind: str) -> list[tuple[Fraction, int]]:
    """(value, top) for each sector f of the "cr", "ambient" or "ct" pairing:
    <H^p on f, H^q on 1-f> = value * [p + q = top], with top = dim_f - power_f.
    Kept in `m.kept` by kind; callers only read it."""
    blocks = m.kept.get(kind)
    if blocks is None:
        euler = {"cr": _no_euler, "ambient": euler_factor, "ct": dual_euler_factor}[kind]
        blocks = m.kept[kind] = []
        for s in m.sectors:
            coeff, power = euler(m, s)
            blocks.append((coeff * integrate(m, s, s.dim), s.dim - power))
    return blocks


def pairing_rows(m: WPSModel, kind: str, basis: list[tuple[Fraction, int]]) -> list[tuple[int, Fraction] | None]:
    """The "cr", "ambient" or "ct" pairing restricted to `basis`, row by row:
    (f, p) pairs only with (1-f, top_f - p), at the value of f's block, so
    each row holds (its column in `basis`, value), or None when that partner
    is not in `basis`."""
    sectors = m.sectors
    index = {fp: i for i, fp in enumerate(basis)}
    block = {}
    for i, (value, top) in enumerate(pairing_blocks(m, kind)):
        block[sectors[i].f] = (sectors[_partner(i, m)].f, value, top)
    rows = []
    for f, p in basis:
        g, value, top = block[f]
        col = index.get((g, top - p))
        rows.append(None if col is None else (col, value))
    return rows


def pairing_gram(m: WPSModel, kind: str) -> list[list[Fraction]]:
    """Gram matrix of the "cr", "ambient" or "ct" pairing on `state_basis`:
    `pairing_rows` expanded."""
    basis = state_basis(m)
    gram = [[Fraction(0)] * len(basis) for _ in basis]
    for row, cell in zip(gram, pairing_rows(m, kind, basis)):
        if cell is not None:
            row[cell[0]] = cell[1]
    return gram


def comparison_sides(m: WPSModel) -> tuple[list, list, list]:
    """(`state_basis`, <delta(g1), delta(g2)>_ambient, (-1)^rank <g1, g2>_ct),
    the two matrices as PhasedScalars, with the phases of `verify_pairing_comparison`."""
    ages = [s.age_num for s in m.sectors for _ in range(s.dim + 1)]
    lhs = [
        [PhasedScalar.root(a + b, m.N, x) if x else PhasedScalar() for b, x in zip(ages, row)]
        for a, row in zip(ages, pairing_gram(m, "ambient"))
    ]
    rhs = [
        [PhasedScalar.root(m.rank, 1, y) if y else PhasedScalar() for y in row]  # (-1)^rank * y
        for row in pairing_gram(m, "ct")
    ]
    return state_basis(m), lhs, rhs


def verify_pairing_comparison(m: WPSModel) -> PairingComparisonReport:
    """Check <delta(g1), delta(g2)>_ambient = (-1)^rank <g1, g2>_compact-type
    over the full spanning set of sector monomials.

    Off the anti-diagonals of the blocks (f, 1-f) both sides are zero: those
    entries count in `checks` but are not compared.  Each side holds one value
    along its anti-diagonal, so a block compares its values once, and the
    failures list the entries of `comparison_sides` that differ, in row-major order.
    """
    sectors = m.sectors
    report = PairingComparisonReport(sum(s.dim + 1 for s in sectors) ** 2)
    zero = PhasedScalar()
    ambient, ct = pairing_blocks(m, "ambient"), pairing_blocks(m, "ct")
    for i, s in enumerate(sectors):
        g = sectors[_partner(i, m)]
        (x, top_x), (y, top_y) = ambient[i], ct[i]
        lhs = PhasedScalar.root(s.age_num + g.age_num, m.N, x) if x else zero
        rhs = PhasedScalar.root(m.rank, 1, y) if y else zero  # (-1)^rank * y
        sides = {top_x: (lhs, rhs)} if top_x == top_y else {top_x: (lhs, zero), top_y: (zero, rhs)}
        # in increasing top, so that each row lists its columns in order
        bad = sorted((top, pair) for top, pair in sides.items() if pair[0] != pair[1])
        for p in range(s.dim + 1):
            for top, (a, b) in bad:
                if 0 <= top - p <= g.dim:
                    report.failures.append({"g1": (s.f, p), "g2": (g.f, top - p), "lhs": str(a), "rhs": str(b)})
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
    sectors: list[SectorDimReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sectors)


def verify_delta_iso_dims(m: WPSModel) -> DeltaIsoReport:
    """Per sector: image dimension of the Euler-factor multiplication equals
    the rank of the ambient pairing block, and the pairing kernel is stable
    under that multiplication (well-definedness of the quotient model).

    The block of f against 1-f (square: both sectors fix the same
    coordinates) has at most one nonzero entry in each row and column.  So its
    rank is the number of rows H^p holding one, and the kernel of its
    transpose is spanned by the other H^p.  The multiplication is a shift, H^p
    to coeff * H^{p+power}, so the kernel is stable unless it sends an unpaired
    H^p onto a paired row.
    """
    report = DeltaIsoReport()
    for s, (value, top) in zip(m.sectors, pairing_blocks(m, "ambient")):
        coeff, power = euler_factor(m, s)
        n = s.dim + 1
        paired = [bool(value) and 0 <= top - p < n for p in range(n)]
        stable = not (coeff and any(paired[p + power] and not paired[p] for p in range(n - power)))
        report.sectors.append(SectorDimReport(s.f, euler_image_dim(m, s), sum(paired), stable))
    return report
