"""Formal Novikov series, fundamental-solution operators, and the duality identity.

Degrees of curve classes are recorded as vectors of exact rationals against a
fixed generating set of line bundles: entry 0 is the polarization degree (the
ordering functional, non-negative and zero only for the zero class) and the
last entry is the degree against the determinant of the distinguished bundle.

The fundamental-solution operator built from a table of two-pointed values is

    L(alpha) = alpha + sum_beta q^beta sum_a (-1)^{a+1} z^{-a-1}
               sum_i <alpha psi^a, T_i>_beta T^i,

with T^i the dual basis under the declared pairing.  The verification routine
constructs the operator of the cut-out substack from the operator data of the
dual bundle total space by the exact phase rule e^{i*pi*(deg(det E)+rank)} per
class, and checks the two operators agree after the Novikov substitution
q^beta -> e^{i*pi*deg_beta(det E)} q^beta, coefficient by coefficient.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .foundation import Phase, PhasedScalar, as_rational
from .linalg import mat_inverse
from .wps import WPSModel, enumerate_sectors, euler_factor, pairing_gram, sector_at, state_basis


@dataclass(frozen=True)
class EffClass:
    """A curve class recorded by its degrees against Pic generators.

    degrees[0] is the polarization degree used for truncation ordering;
    degrees[-1] is the degree against det(E).  The two coincide for a
    length-one vector.
    """

    degrees: tuple[Fraction, ...]

    def __post_init__(self):
        ds = tuple(as_rational(d) for d in self.degrees)
        if not ds:
            raise ValueError("EffClass needs at least one degree entry")
        if ds[0] < 0:
            raise ValueError(f"ordering degree must be non-negative: {ds}")
        if ds[0] == 0 and any(d != 0 for d in ds):
            raise ValueError(f"ordering degree 0 forces the zero class: {ds}")
        object.__setattr__(self, "degrees", ds)

    @property
    def ordering(self) -> Fraction:
        return self.degrees[0]

    @property
    def det(self) -> Fraction:
        """Degree against det(E)."""
        return self.degrees[-1]

    def is_zero(self) -> bool:
        return self.ordering == 0

    def __add__(self, other: "EffClass") -> "EffClass":
        if len(self.degrees) != len(other.degrees):
            raise ValueError("mismatched generating sets")
        return EffClass(tuple(a + b for a, b in zip(self.degrees, other.degrees)))

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.degrees) + ")"


def zero_class(n_generators: int = 2) -> EffClass:
    return EffClass(tuple(Fraction(0) for _ in range(n_generators)))


def expand_psi_kernel(a_max: int) -> list[int]:
    """Coefficients c_k with 1/(-z-psi) = sum_k c_k psi^k z^{-k-1}: c_k = (-1)^{k+1}."""
    if a_max < 0:
        raise ValueError("a_max must be non-negative")
    return [(-1) ** (k + 1) for k in range(a_max + 1)]


@dataclass(frozen=True)
class TableEntry:
    beta: EffClass
    psi_power: int
    row: int
    col: int
    value: object  # Fraction or PhasedScalar
    sectors: tuple[Fraction, Fraction] | None = None


@dataclass
class InvariantTable:
    """Two-pointed values <T_row psi^a, T_col>_beta against a declared basis."""

    dim: int
    entries: list[TableEntry] = field(default_factory=list)

    def validate(self, basis_sectors: list[Fraction] | None = None) -> list[str]:
        problems = []
        for n, e in enumerate(self.entries):
            if not (0 <= e.row < self.dim and 0 <= e.col < self.dim):
                problems.append(f"entry {n}: basis index out of range")
            if e.psi_power < 0:
                problems.append(f"entry {n}: negative descendant power")
            if basis_sectors is not None and e.sectors is not None:
                g1, g2 = e.sectors
                if (g1 % 1, g2 % 1) != (
                    basis_sectors[e.row] % 1,
                    basis_sectors[e.col] % 1,
                ):
                    problems.append(
                        f"entry {n}: sector pair {e.sectors} does not match basis sectors"
                    )
        return problems


class LOperator:
    """Matrix series in q^beta and z^{-1}; the (beta=0, z^0) term is the identity.

    Stored as {(beta, z_power) -> matrix of PhasedScalar} for beta != 0; the
    identity constant term is implicit.
    """

    def __init__(self, dim: int, truncation):
        self.dim = dim
        self.truncation = as_rational(truncation)
        self.terms: dict[tuple[EffClass, int], list[list[PhasedScalar]]] = {}

    def _slot(self, beta: EffClass, zpow: int) -> list[list[PhasedScalar]]:
        key = (beta, zpow)
        if key not in self.terms:
            self.terms[key] = [[PhasedScalar() for _ in range(self.dim)] for _ in range(self.dim)]
        return self.terms[key]

    def add_term(self, beta: EffClass, zpow: int, row: int, col: int, value) -> None:
        slot = self._slot(beta, zpow)
        slot[row][col] = slot[row][col] + PhasedScalar.coerce(value)

    def matrix_at(self, beta: EffClass, zpow: int) -> list[list[PhasedScalar]]:
        if (beta, zpow) in self.terms:
            return self.terms[(beta, zpow)]
        mat = [[PhasedScalar() for _ in range(self.dim)] for _ in range(self.dim)]
        if beta.is_zero() and zpow == 0:
            for i in range(self.dim):
                mat[i][i] = PhasedScalar.from_rational(1)
        return mat

    def nonzero_keys(self) -> set[tuple[EffClass, int]]:
        return {
            k
            for k, mat in self.terms.items()
            if any(not x.is_zero() for row in mat for x in row)
        }

    def substitute_novikov(self) -> "LOperator":
        """The substitution q^beta -> e^{i*pi*deg_beta(det E)} q^beta; the
        implicit identity at the zero class is untouched."""
        out = LOperator(self.dim, self.truncation)
        for (beta, zpow), mat in self.terms.items():
            phase = PhasedScalar.from_phase(Phase(beta.det))
            out.terms[(beta, zpow)] = [[phase * x for x in row] for row in mat]
        return out


def build_L(table: InvariantTable, pairing: list[list[Fraction]], truncation) -> LOperator:
    """Assemble the fundamental-solution operator from two-pointed values.

    In the basis {T_i}, the coefficient of T_m in L(T_r) at (q^beta, z^{-a-1})
    is (-1)^{a+1} sum_i <T_r psi^a, T_i>_beta (P^{-1})_{i m}.
    """
    dim = table.dim
    if len(pairing) != dim or any(len(r) != dim for r in pairing):
        raise ValueError("pairing matrix size does not match table dimension")
    problems = table.validate()
    if problems:
        raise ValueError("invalid table: " + "; ".join(problems))
    try:
        p_inv = mat_inverse(pairing)
    except ValueError as exc:
        raise ValueError("degenerate pairing") from exc
    a_max = max((e.psi_power for e in table.entries), default=0)
    kernel = expand_psi_kernel(a_max)
    op = LOperator(dim, truncation)
    for e in table.entries:
        if e.beta.ordering > op.truncation:
            continue
        if e.beta.is_zero():
            raise ValueError("table entries must have nonzero effective class")
        value = PhasedScalar.coerce(e.value) * kernel[e.psi_power]
        if value.is_zero():
            continue
        # column r of the operator matrix gets sum_m value * P^{-1}[col][m] in row m
        for mrow, x in enumerate(p_inv[e.col]):
            if x:
                op.add_term(e.beta, -e.psi_power - 1, mrow, e.row, value * x)
    return op


# ---------------------------------------------------------------------------
# Operator identity verification on a weighted projective model.
# ---------------------------------------------------------------------------


@dataclass
class QSDReport:
    model: WPSModel
    dim: int
    checks: int = 0
    first_violation: dict | None = None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def compact_type_basis(m: WPSModel) -> list[tuple[Fraction, int]]:
    """(sector rotation, H-power) pairs giving a basis of the compact-type space.

    On the sector with rotation f the compact-type subspace has dimension
    dim_f + 1 - rank_fixed_f (the image of the Euler-factor multiplication),
    realized by the pushforwards of H^p for p up to that dimension minus one.
    """
    basis = []
    for s in enumerate_sectors(m):
        _, power = euler_factor(m, s)
        for p in range(s.dim + 1 - power):
            basis.append((s.f, p))
    return basis


def _pairing_matrices(m: WPSModel, basis: list[tuple[Fraction, int]]):
    """The compact-type rows and columns of the ct and ambient Gram matrices."""
    sectors = enumerate_sectors(m)
    index = {fp: i for i, fp in enumerate(state_basis(sectors))}
    rows = [index[fp] for fp in basis]
    return tuple(
        [[gram[i][j] for j in rows] for i in rows]
        for gram in (pairing_gram(m, "ct", sectors), pairing_gram(m, "ambient", sectors))
    )


def transported_table(table: InvariantTable, m: WPSModel, basis: list[tuple[Fraction, int]]) -> InvariantTable:
    """Rewrite dual-bundle two-pointed values as substack values.

    Each entry picks up the global phase e^{i*pi*(deg(det E) + rank)} of the
    invariant comparison and the inverse transport phases e^{-i*pi*age} of the
    two insertions, expressing the result against the plain ambient basis.
    """
    rank = m.rank
    ages = {f: sector_at(m, f).age for f, _ in basis}
    out = InvariantTable(table.dim)
    for e in table.entries:
        f_row, _ = basis[e.row]
        f_col, _ = basis[e.col]
        phase = Phase(e.beta.det + rank) * Phase(-ages[f_row]) * Phase(-ages[f_col])
        value = PhasedScalar.from_phase(phase) * PhasedScalar.coerce(e.value)
        out.entries.append(TableEntry(e.beta, e.psi_power, e.row, e.col, value, e.sectors))
    return out


def verify_qsd_operator_identity(table_e: InvariantTable, m: WPSModel, truncation) -> QSDReport:
    """Check L_substack . delta = delta . L_dual|q-substitution, coefficientwise.

    table_e holds the two-pointed values of the dual bundle total space against
    the compact-type basis of `compact_type_basis`.  The substack operator is
    built from the transported table with the independently computed ambient
    pairing, so any inconsistency in pairings, dual bases, phases or the
    Novikov substitution shows up as a coefficient mismatch.
    """
    basis = compact_type_basis(m)
    dim = len(basis)
    report = QSDReport(m, dim)
    if table_e.dim != dim:
        raise ValueError(f"table dimension {table_e.dim} != state dimension {dim}")
    problems = table_e.validate([f for f, _ in basis])
    if problems:
        raise ValueError("inconsistent table: " + "; ".join(problems))
    if dim == 0:
        return report
    p_ct, p_amb = _pairing_matrices(m, basis)
    op_e = build_L(table_e, p_ct, truncation)
    op_z = build_L(transported_table(table_e, m, basis), p_amb, truncation)
    op_e_sub = op_e.substitute_novikov()
    # delta is diagonal: it scales the columns of op_z and the rows of op_e_sub
    delta = [PhasedScalar.from_phase(Phase(sector_at(m, f).age)) for f, _ in basis]
    keys = op_z.nonzero_keys() | op_e_sub.nonzero_keys()
    for beta, zpow in sorted(keys, key=lambda k: (k[0].ordering, k[1], str(k[0]))):
        z_mat = op_z.matrix_at(beta, zpow)
        e_mat = op_e_sub.matrix_at(beta, zpow)
        for i in range(dim):
            for j in range(dim):
                report.checks += 1
                lhs = z_mat[i][j] * delta[j]
                rhs = delta[i] * e_mat[i][j]
                if lhs != rhs and report.first_violation is None:
                    report.first_violation = {
                        "beta": str(beta),
                        "z_power": zpow,
                        "entry": (i, j),
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }
    return report


def random_invariant_table(
    m: WPSModel,
    truncation,
    rng: random.Random,
    n_classes: int = 3,
    a_max: int = 2,
    density: float = 0.6,
) -> InvariantTable:
    """Seeded random table against the compact-type basis of the model.

    Degree vectors are (ordering, det) pairs; ordering degrees are integers in
    [1, truncation], det degrees small rationals (integral or not, so both the
    sign and the genuine-phase branches of the substitution get exercised).
    """
    basis = compact_type_basis(m)
    dim = len(basis)
    table = InvariantTable(dim)
    n_max = int(as_rational(truncation))
    betas = []
    for _ in range(n_classes):
        ordering = Fraction(rng.randint(1, max(1, n_max)))
        det = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))
        betas.append(EffClass((ordering, det)))
    for beta in betas:
        for a in range(a_max + 1):
            for row in range(dim):
                for col in range(dim):
                    if rng.random() > density:
                        continue
                    value = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    if value == 0:
                        continue
                    table.entries.append(
                        TableEntry(
                            beta,
                            a,
                            row,
                            col,
                            value,
                            sectors=(basis[row][0], basis[col][0]),
                        )
                    )
    return table
