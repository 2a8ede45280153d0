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
q^beta -> e^{i*pi*deg_beta(det E)} q^beta, coefficient by coefficient.  The
transported table is derived from the checked input table and built unchecked,
its exponents integers over one denominator, so no entry does Fraction arithmetic.

On the compact-type basis the ct and ambient pairings are signed
permutations: `build_L` takes each as `wps.pairing_rows` gives it, one
(column, value) per row, and inverts it in one pass.  So operators are
stored sparsely, by the cells a table fills: a table of e entries fills at
most e cells of each operator.  The check counts all dim^2 cells of each
(beta, z-power) key but compares only the stored ones; a cell neither
operator stores is zero on both sides.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .foundation import PhasedScalar, as_rational
from .wps import WPSModel, euler_image_dim, pairing_rows


@dataclass(frozen=True)
class EffClass:
    """A curve class recorded by its degrees against Pic generators.

    degrees[0] is the polarization degree used for truncation ordering;
    degrees[-1] is the degree against det(E).  The two coincide for a
    length-one vector.  The hash is taken once: operator keys are looked up
    by class far more often than classes are built.
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
        object.__setattr__(self, "_hash", hash(ds))

    def __hash__(self) -> int:
        return self._hash

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


@dataclass(frozen=True)
class TableEntry:
    beta: EffClass
    psi_power: int
    row: int
    col: int
    value: object  # Fraction or PhasedScalar
    sectors: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True)
class InvariantTable:
    """Two-pointed values <T_row psi^a, T_col>_beta against a declared basis.

    Checked once, when built: every entry's row and col are ints (not bools) in range(dim) and
    its psi_power a non-negative int, or ValueError("inconsistent table: ...") names each entry that is not.
    """

    dim: int
    entries: tuple[TableEntry, ...] = ()

    def __post_init__(self):
        entries = tuple(self.entries)
        problems = []
        for n, e in enumerate(entries):
            if not all(type(i) is int for i in (e.row, e.col, e.psi_power)):
                problems.append(f"entry {n}: non-integer index or descendant power")
                continue
            if not (0 <= e.row < self.dim and 0 <= e.col < self.dim):
                problems.append(f"entry {n}: basis index out of range")
            if e.psi_power < 0:
                problems.append(f"entry {n}: negative descendant power")
        if problems:
            raise ValueError("inconsistent table: " + "; ".join(problems))
        object.__setattr__(self, "entries", entries)


class LOperator:
    """Matrix series in q^beta and z^{-1}; the (beta=0, z^0) term is the identity.

    Stored sparsely as {(beta, z_power) -> {(row, col): PhasedScalar}} for
    beta != 0: a key holds only the cells some `add_term` reached, every other
    cell is zero, and the identity constant term is implicit.  `matrix_at`
    expands one key densely; the library itself works on the stored cells.
    """

    def __init__(self, dim: int, truncation):
        self.dim = dim
        self.truncation = as_rational(truncation)
        self.terms: dict[tuple[EffClass, int], dict[tuple[int, int], PhasedScalar]] = {}

    def add_term(self, beta: EffClass, zpow: int, row: int, col: int, value) -> None:
        cells = self.terms.setdefault((beta, zpow), {})
        value = PhasedScalar.coerce(value)
        cells[row, col] = cells[row, col] + value if (row, col) in cells else value

    def matrix_at(self, beta: EffClass, zpow: int) -> list[list[PhasedScalar]]:
        """The dense dim x dim coefficient of q^beta z^zpow."""
        mat = [[PhasedScalar() for _ in range(self.dim)] for _ in range(self.dim)]
        if beta.is_zero() and zpow == 0:
            for i in range(self.dim):
                mat[i][i] = PhasedScalar.from_rational(1)
        for (i, j), x in self.terms.get((beta, zpow), {}).items():
            mat[i][j] = x
        return mat

    def nonzero_keys(self) -> set[tuple[EffClass, int]]:
        return {k for k, cells in self.terms.items() if any(not x.is_zero() for x in cells.values())}

    def substitute_novikov(self) -> "LOperator":
        """The substitution q^beta -> e^{i*pi*deg_beta(det E)} q^beta; the
        implicit identity at the zero class is untouched."""
        out = LOperator(self.dim, self.truncation)
        for (beta, zpow), cells in self.terms.items():
            phase = PhasedScalar.root(beta.det.numerator, beta.det.denominator)
            out.terms[(beta, zpow)] = {cell: phase * x for cell, x in cells.items()}
        return out


def build_L(table: InvariantTable, pairing: list[tuple[int, Fraction] | None], truncation) -> LOperator:
    """Assemble the fundamental-solution operator from two-pointed values.

    In the basis {T_i}, the coefficient of T_m in L(T_r) at (q^beta, z^{-a-1})
    is (-1)^{a+1} sum_i <T_r psi^a, T_i>_beta (P^{-1})_{i m}, the sign being
    the coefficient of psi^a z^{-a-1} in 1/(-z-psi).

    The pairing P is a signed permutation, given as `wps.pairing_rows` gives
    it: row i of P holds its one nonzero entry x in column j as (j, x).  So
    P^{-1} holds 1/x in row j, column i.  A row that is None, a zero value, or
    a column out of range or taken twice raises ValueError("degenerate pairing").
    """
    dim = table.dim
    if len(pairing) != dim:
        raise ValueError("pairing matrix size does not match table dimension")
    p_inv: list = [None] * dim
    for i, cell in enumerate(pairing):
        j, x = cell or (None, 0)
        if not x or type(j) is not int or not 0 <= j < dim or p_inv[j] is not None:
            raise ValueError("degenerate pairing")
        x = 1 / Fraction(x)
        p_inv[j] = (i, (-x, x))  # the signed inverse for an even and an odd psi power
    op = LOperator(dim, truncation)
    kept: dict[EffClass, bool] = {}  # truncation and zero class, decided once per class
    for e in table.entries:
        beta = e.beta
        keep = kept.get(beta)
        if keep is None:
            keep = kept[beta] = beta.ordering <= op.truncation
            if keep and beta.is_zero():
                raise ValueError("table entries must have nonzero effective class")
        if not keep:
            continue
        value = PhasedScalar.coerce(e.value)
        if value.is_zero():
            continue
        # column r of the operator matrix gets value * P^{-1}[col][m] in row m
        mrow, signed = p_inv[e.col]
        op.add_term(beta, -e.psi_power - 1, mrow, e.row, value * signed[e.psi_power % 2])
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

    On the sector with rotation f the compact-type subspace is the image of
    the Euler-factor multiplication (`euler_image_dim`), realized by the
    pushforwards of H^p for p below its dimension.  Kept in `m.kept`; a call gets a copy.
    """
    if "ct basis" not in m.kept:
        m.kept["ct basis"] = tuple((s.f, p) for s in m.sectors for p in range(euler_image_dim(m, s)))
    return list(m.kept["ct basis"])


def transported_table(table: InvariantTable, m: WPSModel, basis: list[tuple[Fraction, int]]) -> InvariantTable:
    """Rewrite dual-bundle two-pointed values as substack values.

    Each entry picks up the global phase e^{i*pi*(deg(det E) + rank)} of the
    invariant comparison and the inverse transport phases e^{-i*pi*age} of the
    two insertions, expressing the result against the plain ambient basis.
    It keeps the input's dimension, indices and powers, so it is built unchecked.
    The sectors' integer ages and the shifts deg(det E) + rank go over one
    denominator D: an entry's exponent is an integer k, its phase `PhasedScalar.root(k, D)`.
    """
    N = lcm(*m.weights)
    ages = {s.f: s.age_num for s in m.sectors}
    dets = {e.beta: e.beta.det for e in table.entries}
    D = lcm(N, *(x.denominator for x in dets.values()))
    basis_ks = [ages[f] * (D // N) for f, _ in basis]
    shift_ks = {beta: (x.numerator + m.rank * x.denominator) * (D // x.denominator) for beta, x in dets.items()}
    entries = []
    for e in table.entries:
        k = shift_ks[e.beta] - basis_ks[e.row] - basis_ks[e.col]
        if isinstance(e.value, PhasedScalar):
            value = PhasedScalar.root(k, D) * e.value
        else:
            value = PhasedScalar.root(k, D, e.value)
        entries.append(TableEntry(e.beta, e.psi_power, e.row, e.col, value, e.sectors))
    out = object.__new__(InvariantTable)
    object.__setattr__(out, "dim", table.dim)
    object.__setattr__(out, "entries", tuple(entries))
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
    problems = [
        f"entry {n}: sector pair {e.sectors} does not match basis sectors"
        for n, e in enumerate(table_e.entries)
        if e.sectors is not None and e.sectors != (pair := (basis[e.row][0], basis[e.col][0]))
        and (e.sectors[0] % 1, e.sectors[1] % 1) != pair
    ]
    if problems:
        raise ValueError("inconsistent table: " + "; ".join(problems))
    if dim == 0:
        return report
    if "ct basis rows" not in m.kept:  # the two pairings' rows on the basis, kept like the basis
        m.kept["ct basis rows"] = {kind: pairing_rows(m, kind, basis) for kind in ("ct", "ambient")}
    op_e = build_L(table_e, m.kept["ct basis rows"]["ct"], truncation)
    op_z = build_L(transported_table(table_e, m, basis), m.kept["ct basis rows"]["ambient"], truncation)
    op_e_sub = op_e.substitute_novikov()
    # delta is diagonal: it scales the columns of op_z and the rows of op_e_sub
    ages = {s.f: s.age_num for s in m.sectors}
    delta = [PhasedScalar.root(ages[f], lcm(*m.weights)) for f, _ in basis]
    # Every cell of every key counts as a check; a cell neither operator
    # stores is zero on both sides, so only the stored cells are compared, in
    # row-major order, up to the first violation.
    zero = PhasedScalar()
    keys = op_z.nonzero_keys() | op_e_sub.nonzero_keys()
    report.checks = len(keys) * dim * dim
    for key in sorted(keys, key=lambda k: (k[0].ordering, k[1], str(k[0]))):
        z_cells, e_cells = op_z.terms.get(key, {}), op_e_sub.terms.get(key, {})
        for i, j in sorted(z_cells.keys() | e_cells.keys()):
            z, e = z_cells.get((i, j), zero), e_cells.get((i, j), zero)
            if z.is_zero() and e.is_zero():
                continue
            lhs = z * delta[j]
            rhs = delta[i] * e
            if lhs != rhs:
                report.first_violation = {
                    "beta": str(key[0]),
                    "z_power": key[1],
                    "entry": (i, j),
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
                return report
    return report


def random_invariant_table(
    m: WPSModel,
    truncation,
    rng: random.Random,
    n_classes: int = 3,
    a_max: int = 2,
) -> InvariantTable:
    """Seeded random table against the compact-type basis of the model.

    Degree vectors are (ordering, det) pairs; ordering degrees are integers in
    [1, truncation], det degrees small rationals (integral or not, so both the
    sign and the genuine-phase branches of the substitution get exercised).
    Each (class, psi power, row, column) slot is drawn with probability 0.6.
    """
    density = 0.6
    basis = compact_type_basis(m)
    dim = len(basis)
    entries = []
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
                    entries.append(
                        TableEntry(
                            beta,
                            a,
                            row,
                            col,
                            value,
                            sectors=(basis[row][0], basis[col][0]),
                        )
                    )
    return InvariantTable(dim, entries)
