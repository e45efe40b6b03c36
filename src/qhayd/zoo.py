"""Built-in validated example algebras, modules, and coaction structures.

Constructors return fully assembled structures; ``validate`` is expected to
pass on every entry and the test suite enforces that.  The bundled
anti-Yetter-Drinfeld specimens carry an expected-properties manifest
(validity, stability verdicts) that the suite reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Optional

from .errors import InconsistentSystemError, ShapeError
from .fields import Field, PrimeField, QQ
from .linalg import Matrix, kernel_basis, solve, vstack
from .qha import QuasiHopfAlgebra, make_quasi_hopf, validate
from .repcat import Module, character_module, regular_module, trivial_module
from .ayd import AydTypeI
from .tensors import Tensor, basis_vec, vec_zero

__all__ = [
    "group_algebra",
    "cyclic_table",
    "s3_table",
    "sweedler_h4",
    "dual_group_cocycle",
    "cocycle_z2",
    "cocycle_z3",
    "ZooEntry",
    "BundledAyd",
    "zoo_names",
    "build_entry",
]


# -- group algebras ------------------------------------------------------------


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    """Multiplication table of S3 acting on {0,1,2}; p*q applies q first."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        table.append([index[tuple(p[q[i]] for i in range(3))] for q in perms])
    return table


def _group_table_checks(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise ShapeError("group table is not square over valid indices")
    # identity
    ident = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise ShapeError("group table has no identity element")
    # associativity and inverses
    for i in range(n):
        if ident not in table[i]:
            raise ShapeError(f"element {i} has no inverse")
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ShapeError("group table is not associative")
    return ident


def group_algebra(table, field: Field, names=None) -> QuasiHopfAlgebra:
    """Group algebra k[G] from a Cayley table: Delta(g)=g(x)g, S(g)=g^-1, trivial Phi."""
    ident = _group_table_checks(table)
    if ident != 0:
        raise ShapeError("group table must list the identity first")
    n = len(table)
    if names is None:
        names = [f"g{i}" for i in range(n)]
    z, o = field.zero(), field.one()
    mult = [
        [tuple(o if l == table[i][j] else z for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    unit = basis_vec(field, n, 0)
    delta_rows = []
    for j in range(n):
        row = [z] * (n * n)
        row[j * n + j] = o
        delta_rows.append(tuple(row))
    counit = (o,) * n
    inv = [table[i].index(0) for i in range(n)]
    s_cols = [basis_vec(field, n, inv[j]) for j in range(n)]
    phi = _trivial_associator(field, n, unit)
    return make_quasi_hopf(
        field, names, mult, unit, delta_rows, counit, phi, s_cols, unit, unit,
        phi_inv=phi,
    )


def _trivial_associator(field: Field, n: int, unit) -> Tensor:
    coeffs = [field.zero()] * n**3
    for i, a in enumerate(unit):
        if not a:
            continue
        for j, b in enumerate(unit):
            if not b:
                continue
            for k, c in enumerate(unit):
                if c:
                    coeffs[(i * n + j) * n + k] = a * b * c
    return Tensor(field, n, 3, tuple(coeffs))


# -- Sweedler's four-dimensional Hopf algebra ----------------------------------


def sweedler_h4(field: Field) -> QuasiHopfAlgebra:
    """Basis {1, g, x, gx} with g^2 = 1, x^2 = 0, xg = -gx; S has order 4."""
    if field.characteristic == 2:
        raise ShapeError("the four-dimensional Sweedler algebra needs characteristic != 2")
    z, o = field.zero(), field.one()
    n = 4

    def vec(*pairs):
        v = [z] * n
        for idx, c in pairs:
            v[idx] = field.from_int(c)
        return tuple(v)

    # indices: 0 = 1, 1 = g, 2 = x, 3 = gx
    mult = [
        [vec((0, 1)), vec((1, 1)), vec((2, 1)), vec((3, 1))],
        [vec((1, 1)), vec((0, 1)), vec((3, 1)), vec((2, 1))],
        [vec((2, 1)), vec((3, -1)), vec(), vec()],
        [vec((3, 1)), vec((2, -1)), vec(), vec()],
    ]
    unit = vec((0, 1))

    def two(*pairs):
        v = [z] * (n * n)
        for (a, b), c in pairs:
            v[a * n + b] = field.from_int(c)
        return tuple(v)

    delta_rows = [
        two(((0, 0), 1)),
        two(((1, 1), 1)),
        two(((2, 0), 1), ((1, 2), 1)),   # Delta(x) = x(x)1 + g(x)x
        two(((3, 1), 1), ((0, 3), 1)),   # Delta(gx) = gx(x)g + 1(x)gx
    ]
    counit = (o, o, z, z)
    s_cols = [vec((0, 1)), vec((1, 1)), vec((3, -1)), vec((2, 1))]
    phi = _trivial_associator(field, n, unit)
    return make_quasi_hopf(
        field, ("1", "g", "x", "gx"), mult, unit, delta_rows, counit, phi,
        s_cols, unit, unit, phi_inv=phi,
    )


# -- dual group algebras with a 3-cocycle associator ---------------------------


def _check_cocycle(n: int, omega, field: Field):
    one = field.one()
    for i, j, k in product(range(n), repeat=3):
        if (i == 0 or j == 0 or k == 0) and omega(i, j, k) != one:
            raise ShapeError("cocycle is not counital-normalized")
        if not omega(i, j, k):
            raise ShapeError("cocycle takes a zero value")
    for a, b, c, d in product(range(n), repeat=4):
        lhs = omega(b, c, d) * omega(a, (b + c) % n, d) * omega(a, b, c)
        rhs = omega((a + b) % n, c, d) * omega(a, b, (c + d) % n)
        if lhs != rhs:
            raise ShapeError(f"3-cocycle identity fails at {(a, b, c, d)}")


def dual_group_cocycle(n: int, omega: Callable, field: Field) -> QuasiHopfAlgebra:
    """Functions on Z/n with associator built from a normalized 3-cocycle.

    The basis idempotents e_i satisfy e_i e_j = delta_ij e_i,
    Delta(e_i) = sum_{j+k=i} e_j (x) e_k, S(e_i) = e_{-i}, and
    Phi = sum omega(i,j,k)^-1 e_i (x) e_j (x) e_k.  The elements alpha and
    beta are solved from the antipode identities, then re-validated.
    """
    _check_cocycle(n, omega, field)
    z, o = field.zero(), field.one()
    mult = [
        [basis_vec(field, n, i) if i == j else vec_zero(field, n) for j in range(n)]
        for i in range(n)
    ]
    unit = (o,) * n
    delta_rows = []
    for i in range(n):
        row = [z] * (n * n)
        for j in range(n):
            row[j * n + ((i - j) % n)] = o
        delta_rows.append(tuple(row))
    counit = tuple(o if i == 0 else z for i in range(n))
    s_cols = [basis_vec(field, n, (-j) % n) for j in range(n)]
    phi_coeffs = [z] * n**3
    for i, j, k in product(range(n), repeat=3):
        phi_coeffs[(i * n + j) * n + k] = o / omega(i, j, k)
    phi = Tensor(field, n, 3, tuple(phi_coeffs))

    names = [f"e{i}" for i in range(n)]
    h = make_quasi_hopf(
        field, names, mult, unit, delta_rows, counit, phi, s_cols,
        unit, unit,  # provisional alpha, beta; replaced below
    )
    alpha, beta = _solve_antipode_elements(h)
    h = QuasiHopfAlgebra(h.qb, h.s, h.s_inv, alpha, beta)
    rep = validate(h)
    if not rep.passed:
        failed = ", ".join(item.name for item in rep.failures())
        raise InconsistentSystemError(
            f"no antipode normalization found for this cocycle (failing: {failed})"
        )
    return h


def _antipode_linear_space(h: QuasiHopfAlgebra, side: str) -> Matrix:
    """Kernel basis of the linear antipode condition on alpha (side='left')
    or beta (side='right')."""
    n, f = h.dim, h.field
    blocks = []
    for i in range(n):
        op = Matrix.zeros(f, n, n)
        for (a, b), c in h.qb.delta_of_basis(i):
            if side == "left":
                # S(e_a) . alpha . e_b
                m = h.algebra.left_mult_matrix(h.s.col(a)) @ h.algebra.right_mult_matrix(
                    basis_vec(f, n, b)
                )
            else:
                # e_a . beta . S(e_b)
                m = h.algebra.left_mult_matrix(basis_vec(f, n, a)) @ h.algebra.right_mult_matrix(
                    h.s.col(b)
                )
            op = op + m.scale(c)
        eps = h.qb.counit_of_basis(i)
        blocks.append(op - Matrix.identity(f, n).scale(eps))
    return kernel_basis(vstack(blocks))


def _solve_antipode_elements(h: QuasiHopfAlgebra):
    """Find (alpha, beta) satisfying all four antipode identities.

    The per-element identities are linear in alpha and beta separately; the
    two associator normalizations are linear in beta once alpha is fixed, so
    we scan a small set of alpha candidates from the linear space.
    """
    n, f = h.dim, h.field
    alg = h.algebra
    a_space = _antipode_linear_space(h, "left")
    b_space = _antipode_linear_space(h, "right")
    if a_space.cols == 0 or b_space.cols == 0:
        raise InconsistentSystemError("antipode linear conditions have no solution")

    candidates = []
    unit_col = Matrix.column(f, alg.unit)
    in_space = solve(a_space, unit_col)
    if in_space is not None:
        candidates.append(alg.unit)
    for c in range(a_space.cols):
        candidates.append(a_space.col(c))
    candidates.append(tuple(sum(a_space.row(r), f.zero()) for r in range(n)))

    for alpha in candidates:
        beta = _solve_beta_given_alpha(h, alpha, b_space)
        if beta is not None:
            return alpha, beta
    raise InconsistentSystemError("no (alpha, beta) satisfies the associator normalizations")


def _solve_beta_given_alpha(h: QuasiHopfAlgebra, alpha, b_space: Matrix):
    """beta = b_space @ c with X beta S(Y) alpha Z = 1 and S(P) alpha Q beta R = 1."""
    n, f = h.dim, h.field
    alg = h.algebra
    # first normalization: sum_phi  L_X R_{S(Y) alpha Z} beta
    m1 = Matrix.zeros(f, n, n)
    for (i, j, k), c in h.phi.nonzeros():
        tail = alg.mul_vec(h.s.col(j), alg.mul_vec(alpha, basis_vec(f, n, k)))
        m1 = m1 + (
            alg.left_mult_matrix(basis_vec(f, n, i)) @ alg.right_mult_matrix(tail)
        ).scale(c)
    # second normalization: sum_phiinv  L_{S(P) alpha Q} R_R beta
    m2 = Matrix.zeros(f, n, n)
    for (i, j, k), c in h.phi_inv.nonzeros():
        head = alg.mul_vec(h.s.col(i), alg.mul_vec(alpha, basis_vec(f, n, j)))
        m2 = m2 + (
            alg.left_mult_matrix(head) @ alg.right_mult_matrix(basis_vec(f, n, k))
        ).scale(c)
    big = vstack([m1 @ b_space, m2 @ b_space])
    target = Matrix.column(f, alg.unit + alg.unit)
    sol = solve(big, target)
    if sol is None:
        return None
    coeffs = sol.particular.col(0)
    return b_space.apply(coeffs)


def cocycle_z2(field: Field) -> Callable:
    """omega(i,j,k) = (-1)^(ijk) on Z/2; genuinely quasi when char != 2."""
    if field.characteristic == 2:
        raise ShapeError("the sign 3-cocycle is trivial in characteristic 2")
    minus = -field.one()

    def omega(i, j, k):
        return minus if i * j * k % 2 else field.one()

    return omega


def cocycle_z3(field: Field, zeta=None) -> Callable:
    """A normalized generator of H^3(Z/3, k*) compatible with the antipode
    normalizations.

    Starting from zeta^(i * floor((j+k)/3)) we multiply by the coboundary of
    eta with eta(1,2) = zeta (else 1); the plain representative leaves
    X beta S(Y) alpha Z = 1 and S(P) alpha Q beta R = 1 unsolvable.
    """
    if zeta is None:
        zeta = _find_cube_root(field)
    one = field.one()
    zpow = {0: one, 1: zeta, 2: zeta * zeta}

    def eta(i, j):
        return zeta if (i, j) == (1, 2) else one

    def omega(i, j, k):
        base = zpow[(i * ((j % 3 + k % 3) // 3)) % 3]
        cob = eta(j % 3, k % 3) * eta(i % 3, (j + k) % 3) / (
            eta((i + j) % 3, k % 3) * eta(i % 3, j % 3)
        )
        return base * cob

    return omega


def _find_cube_root(field: Field):
    if not isinstance(field, PrimeField):
        raise ShapeError("a primitive cube root of unity is required; use a suitable F_p")
    one = field.one()
    for r in range(2, field.p):
        x = field.from_int(r)
        if x * x * x == one and x != one:
            return x
    raise ShapeError(f"F_{field.p} contains no primitive cube root of unity")


# -- bundled entries -----------------------------------------------------------


@dataclass
class BundledAyd:
    name: str
    module_name: str
    ayd: AydTypeI
    expected_valid: bool
    expected_stable: Optional[bool]
    expected_sigma_identity: Optional[bool]
    note: str = ""


@dataclass
class ZooEntry:
    name: str
    description: str
    algebra: QuasiHopfAlgebra
    modules: dict
    ayds: dict

    def manifest(self) -> dict:
        out = {
            "name": self.name,
            "validate": True,
            "modules": sorted(self.modules),
            "ayd": {},
        }
        for key, b in sorted(self.ayds.items()):
            out["ayd"][key] = {
                "module": b.module_name,
                "valid": b.expected_valid,
                "stable": b.expected_stable,
                "sigma_identity": b.expected_sigma_identity,
            }
        return out


def _coaction_matrix(m: Module, h_part) -> Matrix:
    """rho for a one-dimensional module: 1 -> 1 (x) u."""
    n = m.algebra.dim
    return Matrix.from_rows(m.field, [[c] for c in h_part])


def _entry_z2(field: Field) -> ZooEntry:
    h = group_algebra(cyclic_table(2), field, names=["1", "g"])
    triv = trivial_module(h)
    sign = character_module(h, [field.one(), -field.one()], name="sign")
    modules = {"trivial": triv, "regular": regular_module(h), "sign": sign}
    g = basis_vec(field, 2, 1)
    ayds = {
        "trivial_unit": BundledAyd(
            "trivial_unit", "trivial",
            AydTypeI(triv, _coaction_matrix(triv, h.unit)),
            expected_valid=True, expected_stable=True, expected_sigma_identity=True,
        ),
        "sign_g": BundledAyd(
            "sign_g", "sign",
            AydTypeI(sign, _coaction_matrix(sign, g)),
            expected_valid=True, expected_stable=False, expected_sigma_identity=False,
            note="sign character with grouplike g: valid and unstable",
        ),
    }
    return ZooEntry("z2", "group algebra of Z/2", h, modules, ayds)


def _entry_z3(field: Field) -> ZooEntry:
    h = group_algebra(cyclic_table(3), field)
    modules = {"trivial": trivial_module(h), "regular": regular_module(h)}
    return ZooEntry("z3", "group algebra of Z/3", h, modules, {})


def _entry_s3(field: Field) -> ZooEntry:
    h = group_algebra(s3_table(), field)
    sign_values = []
    perms = sorted(permutations(range(3)))
    for p in perms:
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b]
        )
        sign_values.append(-field.one() if inversions % 2 else field.one())
    modules = {
        "trivial": trivial_module(h),
        "regular": regular_module(h),
        "sign": character_module(h, sign_values, name="sign"),
    }
    return ZooEntry("s3", "group algebra of S3 (noncommutative test bed)", h, modules, {})


def _entry_h4(field: Field) -> ZooEntry:
    h = sweedler_h4(field)
    triv = trivial_module(h)
    chi = character_module(
        h, [field.one(), -field.one(), field.zero(), field.zero()], name="chi_minus"
    )
    modules = {"trivial": triv, "regular": regular_module(h), "chi_minus": chi}
    g = basis_vec(field, 4, 1)
    ayds = {
        "k_g": BundledAyd(
            "k_g", "trivial",
            AydTypeI(triv, _coaction_matrix(triv, g)),
            expected_valid=True, expected_stable=True, expected_sigma_identity=True,
            note="trivial action with grouplike g: the modular-pair-like point",
        ),
        "chi_minus_g": BundledAyd(
            "chi_minus_g", "chi_minus",
            AydTypeI(chi, _coaction_matrix(chi, g)),
            expected_valid=False, expected_stable=False, expected_sigma_identity=False,
            note="chi(g) = -1 with grouplike g: fails the compatibility "
            "equation, kept as the unstable counterexample",
        ),
    }
    return ZooEntry("h4", "Sweedler's four-dimensional Hopf algebra", h, modules, ayds)


def _entry_k2w(field: Field) -> ZooEntry:
    h = dual_group_cocycle(2, cocycle_z2(field), field)
    triv = trivial_module(h)
    char1 = character_module(h, [field.zero(), field.one()], name="char1")
    modules = {"trivial": triv, "regular": regular_module(h), "char1": char1}
    one, minus = field.one(), -field.one()
    ayds = {
        "point_plus": BundledAyd(
            "point_plus", "trivial",
            AydTypeI(triv, _coaction_matrix(triv, (one, one))),
            expected_valid=True, expected_stable=True, expected_sigma_identity=None,
        ),
        "point_minus": BundledAyd(
            "point_minus", "trivial",
            AydTypeI(triv, _coaction_matrix(triv, (one, minus))),
            expected_valid=True, expected_stable=True, expected_sigma_identity=None,
            note="second solver point on the genuinely quasi dual of Z/2",
        ),
    }
    return ZooEntry(
        "k2w", "functions on Z/2 twisted by the sign 3-cocycle", h, modules, ayds
    )


def _entry_k3w(field: Field) -> ZooEntry:
    h = dual_group_cocycle(3, cocycle_z3(field), field)
    modules = {
        "trivial": trivial_module(h),
        "regular": regular_module(h),
        "char1": character_module(
            h, [field.zero(), field.one(), field.zero()], name="char1"
        ),
    }
    return ZooEntry("k3w", "functions on Z/3 twisted by a nontrivial 3-cocycle", h, modules, {})


_BUILDERS = {
    "z2": (_entry_z2, QQ),
    "z3": (_entry_z3, QQ),
    "s3": (_entry_s3, QQ),
    "h4": (_entry_h4, QQ),
    "k2w": (_entry_k2w, QQ),
    "k3w": (_entry_k3w, PrimeField(7)),
}


def zoo_names():
    return sorted(_BUILDERS)


def build_entry(name: str, field: Optional[Field] = None) -> ZooEntry:
    if name not in _BUILDERS:
        raise ShapeError(f"unknown zoo entry {name!r}; known: {', '.join(zoo_names())}")
    builder, default_field = _BUILDERS[name]
    return builder(field if field is not None else default_field)
