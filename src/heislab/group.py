"""Exact and finite-difference calculus on the Heisenberg group H^n.

A point of H^n is eta = (x, y, tau) with x, y in R^n and tau in R.  The
group multiplication is

    eta o eta' = (x + x', y + y', tau + tau' + 2(<x, y'> - <x', y>)),

the gauge norm is |eta| = ((|x|^2 + |y|^2)^2 + tau^2)^(1/4), and the
horizontal fields

    X_i = d/dx_i + 2 y_i d/dtau,     Y_i = d/dy_i - 2 x_i d/dtau

generate the sub-Laplacian  Delta = sum_i (X_i^2 + Y_i^2).  In coordinates,

    Delta f = Delta_(x,y) f + 4 |(x,y)|^2 f_tautau + 4 sum_i (y_i f_(x_i tau) - x_i f_(y_i tau)).

`sublaplacian` evaluates it exactly on polynomial fields by nesting
`horizontal_field`; `fd_sublaplacian` is its central-difference reference
for any field, built on the group law.

Everything here is vectorised: x and y carry shape (..., n), tau carries
the matching batch shape (...), and results broadcast.  Fields expose
value(p), with coordinates indexed in the flat order (x_1..x_n, y_1..y_n,
tau); index 2n is always tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """A (possibly batched) point (x, y, tau) of H^n.

    x and y have shape (..., n); tau has the batch shape (...).
    """

    x: np.ndarray
    y: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        if self.x.ndim == 0 or self.y.ndim == 0:
            raise ParameterError("x and y must carry a trailing axis of length n")
        if self.x.shape[-1] != self.y.shape[-1]:
            raise ParameterError(f"x has n={self.x.shape[-1]} but y has n={self.y.shape[-1]}")

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def Q(self) -> int:
        return 2 * self.n + 2

    def flat(self) -> np.ndarray:
        """Coordinates stacked as (..., 2n+1) in (x, y, tau) order."""
        x, y, tau = np.broadcast_arrays(self.x, self.y, self.tau[..., None])
        return np.concatenate([x, y, tau[..., :1]], axis=-1)

    @classmethod
    def from_flat(cls, z: np.ndarray) -> "GroupPoint":
        z = np.asarray(z, dtype=float)
        n = (z.shape[-1] - 1) // 2
        if z.shape[-1] != 2 * n + 1:
            raise ParameterError("flat coordinate length must be odd (2n+1)")
        return cls(z[..., :n], z[..., n : 2 * n], z[..., 2 * n])

    def __repr__(self):
        return f"GroupPoint(n={self.n}, batch={self.x.shape[:-1]})"


def point(x, y, tau) -> GroupPoint:
    """Convenience constructor; scalars are promoted to n = 1 coordinates."""
    return GroupPoint(np.atleast_1d(x), np.atleast_1d(y), tau)


def origin(n: int = 1) -> GroupPoint:
    return GroupPoint(np.zeros(n), np.zeros(n), 0.0)


def compose(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product a o b."""
    if a.n != b.n:
        raise ParameterError(f"cannot compose points with n={a.n} and n={b.n}")
    twist = 2.0 * np.sum(a.x * b.y - b.x * a.y, axis=-1)
    return GroupPoint(a.x + b.x, a.y + b.y, a.tau + b.tau + twist)


def inverse(a: GroupPoint) -> GroupPoint:
    """Group inverse (-x, -y, -tau)."""
    return GroupPoint(-a.x, -a.y, -a.tau)


def _norm4(p: GroupPoint):
    sq = np.sum(p.x * p.x, axis=-1) + np.sum(p.y * p.y, axis=-1)
    return sq, np.sqrt(sq * sq + p.tau * p.tau)


def gauge_norm(a: GroupPoint) -> np.ndarray:
    """Homogeneous gauge ((|x|^2+|y|^2)^2 + tau^2)^(1/4)."""
    _, r2 = _norm4(a)
    return np.sqrt(r2)


def dilate(lam: float, a: GroupPoint) -> GroupPoint:
    """Anisotropic dilation (lam x, lam y, lam^2 tau); Jacobian lam^Q."""
    if not lam > 0:
        raise ParameterError("dilation factor must be positive")
    return GroupPoint(lam * a.x, lam * a.y, lam * lam * a.tau)


def fd_sublaplacian(value, p: GroupPoint, h: float):
    """Central-difference Delta f at p for any field value(p), from the group law.

    s -> (s e_k, 0, 0) o p has velocity X_k and s -> (0, s e_k, 0) o p has
    velocity Y_k, so sum_k (f(a_h o p) - 2 f(p) + f(a_-h o p)) / h^2 over these
    2n translations is Delta f + O(h^2), from 1 + 4n evaluations.
    """
    if not h > 0:
        raise ParameterError("finite-difference step h must be positive")
    centre = value(p)
    out = 0.0
    for a in map(GroupPoint.from_flat, h * np.eye(2 * p.n + 1)[: 2 * p.n]):  # h e_k, k < 2n
        out = out + (value(compose(a, p)) - 2.0 * centre + value(compose(inverse(a), p)))
    return out / (h * h)


def gauge_radial(p: GroupPoint, rho2: float, profile):
    """(u, Delta u) at p for u(eta) = f(|eta|^2 / rho2), where profile(s) gives (f, f', f''):
    Delta u = omega (4 |eta|^2 / rho2^2 f'' + 2 Q / rho2 f'), with omega = (|x|^2+|y|^2)/|eta|^2,
    is the radial identity Delta phi = omega (phi'' + (Q-1)/r phi').  omega is taken as 0 at
    the origin, where a profile flat at s = 0 has Delta u = 0."""
    Q, (sq, r2) = p.Q, _norm4(p)
    del p  # a point translated for this call (GaugeBump) is freed before the profile runs
    v, d1, d2 = profile(r2 / rho2)
    radial = 4.0 * r2 / rho2**2 * d2 + 2.0 * Q / rho2 * d1
    with np.errstate(invalid="ignore", divide="ignore"):
        omega = np.where(r2 > 0.0, sq / np.where(r2 > 0.0, r2, 1.0), 0.0)
    return v, omega * radial


# ---------------------------------------------------------------------------
# Polynomial fields.  Their derivatives and affine pullbacks are polynomials
# again, which gives exact oracles for the identity checks (commutators,
# left invariance, dilation homogeneity).
# ---------------------------------------------------------------------------


class PolyField:
    """Polynomial in the flat coordinates with exact derivatives.

    coeffs maps exponent tuples of length 2n+1 to coefficients, e.g. for
    n=1 the monomial x*tau^2 is {(1, 0, 2): 1.0}.
    """

    def __init__(self, coeffs: dict, n: int):
        self.ncoords, self.npairs, self._diff_cache = 2 * n + 1, n, {}
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.ncoords:
                raise ParameterError("exponent tuple length must be 2n+1")
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + float(c)
        self.coeffs = clean

    @classmethod
    def _clean(cls, coeffs: dict, n: int) -> "PolyField":
        """A field from exponent tuples that are already clean; only zero coefficients are dropped."""
        field = cls({}, n)
        field.coeffs = {exps: c for exps, c in coeffs.items() if c != 0.0}
        return field

    def value(self, p: GroupPoint):
        z = p.flat()
        out = np.zeros(z.shape[:-1])
        for exps, c in sorted(self.coeffs.items()):
            term = np.full(z.shape[:-1], c)
            for k, e in enumerate(exps):
                if e:
                    term = term * z[..., k] ** e
            out = out + term
        return out

    def diff(self, i: int) -> "PolyField":
        """The exact partial derivative along flat coordinate i (0..2n, 2n is tau)."""
        if i in self._diff_cache:
            return self._diff_cache[i]
        if not 0 <= i < self.ncoords:
            raise ParameterError(f"coordinate index {i} out of range for n={self.npairs}")
        out = {}
        for exps, c in self.coeffs.items():
            if exps[i] > 0:
                shifted = list(exps)
                shifted[i] -= 1
                out[tuple(shifted)] = out.get(tuple(shifted), 0.0) + c * exps[i]
        field = PolyField._clean(out, self.npairs)
        self._diff_cache[i] = field
        return field

    def __add__(self, other: "PolyField") -> "PolyField":
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0.0) + c
        return PolyField._clean(out, self.npairs)

    def __mul__(self, other: "PolyField") -> "PolyField":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolyField._clean(out, self.npairs)

    def pullback(self, A: np.ndarray, b: np.ndarray) -> "PolyField":
        """The expanded polynomial z -> f(A z + b)."""
        d, n = self.ncoords, self.npairs
        const = (0,) * d
        units = [tuple(int(m == k) for m in range(d)) for k in range(d)]
        rows = [PolyField({const: b[k], **{units[m]: A[k][m] for m in range(d)}}, n)
                for k in range(d)]
        out = PolyField({}, n)
        for exps, c in self.coeffs.items():
            term = PolyField({const: c}, n)
            for k, e in enumerate(exps):
                for _ in range(e):
                    term = term * rows[k]
            out = out + term
        return out


def horizontal_field(f: PolyField, i: int, kind: str) -> PolyField:
    """X_i f or Y_i f as a polynomial field (exact, enables nesting)."""
    n = f.npairs
    if not 1 <= i <= n:
        raise ParameterError(f"horizontal index {i} out of range 1..{n}")
    t = 2 * n

    def monomial(k, c):  # c z_k
        return PolyField({tuple(int(m == k) for m in range(t + 1)): c}, n)

    if kind == "X":
        return f.diff(i - 1) + f.diff(t) * monomial(n + i - 1, 2.0)
    if kind == "Y":
        return f.diff(n + i - 1) + f.diff(t) * monomial(i - 1, -2.0)
    raise ParameterError(f"kind must be 'X' or 'Y', got {kind!r}")


def sublaplacian(f: PolyField, p: GroupPoint):
    """Delta f = sum_i X_i(X_i f) + Y_i(Y_i f) at p, exact, from the nested frame."""
    squares = (horizontal_field(horizontal_field(f, i, kind), i, kind)
               for i in range(1, f.npairs + 1) for kind in "XY")
    return sum(squares, PolyField({}, f.npairs)).value(p)


def random_polynomial(n: int, rng: np.random.Generator) -> PolyField:
    """Random polynomial of six terms of degree at most 3 with O(1) coefficients."""
    ncoords = 2 * n + 1
    coeffs = {}
    for _ in range(6):  # a degree from 0 to 3, then that many coordinates, with repeats
        coords = rng.integers(0, ncoords, size=int(rng.integers(0, 4)))
        exps = tuple(int(e) for e in np.bincount(coords, minlength=ncoords))
        coeffs[exps] = coeffs.get(exps, 0.0) + float(rng.uniform(-1, 1))
    return PolyField(coeffs, n)


def random_points(n: int, m: int, rng: np.random.Generator) -> GroupPoint:
    """m points of H^n with coordinates uniform on [-1, 1), drawn x, then y, then tau."""
    return GroupPoint(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m))


def identity_battery(n: int, rng: np.random.Generator) -> list:
    """(name, measured, threshold) of each group-calculus identity of H^n, on random
    points and random polynomials drawn from rng in a fixed order: the group axioms and
    norm homogeneity, [X_i, Y_i] = -4 d/dtau and [X_i, Y_j] = 0 for i < j, left
    invariance (on the polynomial plus tau^3) and dilation homogeneity (factor lam^2)
    of Delta, the gauge-radial formula on c0 + c1 r^4 + c2 r^8, and the deviation of
    the observed order of `fd_sublaplacian` from 2.  The axioms and the cross bracket
    need two pairs, so they run at max(n, 2); every other row runs at n."""
    m, d = max(n, 2), 2 * n + 1
    a, b, c = (random_points(m, 100, rng) for _ in range(3))
    assoc = compose(compose(a, b), c).flat() - compose(a, compose(b, c)).flat()
    rows = [("associativity", np.max(np.abs(assoc)), 1e-12),
            ("inverse_law", np.max(np.abs(compose(a, inverse(a)).flat())), 1e-12)]
    lam = 1.0 + float(rng.random())
    rows.append(("norm_homogeneity", np.max(np.abs(gauge_norm(dilate(lam, a)) - lam * gauge_norm(a))), 1e-12))

    def bracket(f, i, j, p):  # [X_i, Y_j] f at p
        return (horizontal_field(horizontal_field(f, j, "Y"), i, "X").value(p)
                - horizontal_field(horizontal_field(f, i, "X"), j, "Y").value(p))

    p = random_points(n, 100, rng)
    rows.append(("commutator_XY_minus4", max(
        float(np.max(np.abs(bracket(f, i, i, p) + 4.0 * f.diff(d - 1).value(p))))
        for f in (random_polynomial(n, rng) for _ in range(5)) for i in range(1, n + 1)), 1e-10))
    pm = random_points(m, 100, rng)
    rows.append(("commutator_cross_zero", max(
        float(np.max(np.abs(bracket(f, i, j, pm))))
        for f in (random_polynomial(m, rng) for _ in range(5))
        for i in range(1, m + 1) for j in range(i + 1, m + 1)), 1e-10))

    def monomial(k, e, coef=1.0):  # coef z_k^e
        return PolyField({tuple(e * (j == k) for j in range(d)): coef}, n)

    worst_li, worst_dh = 0.0, 0.0
    for _ in range(5):
        f = random_polynomial(n, rng)
        s = random_points(n, 1, rng)
        shift = GroupPoint(s.x[0], s.y[0], s.tau[0])
        ft = f + monomial(d - 1, 3)  # Delta tau^3 = 24 |z|^2 tau, so a wrong tau of the shifted point shows
        g = ft.pullback(*invariant_translation(shift))
        worst_li = max(worst_li, float(np.max(np.abs(sublaplacian(g, p) - sublaplacian(ft, compose(p, shift))))))
        lam = 0.5 + float(rng.random())
        g = f.pullback(dilation_matrix(lam, n), np.zeros(d))
        worst_dh = max(worst_dh, float(np.max(np.abs(
            sublaplacian(g, p) - lam**2 * sublaplacian(f, dilate(lam, p))))))
    rows += [("left_invariance", worst_li, 1e-8), ("dilation_homogeneity", worst_dh, 1e-8)]

    sq = sum((monomial(k, 2) for k in range(1, 2 * n)), monomial(0, 2))
    r4 = sq * sq + monomial(d - 1, 2)  # (|x|^2 + |y|^2)^2 + tau^2
    c0, c1, c2 = (float(rng.uniform(-1, 1)) for _ in range(3))
    f = r4 * r4 * monomial(0, 0, c2) + r4 * monomial(0, 0, c1) + monomial(0, 0, c0)
    _, lap = gauge_radial(p, 1.0, lambda s: (
        c0 + c1 * s**2 + c2 * s**4, 2 * c1 * s + 4 * c2 * s**3, 2 * c1 + 12 * c2 * s**2))
    rows.append(("radial_identity", float(np.max(np.abs(sublaplacian(f, p) - lap))), 1e-8))

    def smooth(pt):  # sin x_1 cos y_1 e^(tau/3)
        return np.sin(pt.x[..., 0]) * np.cos(pt.y[..., 0]) * np.exp(pt.tau / 3.0)

    def lap_exact(pt):  # X_i^2 and Y_i^2 add 4 y_i^2 / 9 and 4 x_i^2 / 9 times smooth, every i
        x, y, e = pt.x[..., 0], pt.y[..., 0], np.exp(pt.tau / 3.0)
        return ((4.0 * np.sum(pt.x * pt.x + pt.y * pt.y, axis=-1) / 9.0 - 2.0) * smooth(pt)
                + 4.0 / 3.0 * e * (y * np.cos(x) * np.cos(y) + x * np.sin(x) * np.sin(y)))

    probe = random_points(n, 50, rng)
    errs = [float(np.max(np.abs(fd_sublaplacian(smooth, probe, h) - lap_exact(probe)))) for h in (1e-2, 5e-3)]
    rows.append(("fd_order_deviation", abs(float(np.log2(errs[0] / errs[1])) - 2.0), 0.2))
    return [(name, float(measured), threshold) for name, measured, threshold in rows]


def invariant_translation(a: GroupPoint):
    """Affine map (A, b) with A z + b = flat(eta o a) for eta = unflat(z).

    With this product convention the horizontal frame (and hence the
    sub-Laplacian) is invariant under exactly this translation: pulling a
    field back along eta -> eta o a commutes with Delta.  (Composing the
    fixed element on the other side flips the tau-twist sign and is not a
    symmetry of the printed frame.)
    """
    n = a.n
    d = 2 * n + 1
    A = np.eye(d)
    A[d - 1, :n] = 2.0 * a.y
    A[d - 1, n : 2 * n] = -2.0 * a.x
    return A, a.flat()


def dilation_matrix(lam: float, n: int) -> np.ndarray:
    """Linear part of the dilation delta_lam in flat coordinates."""
    if not lam > 0:
        raise ParameterError("dilation factor must be positive")
    return np.diag([lam] * (2 * n) + [lam * lam])
