"""Exact and finite-difference calculus on the Heisenberg group H^n.

A point of H^n is eta = (x, y, tau) with x, y in R^n and tau in R.  The
group multiplication is

    eta o eta' = (x + x', y + y', tau + tau' + 2(<x, y'> - <x', y>)),

the gauge norm is |eta| = ((|x|^2 + |y|^2)^2 + tau^2)^(1/4), and the
horizontal fields

    X_i = d/dx_i + 2 y_i d/dtau,     Y_i = d/dy_i - 2 x_i d/dtau

generate the sub-Laplacian  Delta = sum_i (X_i^2 + Y_i^2).

Everything here is vectorised: x and y carry shape (..., n), tau carries
the matching batch shape (...), and results broadcast.  Derivative
oracles address coordinates by flat index in the order
(x_1..x_n, y_1..y_n, tau); index 2n is always tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, ParameterError


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
            raise DimensionMismatch("x and y must carry a trailing axis of length n")
        if self.x.shape[-1] != self.y.shape[-1]:
            raise DimensionMismatch(
                f"x has n={self.x.shape[-1]} but y has n={self.y.shape[-1]}"
            )

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
            raise DimensionMismatch("flat coordinate length must be odd (2n+1)")
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
        raise DimensionMismatch(f"cannot compose points with n={a.n} and n={b.n}")
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


def anisotropy_weight(p: GroupPoint) -> np.ndarray:
    """The factor (|x|^2+|y|^2)/r^2 in [0, 1]; undefined at the origin."""
    sq, r2 = _norm4(p)
    if np.any(r2 == 0.0):
        raise DomainError("anisotropy weight is undefined at the origin")
    return sq / r2


@dataclass(frozen=True)
class RadialProfile:
    """A C^2 profile phi(r) on r >= 0 with explicit first two derivatives."""

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]


class SmoothField:
    """Scalar field on H^n with first and second derivative oracles.

    If analytic oracles are not supplied, central differences with step h
    are used (the mixed second derivative uses the 4-point cross formula).
    Index pairs handed to the second-derivative oracle are canonicalised
    (i <= j) so the oracle is symmetric by construction.
    """

    def __init__(self, value, grad=None, hess=None, h: float = 1e-4):
        if h <= 0:
            raise ParameterError("finite-difference step h must be positive")
        self._value = value
        self._grad = grad
        self._hess = hess
        self.h = h
        self.kind = "analytic" if (grad is not None and hess is not None) else "central-difference"

    def value(self, p: GroupPoint):
        return self._value(p)

    @staticmethod
    def _shifted(p: GroupPoint, i: int, delta: float) -> GroupPoint:
        n = p.n
        if i == 2 * n:
            return GroupPoint(p.x, p.y, p.tau + delta)
        moved = (p.x if i < n else p.y).copy()
        moved[..., i % n] += delta
        return GroupPoint(moved, p.y, p.tau) if i < n else GroupPoint(p.x, moved, p.tau)

    def d1(self, p: GroupPoint, i: int):
        if i < 0 or i > 2 * p.n:
            raise ParameterError(f"coordinate index {i} out of range for n={p.n}")
        if self._grad is not None:
            return self._grad(p, i)
        h = self.h
        return (self._value(self._shifted(p, i, h)) - self._value(self._shifted(p, i, -h))) / (2 * h)

    def d2(self, p: GroupPoint, i: int, j: int):
        if min(i, j) < 0 or max(i, j) > 2 * p.n:
            raise ParameterError(f"coordinate pair ({i},{j}) out of range for n={p.n}")
        i, j = (i, j) if i <= j else (j, i)
        if self._hess is not None:
            return self._hess(p, i, j)
        h = self.h
        if i == j:
            return (
                self._value(self._shifted(p, i, h))
                - 2.0 * self._value(p)
                + self._value(self._shifted(p, i, -h))
            ) / (h * h)
        pp = self._value(self._shifted(self._shifted(p, i, h), j, h))
        pm = self._value(self._shifted(self._shifted(p, i, h), j, -h))
        mp = self._value(self._shifted(self._shifted(p, i, -h), j, h))
        mm = self._value(self._shifted(self._shifted(p, i, -h), j, -h))
        return (pp - pm - mp + mm) / (4 * h * h)


def horizontal_derivative(f: SmoothField, i: int, kind: str, p: GroupPoint):
    """Apply X_i (kind "X") or Y_i (kind "Y") to f at p.  i is 1-based."""
    n = p.n
    if not 1 <= i <= n:
        raise ParameterError(f"horizontal index {i} out of range 1..{n}")
    if kind == "X":
        return f.d1(p, i - 1) + 2.0 * p.y[..., i - 1] * f.d1(p, 2 * n)
    if kind == "Y":
        return f.d1(p, n + i - 1) - 2.0 * p.x[..., i - 1] * f.d1(p, 2 * n)
    raise ParameterError(f"kind must be 'X' or 'Y', got {kind!r}")


def sublaplacian(f: SmoothField, p: GroupPoint):
    """Delta f = Delta_(x,y) f + 4|(x,y)|^2 f_tt + 4 sum_i (y_i f_{x_i t} - x_i f_{y_i t})."""
    n = p.n
    t = 2 * n
    out = 0.0
    for i in range(n):
        out = out + f.d2(p, i, i) + f.d2(p, n + i, n + i)
    sq = np.sum(p.x * p.x, axis=-1) + np.sum(p.y * p.y, axis=-1)
    out = out + 4.0 * sq * f.d2(p, t, t)
    for i in range(n):
        out = out + 4.0 * (p.y[..., i] * f.d2(p, i, t) - p.x[..., i] * f.d2(p, n + i, t))
    return out


def sublaplacian_radial(profile: RadialProfile, p: GroupPoint):
    """For u(eta) = phi(|eta|): Delta u = omega(eta) (phi'' + (Q-1)/r phi')."""
    r = gauge_norm(p)
    if np.any(r == 0.0):
        raise DomainError("radial sub-Laplacian is undefined at the origin")
    w = anisotropy_weight(p)
    Q = p.Q
    return w * (profile.d2(r) + (Q - 1) / r * profile.d1(r))


# ---------------------------------------------------------------------------
# Polynomial fields and affine pullbacks.  These give exact oracles for the
# identity checks (commutators, left invariance, dilation homogeneity).
# ---------------------------------------------------------------------------


class PolyField(SmoothField):
    """Polynomial in the flat coordinates with exact derivative oracles.

    coeffs maps exponent tuples of length 2n+1 to coefficients, e.g. for
    n=1 the monomial x*tau^2 is {(1, 0, 2): 1.0}.
    """

    def __init__(self, coeffs: dict, n: int):
        self.ncoords = 2 * n + 1
        self.npairs = n
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.ncoords:
                raise ParameterError("exponent tuple length must be 2n+1")
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + float(c)
        self.coeffs = clean
        self._diff_cache = {}
        super().__init__(self._evaluate, self._exact_d1, self._exact_d2)

    def _evaluate(self, p: GroupPoint):
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
        if i in self._diff_cache:
            return self._diff_cache[i]
        out = {}
        for exps, c in self.coeffs.items():
            if exps[i] > 0:
                shifted = list(exps)
                shifted[i] -= 1
                out[tuple(shifted)] = out.get(tuple(shifted), 0.0) + c * exps[i]
        field = PolyField(out, self.npairs)
        self._diff_cache[i] = field
        return field

    def mul_coord(self, i: int) -> "PolyField":
        out = {}
        for exps, c in self.coeffs.items():
            raised = list(exps)
            raised[i] += 1
            out[tuple(raised)] = out.get(tuple(raised), 0.0) + c
        return PolyField(out, self.npairs)

    def scaled(self, a: float) -> "PolyField":
        return PolyField({e: a * c for e, c in self.coeffs.items()}, self.npairs)

    def __add__(self, other: "PolyField") -> "PolyField":
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0.0) + c
        return PolyField(out, self.npairs)

    def __mul__(self, other: "PolyField") -> "PolyField":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolyField(out, self.npairs)

    def _exact_d1(self, p, i):
        return self.diff(i)._evaluate(p)

    def _exact_d2(self, p, i, j):
        return self.diff(i).diff(j)._evaluate(p)


def horizontal_field(f: PolyField, i: int, kind: str) -> PolyField:
    """X_i f or Y_i f as a polynomial field (exact, enables nesting)."""
    n = f.npairs
    if not 1 <= i <= n:
        raise ParameterError(f"horizontal index {i} out of range 1..{n}")
    t = 2 * n
    if kind == "X":
        return f.diff(i - 1) + f.diff(t).mul_coord(n + i - 1).scaled(2.0)
    if kind == "Y":
        return f.diff(n + i - 1) + f.diff(t).mul_coord(i - 1).scaled(-2.0)
    raise ParameterError(f"kind must be 'X' or 'Y', got {kind!r}")


def random_polynomial(n: int, rng: np.random.Generator, degree: int = 3, terms: int = 6) -> PolyField:
    """Random polynomial with integer-grid exponents and O(1) coefficients."""
    ncoords = 2 * n + 1
    coeffs = {}
    for _ in range(terms):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=ncoords))
        if sum(exps) > degree:
            exps = tuple(e if k == np.argmax(exps) else 0 for k, e in enumerate(exps))
        coeffs[exps] = coeffs.get(exps, 0.0) + float(rng.uniform(-1, 1))
    return PolyField(coeffs, n)


def affine_pullback(f: SmoothField, A: np.ndarray, b: np.ndarray) -> SmoothField:
    """The field g(z) = f(A z + b) with chain-rule oracles.

    Analytic if f is analytic: grad g = A^T grad f, hess g = A^T H A.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = A.shape[0]
    cols = [np.nonzero(A[:, i])[0] for i in range(d)]

    def mapped(p: GroupPoint) -> GroupPoint:
        z = p.flat()
        return GroupPoint.from_flat(z @ A.T + b)

    def value(p):
        return f.value(mapped(p))

    if f.kind != "analytic":
        return SmoothField(value, h=f.h)

    def grad(p, i):
        mp = mapped(p)
        out = 0.0
        for k in cols[i]:
            out = out + A[k, i] * f.d1(mp, k)
        return out

    def hess(p, i, j):
        mp = mapped(p)
        out = 0.0
        for k in cols[i]:
            for l in cols[j]:
                out = out + A[k, i] * A[l, j] * f.d2(mp, k, l)
        return out

    return SmoothField(value, grad, hess)


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
