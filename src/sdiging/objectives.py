"""Component-function families and per-agent local objectives.

A local objective is the average of ``q`` component functions.  Every
component exposes ``value``, ``gradient``, a strong-convexity modulus
``mu`` and a gradient-Lipschitz constant ``lip``; the rate certification
and the reference solver only see this interface.  For the synchronous
round, every component class also stacks the parameters of many
components (``stack_params``) and evaluates all their gradients at once
(``stacked_gradient``, row k at point row k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from sdiging.errors import InvalidArgumentError

# Floor applied to measured signal strengths, as a fraction of the source
# strength; noise can push raw measurements nonpositive.
MEASUREMENT_CLAMP_FRACTION = 1e-6


class Quadratic:
    """f(x) = 0.5 x'Ax + b'x with A symmetric positive definite."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.dim = self.b.shape[0]
        eig = np.linalg.eigvalsh(self.a)
        self.mu = float(eig[0])
        self.lip = float(eig[-1])

    def value(self, x):
        return 0.5 * float(x @ self.a @ x) + float(self.b @ x)

    def gradient(self, x):
        return self.a @ x + self.b

    @staticmethod
    def stack_params(comps):
        return [np.stack([c.a for c in comps]), np.stack([c.b for c in comps])]

    @staticmethod
    def stacked_gradient(params, x):
        a, b = params
        return np.einsum("kij,kj->ki", a, x) + b


class LogisticSample:
    """Ridge-regularized logistic loss of a single labelled sample.

    f(x) = (lam/2m)||x||^2 + q*log(1 + exp(-l c'x)).  The log term uses the
    overflow-safe branch max(z,0) + log1p(exp(-|z|)).
    """

    def __init__(self, c: np.ndarray, label: int, lam: float, m: int, q: int):
        if lam <= 0:
            raise InvalidArgumentError(f"regularizer must be positive, got {lam}")
        if label not in (-1, 1):
            raise InvalidArgumentError(f"label must be -1 or +1, got {label}")
        self.c = np.asarray(c, dtype=float)
        self.label = int(label)
        self.dim = self.c.shape[0]
        self.lam_m = lam / m
        self.q = int(q)
        self._lc = self.label * self.c          # cached l*c
        self.mu = self.lam_m
        self.lip = self.lam_m + self.q * float(self.c @ self.c) / 4.0

    def value(self, x):
        z = -float(self._lc @ x)
        # log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|))
        return 0.5 * self.lam_m * float(x @ x) + self.q * (
            max(z, 0.0) + np.log1p(np.exp(-abs(z)))
        )

    def gradient(self, x):
        z = -float(self._lc @ x)
        return self.lam_m * x - expit(z) * (self.q * self._lc)

    @staticmethod
    def stack_params(comps):
        return [np.array([c.lam_m for c in comps]),
                np.stack([c._lc for c in comps]),
                np.array([float(c.q) for c in comps])]

    @staticmethod
    def stacked_gradient(params, x):
        lam_m, lc, q = params
        z = -np.einsum("kn,kn->k", lc, x)
        # q*lc bracketed as gradient brackets it, so the rows round alike
        return lam_m[:, None] * x - expit(z)[:, None] * (q[:, None] * lc)

    # The two oracles below give every agent's local average at one point x,
    # agent i's components being rows offsets[i] .. offsets[i] + q[i] - 1.
    # For agents built by make_logistic_local (one lam_m, q = the agent's
    # component count) the q's cancel: lam_m*x - sum_h sigmoid(-lc_h.x)*lc_h.
    # With equal q the sums are a batched matmul and a row sum, which round
    # as one agent's do; uneven q sums with reduceat.

    @staticmethod
    def local_gradients_at(params, offsets, q, x):
        """Row i: agent i's full local gradient at x."""
        lam_m, lc, _ = params
        s, m = expit(-(lc @ x)), len(q)
        if (q == q[0]).all():
            tilt = (s.reshape(m, 1, -1) @ lc.reshape(m, q[0], -1))[:, 0]
        else:
            tilt = np.add.reduceat(s[:, None] * lc, offsets, axis=0)
        return lam_m[offsets, None] * x - tilt

    @staticmethod
    def local_values_at(params, offsets, q, x):
        """Entry i: agent i's local objective value at x."""
        lam_m, lc, _ = params
        z = -(lc @ x)
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        if (q == q[0]).all():
            sums = soft.reshape(len(q), -1).sum(axis=1)
        else:
            sums = np.add.reduceat(soft, offsets)
        return 0.5 * lam_m[offsets] * float(x @ x) + sums


class DiskDistance:
    """Squared distance to the disk of radius sqrt(a/c) around a sensor.

    Convex but not strongly convex (mu = 0); the gradient is 2-Lipschitz.
    Nonpositive measurements are clamped to a small positive floor before
    the radius is formed, and the clamp is recorded on the instance.
    """

    def __init__(self, r: np.ndarray, c_meas: float, a: float):
        if a <= 0:
            raise InvalidArgumentError(f"source strength must be positive, got {a}")
        self.r = np.asarray(r, dtype=float)
        self.dim = self.r.shape[0]
        floor = MEASUREMENT_CLAMP_FRACTION * a
        self.clamped = c_meas < floor
        self.radius = float(np.sqrt(a / max(c_meas, floor)))
        self.mu = 0.0
        self.lip = 2.0

    def project(self, x):
        d = x - self.r
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return x
        return self.r + (self.radius / dist) * d

    def value(self, x):
        resid = x - self.project(x)
        return float(resid @ resid)

    def gradient(self, x):
        return 2.0 * (x - self.project(x))

    @staticmethod
    def stack_params(comps):
        return [np.stack([c.r for c in comps]),
                np.array([c.radius for c in comps])]

    @staticmethod
    def stacked_gradient(params, x):
        r, radius = params
        d = x - r
        dist = np.sqrt(np.einsum("kn,kn->k", d, d))
        out = dist > radius      # a point inside its disk is its own projection
        proj = x.copy()
        proj[out] = r[out] + (radius[out] / dist[out])[:, None] * d[out]
        return 2.0 * (x - proj)


class KMeansPoint:
    """Distance of one data point to its nearest of K stacked centers.

    The decision variable stacks the centers: x = [m_1; ...; m_K].  Ties in
    the nearest-center assignment break toward the lowest index.  The
    per-block gradient Lipschitz constant 2 is reported even though the
    function is only piecewise smooth across assignment boundaries.
    """

    def __init__(self, p: np.ndarray, k: int):
        if k < 1:
            raise InvalidArgumentError(f"cluster count must be >= 1, got {k}")
        self.p = np.asarray(p, dtype=float)
        self.k = int(k)
        self.point_dim = self.p.shape[0]
        self.dim = self.k * self.point_dim
        self.mu = 0.0
        self.lip = 2.0

    def _nearest(self, x):
        centers = x.reshape(self.k, self.point_dim)
        d2 = np.sum((centers - self.p) ** 2, axis=1)
        l_star = int(np.argmin(d2))          # argmin takes the lowest index on ties
        return l_star, centers, d2

    def value(self, x):
        _, _, d2 = self._nearest(x)
        return float(d2.min())

    def gradient(self, x):
        l_star, centers, _ = self._nearest(x)
        g = np.zeros_like(x)
        lo = l_star * self.point_dim
        g[lo:lo + self.point_dim] = 2.0 * (centers[l_star] - self.p)
        return g

    @staticmethod
    def stack_params(comps):
        return [np.stack([c.p for c in comps])]

    @staticmethod
    def stacked_gradient(params, x):
        (p,) = params
        rows = np.arange(len(p))
        centers = x.reshape(len(p), -1, p.shape[1])
        nearest = np.argmin(np.sum((centers - p[:, None, :]) ** 2, axis=2), axis=1)
        g = np.zeros_like(centers)
        g[rows, nearest] = 2.0 * (centers[rows, nearest] - p)
        return g.reshape(x.shape)


@dataclass
class LocalObjective:
    """Average of q equal-dimension component functions held by one agent."""

    components: list

    def __post_init__(self):
        if not self.components:
            raise InvalidArgumentError("a local objective needs at least one component")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise InvalidArgumentError(f"components disagree on dimension: {dims}")

    @property
    def q(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def value(self, x):
        return sum(c.value(x) for c in self.components) / self.q

    def full_gradient(self, x):
        return full_local_gradient(self, x)


@dataclass
class ProblemInstance:
    """One problem shared by m agents, with aggregate constants.

    ``component_gradients`` and ``local_gradients`` evaluate one gradient
    per agent at the rows of a stacked m x n iterate.  They read the
    component parameters stacked agent-major, built on first use.  On a
    logistic problem ``aggregate_value``/``aggregate_gradient`` read them
    too; every other problem, mixed classes included, sums agent by agent.
    """

    locals: list
    known_optimum: np.ndarray | None = None
    q_min: int = field(init=False)
    q_max: int = field(init=False)
    mu: float = field(init=False)
    lip: float = field(init=False)
    _stacked: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        dims = {lo.dim for lo in self.locals}
        if len(dims) != 1:
            raise InvalidArgumentError(f"agents disagree on dimension: {dims}")
        self.q_min = min(lo.q for lo in self.locals)
        self.q_max = max(lo.q for lo in self.locals)
        self.mu = min(c.mu for lo in self.locals for c in lo.components)
        self.lip = max(c.lip for lo in self.locals for c in lo.components)
        # LogisticSample.local_*_at hold for agents as make_logistic_local
        # builds them; any other problem keeps the per-agent sum
        self._logistic = all(type(c) is LogisticSample and c.q == lo.q
                             and c.lam_m == lo.components[0].lam_m
                             for lo in self.locals for c in lo.components)

    @property
    def m(self) -> int:
        return len(self.locals)

    @property
    def dim(self) -> int:
        return self.locals[0].dim

    def aggregate_value(self, x):
        """Value of the average objective (1/m) sum_i f_i at a single point."""
        if self._logistic:
            _, params, offsets, q = self._stack()
            values = LogisticSample.local_values_at(params, offsets, q, x)
            return sum(values.tolist()) / self.m
        return sum(lo.value(x) for lo in self.locals) / self.m

    def aggregate_gradient(self, x):
        if self._logistic:
            _, params, offsets, q = self._stack()
            rows = LogisticSample.local_gradients_at(params, offsets, q, x)
            # a running sum adds the agents in order, as a loop does, for
            # every n; add.reduce sums pairwise when n == 1
            return np.add.accumulate(rows, axis=0)[-1] / self.m
        return sum(lo.full_gradient(x) for lo in self.locals) / self.m

    def _stack(self):
        """(stacked_gradient, params, offsets, q): agent i's components are
        rows offsets[i] .. offsets[i] + q[i] - 1 of every parameter array."""
        if self._stacked is None:
            comps = [c for lo in self.locals for c in lo.components]
            kinds = {type(c) for c in comps}
            if len(kinds) != 1:
                raise InvalidArgumentError(
                    "a problem must use one component class, got "
                    f"{sorted(k.__name__ for k in kinds)}")
            kind = kinds.pop()
            q = np.array([lo.q for lo in self.locals])
            self._stacked = (kind.stacked_gradient, kind.stack_params(comps),
                             np.cumsum(q) - q, q)
        return self._stacked

    def component_gradients(self, x, h):
        """Row i: gradient of agent i's component h[i] (0-based) at x[i]."""
        grad, params, offsets, _ = self._stack()
        sel = offsets + h
        return grad([p[sel] for p in params], x)

    def local_gradients(self, x):
        """Row i: agent i's full local gradient at x[i]."""
        grad, params, offsets, q = self._stack()
        g = grad(params, np.repeat(x, q, axis=0))
        return np.add.reduceat(g, offsets, axis=0) / q[:, None]


def full_local_gradient(lo: LocalObjective, x: np.ndarray) -> np.ndarray:
    """(1/q) sum of component gradients at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lo.dim,):
        raise InvalidArgumentError(f"expected shape ({lo.dim},), got {x.shape}")
    g = np.zeros(lo.dim)
    for c in lo.components:
        g += c.gradient(x)
    return g / lo.q


def quadratic_family(m: int, q_i: int, n: int, condition_range, seed: int) -> ProblemInstance:
    """Random quadratic components with spectra inside [mu_target, L_target].

    The exact optimum of the aggregate is solved directly and stored on the
    returned instance.
    """
    mu_t, lip_t = condition_range
    if not (0.0 < mu_t <= lip_t):
        raise InvalidArgumentError(f"need 0 < mu <= L, got [{mu_t}, {lip_t}]")
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x51AD])
    locals_ = []
    a_sum = np.zeros((n, n))
    b_sum = np.zeros(n)
    for _ in range(m):
        comps = []
        for _ in range(q_i):
            qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(mu_t, lip_t, size=n)
            a = qmat @ np.diag(eigs) @ qmat.T
            a = 0.5 * (a + a.T)
            b = rng.standard_normal(n)
            comps.append(Quadratic(a, b))
            a_sum += a / q_i
            b_sum += b / q_i
        locals_.append(LocalObjective(comps))
    x_star = np.linalg.solve(a_sum, -b_sum)
    return ProblemInstance(locals=locals_, known_optimum=x_star)


def make_logistic_local(features, labels, lam: float, m: int) -> LocalObjective:
    """Agent-local logistic objective: one LogisticSample per labelled row."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    q = features.shape[0]
    return LocalObjective(components=[
        LogisticSample(c=features[h], label=int(labels[h]), lam=lam, m=m, q=q)
        for h in range(q)])


def load_logistic_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``label,feat1,...,featn`` rows; returns (labels, features)."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    labels = raw[:, 0].astype(int)
    if not set(np.unique(labels)) <= {-1, 1}:
        raise InvalidArgumentError("labels must be -1 or +1")
    return labels, raw[:, 1:]


def load_points_csv(path) -> np.ndarray:
    """Read ``x,y`` rows of 2-D points."""
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.shape[1] != 2:
        raise InvalidArgumentError(f"expected 2 columns, got {pts.shape[1]}")
    return pts
