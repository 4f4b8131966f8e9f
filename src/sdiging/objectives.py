"""Component-function families and per-agent local objectives.

A local objective is the average of ``q`` component functions.  Every
component exposes ``value``, ``gradient``, a strong-convexity modulus
``mu`` and a gradient-Lipschitz constant ``lip``; the rate certification
and the reference solver only see this interface.  For the synchronous
round, every component class also stacks the parameters of many
components (``stack_params``) and evaluates all their gradients at once
(``stacked_gradient``, row k at point row k).  The stacked logistic
parameters hold each sample's ``q*l*c`` next to ``l*c``, formed once, so
the round does not form it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
        self._lc = self.c if self.label == 1 else -self.c   # l*c, bit for bit
        self.mu = self.lam_m
        self.lip = self.lam_m + self.q * float(self.c.dot(self.c)) / 4.0

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
        """[lam_m as a column, l*c, q*l*c]: q*lc bracketed as ``gradient``
        brackets it, so the rows round alike."""
        lc = np.stack([c._lc for c in comps])
        q = np.array([float(c.q) for c in comps])
        return [np.array([c.lam_m for c in comps])[:, None], lc, q[:, None] * lc]

    @staticmethod
    def stacked_gradient(params, x):
        lam_m, lc, qlc = params
        z = -np.einsum("kn,kn->k", lc, x)
        return lam_m * x - expit(z)[:, None] * qlc

    # The two oracles below give every agent's local average at one point x
    # for agents built by make_logistic_local (one lam_m per agent, q = the
    # agent's component count), where the q's cancel:
    # lam_m*x - sum_h sigmoid(-lc_h.x)*lc_h.  Agent i's components are rows
    # offsets[i] .. of lc; ``split`` is None when every agent has the same
    # q, and the sums are then a batched matmul and a row sum, which round
    # as one agent's do; uneven q sums with reduceat at ``split``.

    @staticmethod
    def local_gradients_at(lam_m, lc, split, x):
        """Row i: agent i's full local gradient at x."""
        s, m = expit(-(lc @ x)), len(lam_m)
        if split is None:
            tilt = (s.reshape(m, 1, -1) @ lc.reshape(m, -1, lc.shape[1]))[:, 0]
        else:
            tilt = np.add.reduceat(s[:, None] * lc, split, axis=0)
        return lam_m[:, None] * x - tilt

    @staticmethod
    def local_values_at(lam_m, lc, split, x):
        """Entry i: agent i's local objective value at x."""
        z = -(lc @ x)
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        if split is None:
            sums = soft.reshape(len(lam_m), -1).sum(axis=1)
        else:
            sums = np.add.reduceat(soft, split)
        return 0.5 * lam_m * float(x @ x) + sums


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


class StackedParams(NamedTuple):
    """Component parameters stacked agent-major: agent i's components are
    rows offsets[i] .. offsets[i] + q[i] - 1 of every parameter array, and
    its component h (1-based) is row first[i] + h.  ``split`` is
    ``offsets``, or None when every agent has the same q."""

    grad: Callable              # the component class's stacked_gradient
    params: list                # and its stack_params
    offsets: np.ndarray
    q: np.ndarray
    first: np.ndarray           # offsets - 1
    split: np.ndarray | None


class ProblemInstance:
    """One problem shared by m agents, with aggregate constants.

    Built from per-agent ``LocalObjective``s, or as stacked arrays by
    ``ProblemInstance.logistic``, which makes its ``locals`` only when they
    are read.  ``q`` holds each agent's component count and ``kind`` the
    one component class (None for a mix).

    ``component_gradients``, ``drawn_gradients`` and ``local_gradients``
    evaluate one gradient per agent at the rows of a stacked m x n iterate.
    They read the component parameters stacked agent-major, built on first
    use.  On a logistic problem ``aggregate_value``/``aggregate_gradient``
    read them too; every other problem, mixed classes included, sums agent
    by agent.
    """

    def __init__(self, locals: list, known_optimum: np.ndarray | None = None):
        self._locals, self.known_optimum = locals, known_optimum
        self._stacked = None
        dims = {lo.dim for lo in locals}
        if len(dims) != 1:
            raise InvalidArgumentError(f"agents disagree on dimension: {dims}")
        self.dim = dims.pop()
        qs = [lo.q for lo in locals]
        self.q = np.array(qs)
        self.q_min, self.q_max = min(qs), max(qs)
        # One pass over the components for mu, lip (as min and max take
        # them), the component class and the logistic test:
        # LogisticSample.local_*_at hold for agents as make_logistic_local
        # builds them, and _logistic then holds each agent's lam_m; any
        # other problem (None) keeps the per-agent sum.
        c0 = locals[0].components[0]
        kind, mu, lip, lam = type(c0), c0.mu, c0.lip, []
        for lo, q in zip(locals, qs):
            head = lo.components[0]
            for c in lo.components:
                if c.mu < mu:
                    mu = c.mu
                if c.lip > lip:
                    lip = c.lip
                if type(c) is not kind:
                    kind = None
                if lam is not None and not (kind is LogisticSample
                                            and c.q == q
                                            and c.lam_m == head.lam_m):
                    lam = None
            if lam is not None:
                lam.append(head.lam_m)
        self.kind, self.mu, self.lip = kind, mu, lip
        self._logistic = None if lam is None else np.array(lam)

    @classmethod
    def logistic(cls, features, labels, lam: float, m: int) -> "ProblemInstance":
        """The instance of ``make_logistic_local`` on each of m equal,
        consecutive slices of the labelled rows, built as stacked arrays
        with the same bits; its ``locals`` are made when first read."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if not 0 < lam < np.inf:
            raise InvalidArgumentError(
                f"regularizer must be finite and positive, got {lam}")
        if not np.isin(labels, (-1, 1)).all():
            raise InvalidArgumentError("labels must be -1 or +1")
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise InvalidArgumentError("need one label per row of features")
        q = len(labels) // m if m >= 1 else 0
        if q < 1 or q * m != len(labels):
            raise InvalidArgumentError(
                f"{len(labels)} samples do not split into {m} agents")
        self = cls.__new__(cls)
        self._locals, self._rows = None, (features, labels, lam)
        self.known_optimum, self.kind = None, LogisticSample
        self.dim, self.q_min, self.q_max = features.shape[1], q, q
        self.q, lam_m = np.full(m, q), lam / m
        lc = np.where(labels[:, None] == 1, features, -features)  # l*c, bit for bit
        # every row's c.c at once, rounded as c.dot(c) rounds it
        dots = (features[:, None, :] @ features[:, :, None])[:, 0, 0]
        self.mu, self.lip = lam_m, float((lam_m + q * dots / 4.0).max())
        self._logistic = np.full(m, lam_m)
        offsets = q * np.arange(m)
        self._stacked = StackedParams(
            LogisticSample.stacked_gradient,
            [np.full((len(lc), 1), lam_m), lc, float(q) * lc],
            offsets, self.q, offsets - 1, None)
        return self

    @property
    def locals(self) -> list:
        """One ``LocalObjective`` per agent."""
        if self._locals is None:
            features, labels, lam = self._rows
            self._locals = [
                make_logistic_local(f, lab, lam=lam, m=self.m) for f, lab in
                zip(np.split(features, self.m), np.split(labels, self.m))]
        return self._locals

    @property
    def m(self) -> int:
        return len(self.q)

    def aggregate_value(self, x):
        """Value of the average objective (1/m) sum_i f_i at a single point."""
        if self._logistic is not None:
            st = self._stack()
            values = LogisticSample.local_values_at(
                self._logistic, st.params[1], st.split, x)
            # a running sum adds the agents in order, as a loop does
            return float(np.add.accumulate(values)[-1] / self.m)
        return sum(lo.value(x) for lo in self.locals) / self.m

    def aggregate_gradient(self, x):
        if self._logistic is not None:
            st = self._stack()
            rows = LogisticSample.local_gradients_at(
                self._logistic, st.params[1], st.split, x)
            # a running sum adds the agents in order, as a loop does, for
            # every n; add.reduce sums pairwise when n == 1
            return np.add.accumulate(rows, axis=0)[-1] / self.m
        return sum(lo.full_gradient(x) for lo in self.locals) / self.m

    def _stack(self) -> StackedParams:
        if self._stacked is None:
            comps = [c for lo in self.locals for c in lo.components]
            if self.kind is None:
                raise InvalidArgumentError(
                    "a problem must use one component class, got "
                    f"{sorted({type(c).__name__ for c in comps})}")
            q = self.q
            offsets = np.cumsum(q) - q
            self._stacked = StackedParams(
                self.kind.stacked_gradient, self.kind.stack_params(comps),
                offsets, q, offsets - 1, None if (q == q[0]).all() else offsets)
        return self._stacked

    def component_gradients(self, x, h):
        """Row i: gradient of agent i's component h[i] (0-based) at x[i]."""
        return self.drawn_gradients(x, np.asarray(h) + 1)

    def drawn_gradients(self, x, idx):
        """Row i: gradient of agent i's component idx[i] (1-based, as
        ``GradientTables.draw`` gives it) at x[i]."""
        st = self._stack()
        rows = st.first + idx
        return st.grad([p.take(rows, axis=0) for p in st.params], x)

    def local_gradients(self, x):
        """Row i: agent i's full local gradient at x[i]."""
        grad, params, offsets, q, _, _ = self._stack()
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
        LogisticSample(c=c, label=label, lam=lam, m=m, q=q)
        for c, label in zip(features, labels.tolist())])


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
