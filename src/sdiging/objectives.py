"""Component-function families and the problem instances built from them.

A local objective is the average of ``q`` component functions.  A problem
holds the parameters of all its components as arrays ``params`` stacked
agent-major, one row per component, agent i's rows from ``offsets[i]`` on
(``per_agent`` gives them as one block per agent).  Each component class
evaluates many rows at once: ``stacked_gradient`` and ``stacked_value``
give row k's gradient and value at point row k, and ``constants`` the
dimension, the strong-convexity modulus ``mu`` and the gradient-Lipschitz
constant ``lip`` of a stack.  The synchronous round reads one drawn row
per agent; the reference solver reads every agent's local average at one
point (``local_gradients_at`` and ``local_values_at``).  The logistic class
has its own per-agent averages and no ``stacked_value``; its stacked
parameters hold each sample's ``q*l*c`` next to ``l*c``, formed once, so
the round does not form it again.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from sdiging.errors import InvalidArgumentError

# Floor applied to measured signal strengths, as a fraction of the source
# strength; noise can push raw measurements nonpositive.
MEASUREMENT_CLAMP_FRACTION = 1e-6


def _row_dots(d):
    """Entry k: d[k].d[k], as a batched matmul, which rounds as a BLAS dot
    of one row does (einsum does not)."""
    return (d[:, None, :] @ d[:, :, None])[:, 0, 0]


def per_agent(rows, problem: ProblemInstance):
    """The stacked rows as m x q_max blocks, agent i's rows in block i:
    with equal q a reshape of ``rows`` itself, otherwise a copy with every
    agent padded by zero rows after its last component."""
    if problem.q_min == problem.q_max:
        return rows.reshape(problem.m, -1, *rows.shape[1:])
    per = np.zeros((problem.m, problem.q_max, *rows.shape[1:]))
    per[np.arange(problem.q_max) < problem.q[:, None]] = rows
    return per


def _running_sums(rows, problem: ProblemInstance):
    """Row i: agent i's rows added one at a time in component order, as a
    loop over the components adds them (reduce and reduceat sum in another
    order).  Uneven agents are padded with zero rows; adding 0.0 is exact."""
    return np.add.accumulate(per_agent(rows, problem), axis=1)[:, -1]


def _on_every_row(problem: ProblemInstance, x):
    """The single point x as the point of every row, without a copy."""
    return np.broadcast_to(x, (len(problem.params[0]), len(x)))


class _Component:
    """Every agent's local average at a single point x, from the class's
    stacked oracle at x on every row."""

    @classmethod
    def local_gradients_at(cls, problem: ProblemInstance, x):
        """Row i: agent i's full local gradient at x."""
        g = cls.stacked_gradient(problem.params, _on_every_row(problem, x))
        return _running_sums(g, problem) / problem.q[:, None]

    @classmethod
    def local_values_at(cls, problem: ProblemInstance, x):
        """Entry i: agent i's local objective value at x."""
        v = cls.stacked_value(problem.params, _on_every_row(problem, x))
        return _running_sums(v, problem) / problem.q


class Quadratic(_Component):
    """f(x) = 0.5 x'Ax + b'x with A symmetric positive definite.

    Parameters: ``[A (k x n x n), b (k x n)]``.  Row products are batched
    matmuls, which round as one matrix-vector product does.
    """

    @staticmethod
    def constants(params, q):
        a, b = params
        eig = np.linalg.eigvalsh(a)
        return b.shape[1], float(eig[:, 0].min()), float(eig[:, -1].max())

    @staticmethod
    def stacked_gradient(params, x):
        a, b = params
        return (a @ x[:, :, None])[:, :, 0] + b

    @staticmethod
    def stacked_value(params, x):
        a, b = params
        col = x[:, :, None]
        return 0.5 * ((x[:, None, :] @ a) @ col)[:, 0, 0] \
            + (b[:, None, :] @ col)[:, 0, 0]


class LogisticSample(_Component):
    """Ridge-regularized logistic loss of one labelled sample of an agent
    with q samples: f(x) = (lam/2m)||x||^2 + q*log(1 + exp(-l c'x)).

    Parameters: ``[lam/m as a column, l*c, q*l*c]``, as ``logistic_problem``
    builds them: one lam/m per agent and q its sample count, so that in an
    agent's average the q's cancel.  The log term uses the overflow-safe
    branch max(z,0) + log1p(exp(-|z|)).
    """

    @staticmethod
    def constants(params, q):
        lam_m, lc, _ = params
        lip = lam_m[:, 0] + q * _row_dots(lc) / 4.0
        return lc.shape[1], float(lam_m.min()), float(lip.max())

    @staticmethod
    def stacked_gradient(params, x):
        lam_m, lc, qlc = params
        z = -np.einsum("kn,kn->k", lc, x)
        return lam_m * x - expit(z)[:, None] * qlc

    # The two per-agent averages: lam_m*x - sum_h sigmoid(-lc_h.x)*lc_h and
    # 0.5*lam_m*|x|^2 + sum_h log(1 + exp(-lc_h.x)), each agent's sum over
    # its ``per_agent`` block: with equal q a batched matmul and a row sum,
    # which round as one agent's do.

    @staticmethod
    def local_gradients_at(problem: ProblemInstance, x):
        lam_m, lc, _ = problem.params
        s = per_agent(expit(-(lc @ x)), problem)
        tilt = (s[:, None, :] @ per_agent(lc, problem))[:, 0]
        return lam_m[problem.offsets] * x - tilt

    @staticmethod
    def local_values_at(problem: ProblemInstance, x):
        lam_m, lc, _ = problem.params
        z = -(lc @ x)
        soft = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        sums = per_agent(soft, problem).sum(axis=1)
        return 0.5 * lam_m[problem.offsets, 0] * float(x @ x) + sums


class DiskDistance(_Component):
    """Squared distance to the disk of radius sqrt(a/c) around a sensor.

    Parameters: ``[sensor positions (k x 2), radii (k,)]``.  Convex but not
    strongly convex (mu = 0); the gradient is 2-Lipschitz.
    """

    @staticmethod
    def constants(params, q):
        return params[0].shape[1], 0.0, 2.0

    @staticmethod
    def _residual(params, x):
        """Row k: x[k] minus its projection onto disk k."""
        r, radius = params
        d = x - r
        dist = np.sqrt(_row_dots(d))
        out = dist > radius      # a point inside its disk is its own projection
        scale = radius / np.where(out, dist, radius)
        # x - x, not 0.0: a NaN row stays NaN
        return np.where(out[:, None], x - (r + scale[:, None] * d), x - x)

    @staticmethod
    def stacked_gradient(params, x):
        return 2.0 * DiskDistance._residual(params, x)

    @staticmethod
    def stacked_value(params, x):
        return _row_dots(DiskDistance._residual(params, x))


class KMeansPoint(_Component):
    """Distance of one data point to its nearest of K stacked centers.

    Parameters: ``[points (k x d), K per row]``.  The decision variable
    stacks the centers: x = [m_1; ...; m_K].  Ties in the nearest-center
    assignment break toward the lowest index.  The per-block gradient
    Lipschitz constant 2 is reported even though the function is only
    piecewise smooth across assignment boundaries.
    """

    @staticmethod
    def constants(params, q):
        p, k = params
        return int(k[0]) * p.shape[1], 0.0, 2.0

    @staticmethod
    def _distances(params, x):
        """(centers, squared distance of each row's point to its centers)."""
        p = params[0]
        centers = x.reshape(len(p), -1, p.shape[1])
        return centers, np.sum((centers - p[:, None, :]) ** 2, axis=2)

    @staticmethod
    def stacked_gradient(params, x):
        p = params[0]
        centers, d2 = KMeansPoint._distances(params, x)
        rows = np.arange(len(p))
        nearest = np.argmin(d2, axis=1)    # argmin takes the lowest index on ties
        g = np.zeros(centers.shape)
        g[rows, nearest] = 2.0 * (centers[rows, nearest] - p)
        return g.reshape(x.shape)

    @staticmethod
    def stacked_value(params, x):
        return KMeansPoint._distances(params, x)[1].min(axis=1)


class LocalObjective:
    """Agent i's view of a problem's stacked rows: its component count q,
    the dimension, and its local average's value and full gradient at one
    point."""

    def __init__(self, problem: ProblemInstance, i: int):
        self._problem, self._i = problem, i
        self.q, self.dim = int(problem.q[i]), problem.dim

    def _at(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InvalidArgumentError(f"expected shape ({self.dim},), got {x.shape}")
        return x

    def value(self, x) -> float:
        p = self._problem
        return float(p.kind.local_values_at(p, self._at(x))[self._i])

    def full_gradient(self, x):
        p = self._problem
        return p.kind.local_gradients_at(p, self._at(x))[self._i]


class ProblemInstance:
    """One problem shared by m agents: agent i holds q[i] components of the
    class ``kind``, whose parameter arrays ``params`` stack every agent's
    rows in agent order: agent i's are rows ``offsets[i]`` to
    ``offsets[i] + q[i] - 1``, and its component h (1-based) is row
    ``first[i] + h``.  ``dim``, ``mu`` and ``lip`` come from the arrays
    (``kind.constants``).

    ``drawn_gradients`` and ``local_gradients`` evaluate one gradient per
    agent at the rows of a stacked m x n iterate; ``aggregate_value`` and
    ``aggregate_gradient`` evaluate the average objective at one point,
    adding the agents in order, as a loop does.
    """

    # the number of localization measurements raised to the clamp floor;
    # set by the localization family
    clamped_measurements: int | None = None

    def __init__(self, kind, params: list, q, known_optimum=None):
        q = np.asarray(q, dtype=np.int64)
        if q.ndim != 1 or len(q) == 0 or (q < 1).any():
            raise InvalidArgumentError("every agent needs at least one component")
        rows = int(q.sum())
        if any(len(p) != rows for p in params):
            raise InvalidArgumentError(f"every parameter array needs {rows} rows")
        self.kind, self.q, self.known_optimum = kind, q, known_optimum
        self.q_min, self.q_max = int(q.min()), int(q.max())
        self.dim, self.mu, self.lip = kind.constants(params, np.repeat(q, q))
        self.params, self.offsets = params, np.cumsum(q) - q
        self.first = self.offsets - 1

    @property
    def m(self) -> int:
        return len(self.q)

    def aggregate_value(self, x):
        """Value of the average objective (1/m) sum_i f_i at a single point."""
        values = self.kind.local_values_at(self, x)
        return float(np.add.accumulate(values)[-1] / self.m)

    def aggregate_gradient(self, x):
        rows = self.kind.local_gradients_at(self, x)
        # a running sum adds the agents in order, for every n; add.reduce
        # sums pairwise when n == 1
        return np.add.accumulate(rows, axis=0)[-1] / self.m

    def drawn_gradients(self, x, idx):
        """Row i: gradient of agent i's component idx[i] (1-based, as
        ``GradientTables.draw`` gives it) at x[i]."""
        rows = self.first + idx
        return self.kind.stacked_gradient(
            [p.take(rows, axis=0) for p in self.params], x)

    def local_gradients(self, x):
        """Row i: agent i's full local gradient at x[i]."""
        g = self.kind.stacked_gradient(self.params, np.repeat(x, self.q, axis=0))
        return np.add.reduceat(g, self.offsets, axis=0) / self.q[:, None]


def quadratic_family(m: int, q_i: int, n: int, condition_range, seed: int) -> ProblemInstance:
    """Random quadratic components with spectra inside [mu_target, L_target].

    The exact optimum of the aggregate is solved directly and stored on the
    returned instance.
    """
    mu_t, lip_t = condition_range
    if not (0.0 < mu_t <= lip_t):
        raise InvalidArgumentError(f"need 0 < mu <= L, got [{mu_t}, {lip_t}]")
    if min(m, q_i, n) < 1:
        raise InvalidArgumentError(f"need m, q_i, n >= 1, got {m}, {q_i}, {n}")
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x51AD])
    k = m * q_i
    gauss, eigs, b = np.empty((k, n, n)), np.empty((k, n)), np.empty((k, n))
    for j in range(k):          # one component's draws after the other's
        gauss[j] = rng.standard_normal((n, n))
        eigs[j] = rng.uniform(mu_t, lip_t, size=n)
        b[j] = rng.standard_normal(n)
    qmat = np.linalg.qr(gauss)[0]
    a = (qmat * eigs[:, None, :]) @ qmat.transpose(0, 2, 1)     # Q diag(eigs) Q'
    a = 0.5 * (a + a.transpose(0, 2, 1))
    # the average of the agents' averages, summed component by component
    a_sum = np.add.accumulate(a / q_i)[-1]
    b_sum = np.add.accumulate(b / q_i)[-1]
    x_star = np.linalg.solve(a_sum, -b_sum)
    return ProblemInstance(Quadratic, [a, b], np.full(m, q_i), known_optimum=x_star)


def logistic_problem(features, labels, lam: float, m: int) -> ProblemInstance:
    """One ``LogisticSample`` per labelled row, the rows split into m
    equal, consecutive slices, one per agent."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
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
    lc = np.where(labels[:, None] == 1, features, -features)       # l*c
    return ProblemInstance(
        LogisticSample, [np.full((len(lc), 1), lam / m), lc, float(q) * lc],
        np.full(m, q))


def load_logistic_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``label,feat1,...,featn`` rows; returns (labels, features)."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] < 2 or not np.isfinite(raw).all():
        raise InvalidArgumentError("need finite values and a feature column")
    if not np.isin(raw[:, 0], (-1, 1)).all():
        raise InvalidArgumentError("labels must be -1 or +1")
    return raw[:, 0].astype(int), raw[:, 1:]


def load_points_csv(path) -> np.ndarray:
    """Read ``x,y`` rows of 2-D points."""
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.shape[1] != 2:
        raise InvalidArgumentError(f"expected 2 columns, got {pts.shape[1]}")
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("point coordinates must be finite")
    return pts
