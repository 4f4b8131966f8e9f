"""Synchronous-round execution and linear-rate certification.

Three interchangeable update rules operate on stacked per-agent iterates
(one row per agent): deterministic gradient tracking, its stochastic
variant driven by per-agent gradient tables, and the equivalent
primal-dual iteration used for cross-checking.  Certification is one
function, ``certificate_for_problem``: it pins the theory's free
parameters and evaluates the explicit parameter intervals and the rate
constant for strongly convex problems.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from sdiging.errors import (
    CertificationRefused,
    DivergenceError,
    InvalidArgumentError,
)
from sdiging.graph import MixingMatrix
from sdiging.objectives import ProblemInstance, per_agent
from sdiging.saga import GradientTables

ALGORITHMS = ("diging", "sdiging", "primal_dual")

# Abort threshold for runaway iterates (step-sizes beyond the certified
# bound can blow up; the guard preserves the partial trace).
DIVERGENCE_NORM = 1e12

# Underflow floor for the log10 residual.
RESIDUAL_FLOOR = -16.0


@dataclass
class NetworkState:
    """Stacked per-agent state at one synchronous round.

    ``x`` is m x n and ``g_prev`` holds the last gradients (or their SAGA
    estimates).  Gradient-tracking states carry the tracker ``y``; the
    primal-dual state carries ``lam`` instead.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    lam: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    k: int = 0


def make_tables(problem: ProblemInstance, seed: int) -> GradientTables:
    """One gradient table per agent, every slot evaluated at x = 0 by one
    stacked gradient over all components, streams keyed by (seed, agent
    index)."""
    fresh = problem.kind.stacked_gradient(
        problem.params, np.zeros((len(problem.params[0]), problem.dim)))
    return GradientTables(per_agent(fresh, problem), problem.q, seed,
                          range(problem.m))


def _check_rule(rule: str):
    if rule not in ALGORITHMS:
        raise InvalidArgumentError(f"unknown algorithm {rule!r}")


def init_state(rule: str, problem: ProblemInstance,
               tables: GradientTables | None = None) -> NetworkState:
    """Round-0 state of ``rule``: x_0 = 0, and the first gradients are the
    tables' averages, or the full local gradients without tables."""
    _check_rule(rule)
    x0 = np.zeros((problem.m, problem.dim))
    g0 = problem.local_gradients(x0) if tables is None \
        else tables.sums / tables.q[:, None]
    if rule == "primal_dual":
        return NetworkState(x=x0, lam=np.zeros_like(x0), g_prev=g0)
    return NetworkState(x=x0, y=g0.copy(), g_prev=g0)


def step(rule: str, s: NetworkState, w: MixingMatrix, problem: ProblemInstance,
         alpha: float, tables: GradientTables | None = None) -> NetworkState:
    """One synchronous round of ``rule`` for all agents at once.

    Every agent gets one gradient at its new iterate: the SAGA estimate from
    one fresh component drawn from its own stream, or its full local
    gradient without tables (so ``sdiging`` without tables is ``diging``).
    Fed the same streams, ``primal_dual`` and ``sdiging`` have the same
    x-trajectory.
    """
    _check_rule(rule)
    dual = rule == "primal_dual"
    if (s.lam if dual else s.y) is None or s.g_prev is None:
        raise InvalidArgumentError(
            f"state does not carry a {'dual' if dual else 'tracking'} variable")
    if s.x.shape != (w.m, problem.dim) or \
            (tables is not None and len(tables) != problem.m):
        raise InvalidArgumentError("state/tables/problem dimensions disagree")
    return _round(dual, s, w.operator, problem, alpha, tables)[0]


def _round(dual: bool, s: NetworkState, mix, problem: ProblemInstance,
           alpha: float, tables: GradientTables | None, wx=None):
    """The round ``step`` and ``run`` take, without argument checks; ``mix``
    is ``w.operator``.  Returns the new state and, for primal_dual, its
    ``mix @ x``, which ``run`` passes back as ``wx`` (``mix @ s.x``) so that
    the next round does not compute it again."""
    if dual:
        if wx is None:
            wx = mix @ s.x
        # W^2 x - alpha g - (I - W) lam, without forming W^2 or I - W
        x_new = mix @ wx - alpha * s.g_prev - (s.lam - mix @ s.lam)
    else:
        x_new = mix @ s.x - alpha * s.y
    if tables is None:
        g_new = problem.local_gradients(x_new)
    else:
        idx = tables.draw()
        g_new = tables.update(idx, problem.drawn_gradients(x_new, idx))
    if dual:
        wx = mix @ x_new
        return NetworkState(x=x_new, lam=s.lam + (x_new - wx), g_prev=g_new,
                            k=s.k + 1), wx
    return NetworkState(x=x_new, y=mix @ s.y + g_new - s.g_prev, g_prev=g_new,
                        k=s.k + 1), None


def assert_tracking_identity(s: NetworkState, tol: float):
    """Column sums of the tracker must equal those of the last gradients."""
    gap = np.abs(s.y.sum(axis=0) - s.g_prev.sum(axis=0)).max()
    if gap > tol:
        raise AssertionError(f"tracking identity violated: {gap:.3e} > {tol:.3e}")


# ---------------------------------------------------------------------------
# Rate certification
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class RateCertificate:
    """Parameter bundle certifying a linear rate, or the reason it fails;
    ``to_text`` prints the fields in the order they are declared."""

    valid: bool
    reason: str = "ok"
    alpha: float
    alpha_max: float
    phi: float
    gamma: float
    eta: float
    c: float
    d: float
    e: float
    theta: float
    delta: float
    mu: float = 0.0
    lip: float = 0.0
    q_min: int = 1
    q_max: int = 1

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n"
                       for f in fields(self))


def certificate_for_problem(w: MixingMatrix, problem: ProblemInstance,
                            alpha: float | None = None) -> RateCertificate:
    """Evaluate the admissible parameter intervals and the rate constant
    for ``problem``'s constants mu, lip, q_min and q_max on ``w``.

    Free parameters left open by the theory are pinned deterministically:
    phi, gamma, d and e are fixed below, eta sits 5% above its lower
    endpoint, c is the geometric mean of its interval endpoints, and alpha
    (when not given) is half of alpha_max.  An out-of-range alpha, or a c
    outside its interval (empty, or c_lo * c_hi underflowing to 0), yields
    an invalid certificate; only mu <= 0 raises ``CertificationRefused``.
    """
    mu, lip = problem.mu, problem.lip
    q_min, q_max = problem.q_min, problem.q_max
    if mu <= 0:
        raise CertificationRefused("objective is not strongly convex (mu <= 0)")
    # inside the theorem's ranges 0 < phi < 2 mu, 0 < gamma < 1, d, e > 1
    phi, gamma, d, e = mu, 0.5, 2.0, 2.0

    eta_lo = (2.0 * (lip / q_min) * q_max * lip + (2.0 * lip - mu) * lip) \
        / (gamma * (2.0 * mu - phi))
    eta = 1.05 * eta_lo
    alpha_max = w.rho_min ** 2 / (eta + lip * lip / phi)
    if alpha is None:
        alpha = 0.5 * alpha_max

    common = dict(alpha=alpha, alpha_max=alpha_max, phi=phi, gamma=gamma,
                  eta=eta, d=d, e=e, mu=mu, lip=lip, q_min=q_min, q_max=q_max)

    def invalid(reason):
        return RateCertificate(valid=False, reason=reason, c=float("nan"),
                               theta=0.0, delta=0.0, **common)

    if not (0.0 < alpha < alpha_max):
        return invalid("step-size outside the certified interval")

    c_lo = 4.0 * alpha * q_max * lip / eta
    c_hi = 2.0 * q_min * (gamma * alpha * (2.0 * mu - phi)
                          - alpha * (2.0 * lip - mu) * lip / eta) / lip
    c = math.sqrt(c_lo * c_hi)
    if not (c_lo < c < c_hi):
        return invalid("parameter c outside its interval")

    rho2_l2 = w.rho2_l ** 2
    eig = w.eig_w
    rho_max_q = float(np.max((1.0 + 3.0 * eig) * (1.0 - eig))) \
        + alpha * (2.0 * mu - phi)
    ww1_max = float(np.max(eig * (eig - 1.0)))

    t1 = (w.rho_min ** 2 - alpha * (eta + lip * lip / phi)) \
        / ((1.0 / rho2_l2) * (d / (d - 1.0)) * e)
    t2 = ((1.0 - gamma) * alpha * (2.0 * mu - phi)) \
        / (1.0 + gamma * rho_max_q + (4.0 / rho2_l2) * d * ww1_max ** 2)
    t3_num = gamma * alpha * (2.0 * mu - phi) \
        - alpha * (2.0 * lip - mu) * lip / eta - c * lip / (2.0 * q_min)
    t3_den = (c / q_min) * (lip / 2.0) \
        + (1.0 / rho2_l2) * (d / (d - 1.0)) * (e / (e - 1.0)) \
        * alpha ** 2 * (2.0 * lip - mu) * lip
    t3 = t3_num / t3_den
    theta = min(t1, t2, t3)
    if theta <= 0.0:
        return invalid("rate constant is not positive")

    return RateCertificate(valid=True, c=c, theta=theta, delta=0.5 * theta,
                           **common)


def iterations_to_accuracy(cert: RateCertificate, kappa: float,
                           epsilon: float) -> int:
    """Rounds guaranteeing the squared error drops from kappa to epsilon."""
    if not cert.valid:
        raise CertificationRefused(f"certificate is invalid: {cert.reason}")
    if epsilon <= 0:
        raise InvalidArgumentError(f"epsilon must be positive, got {epsilon}")
    if kappa <= epsilon:
        return 0
    return math.ceil((1.0 + 1.0 / cert.delta) * math.log(kappa / epsilon))


# ---------------------------------------------------------------------------
# Round execution
# ---------------------------------------------------------------------------

@dataclass
class RunTrace:
    """Per-round diagnostics recorded at a fixed cadence."""

    rounds: list = field(default_factory=list)
    residual_log10: list = field(default_factory=list)
    consensus_gap: list = field(default_factory=list)
    grad_evals: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("round,residual_log10,consensus_gap,grad_evals,wall_ms\n")
        for row in zip(self.rounds, self.residual_log10, self.consensus_gap,
                       self.grad_evals, self.wall_ms):
            buf.write("%d,%.10g,%.10g,%d,%.6g\n" % row)
        return buf.getvalue()


# Diagnostics are evaluated on stacks of at most this many floats of pending
# iterates: a bound on the memory a batch holds (its iterates, kept alive
# until evaluated, and their stack: 2 x 128 KiB of floats), not a tuning
# knob.  It puts 204 records in a batch at m x n = 80 and 4 at m x n = 4000.
DIAGNOSTIC_FLOATS = 1 << 14


def _reference(x_star, dim: int) -> np.ndarray:
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (dim,):
        raise InvalidArgumentError(
            f"reference needs shape ({dim},), got {x_star.shape}")
    return x_star


def _row_norms(xs: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(xs - centre, axis=-1)``, bit for bit.

    Below 8 columns numpy adds a row's squares in column order, so the
    squares are added one column at a time, each over all rows at once,
    instead of in numpy's inner loop once per short row.  From 8 columns on
    numpy adds them pairwise, and its own norm is used.
    """
    if xs.shape[-1] >= 8:
        return np.linalg.norm(xs - centre, axis=-1)
    total = None
    for j in range(xs.shape[-1]):
        d = xs[..., j] - centre[..., j]
        d *= d
        if total is None:
            total = d
        else:
            total += d
    return np.sqrt(total, out=total)


def residuals_log10(xs: np.ndarray, x_star: np.ndarray) -> list:
    """``residual_log10`` of every iterate of an R x m x n stack."""
    dist = _row_norms(xs, _reference(x_star, xs.shape[-1]))
    mean_dist = np.add.reduce(dist, axis=-1) / xs.shape[1]
    return [RESIDUAL_FLOOR if v == 0.0 else max(math.log10(v), RESIDUAL_FLOOR)
            for v in mean_dist.tolist()]


def consensus_gaps(xs: np.ndarray) -> list:
    """``consensus_gap`` of every iterate of an R x m x n stack."""
    center = np.add.reduce(xs, axis=1) / xs.shape[1]
    return _row_norms(xs, center[:, None]).max(axis=-1).tolist()


def residual_log10(x: np.ndarray, x_star: np.ndarray) -> float:
    """log10 of the mean agent distance to the reference, floored at -16;
    ``x_star`` has shape (n,)."""
    return residuals_log10(np.asarray(x, dtype=float)[None], x_star)[0]


def consensus_gap(x: np.ndarray) -> float:
    """Largest deviation of any agent from the network average."""
    return consensus_gaps(np.asarray(x, dtype=float)[None])[0]


def run(algorithm: str, problem: ProblemInstance, w: MixingMatrix, alpha: float,
        rounds: int, seed: int = 0, record_every: int | None = None,
        reference: np.ndarray | None = None):
    """Execute synchronous rounds and collect a trace.

    Returns ``(trace, final_state)``.  Round 0, every ``record_every``-th
    round and the last round are recorded; ``record_every`` defaults to
    ``max(1, rounds // 2000)`` and must be at least 1.  The residual column
    is NaN when no reference optimum is supplied; a reference has shape
    (n,).  Raises DivergenceError (carrying the partial trace, which ends at
    the offending round) if an iterate norm passes the guard threshold.

    A record keeps the round, a reference to the iterate (``step`` returns
    fresh arrays and never writes into one it returned), the eval count and
    the wall time.  The residual and consensus gap of pending records are
    evaluated together, once ``DIAGNOSTIC_FLOATS`` floats of iterates are
    pending and when the run ends or diverges, with the same values
    ``residual_log10`` and ``consensus_gap`` give one iterate at a time.

    primal_dual's round ends with ``W @ x``, which the next round's first
    product needs again; ``run`` hands it over, so primal_dual applies W
    three times per round after the first, not four as ``step`` does.
    """
    _check_rule(algorithm)
    if rounds < 1:
        raise InvalidArgumentError(f"need rounds >= 1, got {rounds}")
    if w.m != problem.m:
        raise InvalidArgumentError("mixing matrix and problem disagree on m")
    if record_every is None:
        record_every = max(1, rounds // 2000)
    if record_every < 1:
        raise InvalidArgumentError(f"need record_every >= 1, got {record_every}")
    if reference is not None:
        reference = _reference(reference, problem.dim)

    tables = None if algorithm == "diging" else make_tables(problem, seed)
    state = init_state(algorithm, problem, tables)
    per_round = problem.m if tables is not None else int(problem.q.sum())
    evals = per_round

    trace = RunTrace()
    batch = max(1, DIAGNOSTIC_FLOATS // (problem.m * problem.dim))
    pending = []
    t0 = time.perf_counter()

    def evaluate_pending():
        if not pending:
            return
        xs = np.stack(pending)
        trace.residual_log10 += [float("nan")] * len(pending) \
            if reference is None else residuals_log10(xs, reference)
        trace.consensus_gap += consensus_gaps(xs)
        pending.clear()

    def record(st):
        trace.rounds.append(st.k)
        trace.grad_evals.append(evals)
        trace.wall_ms.append((time.perf_counter() - t0) * 1e3)
        pending.append(st.x)
        if len(pending) == batch:
            evaluate_pending()

    record(state)
    dual, mix, wx = algorithm == "primal_dual", w.operator, None
    for _ in range(rounds):
        state, wx = _round(dual, state, mix, problem, alpha, tables, wx)
        evals += per_round
        # the Euclidean norm as np.linalg.norm takes it; NaN and inf
        # entries fail the comparison too
        flat = state.x.ravel()
        if not math.sqrt(flat.dot(flat)) <= DIVERGENCE_NORM:
            record(state)
            evaluate_pending()
            raise DivergenceError(
                f"iterate norm passed {DIVERGENCE_NORM:g} at round {state.k}",
                trace=trace)
        if state.k % record_every == 0 or state.k == rounds:
            record(state)
    evaluate_pending()
    return trace, state

