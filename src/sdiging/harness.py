"""Experiment definition: synthetic data, reference solving, trace output.

Experiments are described by flat INI-style config files with sections
``[problem]``, ``[topology]``, ``[algorithm]`` and ``[output]``; unknown
keys are hard errors.  The centralized reference solver is an accelerated
full-gradient method with backtracking, replacing an external convex
solver.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sdiging import engine, graph, objectives
from sdiging.errors import (
    CertificationRefused,
    ConfigError,
    DivergenceError,
    InvalidArgumentError,
    ReferenceFailure,
)
from sdiging.objectives import (
    DiskDistance,
    KMeansPoint,
    LocalObjective,
    ProblemInstance,
    Quadratic,
    make_logistic_local,
)

DEFAULT_LAMBDA = 1.0          # logistic regularizer when the config is silent
DEFAULT_SIGMA_FRACTION = 0.05  # localization noise std as a fraction of a
REFERENCE_TOL = 1e-10
REFERENCE_MAX_ORACLE = 10 ** 6


# ---------------------------------------------------------------------------
# Synthetic problem generators
# ---------------------------------------------------------------------------

def gaussian_logistic_instance(m: int, q_i: int, n: int = 4, seed: int = 0,
                               lam: float = DEFAULT_LAMBDA) -> ProblemInstance:
    """Two well-separated Gaussian classes, half of each per agent.

    Class +1 features are drawn around (+2,...,+2,-2,...,-2) and class -1
    around the negated mean, both with covariance 2I.
    """
    if q_i % 2 != 0:
        raise InvalidArgumentError(f"q_i must be even (half per class), got {q_i}")
    mean = np.array([2.0] * math.ceil(n / 2) + [-2.0] * (n // 2))
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x106])
    locals_ = []
    half = q_i // 2
    for _ in range(m):
        plus = mean + rng.normal(scale=np.sqrt(2.0), size=(half, n))
        minus = -mean + rng.normal(scale=np.sqrt(2.0), size=(half, n))
        feats = np.vstack([plus, minus])
        labels = np.array([1] * half + [-1] * half)
        locals_.append(make_logistic_local(feats, labels, lam=lam, m=m))
    return ProblemInstance(locals=locals_)


def localization_instance(m: int = 50, q_i: int = 100, field_size: float = 100.0,
                          a: float = 100.0, sigma: float | None = None,
                          theta: float = 2.0, seed: int = 0):
    """Sensors on a square field measuring an attenuated source signal.

    Returns ``(problem, true_source)``.  Sensors closer than 1 to the
    source are resampled (the attenuation model is invalid there).  With
    sigma = 0 every disk boundary passes through the source and the
    aggregate objective attains 0 there, so the true source doubles as the
    known optimum.
    """
    if a <= 0:
        raise InvalidArgumentError(f"source strength must be positive, got {a}")
    if sigma is None:
        sigma = DEFAULT_SIGMA_FRACTION * a
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x10C])
    source = rng.uniform(0.0, field_size, size=2)
    sensors = []
    while len(sensors) < m:
        r = rng.uniform(0.0, field_size, size=2)
        if np.linalg.norm(source - r) > 1.0:
            sensors.append(r)
    locals_ = []
    for r in sensors:
        dist = float(np.linalg.norm(source - r))
        clean = a / dist ** theta
        meas = clean + rng.normal(scale=sigma, size=q_i) if sigma > 0 \
            else np.full(q_i, clean)
        comps = [DiskDistance(r=r, c_meas=float(c), a=a) for c in meas]
        locals_.append(LocalObjective(components=comps))
    known = source.copy() if sigma == 0 else None
    return ProblemInstance(locals=locals_, known_optimum=known), source


def kmeans_instance(points: np.ndarray | None = None, m: int = 5, q_i: int = 30,
                    k: int = 3, seed: int = 0,
                    cluster_std: float = 0.25) -> ProblemInstance:
    """Clustering-error problem over stacked centers.

    When no point set is given, m*q_i points are drawn from k well-separated
    Gaussians.  A supplied point set must divide evenly across the agents.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x335])
    if points is None:
        n = 2
        means = np.stack([6.0 * np.array([np.cos(2 * np.pi * j / k),
                                          np.sin(2 * np.pi * j / k)])
                          for j in range(k)])
        total = m * q_i
        assign = rng.integers(0, k, size=total)
        points = means[assign] + rng.normal(scale=cluster_std, size=(total, n))
    else:
        points = np.asarray(points, dtype=float)
        if points.shape[0] != m * q_i:
            raise InvalidArgumentError(
                f"{points.shape[0]} points do not divide across {m} agents "
                f"with q_i={q_i}")
    perm = rng.permutation(points.shape[0])
    points = points[perm]
    locals_ = []
    for i in range(m):
        chunk = points[i * q_i:(i + 1) * q_i]
        locals_.append(LocalObjective(
            components=[KMeansPoint(p=p, k=k) for p in chunk]))
    return ProblemInstance(locals=locals_)


# ---------------------------------------------------------------------------
# Centralized reference solver
# ---------------------------------------------------------------------------

@dataclass
class ReferenceSolution:
    x: np.ndarray
    grad_norm: float
    certified: bool = True
    oracle_calls: int = 0


def _accelerated_descent(problem: ProblemInstance, x0: np.ndarray,
                         tol: float, max_oracle: int) -> ReferenceSolution:
    """Accelerated gradient descent with backtracking.

    Restarts are triggered by the gradient test (momentum pointing uphill)
    rather than by function-value comparisons, which become rounding noise
    near the optimum.  Terminates when the gradient at the extrapolated
    point drops below tol.
    """
    calls = 0
    lip_est = max(problem.lip, 1e-6)
    x = x0.copy()
    z = x0.copy()
    t_momentum = 1.0
    while calls < max_oracle:
        g = problem.aggregate_gradient(z)
        calls += 1
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol:
            return ReferenceSolution(x=z, grad_norm=gnorm, oracle_calls=calls)
        fz = problem.aggregate_value(z)
        calls += 1
        gg = gnorm * gnorm
        while True:
            x_new = z - g / lip_est
            f_new = problem.aggregate_value(x_new)
            calls += 1
            if f_new <= fz - 0.5 * gg / lip_est or calls >= max_oracle:
                break
            lip_est *= 2.0
        if float(g @ (x_new - x)) > 0.0:
            z = x.copy()
            t_momentum = 1.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum ** 2))
        z = x_new + ((t_momentum - 1.0) / t_new) * (x_new - x)
        x, t_momentum = x_new, t_new
        lip_est = max(lip_est * 0.9, 1e-6)
    raise ReferenceFailure(
        f"no {tol:g}-stationary point within {max_oracle} oracle calls")


def _lloyd_reference(problem: ProblemInstance, restarts: int = 10,
                     seed: int = 0) -> ReferenceSolution:
    """Best-of multi-restart center refinement; explicitly non-certified."""
    pts = np.stack([c.p for lo in problem.locals for c in lo.components])
    k = problem.locals[0].components[0].k
    n = pts.shape[1]
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x11D])
    best_obj, best_centers = np.inf, None
    for _ in range(restarts):
        centers = pts[rng.choice(pts.shape[0], size=k, replace=False)].copy()
        for _ in range(200):
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(k):
                sel = assign == j
                if sel.any():
                    new_centers[j] = pts[sel].mean(axis=0)
            if np.allclose(new_centers, centers, atol=1e-12):
                centers = new_centers
                break
            centers = new_centers
        obj = float(((pts[:, None, :] - centers[None, :, :]) ** 2)
                    .sum(axis=2).min(axis=1).mean())
        if obj < best_obj:
            best_obj, best_centers = obj, centers
    x = best_centers.reshape(k * n)
    gnorm = float(np.linalg.norm(problem.aggregate_gradient(x)))
    return ReferenceSolution(x=x, grad_norm=gnorm, certified=False)


def reference_solution(problem: ProblemInstance, seed: int = 0,
                       tol: float = REFERENCE_TOL,
                       max_oracle: int = REFERENCE_MAX_ORACLE) -> ReferenceSolution:
    """Centralized optimum of the aggregate objective, cached per instance
    and per (seed, tol, max_oracle)."""
    cache = vars(problem).setdefault("_references", {})
    key = (seed, tol, max_oracle)
    if key in cache:
        return cache[key]
    if isinstance(problem.locals[0].components[0], KMeansPoint):
        sol = _lloyd_reference(problem, seed=seed)
    else:
        x0 = problem.known_optimum.copy() if problem.known_optimum is not None \
            else np.zeros(problem.dim)
        sol = _accelerated_descent(problem, x0, tol=tol, max_oracle=max_oracle)
    cache[key] = sol
    return sol


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_SCHEMA = {
    "problem": {"family", "q", "n", "seed", "lam", "mu", "lip", "sigma", "a",
                "theta", "clusters", "points_csv", "logistic_csv",
                "field_size"},
    "topology": {"kind", "m", "p", "seed", "laziness"},
    "algorithm": {"name", "alpha", "rounds", "seed", "record_every", "epsilon"},
    "output": {"dir", "prefix"},
}

_FAMILY_KEYS = {
    "quadratic": {"q", "n", "seed", "mu", "lip"},
    "gaussian_logistic": {"q", "n", "seed", "lam"},
    "logistic_csv": {"seed", "lam", "logistic_csv"},
    "localization": {"q", "seed", "sigma", "a", "theta", "field_size"},
    "kmeans": {"q", "seed", "clusters", "points_csv"},
}


@dataclass
class ExperimentConfig:
    family: str
    topology_kind: str
    m: int
    algorithm: str
    rounds: int
    alpha: float | str = "auto"
    q: int = 10
    n: int = 4
    problem_seed: int = 0
    topology_seed: int = 0
    run_seed: int = 0
    p: float | None = None
    laziness: float = 0.1
    record_every: int | None = None
    epsilon: float = 1e-6
    lam: float = DEFAULT_LAMBDA
    mu_target: float = 1.0
    lip_target: float = 2.0
    sigma: float | None = None
    a: float = 100.0
    theta: float = 2.0
    field_size: float = 100.0
    clusters: int = 3
    points_csv: str | None = None
    logistic_csv: str | None = None
    output_dir: str = "."
    prefix: str = "experiment"


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; unknown sections or keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("problem", "topology", "algorithm"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")

    prob, topo, algo = cp["problem"], cp["topology"], cp["algorithm"]
    out = cp["output"] if "output" in cp else {}

    family = prob.get("family")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown problem family {family!r}")
    extra = set(prob) - {"family"} - _FAMILY_KEYS[family]
    if extra:
        raise ConfigError(f"keys {sorted(extra)} do not apply to family {family!r}")

    algorithm = algo.get("name", "sdiging")
    if algorithm not in engine.ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    kind = topo.get("kind", "ring")
    if kind not in ("ring", "complete", "random_gnp"):
        raise ConfigError(f"unknown topology kind {kind!r}")

    try:
        alpha_raw = algo.get("alpha", "auto")
        cfg = ExperimentConfig(
            family=family,
            topology_kind=kind,
            m=topo.getint("m", fallback=None),
            p=topo.getfloat("p", fallback=None),
            laziness=topo.getfloat("laziness", fallback=0.1),
            topology_seed=topo.getint("seed", fallback=0),
            algorithm=algorithm,
            alpha="auto" if alpha_raw == "auto" else float(alpha_raw),
            rounds=algo.getint("rounds", fallback=None),
            run_seed=algo.getint("seed", fallback=0),
            record_every=algo.getint("record_every", fallback=None),
            epsilon=algo.getfloat("epsilon", fallback=1e-6),
            q=prob.getint("q", fallback=10),
            n=prob.getint("n", fallback=4),
            problem_seed=prob.getint("seed", fallback=0),
            lam=prob.getfloat("lam", fallback=DEFAULT_LAMBDA),
            mu_target=prob.getfloat("mu", fallback=1.0),
            lip_target=prob.getfloat("lip", fallback=2.0),
            sigma=prob.getfloat("sigma", fallback=None),
            a=prob.getfloat("a", fallback=100.0),
            theta=prob.getfloat("theta", fallback=2.0),
            field_size=prob.getfloat("field_size", fallback=100.0),
            clusters=prob.getint("clusters", fallback=3),
            points_csv=prob.get("points_csv", fallback=None),
            logistic_csv=prob.get("logistic_csv", fallback=None),
            output_dir=out.get("dir", "."),
            prefix=out.get("prefix", "experiment"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if cfg.m is None or cfg.m < 2:
        raise ConfigError("topology needs m >= 2")
    if cfg.rounds is None or cfg.rounds < 1:
        raise ConfigError("algorithm needs rounds >= 1")
    return cfg


def build_problem(cfg: ExperimentConfig) -> ProblemInstance:
    if cfg.family == "quadratic":
        return objectives.quadratic_family(
            cfg.m, cfg.q, cfg.n, (cfg.mu_target, cfg.lip_target),
            seed=cfg.problem_seed)
    if cfg.family == "gaussian_logistic":
        return gaussian_logistic_instance(
            cfg.m, cfg.q, n=cfg.n, seed=cfg.problem_seed, lam=cfg.lam)
    if cfg.family == "logistic_csv":
        labels, feats = objectives.load_logistic_csv(cfg.logistic_csv)
        total = labels.shape[0]
        if total % cfg.m != 0:
            raise ConfigError(f"{total} samples do not divide across {cfg.m} agents")
        q = total // cfg.m
        locals_ = [make_logistic_local(feats[i * q:(i + 1) * q],
                                       labels[i * q:(i + 1) * q],
                                       lam=cfg.lam, m=cfg.m)
                   for i in range(cfg.m)]
        return ProblemInstance(locals=locals_)
    if cfg.family == "localization":
        problem, _ = localization_instance(
            m=cfg.m, q_i=cfg.q, field_size=cfg.field_size, a=cfg.a,
            sigma=cfg.sigma, theta=cfg.theta, seed=cfg.problem_seed)
        return problem
    if cfg.family == "kmeans":
        pts = objectives.load_points_csv(cfg.points_csv) \
            if cfg.points_csv else None
        return kmeans_instance(points=pts, m=cfg.m, q_i=cfg.q, k=cfg.clusters,
                               seed=cfg.problem_seed)
    raise ConfigError(f"unknown problem family {cfg.family!r}")


def build_mixing(cfg: ExperimentConfig) -> graph.MixingMatrix:
    topo = graph.build_topology(cfg.topology_kind, cfg.m, p=cfg.p,
                                seed=cfg.topology_seed)
    return graph.metropolis_weights(topo, laziness=cfg.laziness)


def resolve_alpha(cfg: ExperimentConfig, w: graph.MixingMatrix,
                  problem: ProblemInstance):
    """Returns (alpha, certificate-or-None)."""
    if cfg.alpha == "auto":
        cert = engine.certificate_for_problem(w, problem)
        if not cert.valid:
            raise CertificationRefused(f"cannot auto-select alpha: {cert.reason}")
        return cert.alpha, cert
    alpha = float(cfg.alpha)
    cert = None
    if problem.mu > 0:
        cert = engine.certificate_for_problem(w, problem, alpha=alpha)
    return alpha, cert


@dataclass
class ExperimentResult:
    trace_path: Path
    meta_path: Path
    trace: engine.RunTrace
    final_state: engine.NetworkState
    certificate: engine.RateCertificate | None
    reference: ReferenceSolution | None


def _write_metadata(path: Path, cfg: ExperimentConfig, w: graph.MixingMatrix,
                    alpha, cert, ref, problem, extra=None):
    lines = ["# sdiging experiment metadata"]
    for key, val in sorted(vars(cfg).items()):
        lines.append(f"config.{key} = {val}")
    lines.append(f"resolved.alpha = {alpha}")
    lines.append(f"resolved.laziness = {w.laziness}")
    lines.append(f"resolved.gnp_retries = {w.topology.retries}")
    lines.append(f"problem.mu = {problem.mu}")
    lines.append(f"problem.lip = {problem.lip}")
    lines.append(f"problem.q_min = {problem.q_min}")
    lines.append(f"problem.q_max = {problem.q_max}")
    if ref is not None:
        lines.append(f"reference.grad_norm = {ref.grad_norm}")
        lines.append(f"reference.certified = {ref.certified}")
    if cert is not None:
        for ln in cert.to_text().strip().splitlines():
            lines.append(f"certificate.{ln}")
    for ln in (extra or []):
        lines.append(ln)
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute one experiment; writes the trace CSV and metadata sidecar.

    On divergence the partial trace is preserved with a ``.partial``
    suffix and the error is re-raised.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = build_mixing(cfg)
    problem = build_problem(cfg)
    alpha, cert = resolve_alpha(cfg, w, problem)

    try:
        ref = reference_solution(problem, seed=cfg.problem_seed)
    except ReferenceFailure:
        ref = None
    reference = ref.x if ref is not None else None

    trace_path = out_dir / f"{cfg.prefix}.csv"
    meta_path = out_dir / f"{cfg.prefix}.meta.txt"
    try:
        trace, final_state = engine.run(
            cfg.algorithm, problem, w, alpha, cfg.rounds, seed=cfg.run_seed,
            record_every=cfg.record_every, reference=reference)
    except DivergenceError as exc:
        partial = out_dir / f"{cfg.prefix}.csv.partial"
        partial.write_text(exc.trace.to_csv())
        _write_metadata(meta_path, cfg, w, alpha, cert, ref, problem,
                        extra=[f"aborted = {exc}"])
        raise
    trace_path.write_text(trace.to_csv())

    extra = []
    if cert is not None and cert.valid and reference is not None:
        kappa = float(np.sum(reference ** 2)) * problem.m
        if kappa > 0:
            extra.append("iterations_to_epsilon = %d" % engine.
                         iterations_to_accuracy(cert, kappa, cfg.epsilon))
    final_obj = problem.aggregate_value(final_state.x.mean(axis=0))
    extra.append(f"final.objective = {final_obj}")
    extra.append(f"final.consensus_gap = {engine.consensus_gap(final_state.x)}")
    _write_metadata(meta_path, cfg, w, alpha, cert, ref, problem, extra=extra)
    return ExperimentResult(trace_path=trace_path, meta_path=meta_path,
                            trace=trace, final_state=final_state,
                            certificate=cert, reference=ref)


@dataclass
class CompareRow:
    algorithm: str
    rounds_to_target: int | None
    evals_to_target: int | None
    wall_ms_to_target: float | None


def compare_algorithms(cfg: ExperimentConfig, algorithms, target: float,
                       record_every: int = 1) -> list[CompareRow]:
    """Run each algorithm on one shared instance; report cost to a residual."""
    w = build_mixing(cfg)
    problem = build_problem(cfg)
    ref = reference_solution(problem, seed=cfg.problem_seed)
    rows = []
    for name in algorithms:
        if name not in engine.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}")
        alpha = cfg.alpha if cfg.alpha != "auto" else \
            resolve_alpha(cfg, w, problem)[0]
        trace, _ = engine.run(name, problem, w, float(alpha), cfg.rounds,
                              seed=cfg.run_seed, record_every=record_every,
                              reference=ref.x)
        hit = next((i for i, r in enumerate(trace.residual_log10)
                    if r <= target), None)
        if hit is None:
            rows.append(CompareRow(name, None, None, None))
        else:
            rows.append(CompareRow(name, trace.rounds[hit],
                                   trace.grad_evals[hit], trace.wall_ms[hit]))
    return rows
