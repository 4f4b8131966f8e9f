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
from dataclasses import MISSING, dataclass, field, fields
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
                    k: int = 3, seed: int = 0) -> ProblemInstance:
    """Clustering-error problem over stacked centers.

    When no point set is given, m*q_i points are drawn from k well-separated
    Gaussians of std 0.25.  A supplied point set must divide evenly across
    the agents.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x335])
    if points is None:
        n = 2
        means = np.stack([6.0 * np.array([np.cos(2 * np.pi * j / k),
                                          np.sin(2 * np.pi * j / k)])
                          for j in range(k)])
        total = m * q_i
        assign = rng.integers(0, k, size=total)
        points = means[assign] + rng.normal(scale=0.25, size=(total, n))
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
    """A centralized optimum; ``oracle_calls`` counts aggregate gradient and
    value evaluations, and for k-means one per Lloyd sweep (a pass over all
    points, like one aggregate gradient) plus the final gradient."""

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


def _lloyd_reference(problem: ProblemInstance, seed: int = 0) -> ReferenceSolution:
    """Best-of-10-restart center refinement; explicitly non-certified."""
    pts = np.stack([c.p for lo in problem.locals for c in lo.components])
    k = problem.locals[0].components[0].k
    n = pts.shape[1]
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x11D])
    best_obj, best_centers = np.inf, None
    sweeps = 0
    for _ in range(10):
        centers = pts[rng.choice(pts.shape[0], size=k, replace=False)].copy()
        for _ in range(200):
            sweeps += 1
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
    return ReferenceSolution(x=x, grad_norm=gnorm, certified=False,
                             oracle_calls=sweeps + 1)


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

_FAMILY_KEYS = {
    "quadratic": {"q", "n", "seed", "mu", "lip"},
    "gaussian_logistic": {"q", "n", "seed", "lam"},
    "logistic_csv": {"seed", "lam", "logistic_csv"},
    "localization": {"q", "seed", "sigma", "a", "theta", "field_size"},
    "kmeans": {"q", "seed", "clusters", "points_csv"},
}


def _key(section: str, key: str, convert=str, default=MISSING):
    """A config field read from ``key`` in ``[section]`` through ``convert``."""
    return field(default=default,
                 metadata={"ini": (section, key), "convert": convert})


def _step_size(text: str) -> float | str:
    return text if text == "auto" else float(text)


@dataclass(kw_only=True)
class ExperimentConfig:
    """One experiment.  Each field names its INI section and key, the
    converter its text goes through and its default; ``parse_config``
    converts in declaration order, so of several bad values it reports
    the first."""

    family: str = _key("problem", "family")
    topology_kind: str = _key("topology", "kind", str, "ring")
    m: int = _key("topology", "m", int)
    p: float | None = _key("topology", "p", float, None)
    laziness: float = _key("topology", "laziness", float, 0.1)
    topology_seed: int = _key("topology", "seed", int, 0)
    algorithm: str = _key("algorithm", "name", str, "sdiging")
    alpha: float | str = _key("algorithm", "alpha", _step_size, "auto")
    rounds: int = _key("algorithm", "rounds", int)
    run_seed: int = _key("algorithm", "seed", int, 0)
    record_every: int | None = _key("algorithm", "record_every", int, None)
    epsilon: float = _key("algorithm", "epsilon", float, 1e-6)
    q: int = _key("problem", "q", int, 10)
    n: int = _key("problem", "n", int, 4)
    problem_seed: int = _key("problem", "seed", int, 0)
    lam: float = _key("problem", "lam", float, DEFAULT_LAMBDA)
    mu_target: float = _key("problem", "mu", float, 1.0)
    lip_target: float = _key("problem", "lip", float, 2.0)
    sigma: float | None = _key("problem", "sigma", float, None)
    a: float = _key("problem", "a", float, 100.0)
    theta: float = _key("problem", "theta", float, 2.0)
    field_size: float = _key("problem", "field_size", float, 100.0)
    clusters: int = _key("problem", "clusters", int, 3)
    points_csv: str | None = _key("problem", "points_csv", str, None)
    logistic_csv: str | None = _key("problem", "logistic_csv", str, None)
    output_dir: str = _key("output", "dir", str, ".")
    prefix: str = _key("output", "prefix", str, "experiment")


_FIELDS = {f.metadata["ini"]: f for f in fields(ExperimentConfig)}


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
        if section not in {sec for sec, _ in _FIELDS}:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in _FIELDS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("problem", "topology", "algorithm"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")
    raw = {f.name: cp[sec][key] for (sec, key), f in _FIELDS.items()
           if cp.has_option(sec, key)}

    family = raw.get("family")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown problem family {family!r}")
    extra = set(cp["problem"]) - {"family"} - _FAMILY_KEYS[family]
    if extra:
        raise ConfigError(f"keys {sorted(extra)} do not apply to family {family!r}")
    if "algorithm" in raw and raw["algorithm"] not in engine.ALGORITHMS:
        raise ConfigError(f"unknown algorithm {raw['algorithm']!r}")
    if "topology_kind" in raw and raw["topology_kind"] not in graph.TOPOLOGY_KINDS:
        raise ConfigError(f"unknown topology kind {raw['topology_kind']!r}")

    try:
        values = {f.name: f.metadata["convert"](raw[f.name])
                  for f in _FIELDS.values() if f.name in raw}
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if values.get("m", 0) < 2:
        raise ConfigError("topology needs m >= 2")
    if values.get("rounds", 0) < 1:
        raise ConfigError("algorithm needs rounds >= 1")
    cfg = ExperimentConfig(**values)
    if cfg.record_every is not None and cfg.record_every < 1:
        raise ConfigError("algorithm needs record_every >= 1")
    if cfg.alpha != "auto" and not 0 < cfg.alpha < math.inf:
        raise ConfigError("algorithm needs alpha = auto or a finite alpha > 0")
    if not 0 < cfg.epsilon < math.inf:
        raise ConfigError("algorithm needs a finite epsilon > 0")
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
    reference: ReferenceSolution


def _write_metadata(path: Path, cfg: ExperimentConfig, w: graph.MixingMatrix,
                    alpha, cert, ref, problem, extra=None):
    lines = ["# sdiging experiment metadata"]
    for key, val in sorted(vars(cfg).items()):
        lines.append(f"config.{key} = {val}")
    lines.append(f"resolved.alpha = {alpha}")
    lines.append(f"resolved.laziness = {w.laziness}")
    lines.append(f"resolved.mixing = {'dense' if w.operator is w.w else 'csr'}")
    lines.append(f"resolved.gnp_retries = {w.topology.retries}")
    lines.append(f"problem.mu = {problem.mu}")
    lines.append(f"problem.lip = {problem.lip}")
    lines.append(f"problem.q_min = {problem.q_min}")
    lines.append(f"problem.q_max = {problem.q_max}")
    if ref is not None:
        lines.append(f"reference.grad_norm = {ref.grad_norm}")
        lines.append(f"reference.certified = {ref.certified}")
        lines.append(f"reference.oracle_calls = {ref.oracle_calls}")
    if cert is not None:
        for ln in cert.to_text().strip().splitlines():
            lines.append(f"certificate.{ln}")
    for ln in (extra or []):
        lines.append(ln)
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute one experiment; writes the trace CSV and metadata sidecar.

    On divergence the partial trace is preserved with a ``.partial``
    suffix and the error is re-raised.  A reference solve that fails
    writes the metadata, no trace, and re-raises.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = build_mixing(cfg)
    problem = build_problem(cfg)
    alpha, cert = resolve_alpha(cfg, w, problem)

    trace_path = out_dir / f"{cfg.prefix}.csv"
    meta_path = out_dir / f"{cfg.prefix}.meta.txt"
    try:
        ref = reference_solution(problem, seed=cfg.problem_seed)
    except ReferenceFailure as exc:
        _write_metadata(meta_path, cfg, w, alpha, cert, None, problem,
                        extra=[f"aborted = reference_failure: {exc}"])
        raise

    try:
        trace, final_state = engine.run(
            cfg.algorithm, problem, w, alpha, cfg.rounds, seed=cfg.run_seed,
            record_every=cfg.record_every, reference=ref.x)
    except DivergenceError as exc:
        partial = out_dir / f"{cfg.prefix}.csv.partial"
        partial.write_text(exc.trace.to_csv())
        _write_metadata(meta_path, cfg, w, alpha, cert, ref, problem,
                        extra=[f"aborted = {exc}"])
        raise
    trace_path.write_text(trace.to_csv())

    extra = []
    if cert is not None and cert.valid:
        kappa = float(np.sum(ref.x ** 2)) * problem.m
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


def compare_algorithms(cfg: ExperimentConfig, algorithms,
                       target: float) -> list[CompareRow]:
    """Run each algorithm on one shared instance; report cost to a residual,
    recorded every round."""
    for name in algorithms:
        if name not in engine.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}")
    w = build_mixing(cfg)
    problem = build_problem(cfg)
    ref = reference_solution(problem, seed=cfg.problem_seed)
    alpha = cfg.alpha if cfg.alpha != "auto" else \
        resolve_alpha(cfg, w, problem)[0]
    rows = []
    for name in algorithms:
        trace, _ = engine.run(name, problem, w, float(alpha), cfg.rounds,
                              seed=cfg.run_seed, record_every=1,
                              reference=ref.x)
        hit = next((i for i, r in enumerate(trace.residual_log10)
                    if r <= target), None)
        if hit is None:
            rows.append(CompareRow(name, None, None, None))
        else:
            rows.append(CompareRow(name, trace.rounds[hit],
                                   trace.grad_evals[hit], trace.wall_ms[hit]))
    return rows
