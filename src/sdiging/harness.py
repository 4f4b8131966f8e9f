"""Experiment definition: synthetic data, reference solving, trace output.

Experiments are described by flat INI-style config files with sections
``[problem]``, ``[topology]``, ``[algorithm]`` and ``[output]``; unknown
keys are hard errors.  ``run_experiment`` and ``compare_algorithms`` set
up in one order: ``build_mixing``, ``build_problem``, ``resolve_alpha``
(with its certificate), then ``reference_solution``; the first stage that
fails decides the error.  The centralized reference solver is an
accelerated full-gradient method with backtracking, replacing an external
convex solver.
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
from sdiging.objectives import DiskDistance, KMeansPoint, ProblemInstance

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
    if q_i <= 0 or q_i % 2 != 0:
        raise InvalidArgumentError(
            f"q_i must be positive and even (half per class), got {q_i}")
    mean = np.array([2.0] * math.ceil(n / 2) + [-2.0] * (n // 2))
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x106])
    half = q_i // 2
    # agent by agent, class +1 then class -1: the order of one draw per block
    noise = rng.normal(scale=np.sqrt(2.0), size=(m, 2, half, n))
    feats = (np.stack([mean, -mean])[:, None, :] + noise).reshape(m * q_i, n)
    labels = np.tile(np.repeat([1, -1], half), m)
    return objectives.logistic_problem(feats, labels, lam=lam, m=m)


def localization_instance(m: int = 50, q_i: int = 100, field_size: float = 100.0,
                          a: float = 100.0, sigma: float | None = None,
                          theta: float = 2.0, seed: int = 0):
    """Sensors on a square field measuring an attenuated source signal.

    Returns ``(problem, true_source)``.  Sensors closer than 1 to the
    source are resampled (the attenuation model is invalid there); at
    field_size >= 2 at least 1 - pi/4 of the field is farther than that.
    Nonpositive measurements are raised to a small positive floor before
    the radius is formed; the instance counts them in
    ``clamped_measurements``.  With
    sigma = 0 every disk boundary passes through the source and the
    aggregate objective attains 0 there, so the true source doubles as the
    known optimum.
    """
    if a <= 0:
        raise InvalidArgumentError(f"source strength must be positive, got {a}")
    if not field_size >= 2:
        raise InvalidArgumentError(f"field size must be >= 2, got {field_size}")
    if sigma is None:
        sigma = DEFAULT_SIGMA_FRACTION * a
    if not sigma >= 0:
        raise InvalidArgumentError(f"noise std must be >= 0, got {sigma}")
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x10C])
    source = rng.uniform(0.0, field_size, size=2)
    sensors = []
    while len(sensors) < m:
        r = rng.uniform(0.0, field_size, size=2)
        if np.linalg.norm(source - r) > 1.0:
            sensors.append(r)
    clean = [a / float(np.linalg.norm(source - r)) ** theta for r in sensors]
    meas = np.repeat(clean, q_i).reshape(m, q_i)
    if sigma > 0:       # every sensor's noise after the previous sensor's
        meas += rng.normal(scale=sigma, size=(m, q_i))
    floor = objectives.MEASUREMENT_CLAMP_FRACTION * a
    problem = ProblemInstance(
        DiskDistance, [np.repeat(sensors, q_i, axis=0),
                       np.sqrt(a / np.maximum(meas, floor)).ravel()],
        np.full(m, q_i), known_optimum=source.copy() if sigma == 0 else None)
    problem.clamped_measurements = int(np.count_nonzero(meas < floor))
    return problem, source


def kmeans_instance(points: np.ndarray | None = None, m: int = 5, q_i: int = 30,
                    k: int = 3, seed: int = 0) -> ProblemInstance:
    """Clustering-error problem over stacked centers.

    When no point set is given, m*q_i points are drawn from k well-separated
    Gaussians of std 0.25.  A supplied point set must divide evenly across
    the agents.
    """
    if k < 1:
        raise InvalidArgumentError(f"cluster count must be >= 1, got {k}")
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
    if k > len(points):
        raise InvalidArgumentError(
            f"{k} clusters need at least {k} points, got {len(points)}")
    points = points[rng.permutation(points.shape[0])]
    return ProblemInstance(KMeansPoint, [points, np.full(len(points), k)],
                           np.full(m, q_i))


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
    pts = problem.params[0]
    n = pts.shape[1]
    k = problem.dim // n
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
                       max_oracle: int = REFERENCE_MAX_ORACLE) -> ReferenceSolution:
    """Centralized optimum of the aggregate objective, solved afresh on
    every call: Lloyd restarts seeded by ``seed`` for k-means, otherwise a
    REFERENCE_TOL-stationary point within ``max_oracle`` oracle calls."""
    if problem.kind is KMeansPoint:
        return _lloyd_reference(problem, seed=seed)
    x0 = problem.known_optimum.copy() if problem.known_optimum is not None \
        else np.zeros(problem.dim)
    return _accelerated_descent(problem, x0, tol=REFERENCE_TOL,
                                max_oracle=max_oracle)


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
    cp = configparser.ConfigParser(interpolation=None)   # '%' is literal
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
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
    for name in ("q", "n", "clusters"):
        if values.get(name, 1) < 1:
            raise ConfigError(f"problem needs {name} >= 1")
    cfg = ExperimentConfig(**values)
    if not 0 <= cfg.laziness < 1:
        raise ConfigError("topology needs 0 <= laziness < 1")
    if cfg.p is not None and cfg.topology_kind != "random_gnp":
        raise ConfigError(f"p does not apply to kind {cfg.topology_kind!r}")
    if not cfg.prefix or cfg.prefix.endswith("/"):
        raise ConfigError(
            f"output needs a prefix that names a file, got {cfg.prefix!r}")
    if cfg.record_every is not None and cfg.record_every < 1:
        raise ConfigError("algorithm needs record_every >= 1")
    if cfg.alpha != "auto" and not 0 < cfg.alpha < math.inf:
        raise ConfigError("algorithm needs alpha = auto or a finite alpha > 0")
    if not 0 < cfg.epsilon < math.inf:
        raise ConfigError("algorithm needs a finite epsilon > 0")
    if cfg.sigma is not None and not cfg.sigma >= 0:
        raise ConfigError("problem needs sigma >= 0")
    for (section, key), f in _FIELDS.items():
        if section == "problem" and f.metadata["convert"] is float \
                and not math.isfinite(values.get(f.name, 0.0)):
            raise ConfigError(f"problem needs a finite {key}")
    if not cfg.field_size >= 2:
        raise ConfigError("problem needs field_size >= 2")
    if cfg.family == "quadratic" and not 0 < cfg.mu_target <= cfg.lip_target:
        raise ConfigError("problem needs 0 < mu <= lip")
    if cfg.family == "logistic_csv" and cfg.logistic_csv is None:
        raise ConfigError("family 'logistic_csv' needs the key logistic_csv")
    return cfg


def _read_csv(cfg: ExperimentConfig, key: str, load):
    """``load`` of the file the config's ``key`` names; a file that cannot
    be opened or parsed is a config error naming the key and the path."""
    path = getattr(cfg, key)
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {key} {path!r}: {exc}") from exc


def build_problem(cfg: ExperimentConfig) -> ProblemInstance:
    if cfg.family == "quadratic":
        return objectives.quadratic_family(
            cfg.m, cfg.q, cfg.n, (cfg.mu_target, cfg.lip_target),
            seed=cfg.problem_seed)
    if cfg.family == "gaussian_logistic":
        return gaussian_logistic_instance(
            cfg.m, cfg.q, n=cfg.n, seed=cfg.problem_seed, lam=cfg.lam)
    if cfg.family == "logistic_csv":
        labels, feats = _read_csv(cfg, "logistic_csv",
                                  objectives.load_logistic_csv)
        total = labels.shape[0]
        if total % cfg.m != 0:
            raise ConfigError(f"{total} samples do not divide across {cfg.m} agents")
        return objectives.logistic_problem(feats, labels, lam=cfg.lam, m=cfg.m)
    if cfg.family == "localization":
        problem, _ = localization_instance(
            m=cfg.m, q_i=cfg.q, field_size=cfg.field_size, a=cfg.a,
            sigma=cfg.sigma, theta=cfg.theta, seed=cfg.problem_seed)
        return problem
    if cfg.family == "kmeans":
        pts = _read_csv(cfg, "points_csv", objectives.load_points_csv) \
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
    """Returns (alpha, certificate): for ``alpha = auto`` the certificate
    that chose it, for an explicit alpha None (nothing is decomposed)."""
    if cfg.alpha != "auto":
        return float(cfg.alpha), None
    cert = engine.certificate_for_problem(w, problem)
    if not cert.valid:
        raise CertificationRefused(f"cannot auto-select alpha: {cert.reason}")
    return cert.alpha, cert


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
    lines.append("resolved.mixing = "
                 + ("dense" if isinstance(w.operator, np.ndarray) else "csr"))
    lines.append(f"resolved.gnp_retries = {w.topology.retries}")
    lines.append(f"problem.mu = {problem.mu}")
    lines.append(f"problem.lip = {problem.lip}")
    lines.append(f"problem.q_min = {problem.q_min}")
    lines.append(f"problem.q_max = {problem.q_max}")
    if problem.clamped_measurements is not None:
        lines.append(f"problem.clamped_measurements = {problem.clamped_measurements}")
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

    The directory of ``<dir>/<prefix>`` is made first (a config error if
    it cannot be).  An explicit alpha is certified when mu > 0, still
    before the reference.  On divergence the partial trace is preserved
    with a ``.partial`` suffix and the error is re-raised.  A reference
    solve that fails writes the metadata, no trace, and re-raises.
    """
    trace_path = Path(cfg.output_dir) / f"{cfg.prefix}.csv"
    meta_path = Path(cfg.output_dir) / f"{cfg.prefix}.meta.txt"
    try:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from exc
    w = build_mixing(cfg)
    problem = build_problem(cfg)
    alpha, cert = resolve_alpha(cfg, w, problem)
    if cert is None and problem.mu > 0:
        cert = engine.certificate_for_problem(w, problem, alpha=alpha)
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
        Path(f"{trace_path}.partial").write_text(exc.trace.to_csv())
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
    extra.append(f"final.consensus_gap = {trace.consensus_gap[-1]}")
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
    """Run each algorithm on one shared instance; report cost to a residual
    ``target`` (log10; inf is reached at round 0, -inf never), recorded
    every round."""
    for name in algorithms:
        if name not in engine.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}")
    if math.isnan(target):
        raise ConfigError("compare needs a target that is not nan")
    w = build_mixing(cfg)
    problem = build_problem(cfg)
    alpha, _ = resolve_alpha(cfg, w, problem)
    ref = reference_solution(problem, seed=cfg.problem_seed)
    rows = []
    for name in algorithms:
        trace, _ = engine.run(name, problem, w, alpha, cfg.rounds,
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
