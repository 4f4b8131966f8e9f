"""Batch command-line interface.

Subcommands::

    sdiging run <config>                       execute one experiment
    sdiging certify <config>                   print a rate certificate
    sdiging compare <config> --algos a,b --target r

Global flags: ``--seed-override N``, ``--output-dir PATH``, ``--quiet``.

Exit codes (closed set):
    0  success (for ``certify``: certificate valid)
    1  unexpected error
    2  config error, or a configured graph that cannot be constructed
    3  reference solver failure
    4  divergence guard triggered
    5  certificate invalid or certification refused

Failures print a machine-parseable ``error_code: message`` line.
"""

from __future__ import annotations

import argparse
import sys

from sdiging import engine, harness
from sdiging.errors import (
    CertificationRefused,
    ConfigError,
    ConstructionFailure,
    DivergenceError,
    InvalidArgumentError,
    ReferenceFailure,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_REFERENCE = 3
EXIT_DIVERGENCE = 4
EXIT_CERTIFICATE = 5


def cmd_run(cfg, args, say) -> int:
    result = harness.run_experiment(cfg)
    say(f"trace written to {result.trace_path}")
    say(f"metadata written to {result.meta_path}")
    if result.trace.residual_log10:
        say(f"final residual_log10 = {result.trace.residual_log10[-1]:.4f}")
    return EXIT_OK


def cmd_certify(cfg, args, say) -> int:
    w = harness.build_mixing(cfg)
    problem = harness.build_problem(cfg)
    alpha = None if cfg.alpha == "auto" else cfg.alpha
    cert = engine.certificate_for_problem(w, problem, alpha=alpha)
    print(cert.to_text(), end="")
    return EXIT_OK if cert.valid else EXIT_CERTIFICATE


def cmd_compare(cfg, args, say) -> int:
    algorithms = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algorithms:
        raise ConfigError("no algorithms given")
    rows = harness.compare_algorithms(cfg, algorithms, target=args.target)
    print(f"{'algorithm':<12} {'rounds':>10} {'grad_evals':>12} {'wall_ms':>12}")
    for row in rows:
        if row.rounds_to_target is None:
            print(f"{row.algorithm:<12} {'not reached':>10}")
        else:
            print(f"{row.algorithm:<12} {row.rounds_to_target:>10d} "
                  f"{row.evals_to_target:>12d} {row.wall_ms_to_target:>12.1f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdiging",
        description="Decentralized consensus-optimization experiments")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="replace every seed in the config")
    parser.add_argument("--output-dir", default=None,
                        help="replace the configured output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress human-readable summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="print a rate certificate")
    p_cert.add_argument("config")
    p_cert.set_defaults(func=cmd_certify)

    p_cmp = sub.add_parser("compare", help="compare algorithms on one instance")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--algos", required=True,
                       help="comma-separated algorithm names")
    p_cmp.add_argument("--target", type=float, required=True,
                       help="target residual_log10")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    say = (lambda _msg: None) if args.quiet else print
    try:
        cfg = harness.parse_config(args.config)   # once, for every command
        if args.seed_override is not None:
            cfg.run_seed = cfg.problem_seed = cfg.topology_seed = args.seed_override
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        return args.func(cfg, args, say)
    except ConfigError as exc:
        print(f"config_error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReferenceFailure as exc:
        print(f"reference_failure: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except CertificationRefused as exc:
        print(f"certification_refused: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except InvalidArgumentError as exc:
        print(f"invalid_argument: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionFailure as exc:   # the configured graph, not the program
        print(f"construction_failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - closed exit-code set
        print(f"unexpected_error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
