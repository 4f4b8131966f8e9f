"""Byte-for-byte outputs of a fixed list of sdiging commands: a parent
commit against the working tree.

    python3 tools/outputs_check.py --parent REV --out OUTPUTS_<pr>.json

Both sides are exported as ``tools/ab_pairs.py`` exports them.  In each
tree, every case of ``cases()`` runs ``python3 -m sdiging.cli --output-dir .
ARGS`` with that tree's ``src`` on PYTHONPATH and one BLAS thread, in a
fresh directory that holds only the case's config.  The two sides' exit
codes, stdout, stderr and every file the command wrote are compared byte
for byte, with only the entries of ``wall_ms`` columns masked.  Each case
gets the verdict "same" or its list of differences; the JSON record and
one line per case on stdout give them.  The exit status is 0 when every
case is "same", 1 otherwise.

The cases are ``run`` on va2_run's config, ``compare`` on the loc_compare
and m1000_compare configs at seeds 0 and 1 (perfbench's workload configs;
m1000 mixes through CSR, the others dense), ``certify`` on a valid, an
invalid (alpha = 10), a refused (mu = 0), an overflowing (lip = 1e200)
and a subnormal-alpha (alpha = 1e-320) config, ``run`` on a quadratic
with n = 9, a k-means and a logistic_csv problem, ``run`` with ``alpha =
auto``, on noisy localization (clamped measurements), on a complete graph
and on a ring of 200 agents (mixed through CSR), a run that diverges,
``certify`` on a config with no ``family``, ``run`` on localization with
theta = 400 (d ** theta overflows), and a run whose reference solve
fails (gaussian_logistic, m = 3, q = 10, n = 4, problem seed 0: about
20 s per tree).  Every family is in one case or more.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import tempfile
from pathlib import Path

from ab_pairs import BLAS_ENV, ROOT, _exit_on_sigterm, export, git, run_group

CONFIG = """\
[problem]
{problem}
[topology]
kind = ring
m = 4
seed = 2

[algorithm]
name = sdiging
alpha = {alpha}
rounds = {rounds}
seed = 3

[output]
prefix = t
"""


# labels and two features of 8 samples, 2 per agent on a ring of 4
LOGISTIC_CSV = "".join(f"{1 if k % 3 else -1},{k / 4 - 1:.2f},{(k * 5) % 7 - 3}\n"
                       for k in range(8))


def config(alpha="auto", rounds=50, problem="family = quadratic\nq = 3\nn = 2\n",
           extra=""):
    """A config on a ring of 4 agents; ``problem`` names the family and its
    sizes (a quadratic by default), and ``extra`` adds problem keys."""
    return CONFIG.format(alpha=alpha, rounds=rounds,
                            problem=problem + "seed = 1\n" + extra)


def cases() -> dict:
    """Case name -> (its input files, name to text, with the config in
    ``exp.ini``; the CLI arguments after ``--output-dir .``)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_spec

    out = {}
    for workload, seeds in (("va2_run", [0]), ("loc_compare", [0, 1]),
                            ("m1000_compare", [0, 1])):
        for seed in seeds:
            spec = make_spec(workload, seed)
            args = [a for a in spec["argv"] if a != "--quiet"]
            if "--output-dir" in args:          # every case sets its own
                at = args.index("--output-dir")
                del args[at:at + 2]
            out[f"{workload}_seed{seed}"] = (
                {"exp.ini": spec["config"]},
                [a.replace("{config}", "exp.ini") for a in args])
    run, certify = ["run", "exp.ini"], ["certify", "exp.ini"]
    out.update({
        "certify_valid": ({"exp.ini": config()}, certify),
        "certify_invalid": ({"exp.ini": config(alpha="10.0")}, certify),
        "certify_refused": (
            {"exp.ini": config(problem="family = localization\nq = 5\n")},
            certify),
        "certify_overflow": (
            {"exp.ini": config(extra="mu = 1\nlip = 1e200\n")}, certify),
        "certify_subnormal_alpha": ({"exp.ini": config(alpha="1e-320")},
                                    certify),
        "divergence": ({"exp.ini": config(alpha="50.0", rounds=100000)}, run),
        "quadratic_n9_run": (
            {"exp.ini": config(alpha="0.01", rounds=200,
                               problem="family = quadratic\nq = 3\nn = 9\n")},
            run),
        "kmeans_run": (
            {"exp.ini": config(alpha="0.01", rounds=200,
                               problem="family = kmeans\nq = 5\n")}, run),
        "logistic_csv_run": (
            {"exp.ini": config(alpha="0.01", rounds=200, problem=(
                "family = logistic_csv\nlogistic_csv = data.csv\n")),
             "data.csv": LOGISTIC_CSV}, run),
        "alpha_auto_run": ({"exp.ini": config()}, run),
        # the default sigma = 0.05 * a clamps 9 measurements
        "localization_noisy_run": (
            {"exp.ini": config(alpha="0.01", rounds=200,
                               problem="family = localization\nq = 5\n")}, run),
        "complete_run": (
            {"exp.ini": config(alpha="0.01", rounds=200)
             .replace("kind = ring", "kind = complete")}, run),
        "ring_m200_csr_run": (
            {"exp.ini": config(alpha="0.01", rounds=200)
             .replace("m = 4", "m = 200")}, run),
        "config_missing_family": (
            {"exp.ini": config(problem="q = 3\nn = 2\n")}, certify),
        # a sensor's d ** 400 overflows
        "localization_theta_overflow": (
            {"exp.ini": config(alpha="0.01", extra="theta = 400\n",
                               problem="family = localization\nq = 3\n")},
            run),
        # problem seed 0 at m = 3: the solver spends 10**6 calls, about 20 s
        "reference_failure": (
            {"exp.ini": config(alpha="0.02", rounds=100, problem=(
                "family = gaussian_logistic\nq = 10\nn = 4\n"))
             .replace("seed = 1", "seed = 0", 1).replace("m = 4", "m = 3")}, run),
    })
    return out


def run_case(tree: Path, where: Path, inputs: dict, args: list) -> dict:
    """One case in ``tree``, run in the new directory ``where`` that holds
    its ``inputs``: its exit code, stdout, stderr and the bytes of every
    other file there when it ends."""
    where.mkdir(parents=True)
    for name, text in inputs.items():
        (where / name).write_text(text)
    proc = run_group([sys.executable, "-m", "sdiging.cli", "--output-dir", ".",
                      *args], where, {"PYTHONPATH": str(tree / "src")})
    files = {p.relative_to(where).as_posix(): p.read_bytes()
             for p in sorted(where.rglob("*"))
             if p.is_file() and p.name not in inputs}
    return {"exit": proc.returncode, "stdout": proc.stdout.encode(),
            "stderr": proc.stderr.encode(), "files": files}


def mask_wall_ms(data: bytes) -> bytes:
    """``data`` with each entry of a ``wall_ms`` column replaced by ``*``.
    A line with a field ``wall_ms`` is a header, and the lines after it are
    its rows: comma-separated when the header is, otherwise aligned by
    whitespace, in which case the entry's padding is masked with it."""
    out, col, comma = [], None, False
    for line in data.split(b"\n"):
        if b"wall_ms" in line.split(b","):
            col, comma = line.split(b",").index(b"wall_ms"), True
        elif b"wall_ms" in line.split():
            col, comma = line.split().index(b"wall_ms"), False
        elif col is not None and comma:
            fields = line.split(b",")
            if col < len(fields):
                fields[col] = b"*"
            line = b",".join(fields)
        elif col is not None:
            spans = list(re.finditer(rb"\s*\S+", line))
            if col < len(spans):
                span = spans[col]
                line = line[:span.start()] + b" *" + line[span.end():]
        out.append(line)
    return b"\n".join(out)


def _first_difference(name: str, a: bytes, b: bytes) -> str:
    """Where ``a`` and ``b`` first differ, by line, both lines shown."""
    la, lb = a.split(b"\n"), b.split(b"\n")
    k = next((k for k, (x, y) in enumerate(zip(la, lb)) if x != y),
             min(len(la), len(lb)))
    show = [repr(lines[k].decode(errors="replace")) if k < len(lines)
            else "end of output" for lines in (la, lb)]
    return f"{name} line {k + 1}: {show[0]} -> {show[1]}"


def differences(parent: dict, change: dict) -> list:
    """What differs between two ``run_case`` results, ``wall_ms`` masked;
    empty when they are the same."""
    found = []
    if parent["exit"] != change["exit"]:
        found.append(f"exit code {parent['exit']} -> {change['exit']}")
    outputs = [("stdout", parent["stdout"], change["stdout"]),
               ("stderr", parent["stderr"], change["stderr"])]
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if name not in change["files"]:
            found.append(f"{name} written by the parent only")
        elif name not in parent["files"]:
            found.append(f"{name} written by the change only")
        else:
            outputs.append((name, parent["files"][name], change["files"][name]))
    for name, a, b in outputs:
        a, b = mask_wall_ms(a), mask_wall_ms(b)
        if a != b:
            found.append(_first_difference(name, a, b))
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="outputs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        record = {"parent_commit": export(args.parent, trees["parent"]),
                  "change_commit": export(git("stash", "create") or "HEAD",
                                          trees["change"]),
                  "environment": BLAS_ENV,
                  "masked": "entries of wall_ms columns", "cases": {}}
        for name, (inputs, case_args) in cases().items():
            got = {side: run_case(tree, Path(tmp) / "runs" / side / name,
                                  inputs, case_args)
                   for side, tree in trees.items()}
            found = differences(got["parent"], got["change"])
            record["cases"][name] = {
                "args": ["--output-dir", ".", *case_args],
                "exit": {side: r["exit"] for side, r in got.items()},
                "files": sorted(got["change"]["files"]),
                "verdict": "same" if not found else found}
            print(name, "same" if not found else "; ".join(found), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(c["verdict"] == "same"
                    for c in record["cases"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
