import subprocess
import sys

import pytest

from sdiging import cli, harness
from sdiging.errors import ReferenceFailure

QUAD_CONFIG = """\
[problem]
family = quadratic
q = 3
n = 2
seed = 1

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
dir = {out}
prefix = t
"""

LOCALIZATION_CONFIG = """\
[problem]
family = localization
q = 5
seed = 1
sigma = 0.0

[topology]
kind = ring
m = 4
seed = 2

[algorithm]
name = sdiging
alpha = 0.1
rounds = 100
seed = 3

[output]
dir = {out}
prefix = loc
"""


def write(tmp_path, text, **fmt):
    path = tmp_path / "exp.ini"
    path.write_text(text.format(out=tmp_path, **fmt))
    return str(path)


def quad_config(tmp_path, alpha="0.01", rounds=50):
    return write(tmp_path, QUAD_CONFIG, alpha=alpha, rounds=rounds)


def test_run_writes_trace(tmp_path, capsys):
    rc = cli.main(["run", quad_config(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "round,residual_log10,consensus_gap,grad_evals,wall_ms"
    assert (tmp_path / "t.meta.txt").is_file()
    assert "trace written" in capsys.readouterr().out


def test_run_quiet_suppresses_chatter(tmp_path, capsys):
    rc = cli.main(["--quiet", "run", quad_config(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_unknown_key_fails_closed(tmp_path, capsys):
    text = QUAD_CONFIG.replace("[algorithm]", "[algorithm]\nturbo = yes")
    path = write(tmp_path, text, alpha="0.01", rounds=10)
    rc = cli.main(["run", path])
    assert rc == cli.EXIT_CONFIG
    assert "config_error:" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "t.csv.partial").exists()


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.ini")])
    assert rc == cli.EXIT_CONFIG
    assert "config_error:" in capsys.readouterr().err


def test_divergence_preserves_partial(tmp_path, capsys):
    rc = cli.main(["run", quad_config(tmp_path, alpha="50.0", rounds=100000)])
    assert rc == cli.EXIT_DIVERGENCE
    assert "divergence:" in capsys.readouterr().err
    assert (tmp_path / "t.csv.partial").is_file()
    assert not (tmp_path / "t.csv").is_file()


def test_reference_failure_exits_with_metadata(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ReferenceFailure("no 1e-10-stationary point within 7 oracle calls")

    monkeypatch.setattr(harness, "reference_solution", fail)
    rc = cli.main(["run", quad_config(tmp_path)])
    assert rc == cli.EXIT_REFERENCE
    assert "reference_failure: no 1e-10-stationary point" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "t.csv.partial").exists()
    meta = (tmp_path / "t.meta.txt").read_text().splitlines()
    assert "aborted = reference_failure: no 1e-10-stationary point within " \
        "7 oracle calls" in meta
    assert not any(ln.startswith("reference.") for ln in meta)


@pytest.mark.parametrize("every", ["0", "-7"])
def test_record_every_below_one_fails_before_set_up(tmp_path, capsys,
                                                    monkeypatch, every):
    def solve(*args, **kwargs):
        raise AssertionError("reference solve ran")

    monkeypatch.setattr(harness, "reference_solution", solve)
    text = QUAD_CONFIG.replace("seed = 3\n", f"seed = 3\nrecord_every = {every}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: algorithm needs record_every >= 1" in \
        capsys.readouterr().err
    assert not any(tmp_path.glob("t.*"))


@pytest.mark.parametrize("alpha", ["0", "nan", "-0.1"])
def test_alpha_not_finite_positive_fails_before_set_up(tmp_path, capsys,
                                                       monkeypatch, alpha):
    def solve(*args, **kwargs):
        raise AssertionError("reference solve ran")

    monkeypatch.setattr(harness, "reference_solution", solve)
    rc = cli.main(["run", quad_config(tmp_path, alpha=alpha)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: algorithm needs alpha = auto or a finite alpha > 0" \
        in capsys.readouterr().err
    assert not any(tmp_path.glob("t.*"))


def test_epsilon_zero_fails_before_writing_a_trace(tmp_path, capsys):
    text = QUAD_CONFIG.replace("seed = 3\n", "seed = 3\nepsilon = 0\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="auto", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: algorithm needs a finite epsilon > 0" in \
        capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not any(tmp_path.glob("t.*"))


def test_certify_valid(tmp_path, capsys):
    rc = cli.main(["certify", quad_config(tmp_path, alpha="auto")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "valid = True" in out
    assert "theta = " in out and "alpha_max = " in out


def test_certify_refuses_mu_zero(tmp_path, capsys):
    path = write(tmp_path, LOCALIZATION_CONFIG)
    rc = cli.main(["certify", path])
    assert rc == cli.EXIT_CERTIFICATE
    assert "not strongly convex" in capsys.readouterr().err


def test_certify_alpha_beyond_bound(tmp_path, capsys):
    rc = cli.main(["certify", quad_config(tmp_path, alpha="10.0")])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_CERTIFICATE
    assert "valid = False" in out
    assert "step-size" in out


def test_compare_single_algorithm(tmp_path, capsys):
    rc = cli.main(["compare", quad_config(tmp_path, rounds=3000),
                   "--algos", "diging", "--target", "-3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [ln for ln in out.splitlines()[1:] if ln.strip()]
    assert len(rows) == 1 and rows[0].startswith("diging")


def test_compare_equivalent_algorithms_tie(tmp_path, capsys):
    rc = cli.main(["compare", quad_config(tmp_path, rounds=3000),
                   "--algos", "sdiging,primal_dual", "--target", "-3"])
    out = capsys.readouterr().out
    assert rc == 0
    rounds = {}
    for ln in out.splitlines()[1:]:
        parts = ln.split()
        if parts:
            rounds[parts[0]] = parts[1]
    assert rounds["sdiging"] == rounds["primal_dual"] != "not"


def test_compare_unreachable_target_is_informational(tmp_path, capsys):
    rc = cli.main(["compare", quad_config(tmp_path, rounds=20),
                   "--algos", "diging", "--target", "-12"])
    assert rc == 0
    assert "not reached" in capsys.readouterr().out


def test_seed_override_changes_everything(tmp_path):
    cli.main(["--output-dir", str(tmp_path / "a"), "run", quad_config(tmp_path)])
    cli.main(["--output-dir", str(tmp_path / "b"), "--seed-override", "99",
              "run", quad_config(tmp_path)])
    a = (tmp_path / "a" / "t.csv").read_text()
    b = (tmp_path / "b" / "t.csv").read_text()
    assert a != b


VA2_CONFIG = """\
[problem]
family = gaussian_logistic
q = 30
n = 4
seed = 3

[topology]
kind = random_gnp
m = 20
p = 0.4
seed = 3

[algorithm]
name = sdiging
alpha = 0.02
rounds = 200
seed = 11
"""


@pytest.mark.parametrize("replace, sparse", [
    ({}, False),
    ({"family = gaussian_logistic\nq = 30\nn = 4":
      "family = quadratic\nq = 3\nn = 2",
      "kind = random_gnp\nm = 20\np = 0.4": "kind = ring\nm = 200"}, True)],
    ids=["va2", "ring200"])
def test_scipy_sparse_imported_only_for_csr_mixing(tmp_path, replace, sparse):
    # a fresh interpreter, so that no other test's import counts
    text = VA2_CONFIG
    for old, new in replace.items():
        text = text.replace(old, new)
    config = tmp_path / "run.ini"
    config.write_text(text)
    code = ("import sys; from sdiging import cli; "
            "rc = cli.main(sys.argv[1:]); print(rc, 'scipy.sparse' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "--quiet", "--output-dir", str(tmp_path),
         "run", str(config)], capture_output=True, text=True)
    assert proc.stdout.split() == ["0", str(sparse)], proc.stderr


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sdiging.cli", "certify",
         quad_config(tmp_path, alpha="auto")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid = True" in proc.stdout
