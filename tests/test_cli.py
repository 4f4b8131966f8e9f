import subprocess
import sys

import pytest

from sdiging import cli, engine, graph, harness, objectives
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


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_bytes(b"# caf\xff\n"
                     + QUAD_CONFIG.format(out=tmp_path, alpha="0.01",
                                          rounds=10).encode())
    rc = cli.main(["run", str(path)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: malformed config: 'utf-8' codec can't decode" in \
        capsys.readouterr().err
    assert not any(tmp_path.glob("t.*"))


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


@pytest.mark.parametrize("command", ["run", "certify", "compare"])
def test_graph_that_cannot_be_drawn_is_a_config_error(tmp_path, capsys,
                                                      monkeypatch, command):
    # m, p and the seed come from the config, so no connected G(m, p)
    # sample within the retry budget is the config's fault: exit 2
    def solve(*args, **kwargs):
        raise AssertionError("reference solve ran")

    monkeypatch.setattr(harness, "reference_solution", solve)
    text = QUAD_CONFIG.replace("kind = ring\nm = 4\n",
                               "kind = random_gnp\nm = 50\np = 1e-9\n")
    argv = [command, write(tmp_path, text, alpha="0.01", rounds=10)]
    if command == "compare":
        argv += ["--algos", "sdiging", "--target", "-3"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "construction_failure: no connected G(50, 1e-09) sample " \
        "in 1000 retries\n"
    assert not any(tmp_path.glob("t.*"))


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


@pytest.mark.parametrize("laziness", ["1.0", "-0.1", "nan"])
def test_laziness_outside_unit_interval_fails_before_set_up(
        tmp_path, capsys, monkeypatch, laziness):
    def build(*args, **kwargs):
        raise AssertionError("topology built")

    monkeypatch.setattr(graph, "build_topology", build)
    text = QUAD_CONFIG.replace("m = 4\n", f"m = 4\nlaziness = {laziness}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: topology needs 0 <= laziness < 1" in \
        capsys.readouterr().err
    assert not any(tmp_path.glob("t.*"))


LOGISTIC_PROBLEM = "family = gaussian_logistic\nq = 4\nn = 2\nseed = 1\n"


@pytest.mark.parametrize("family, key, value", [
    ("gaussian_logistic", "lam", "nan"), ("gaussian_logistic", "lam", "inf"),
    ("localization", "theta", "nan"), ("localization", "field_size", "nan"),
    ("localization", "a", "nan"), ("localization", "sigma", "inf"),
    ("quadratic", "mu", "nan"), ("quadratic", "lip", "nan")])
def test_non_finite_problem_value_fails_before_set_up(
        tmp_path, capsys, monkeypatch, family, key, value):
    # build_topology raising bounds the wall time: at lam = nan the reference
    # solve used to spin through its whole oracle budget
    def build(*args, **kwargs):
        raise AssertionError("topology built")

    monkeypatch.setattr(graph, "build_topology", build)
    text = {"quadratic": QUAD_CONFIG,
            "gaussian_logistic": QUAD_CONFIG.replace(
                "family = quadratic\nq = 3\nn = 2\nseed = 1\n", LOGISTIC_PROBLEM),
            "localization": LOCALIZATION_CONFIG}[family]
    text = text.replace("sigma = 0.0\n", "").replace(
        "[problem]\n", f"[problem]\n{key} = {value}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert f"config_error: problem needs a finite {key}\n" in \
        capsys.readouterr().err


@pytest.mark.parametrize("mu, lip", [("3", "2"), ("0", "2"), ("-1", "2")])
def test_quadratic_mu_lip_out_of_order_fails_before_set_up(
        tmp_path, capsys, monkeypatch, mu, lip):
    def build(*args, **kwargs):
        raise AssertionError("topology built")

    monkeypatch.setattr(graph, "build_topology", build)
    text = QUAD_CONFIG.replace("[problem]\n", f"[problem]\nmu = {mu}\nlip = {lip}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: problem needs 0 < mu <= lip" in capsys.readouterr().err


@pytest.mark.parametrize("family, key, value", [
    ("localization", "q", "-1"), ("kmeans", "q", "-1"), ("quadratic", "q", "0"),
    ("localization", "q", "0"), ("quadratic", "n", "0"),
    ("gaussian_logistic", "n", "0"), ("quadratic", "n", "-1"),
    ("kmeans", "clusters", "0"), ("kmeans", "clusters", "-2")])
def test_size_below_one_fails_before_set_up(
        tmp_path, capsys, monkeypatch, family, key, value):
    def build(*args, **kwargs):
        raise AssertionError("topology built")

    monkeypatch.setattr(graph, "build_topology", build)
    text = QUAD_CONFIG.replace("family = quadratic\nq = 3\nn = 2\n",
                               f"family = {family}\n")
    text = text.replace("[problem]\n", f"[problem]\n{key} = {value}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert f"config_error: problem needs {key} >= 1\n" in capsys.readouterr().err


def test_logistic_csv_family_without_its_key_fails_before_set_up(
        tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("topology built")

    monkeypatch.setattr(graph, "build_topology", build)
    text = QUAD_CONFIG.replace("family = quadratic\nq = 3\nn = 2\n",
                               "family = logistic_csv\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: family 'logistic_csv' needs the key logistic_csv" \
        in capsys.readouterr().err


@pytest.mark.parametrize("key, content", [
    ("logistic_csv", None), ("logistic_csv", "1,0.5\n-1,a\n"),
    ("points_csv", None), ("points_csv", "0.0,1.0\na,2.0\n"),
    ("logistic_csv", "1,0.5\n-1,nan\n1,1.0\n-1,-0.5\n"),
    ("logistic_csv", "1,0.5\n-1,2.0\n1,inf\n-1,-0.5\n"),
    ("logistic_csv", "1\n-1\n1\n-1\n"),
    ("points_csv", "0.0,1.0\n2.0,nan\n1.0,1.0\n3.0,0.5\n"),
    ("points_csv", "0.0,1.0\n-inf,2.0\n1.0,1.0\n3.0,0.5\n")],
    ids=["logistic-missing", "logistic-unparsable", "points-missing",
         "points-unparsable", "logistic-nan", "logistic-inf",
         "logistic-labels-only", "points-nan", "points-inf"])
def test_unreadable_csv_is_a_config_error(tmp_path, capsys, monkeypatch, key,
                                          content):
    # the reference solve raising bounds the wall time: a logistic file with
    # a nan used to run through the solver's whole oracle budget
    def solve(*args, **kwargs):
        raise AssertionError("reference solved")

    monkeypatch.setattr(harness, "reference_solution", solve)
    csv = tmp_path / "data.csv"
    if content is not None:
        csv.write_text(content)
    family = "logistic_csv" if key == "logistic_csv" else "kmeans\nq = 1"
    text = QUAD_CONFIG.replace("family = quadratic\nq = 3\nn = 2\n",
                               f"family = {family}\n{key} = {csv}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert f"config_error: cannot read {key} {str(csv)!r}: " \
        in capsys.readouterr().err


def test_fractional_logistic_labels_are_a_config_error(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("1.7,0.5,-1.5\n-1.2,2.0,3.0\n1,1.0,0.5\n-1,-0.5,0.25\n")
    text = QUAD_CONFIG.replace("family = quadratic\nq = 3\nn = 2\n",
                               f"family = logistic_csv\nlogistic_csv = {csv}\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "labels must be -1 or +1" in capsys.readouterr().err
    assert not any(tmp_path.glob("t.*"))


def test_more_clusters_than_points_is_a_config_error(tmp_path, capsys):
    # m * q = 20 points
    text = QUAD_CONFIG.replace("family = quadratic\nq = 3\nn = 2\n",
                               "family = kmeans\nq = 5\nclusters = 40\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == cli.EXIT_CONFIG
    assert "invalid_argument: 40 clusters need at least 40 points, got 20" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run"], ["certify"], ["compare", "--algos", "diging,sdiging,primal_dual",
                           "--target", "-3"]])
def test_logistic_commands_build_no_component_objects(
        tmp_path, monkeypatch, capsys, command):
    # every family, the logistic ones included: the commands read the
    # stacked arrays and never make the per-agent views
    def view(self, problem, i):
        raise AssertionError("LocalObjective built")

    monkeypatch.setattr(objectives.LocalObjective, "__init__", view)
    csv = tmp_path / "data.csv"
    csv.write_text("1,0.5,-1.5\n-1,2.0,3.0\n1,1.0,0.5\n-1,-0.5,0.25\n")
    problems = {
        "quadratic": "family = quadratic\nq = 3\nn = 2\nseed = 1\n",
        "gaussian_logistic": LOGISTIC_PROBLEM,
        "logistic_csv": f"family = logistic_csv\nlogistic_csv = {csv}\n",
        "localization": "family = localization\nq = 5\nseed = 1\nsigma = 0.0\n",
        "kmeans": "family = kmeans\nq = 6\nseed = 1\n",
    }
    for family, problem in problems.items():
        strongly_convex = family in ("quadratic", "gaussian_logistic",
                                     "logistic_csv")
        text = QUAD_CONFIG.replace(
            "family = quadratic\nq = 3\nn = 2\nseed = 1\n", problem)
        path = write(tmp_path, text, alpha="auto" if strongly_convex else "0.05",
                     rounds=20)
        rc = cli.main(["--quiet", command[0], path, *command[1:]])
        want = cli.EXIT_OK if strongly_convex or command[0] != "certify" \
            else cli.EXIT_CERTIFICATE
        assert rc == want, (family, capsys.readouterr().err)


def test_percent_in_a_value_is_literal(tmp_path, capsys):
    text = QUAD_CONFIG.replace("prefix = t", "prefix = run%1")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=10)])
    assert rc == 0
    assert (tmp_path / "run%1.csv").is_file()
    assert "config.prefix = run%1" in \
        (tmp_path / "run%1.meta.txt").read_text().splitlines()


def test_negative_sigma_fails_before_set_up(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(harness, "build_mixing", build)
    text = LOCALIZATION_CONFIG.replace("sigma = 0.0", "sigma = -3")
    rc = cli.main(["run", write(tmp_path, text)])
    assert rc == cli.EXIT_CONFIG
    assert "config_error: problem needs sigma >= 0" in capsys.readouterr().err
    assert not any(tmp_path.glob("loc.*"))


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


@pytest.mark.parametrize("command", ["certify", "run"])
def test_certificate_whose_lip_squared_overflows_is_invalid(
        tmp_path, capsys, command):
    # lip * lip overflows to inf past lip ~ 1.3e154: alpha_max is 0, so no
    # step-size is certified, where lip ** 2 raised OverflowError (exit 1)
    text = QUAD_CONFIG.replace("[problem]\n", "[problem]\nmu = 1\nlip = 1e200\n")
    rc = cli.main([command, write(tmp_path, text, alpha="auto", rounds=10)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CERTIFICATE, captured.err
    assert "step-size outside the certified interval" in captured.out + captured.err
    assert not (tmp_path / "t.csv").exists()


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


def test_prefix_in_a_new_subdirectory_is_made(tmp_path):
    text = QUAD_CONFIG.replace("prefix = t", "prefix = sub/t")
    assert cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=20)]) == 0
    assert (tmp_path / "sub" / "t.csv").is_file()
    assert (tmp_path / "sub" / "t.meta.txt").is_file()


@pytest.mark.parametrize("old, new, error", [
    ("dir = {out}", "dir = {out}/taken",
     "config_error: cannot create the output directory: [Errno 17] File exists"),
    ("prefix = t", "prefix =",
     "config_error: output needs a prefix that names a file, got ''"),
    ("prefix = t", "prefix = sub/",
     "config_error: output needs a prefix that names a file, got 'sub/'"),
], ids=["dir-is-a-file", "empty-prefix", "directory-prefix"])
def test_unwritable_output_fails_before_set_up(tmp_path, capsys, monkeypatch,
                                               old, new, error):
    def build(*args, **kwargs):
        raise AssertionError("mixing built")

    monkeypatch.setattr(harness, "build_mixing", build)
    (tmp_path / "taken").write_text("")
    text = QUAD_CONFIG.replace(old, new)
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=20)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(error)
    assert not any(tmp_path.rglob(".*"))


@pytest.mark.parametrize("kind", ["ring", "complete"])
def test_p_applies_only_to_random_gnp(tmp_path, capsys, kind):
    text = QUAD_CONFIG.replace("kind = ring\nm = 4\n",
                               f"kind = {kind}\nm = 4\np = 0.3\n")
    rc = cli.main(["run", write(tmp_path, text, alpha="0.01", rounds=20)])
    assert rc == cli.EXIT_CONFIG
    assert f"config_error: p does not apply to kind {kind!r}" in \
        capsys.readouterr().err
    assert not any(tmp_path.glob("t.*"))


# The set-up stages, through the names perfbench/layers.py wraps.
STAGES = ((harness, "build_mixing"), (harness, "build_problem"),
          (engine, "certificate_for_problem"), (harness, "reference_solution"))
MIX, PROBLEM, CERT, REF = (name for _, name in STAGES)


@pytest.fixture
def stages(monkeypatch):
    """The set-up stages a command calls, in call order."""
    calls = []
    for module, name in STAGES:
        def called(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, called)
    return calls


@pytest.mark.parametrize("command, alpha, expected", [
    ("run", "0.01", [MIX, PROBLEM, CERT, REF]),
    ("run", "auto", [MIX, PROBLEM, CERT, REF]),
    ("compare", "auto", [MIX, PROBLEM, CERT, REF]),
    ("compare", "0.01", [MIX, PROBLEM, REF]),
    ("certify", "auto", [MIX, PROBLEM, CERT]),
])
def test_commands_set_up_in_one_order(tmp_path, stages, command, alpha,
                                      expected):
    argv = [command, quad_config(tmp_path, alpha=alpha, rounds=20)]
    if command == "compare":
        argv += ["--algos", "sdiging", "--target", "-3"]
    assert cli.main(argv) == cli.EXIT_OK
    assert stages == expected


def test_compare_rejects_a_nan_target_before_set_up(tmp_path, capsys,
                                                   stages):
    rc = cli.main(["compare", quad_config(tmp_path), "--algos", "sdiging",
                   "--target", "nan"])
    assert rc == cli.EXIT_CONFIG
    assert "config_error:" in capsys.readouterr().err
    assert stages == []


@pytest.mark.parametrize("target, rounds", [("inf", "0"), ("-inf", "not")])
def test_compare_infinite_targets(tmp_path, capsys, target, rounds):
    # every residual is <= inf, so round 0 reaches it; none is <= -inf
    rc = cli.main(["compare", quad_config(tmp_path, rounds=5), "--algos",
                   "diging,sdiging", f"--target={target}"])
    assert rc == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [ln.split()[:2] for ln in rows] == [["diging", rounds],
                                               ["sdiging", rounds]]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_refused_auto_alpha_wins_over_a_failing_reference(
        tmp_path, capsys, monkeypatch, stages, command):
    # mu = 0 refuses the certificate before any reference is solved, so a
    # reference that would fail never runs and both commands exit 5
    def fail(*args, **kwargs):
        stages.append(REF)
        raise ReferenceFailure("no 1e-10-stationary point within 7 oracle calls")

    monkeypatch.setattr(harness, "reference_solution", fail)
    argv = [command, write(tmp_path, LOCALIZATION_CONFIG.replace(
        "alpha = 0.1", "alpha = auto"))]
    if command == "compare":
        argv += ["--algos", "sdiging", "--target", "-3"]
    assert cli.main(argv) == cli.EXIT_CERTIFICATE
    assert "certification_refused: objective is not strongly convex" in \
        capsys.readouterr().err
    assert stages == [MIX, PROBLEM, CERT]
