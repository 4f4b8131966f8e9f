"""The CLI's exit-code contract under a deterministic sweep of bad values.

For each synthetic family on a ring of 4 agents, one config key at a time
is set to each of a fixed list of awkward values, and ``certify`` and a
capped ``run`` are invoked.  No value may end in exit 1 (a fault in the
program), and every failure names its kind as ``cli.FAILURES`` maps it
to the exit code.  ``[output]`` keys and the CSV keys (files, not values)
are left out, and so are the keys that do not apply to the family (a
config error before any value is read).
"""

import pytest

from sdiging import cli, harness

VALUES = ["", "abc", "0", "-1", "1.5", "nan", "inf", "-inf", "1e-320",
          "1e200", "1e300", "-1e300", "400", "-400"]

PROBLEMS = {"quadratic": {"q": "3", "n": "2"},
            "gaussian_logistic": {"q": "4", "n": "2"},
            "localization": {"q": "3"},
            "kmeans": {"q": "4"}}

CASES = [(family, section, key)
         for family in PROBLEMS
         for section, key in harness._FIELDS
         if section != "output" and key not in ("points_csv", "logistic_csv")
         and (section != "problem" or key == "family"
              or key in harness._FAMILY_KEYS[family])]

LABELS = {label: code for _, label, code in cli.FAILURES}


def config_text(family, section, key, value):
    sections = {
        "problem": {"family": family, **PROBLEMS[family], "seed": "1"},
        "topology": {"kind": "ring", "m": "4", "seed": "2"},
        "algorithm": {"name": "sdiging", "alpha": "0.01", "rounds": "10",
                      "seed": "3"}}
    sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())


@pytest.mark.parametrize("family, section, key", CASES,
                         ids=[f"{f}-{s}.{k}" for f, s, k in CASES])
def test_no_value_of_one_key_exits_1(tmp_path, capsys, monkeypatch,
                                     family, section, key):
    solve = harness.reference_solution
    monkeypatch.setattr(harness, "reference_solution",
                        lambda problem, seed=0: solve(problem, seed, 2000))
    path = tmp_path / "exp.ini"
    for value in VALUES:
        path.write_text(config_text(family, section, key, value))
        for command in ("certify", "run"):
            rc = cli.main(["--output-dir", str(tmp_path), command, str(path)])
            out, err = capsys.readouterr()
            case = f"{command} with {key} = {value!r}: exit {rc}, {err!r}"
            assert rc != cli.EXIT_UNEXPECTED, case
            if rc == cli.EXIT_OK:
                continue
            if not err:     # an invalid certificate is printed, not raised
                assert (command, rc) == ("certify", cli.EXIT_CERTIFICATE), case
                assert out.startswith("valid = False\n"), case
                continue
            label = err.splitlines()[-1].split(":")[0]
            assert LABELS.get(label) == rc, case
