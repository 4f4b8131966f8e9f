import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import outputs_check  # noqa: E402

TRACE = ("round,residual_log10,consensus_gap,grad_evals,wall_ms\n"
         "0,-0.3750091234567891,0,20,{w0}\n"
         "5,{r5},1.2947314098277875e-15,120,{w5}\n")

TABLE = ("algorithm        rounds   grad_evals      wall_ms\n"
         "sdiging              27          560       {w0}\n"
         "primal_dual  not reached\n")


def outputs(r5=-0.6109270119331436, w0="0.01", w5="1.5"):
    return {"exit": 0, "stdout": TABLE.format(w0=w0).encode(), "stderr": b"",
            "files": {"t.csv": TRACE.format(r5=repr(r5), w0=w0, w5=w5).encode(),
                      "t.meta.txt": b"reference.oracle_calls = 245\n"}}


def test_identical_outputs_pass_whatever_their_wall_times():
    assert outputs_check.differences(outputs(), outputs()) == []
    assert outputs_check.differences(
        outputs(), outputs(w0="123.25", w5="7")) == []


def test_one_ulp_in_one_trace_cell_is_flagged():
    r5 = -0.6109270119331436
    ulp = float(np.nextafter(r5, 0.0))
    found = outputs_check.differences(outputs(r5=r5), outputs(r5=ulp))
    row = "'5,{!r},1.2947314098277875e-15,120,*'"
    assert found == [f"t.csv line 3: {row.format(r5)} -> {row.format(ulp)}"]


def test_exit_codes_streams_and_missing_files_are_flagged():
    a, b = outputs(), outputs()
    b["exit"], b["stderr"] = 5, b"certification_refused: no\n"
    del b["files"]["t.meta.txt"]
    b["stdout"] = b["stdout"].replace(b"560", b"561")
    assert outputs_check.differences(a, b) == [
        "exit code 0 -> 5", "t.meta.txt written by the parent only",
        "stdout line 2: 'sdiging              27          560 *' -> "
        "'sdiging              27          561 *'",
        "stderr line 1: '' -> 'certification_refused: no'"]


def test_masking_keeps_every_other_byte():
    masked = outputs_check.mask_wall_ms(TABLE.format(w0="  3.5").encode())
    assert masked == (b"algorithm        rounds   grad_evals      wall_ms\n"
                      b"sdiging              27          560 *\n"
                      b"primal_dual  not reached\n")
