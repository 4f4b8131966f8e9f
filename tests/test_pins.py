"""Bit-identity pins: digests of whole trajectories, taken from the code as
it stood before the stochastic round was trimmed.

Each pin is the sha256 (first 16 hex digits) of the raw float64 bytes of
a final state array or of a trace column other than ``wall_ms``, or the
``float.hex`` of a reference solution.  Speed-ups must leave every one of
them in place; a change that alters rounding on purpose re-pins the
affected lines and says why.
"""

import functools
import hashlib

import numpy as np
import pytest

from sdiging import engine, graph, harness, objectives
from sdiging.saga import dump_table

TRACE_COLUMNS = ("rounds", "residual_log10", "consensus_gap", "grad_evals")


def digest(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def state_digests(state) -> dict:
    return {name: digest(getattr(state, name))
            for name in ("x", "y", "lam", "g_prev")
            if getattr(state, name) is not None}


def run_digests(trace, state) -> dict:
    out = {col: digest(getattr(trace, col)) for col in TRACE_COLUMNS}
    return {**out, **state_digests(state)}


def mixing(kind, m, p, seed):
    return graph.metropolis_weights(graph.build_topology(kind, m, p=p, seed=seed))


# name: (problem and mixing builder, alpha, rounds, problem seed)
CASES = {
    "va2": (lambda: (harness.gaussian_logistic_instance(20, 30, n=4, seed=3),
                     mixing("random_gnp", 20, 0.4, 3)), 0.02, 2000, 3),
    "loc": (lambda: (harness.localization_instance(m=10, q_i=20, sigma=0.0,
                                                   seed=9)[0],
                     mixing("random_gnp", 10, 0.4, 9)), 0.1, 500, 9),
    "m1000": (lambda: (harness.gaussian_logistic_instance(1000, 10, n=4, seed=3),
                       mixing("random_gnp", 1000, 0.02, 3)), 0.02, 30, 3),
}
RUN_SEED = 11


@functools.cache
def case(name):
    """(problem, W, reference solution, alpha, rounds) of a case, built once."""
    build, alpha, rounds, seed = CASES[name]
    prob, w = build()
    return prob, w, harness.reference_solution(prob, seed=seed), alpha, rounds


# instances pinned for their reference solution only: (builder, problem
# seed).  Noisy localization at the default sigma is solved by accelerated
# descent from 0; a quadratic reference is its known optimum; k-means runs
# Lloyd sweeps.
REFERENCE_CASES = {
    **{f"loc_noisy{s}": (functools.partial(
        lambda s: harness.localization_instance(m=10, q_i=20, seed=s)[0], s), s)
       for s in range(3)},
    **{f"quadratic{s}": (functools.partial(
        objectives.quadratic_family, 10, 5, 4, (1.0, 3.0), seed=s), s)
       for s in range(3)},
    **{f"kmeans{s}": (functools.partial(
        harness.kmeans_instance, m=5, q_i=30, k=3, seed=s), s)
       for s in range(3)},
}


def reference(name):
    if name in CASES:
        return case(name)[2]
    build, seed = REFERENCE_CASES[name]
    return harness.reference_solution(build(), seed=seed)


# at the reference solver's budget and tolerance: (oracle calls, x)
REFERENCE_PINS = {
    "loc": (1, [
        "0x1.8fb6b3fe0a5f3p+4", "0x1.b9e144ac5bf3fp+5"]),
    "m1000": (299, [
        "0x1.cca6069917f46p+0", "0x1.099496295af78p+1",
        "-0x1.e728e80e04000p+0", "-0x1.b957a748838c2p+0"]),
    "va2": (245, [
        "0x1.29ca5b7e89282p+0", "0x1.1894199c09590p+0",
        "-0x1.801e5849fe6c8p+0", "-0x1.78d17b8a62be1p+0"]),
    "loc_noisy0": (3995, [
        "0x1.13b920ed3719ap+6", "0x1.7f87cb5d4c23ap+5"]),
    "loc_noisy1": (73, [
        "0x1.8fd17284536ccp+5", "0x1.e4eec796d9f04p+5"]),
    "loc_noisy2": (9545, [
        "0x1.7689c9911cedfp+5", "0x1.c098c9db2872dp+5"]),
    "quadratic0": (1, [
        "0x1.d5b395ef4f0fep-10", "0x1.a984d2c81de32p-4",
        "-0x1.f69d236253baap-5", "-0x1.59964d42a4094p-4"]),
    "quadratic1": (1, [
        "-0x1.873a5ecf497fap-4", "0x1.ac68eb5635463p-7",
        "0x1.2c4e65143229ep-6", "0x1.a29934dd8b0dbp-4"]),
    "quadratic2": (1, [
        "0x1.dd2ed183c5f6dp-7", "-0x1.365ae1ac6de54p-4",
        "0x1.8b46952cebad6p-6", "-0x1.b168b7404028ap-5"]),
    "kmeans0": (33, [
        "-0x1.8473716aad4b8p+1", "-0x1.4a0456696a52dp+2",
        "-0x1.77c6742300899p+1", "0x1.474d76aa0d40fp+2",
        "0x1.80e308f0fedb7p+2", "0x1.feaca6bd37458p-6"]),
    "kmeans1": (26, [
        "-0x1.8704df911b3d5p+1", "-0x1.4beb85210dae2p+2",
        "0x1.7eaad7dcb0a01p+2", "0x1.e3cf433c763ddp-5",
        "-0x1.7f6be06cb99bap+1", "0x1.4ee7bd2c36c14p+2"]),
    "kmeans2": (30, [
        "0x1.8167b5ce70980p+2", "-0x1.a66d141ed0c61p-6",
        "-0x1.7d29d9748d558p+1", "0x1.51783692bb47fp+2",
        "-0x1.7eaf3f2fa9c88p+1", "-0x1.51ebe6fe76220p+2"]),
}

# The loc lines were re-pinned when DiskDistance's row norms became batched
# matmuls (which round as a BLAS dot does) instead of einsum sums; that
# moved the final states by at most 8.6e-14.
RUN_PINS = {
    ("loc", "diging"): dict(
        x="93e9c6d02e2e8e2a", y="0bbc83b8f43e8ed0", g_prev="f7479b46709121ee",
        rounds="145a872587ccca6a", residual_log10="70038c8b082eb611",
        consensus_gap="e89a49fecad9f53d", grad_evals="05688cd7f4284a58"),
    ("loc", "primal_dual"): dict(
        x="18699469e867a36c", lam="f6540dcc2dc888cf", g_prev="5fa888946f9693b1",
        rounds="145a872587ccca6a", residual_log10="394db6299d783e70",
        consensus_gap="01aa802a4d9d7e2d", grad_evals="b1efd243e56d6af8"),
    ("loc", "sdiging"): dict(
        x="de3d8b7ced681899", y="d3f1400c51ed3738", g_prev="d612a96f4d8f7b88",
        rounds="145a872587ccca6a", residual_log10="b251182db4dc6888",
        consensus_gap="575d899d4681e6b6", grad_evals="b1efd243e56d6af8"),
    ("m1000", "diging"): dict(
        x="9c3e77cd7b6161cb", y="deea97b41db6cddd", g_prev="8236be10b230ca4c",
        rounds="dd22fbacd39157d5", residual_log10="ec4d83de17d1ff76",
        consensus_gap="0966379c47e6a5d1", grad_evals="070499f2f57f763f"),
    ("m1000", "primal_dual"): dict(
        x="b64b1cd38ccb7bc8", lam="a980377adc304718", g_prev="b51c2676ba784c36",
        rounds="dd22fbacd39157d5", residual_log10="4afc7b4003241ce0",
        consensus_gap="75dbe8eec0c83aed", grad_evals="641a223172c78d90"),
    ("m1000", "sdiging"): dict(
        x="29f3006b156ba0d7", y="7e246f7ac37ef2e0", g_prev="ad2e761002cac8bc",
        rounds="dd22fbacd39157d5", residual_log10="d0174a94cbe51a40",
        consensus_gap="0418f2b71c52d7f7", grad_evals="641a223172c78d90"),
    ("va2", "diging"): dict(
        x="7ef56888682dc9b1", y="bd53c2a6783ca485", g_prev="3c7d5b69c7ed10a7",
        rounds="b833a6113b55b239", residual_log10="aa9d05d65cdc9b9c",
        consensus_gap="01ab0a9d666addf2", grad_evals="637b478f77b418e3"),
    ("va2", "primal_dual"): dict(
        x="0689feb422c5239a", lam="3056500001efcb79", g_prev="b3dd5eae65d41d16",
        rounds="b833a6113b55b239", residual_log10="7e8481545544cfb7",
        consensus_gap="e1c7ed521266c077", grad_evals="4d8ecc9f2a0ad62f"),
    ("va2", "sdiging"): dict(
        x="9f1149db7ae89ba0", y="bfa65a03435a2f47", g_prev="35bcec1c3a630b67",
        rounds="b833a6113b55b239", residual_log10="c6f5597cdbefbe86",
        consensus_gap="800d847783fe96c2", grad_evals="4d8ecc9f2a0ad62f"),
}

# every agent's dump_table text after the run's rounds, concatenated
DUMP_PINS = {
    ("loc", "primal_dual"): "eb29860f14fdc723",
    ("loc", "sdiging"): "34c4498bb5d3ef42",
    ("m1000", "primal_dual"): "0d18e98bfcf361bf",
    ("m1000", "sdiging"): "c03c1fc706689230",
    ("va2", "primal_dual"): "05e885ac02a40af5",
    ("va2", "sdiging"): "e43c6320a9d64f6d",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_PINS))
def test_reference_solution_pinned(name):
    ref = reference(name)
    calls, x_hex = REFERENCE_PINS[name]
    assert ref.oracle_calls == calls
    assert [v.hex() for v in ref.x.tolist()] == x_hex


@pytest.mark.parametrize("name, rule", sorted(RUN_PINS))
def test_run_pinned(name, rule):
    prob, w, ref, alpha, rounds = case(name)
    trace, state = engine.run(rule, prob, w, alpha, rounds, seed=RUN_SEED,
                              record_every=1, reference=ref.x)
    assert run_digests(trace, state) == RUN_PINS[name, rule]


@pytest.mark.parametrize("name, rule", sorted(DUMP_PINS))
def test_stepped_state_and_tables_pinned(name, rule):
    # step by step from fresh tables, as a checkpointing caller would; the
    # final state is the one ``run`` pins, and every agent's table dump is
    # pinned too
    prob, w, _, alpha, rounds = case(name)
    tables = engine.make_tables(prob, RUN_SEED)
    state = engine.init_state(rule, prob, tables)
    for _ in range(rounds):
        state = engine.step(rule, state, w, prob, alpha, tables)
    want = {k: v for k, v in RUN_PINS[name, rule].items()
            if k not in TRACE_COLUMNS}
    assert state_digests(state) == want
    assert text_digest("".join(dump_table(tables, i) for i in range(prob.m))) \
        == DUMP_PINS[name, rule]
