"""The tracer leaves nothing behind and does its self-time arithmetic right."""

import types

import numpy as np
import pytest

import layers
from tracer import Target, Tracer, self_times


def _attrs(targets):
    return {(id(t.owner), t.attr): vars(t.owner)[t.attr] for t in targets}


def test_install_then_uninstall_leaves_no_wrapper():
    targets = layers.targets(full=True)
    before = _attrs(targets)
    tracer = Tracer()
    tracer.install(targets)
    assert tracer.absent == []
    during = _attrs(targets)
    assert all(during[k] is not v for k, v in before.items())
    tracer.uninstall()
    after = _attrs(targets)
    assert all(after[k] is v for k, v in before.items())
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_missing_target_is_reported_absent():
    mod = types.SimpleNamespace(present=lambda: 1)
    tracer = Tracer()
    tracer.install([Target(mod, "present", "p"), Target(mod, "gone", "g")])
    assert mod.present() == 1
    tracer.uninstall()
    assert tracer.absent == ["g"]
    assert not hasattr(mod, "gone")


def test_spans_record_nesting_and_exceptions():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2

    def boom():
        raise ValueError("no")

    mod.boom = boom
    tracer = Tracer()
    tracer.install([Target(mod, "outer", "outer"), Target(mod, "inner", "inner"),
                    Target(mod, "boom", "boom")])
    try:
        assert mod.outer(1) == 4
        with pytest.raises(ValueError):
            mod.boom()
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name_id"]] == ["outer", "inner", "boom"]
    assert spans["parent"].tolist() == [-1, 0, -1]
    assert spans["raised"].tolist() == [False, False, True]
    assert (spans["end"] >= spans["start"]).all()


def test_self_time_on_a_synthetic_tree():
    # 0: root [0, 10]
    #   1: [1, 4]   with child 3: [2, 3]
    #   2: [3, 6]   overlaps span 1 by one unit
    #   4: [9, 12]  sticks out of the root; only [9, 10] is covered
    # 5: a second root [20, 21] with no children
    parent = [-1, 0, 0, 1, 0, -1]
    start = [0.0, 1.0, 3.0, 2.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    own = self_times(parent, start, end)
    np.testing.assert_allclose(own, [10 - 5 - 1, 3 - 1, 3, 1, 3, 1])


def test_self_time_of_disjoint_children_is_duration_minus_their_sum():
    rng = np.random.default_rng(0)
    cuts = np.sort(rng.uniform(0, 1, size=20))
    starts, ends = cuts[0::2], cuts[1::2]
    parent = [-1] + [0] * len(starts)
    own = self_times(parent, [0.0, *starts], [1.0, *ends])
    assert own[0] == pytest.approx(1.0 - float((ends - starts).sum()))
