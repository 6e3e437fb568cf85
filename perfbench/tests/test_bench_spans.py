import sys
import types

import numpy as np
import pytest

from spans import Tracer, self_times


def test_self_time_subtracts_what_children_cover():
    # root [0, 10] has children [1, 3] and [4, 8]; [5, 6] sits under [4, 8]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_self_time_of_leaves_and_separate_roots():
    parent = np.array([-1, -1])
    start = np.array([0.0, 2.0])
    end = np.array([1.5, 2.25])
    assert self_times(parent, start, end).tolist() == [1.5, 0.25]


@pytest.fixture
def fake_package():
    """``fakepkg.core`` defines the functions, ``fakepkg.user`` imports
    one of them by name, as ``from .core import leaf`` would."""
    core = types.ModuleType("fakepkg.core")

    def leaf(x):
        return x + 1

    def outer(x):
        return core.leaf(x) + core.leaf(x)

    core.leaf, core.outer = leaf, outer
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user, leaf
    for name in mods:
        del sys.modules[name]


def test_wrapping_covers_every_binding_and_records_parents(fake_package):
    core, user, leaf = fake_package
    tr = Tracer("fakepkg")
    seen = []
    tr.install(core, "leaf", "core.leaf",
               hook=lambda t, idx, args, kw, res: seen.append((idx, args, res)))
    tr.install(core, "outer", "core.outer")
    assert user.leaf is not leaf and user.leaf.__wrapped__ is leaf

    assert core.outer(1) == 4
    assert user.leaf(10) == 11
    name, parent, start, end = tr.arrays()
    labels = [tr.names[i] for i in name]
    # spans are numbered at entry: outer, its two leaf calls, the direct call
    assert labels == ["core.outer", "core.leaf", "core.leaf", "core.leaf"]
    assert parent.tolist() == [-1, 0, 0, -1]
    assert (end >= start).all()
    assert [s[2] for s in seen] == [2, 2, 11]
    assert tr.ancestor(1, "core.outer") == 0 and tr.ancestor(3, "core.outer") == -1

    tr.uninstall()
    assert core.leaf is leaf and user.leaf is leaf


def test_count_only_wrapper_and_missing_targets(fake_package):
    core, user, leaf = fake_package
    tr = Tracer("fakepkg")
    tr.install(core, "leaf", "core.leaf", count_only=True)
    tr.install(core, "gone", "core.gone")
    core.outer(0)
    assert tr.counts == {"core.leaf": 2}
    assert len(tr.start) == 0
    assert tr.missing == ["core.gone"]
    tr.uninstall()


def test_span_of_a_raising_call_is_closed(fake_package):
    core, _, _ = fake_package
    tr = Tracer("fakepkg")
    tr.install(core, "leaf", "core.leaf")
    with pytest.raises(TypeError):
        core.leaf("x")
    assert tr.end[0] >= tr.start[0] > 0
    tr.uninstall()
