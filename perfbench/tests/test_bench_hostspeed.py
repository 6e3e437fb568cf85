import pytest

import hostspeed
from hostspeed import REF_S, WINDOW_S, HostSpeed


class FakeHost(HostSpeed):
    """Samples at given moments with given kernel times."""

    def __init__(self, samples):
        super().__init__()
        for start, secs in samples:
            self.starts.append(start)
            self.secs.append(secs)


def test_scale_uses_the_samples_near_the_item():
    fast, slow = REF_S, 2 * REF_S
    host = FakeHost([(t * 0.25, fast if t < 20 else slow) for t in range(40)])
    assert host.scale(1.0, 0.004) == pytest.approx(0.004)
    assert host.scale(8.0, 0.008) == pytest.approx(0.004)
    # across the step at t = 5 the window [3.5, 5.5] holds six fast
    # samples and three slow ones
    assert WINDOW_S == 1.0
    assert host.factor(4.5) == pytest.approx(9 / 12)
    assert host.factor() == pytest.approx(REF_S / (REF_S * 1.5))


def test_scale_falls_back_to_the_nearest_sample():
    host = FakeHost([(0.0, REF_S), (10.0, 4 * REF_S)])
    assert host.scale(5.0, 0.001) == pytest.approx(0.00025)
    assert host.scale(20.0, 0.001) == pytest.approx(0.00025)


def test_maybe_sample_keeps_its_pace():
    now = [0.0]
    host = HostSpeed(clock=lambda: now[0], probe=lambda: None)
    for step in range(10):
        now[0] = step * 0.1
        host.maybe_sample()
    assert host.starts == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert hostspeed.EVERY_S == 0.25


def test_kernel_is_deterministic():
    assert hostspeed.kernel() == hostspeed.kernel()
