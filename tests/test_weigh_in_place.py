"""schemes._weigh weighs a strip quantity in place, with a broadcast weight.

Every strip product a * eta_a is formed in ``a``'s own memory; numpy buffers
the broadcast (rows, 1) weight in at most np.getbufsize() entries, so the
product allocates no copy of the weight at ``a``'s shape.
"""

import tracemalloc

import numpy as np

from stokesdd.schemes import _weigh


def _signed_zeros(rng, shape):
    """Random entries, a third of them zeros of either sign."""
    return rng.choice([-1.0, 1.0, 0.0, -0.0], size=shape, p=[0.35, 0.35, 0.15, 0.15]) * rng.uniform(0.5, 1.5, shape)


def test_weigh_returns_its_argument_with_the_bits_of_w_times_a():
    rng = np.random.default_rng(11)
    a = _signed_zeros(rng, (2, 37, 9))
    w = _signed_zeros(rng, (37, 1))
    want = w * a
    got = _weigh(w, a)
    assert got is a
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_weigh_allocates_at_most_numpys_buffer():
    """At (2, 200, 257) a copy of the weight to a's shape would take 822 kB."""
    rng = np.random.default_rng(12)
    a = rng.uniform(-1.0, 1.0, (2, 200, 257))
    w = rng.uniform(0.0, 1.0, (200, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _weigh(w, a)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * np.getbufsize() + 4096, f"{peak} B allocated"
