"""The windows of two strips that follow each other in a sweep meet.

A strip's window is its slab's inner rows (tests/test_sweep_coupling.py).
schemes._couple takes the coupling sum off the next strip on the rows both
windows share, from max of the two first rows to min of the two ends, and
relies on that range never being negative when both strips have a window:
the windows share rows or touch.
"""

from stokesdd import build_strips, make_grid
from test_sweep_coupling import _layouts


def test_the_windows_of_consecutive_strips_meet_in_both_sweep_orders():
    layouts = _layouts(32)
    assert len(layouts) == 1723
    pairs = 0
    for n1, m, overlap in layouts:
        part = build_strips(make_grid(1.0, 1.0, n1, 2), m, overlap)
        for order in (range(m), range(m - 1, -1, -1)):
            slabs = [part.slabs[a] for a in order]
            for this, nxt in zip(slabs, slabs[1:]):
                if this is None or nxt is None:
                    continue
                start, stop = max(this[0].start, nxt[0].start) + 1, min(this[0].stop, nxt[0].stop) - 1
                assert start <= stop, (n1, m, overlap, list(order), this[0], nxt[0])
                pairs += 1
    assert pairs == 15650  # pairs with a window each; strips with no interior row have none
