"""One ownership and lifetime rule for the arrays a step computes.

Every field type copies in its constructor and adopts through ``wrap``; each
pressure the package computes is adopted, so the field holds the very array
the solver returned.  Both steppers drop their forcing once the viscous stage
has consumed it.
"""

import weakref

import numpy as np
import pytest

from stokesdd import (
    GridMismatchError,
    ManufacturedCase,
    PressureField,
    SchemeConfig,
    apply_divergence,
    blend_pressures,
    build_strips,
    dd_pressure_substeps,
    decompose,
    exact_pressure,
    forcing_of,
    make_grid,
    make_rng,
    operators,
    pressure_projection,
    random_decomposed,
    random_velocity,
    schemes,
    step_decomposed,
    step_monolithic,
)

GRID = make_grid(1.3, 0.7, 9, 7)


def _spy(monkeypatch, module, name: str) -> list:
    """Replace module.name by a pass-through that keeps every array it returns."""
    returned: list = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, spy)
    return returned


def test_wrap_adopts_the_array_and_zeroes_its_outside_lines_in_place():
    arr = make_rng(1).uniform(-1.0, 1.0, GRID.shape)
    before = arr.copy()
    field = PressureField.wrap(GRID, arr)
    assert field.p is arr and field.grid == GRID
    assert not arr[0, :].any() and not arr[:, 0].any()
    assert np.array_equal(arr[1:, 1:], before[1:, 1:])


@pytest.mark.parametrize("shape", [(10, 7), (11, 8), (8 * 10,)], ids=["short", "long", "flat"])
def test_wrap_rejects_a_wrong_shape(shape):
    with pytest.raises(GridMismatchError):
        PressureField.wrap(GRID, np.zeros(shape))


def test_constructor_and_copy_still_copy():
    arr = make_rng(2).uniform(-1.0, 1.0, GRID.shape)
    before = arr.copy()
    field = PressureField(GRID, arr)
    assert not np.shares_memory(field.p, arr)
    assert np.array_equal(arr, before)  # the input keeps its outside lines
    assert not field.p[0, :].any() and not field.p[:, 0].any()
    assert np.array_equal(field.p[1:, 1:], before[1:, 1:])
    dup = field.copy()
    assert not np.shares_memory(dup.p, field.p) and np.array_equal(dup.p, field.p)
    zero = PressureField.zeros(GRID)
    assert zero.p.shape == GRID.shape and not zero.p.any()


def test_projection_returns_the_range_projected_array(monkeypatch):
    returned = _spy(monkeypatch, schemes, "_pressure_range")
    _, p = pressure_projection(random_velocity(GRID, make_rng(3)), 0.1)
    assert len(returned) == 1 and p.p is returned[0]


def test_substeps_return_the_strip_solver_arrays(monkeypatch):
    part = build_strips(GRID, 3, 2)
    returned = _spy(monkeypatch, schemes, "pressure_solve")
    _, pressures = dd_pressure_substeps(random_decomposed(GRID, 3, make_rng(4)), 0.1, part)
    assert len(returned) == 3
    assert all(p.p is arr for p, arr in zip(pressures, returned, strict=True))


def test_blend_returns_the_weighted_sum(monkeypatch):
    part = build_strips(GRID, 3, 2)
    _, pressures = dd_pressure_substeps(random_decomposed(GRID, 3, make_rng(5)), 0.1, part)
    returned = _spy(monkeypatch, schemes, "weighted_sum")
    assert blend_pressures(part, pressures).p is returned[0]


def test_divergence_returns_the_kernel_array(monkeypatch):
    returned = _spy(monkeypatch, operators, "_divergence_raw")
    assert apply_divergence(random_velocity(GRID, make_rng(6))).p is returned[0]


def test_exact_pressure_is_the_trig_formula_on_the_pressure_nodes():
    case = ManufacturedCase(amplitude=1.1, decay=0.7)
    a, b = np.pi / GRID.l1, np.pi / GRID.l2
    x, y = GRID.coords1()[:, None], GRID.coords2()[None, :]
    want = np.zeros(GRID.shape)
    want[1:, 1:] = (np.cos(a * x) * np.cos(b * y) * np.exp(-0.7 * 0.3))[1:, 1:]
    assert np.array_equal(exact_pressure(case, GRID, 0.3).p, want)


def _forced_config(scheme: str) -> SchemeConfig:
    case = ManufacturedCase()
    return SchemeConfig(
        v=random_velocity(GRID, make_rng(7)), tau=0.1, t_final=0.1, scheme=scheme, m=3, overlap=2,
        forcing=forcing_of(case, GRID),
    )


def _track_release(monkeypatch, consumer: str, forcing_at: int, checkpoint: str) -> list[bool]:
    """Wrap schemes.consumer to keep a weak reference to its positional
    argument forcing_at, and schemes.checkpoint to record, on entry, whether
    that argument is still alive."""
    refs: list = []
    alive: list[bool] = []
    consume, check = getattr(schemes, consumer), getattr(schemes, checkpoint)

    def consume_spy(*args, **kwargs):
        refs.append(weakref.ref(args[forcing_at]))
        return consume(*args, **kwargs)

    def check_spy(*args, **kwargs):
        alive.append(refs[-1]() is not None)
        return check(*args, **kwargs)

    monkeypatch.setattr(schemes, consumer, consume_spy)
    monkeypatch.setattr(schemes, checkpoint, check_spy)
    return alive


def test_monolithic_forcing_is_released_before_the_projection(monkeypatch):
    alive = _track_release(monkeypatch, "viscous_step_monolithic", 1, "pressure_projection")
    cfg = _forced_config("monolithic")
    step_monolithic(cfg.v.copy(), 0.0, cfg, step=1)
    assert alive == [False]


def test_decomposed_forcing_is_released_before_the_backward_sweep(monkeypatch):
    alive = _track_release(monkeypatch, "dd_forward_sweep", 1, "dd_backward_sweep")
    cfg = _forced_config("decomposed")
    step_decomposed(decompose(cfg.partition, cfg.v), 0.0, cfg, step=1)
    assert alive == [False]
