"""Built-in model functions and the declaration validators."""

import math
import pickle
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semsim import (
    EPSILON_FLOOR,
    DampeningFunction,
    HurstClipWarning,
    HurstFunction,
    builtin_dampening,
    builtin_hurst,
    eval_hurst,
    validate_dampening,
    validate_hurst,
)

ALL_HURSTS = [
    builtin_hurst("constant", [0.75]),
    builtin_hurst("smooth_at_origin"),
    builtin_hurst("rough_at_origin"),
    builtin_hurst("bell"),
    builtin_hurst("trig", [0.6, 0.2, 1.0]),
]

ALL_DAMPS = [
    builtin_dampening("constant", [0.0]),
    builtin_dampening("constant", [1.5]),
    builtin_dampening("abs_value"),
    builtin_dampening("bell"),
]


def test_smooth_at_origin_values():
    h = builtin_hurst("smooth_at_origin")
    assert eval_hurst(h, 0.0, 0.0) == 1.0
    assert eval_hurst(h, 0.0, 1.0) == 0.75
    assert h.h_star == 0.5 and h.h_sup == 1.0


def test_rough_at_origin_is_floored():
    h = builtin_hurst("rough_at_origin")
    assert eval_hurst(h, 0.0, 0.0) == EPSILON_FLOOR
    assert eval_hurst(h, 0.0, 1e8) == pytest.approx(0.5)
    assert h.h_star == EPSILON_FLOOR and h.h_sup == 0.5


def test_bell_values():
    h = builtin_hurst("bell")
    assert eval_hurst(h, 0.0, 0.0) == 1.0
    assert eval_hurst(h, 0.0, 1e8) == EPSILON_FLOOR
    assert eval_hurst(h, 0.0, 1.0) == 0.5


def test_trig_at_quarter_period():
    h = builtin_hurst("trig", [0.5, 0.2, 1.0])
    assert eval_hurst(h, 0.0, math.pi / 2) == pytest.approx(0.7, abs=1e-12)
    assert h.h_star == pytest.approx(0.3)
    assert h.h_sup == pytest.approx(0.7)
    assert h.lip_x == pytest.approx(0.2)


def test_constant_everywhere():
    h = builtin_hurst("constant", [0.5])
    for t, x in [(0.0, 0.0), (1.0, -3.5), (0.3, 100.0)]:
        assert eval_hurst(h, t, x) == 0.5
    assert h.is_constant
    assert not builtin_hurst("bell").is_constant


def test_declared_slope_constants_are_sharp():
    # max |d/dx (1/2)/(1+x^2)| is attained at x = 1/sqrt(3)
    xs = np.linspace(-4.0, 4.0, 400_001)
    smooth = builtin_hurst("smooth_at_origin").evaluator(0.0, xs)
    slopes = np.abs(np.diff(smooth)) / np.diff(xs)
    peak = 3.0 * math.sqrt(3.0) / 16.0
    assert slopes.max() <= peak
    assert slopes.max() >= peak - 1e-4
    bell = builtin_hurst("bell").evaluator(0.0, xs)
    assert (np.abs(np.diff(bell)) / np.diff(xs)).max() <= 2 * peak


@pytest.mark.parametrize("name,params", [
    ("constant", []),
    ("constant", [0.0]),
    ("constant", [1.5]),
    ("constant", [-0.2]),
    ("smooth_at_origin", [1.0]),
    ("rough_at_origin", [1.0]),
    ("bell", [0.3]),
    ("trig", [0.5]),
    ("trig", [0.5, 0.5, 1.0]),
    ("trig", [0.9, 0.1, 2.0]),
    ("trig", [0.2, 0.2, 1.0]),
    ("no_such_family", []),
    # A parameter is a finite int or float, never a string.
    ("constant", ["0.5"]),
])
def test_builtin_hurst_rejects(name, params):
    with pytest.raises(ValueError):
        builtin_hurst(name, params)


def test_constant_boundary_value_allowed():
    h = builtin_hurst("constant", [1.0])
    assert eval_hurst(h, 0.5, 2.0) == 1.0


def test_vector_evaluation_clips_like_np_clip():
    # Below, at and inside the range, above it, both infinities and NaN,
    # which must propagate so that the solver can name a non-finite state.
    raw = np.array([-1.0, 0.0, 0.2, 0.3, 0.45, 0.7, 0.9, 1.5, -np.inf, np.inf, np.nan, -np.nan])
    h = HurstFunction(lambda t, x: x, h_star=0.3, h_sup=0.7, lip_t=0.0, lip_x=1.0)
    got = h.evaluate(0.0, raw)
    assert got.dtype == np.float64
    assert got.tobytes() == np.clip(raw, 0.3, 0.7).tobytes()
    for value in raw:
        assert np.asarray(h.evaluate(0.0, value)).tobytes() == np.clip(value, 0.3, 0.7).tobytes()


# Every built-in Hurst family, trig with |beta| at its limits too: 2**-53
# and 2**-54 from the edges of (0, 1), either sign.
IN_RANGE_HURSTS = [
    ("constant", [0.75]),
    ("constant", [1.0]),
    ("constant", [1e-300]),
    ("smooth_at_origin", []),
    ("rough_at_origin", []),
    ("bell", []),
    ("trig", [0.6, 0.2, 1.0]),
    ("trig", [0.5, -0.3, 2.5]),
    ("trig", [0.7, 0.25, 1000.0]),
    ("trig", [0.5, 0.5 - 2.0 ** -53, 1.0]),
    ("trig", [0.25, -(0.25 - 2.0 ** -54), 3.0]),
]


def _range_probes(gamma: float) -> np.ndarray:
    """A lattice and the extreme points of the built-in formulas.

    The extremes: 0 and -0.0, the steepest points +-1/sqrt(3), tiny values
    whose square is subnormal or underflows, values whose square is near
    or past the float range, +-1e300, both infinities, NaN, and the points
    where ``sin(gamma * x)`` is +-1, with their float neighbours.
    """
    peaks = (np.pi / 2.0 + np.pi * np.arange(-40, 41)) / gamma
    peaks = np.concatenate([peaks, np.nextafter(peaks, np.inf), np.nextafter(peaks, -np.inf)])
    special = [0.0, -0.0, 1.0 / math.sqrt(3.0), 5e-324, 1e-170, 1e154, 1e160, 1e300, np.inf]
    special = np.array(special + [-v for v in special] + [np.nan])
    return np.concatenate([np.linspace(-30.0, 30.0, 60001), peaks, special])


@pytest.mark.parametrize(("name", "params"), IN_RANGE_HURSTS)
def test_builtin_stays_in_its_declared_range(name, params):
    # evaluate does not clip a built-in: the clip must give back its raw
    # values bit for bit, NaN included, and the probes reach both bounds.
    h = builtin_hurst(name, params)
    xs = _range_probes(params[2] if name == "trig" else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.asarray(h.evaluator(0.0, xs), dtype=np.float64)
    clipped = np.minimum(np.maximum(raw, h.h_star), h.h_sup)
    assert raw.tobytes() == clipped.tobytes()
    assert (np.nanmin(raw), np.nanmax(raw)) == (h.h_star, h.h_sup)
    with np.errstate(over="ignore", invalid="ignore"):
        assert h.evaluate(0.0, xs).tobytes() == raw.tobytes()
        for value in xs[-19:]:
            want = np.asarray(h.evaluator(0.0, value)).tobytes()
            assert np.asarray(h.evaluate(0.0, value)).tobytes() == want


@pytest.mark.parametrize(("name", "params"), [("smooth_at_origin", []), ("rough_at_origin", []),
                                              ("bell", []), ("trig", [0.6, 0.2, 1.0])])
def test_hand_built_function_with_a_builtin_evaluator_is_clipped(name, params):
    # Only builtin_hurst marks a function as in range: one built by hand, or
    # copied by dataclasses.replace, is clipped whatever its evaluator.
    builtin = builtin_hurst(name, params)
    lo, hi = builtin.h_star, builtin.h_sup
    lo, hi = lo + (hi - lo) / 4.0, hi - (hi - lo) / 4.0
    xs = np.linspace(-30.0, 30.0, 60001)
    raw = builtin.evaluator(0.0, xs)
    assert ((raw < lo) | (raw > hi)).any()
    narrower = [
        HurstFunction(builtin.evaluator, h_star=lo, h_sup=hi, lip_t=0.0, lip_x=builtin.lip_x),
        replace(builtin, h_star=lo, h_sup=hi),
    ]
    for h in narrower:
        assert h.evaluate(0.0, xs).tobytes() == np.clip(raw, lo, hi).tobytes()


@pytest.mark.parametrize("name,params", [
    ("constant", []),
    ("constant", [-0.5]),
    ("abs_value", [2.0]),
    ("bell", [1.0]),
    ("nope", []),
    # True == 1, but a flag is not a dampening level.
    ("constant", [True]),
])
def test_builtin_dampening_rejects(name, params):
    with pytest.raises(ValueError):
        builtin_dampening(name, params)


# Every built-in family with its parameter names, as the README's config
# schema lists them.
FAMILIES = [
    ("hurst", "constant", ("H",)),
    ("hurst", "smooth_at_origin", ()),
    ("hurst", "rough_at_origin", ()),
    ("hurst", "bell", ()),
    ("hurst", "trig", ("alpha", "beta", "gamma")),
    ("dampening", "constant", ("c",)),
    ("dampening", "abs_value", ()),
    ("dampening", "bell", ()),
]
BUILD = {"hurst": builtin_hurst, "dampening": builtin_dampening}


def test_families_are_the_builtin_tables():
    from semsim import model

    tables = {"hurst": model._HURST_FAMILIES, "dampening": model._DAMPENING_FAMILIES}
    for kind, table in tables.items():
        assert {(name, names) for k, name, names in FAMILIES if k == kind} == {
            (name, names) for name, (names, _) in table.items()}


# Valid parameters of the families that take any.
PARAMS = {("hurst", "constant"): [0.75], ("hurst", "trig"): [0.6, 0.2, 1.0],
          ("dampening", "constant"): [1.5]}


@pytest.mark.parametrize(("kind", "name", "names"), FAMILIES)
def test_builtin_survives_pickling(kind, name, names):
    # A configuration can be saved or sent to another process; an
    # evaluator must pickle and come back equal to a fresh build with the
    # same parameters.
    params = PARAMS.get((kind, name), [])
    back = pickle.loads(pickle.dumps(BUILD[kind](name, params)))
    assert back == BUILD[kind](name, params)


@pytest.mark.parametrize(("kind", "name", "names"), FAMILIES)
def test_wrong_parameter_count_names_family_and_parameters(kind, name, names):
    for count in {0, len(names) - 1, len(names) + 1} - {-1, len(names)}:
        with pytest.raises(ValueError) as excinfo:
            BUILD[kind](name, [0.5] * count)
        message = str(excinfo.value)
        assert message.startswith(f"{name} takes")
        assert f"[{', '.join(names)}]" in message


@pytest.mark.parametrize("kind", sorted(BUILD))
def test_unknown_family_raises(kind):
    with pytest.raises(ValueError, match=f"unknown {kind} function 'no_such_family'"):
        BUILD[kind]("no_such_family", [])


def test_dampening_constant_exposes_value():
    f = builtin_dampening("constant", [2.5])
    assert f.constant_value == 2.5
    assert f.evaluate(0.3, -7.0) == 2.5
    assert builtin_dampening("abs_value").constant_value is None


def test_constant_value_is_read_only():
    # Read from the evaluator, never stored beside it.
    assert "constant_value" not in {f.name for f in fields(DampeningFunction)}


def test_hurst_function_bound_validation():
    eval_const = lambda t, x: 0.5
    with pytest.raises(ValueError):
        HurstFunction(eval_const, h_star=0.0, h_sup=0.5, lip_t=0.0, lip_x=0.0)
    with pytest.raises(ValueError):
        HurstFunction(eval_const, h_star=0.6, h_sup=0.5, lip_t=0.0, lip_x=0.0)
    with pytest.raises(ValueError):
        HurstFunction(eval_const, h_star=0.5, h_sup=1.2, lip_t=0.0, lip_x=0.0)
    with pytest.raises(ValueError):
        HurstFunction(eval_const, h_star=0.3, h_sup=0.5, lip_t=-1.0, lip_x=0.0)


def test_dampening_constant_validation():
    with pytest.raises(ValueError):
        DampeningFunction(lambda t, x: 0.0, growth_C=-1.0, lip_t=0.0, lip_x=0.0)


def test_eval_hurst_warns_on_clip():
    mislabeled = HurstFunction(
        lambda t, x: 0.9, h_star=0.2, h_sup=0.4, lip_t=0.0, lip_x=0.0, name="off"
    )
    with pytest.warns(HurstClipWarning):
        value = eval_hurst(mislabeled, 0.0, 0.0)
    assert value == 0.4


def test_eval_hurst_silent_in_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eval_hurst(builtin_hurst("smooth_at_origin"), 0.2, 1.3)


@pytest.mark.parametrize("h", ALL_HURSTS, ids=lambda h: h.name)
def test_builtins_pass_their_own_validator(h):
    report = validate_hurst(h, t_samples=1000, x_range=(-10.0, 10.0), x_samples=1000)
    assert report.passed, report.violations[:3]
    assert report.total_violations == 0
    assert report.samples_used == 1_000_000


@pytest.mark.parametrize("f", ALL_DAMPS, ids=lambda f: f.name)
def test_dampening_builtins_pass_their_own_validator(f):
    report = validate_dampening(f, t_samples=1000, x_range=(-10.0, 10.0), x_samples=1000)
    assert report.passed, report.violations[:3]


def test_overdeclared_lipschitz_constant_passes():
    base = builtin_hurst("smooth_at_origin")
    loose = HurstFunction(base.evaluator, h_star=0.5, h_sup=1.0, lip_t=0.0, lip_x=1.0)
    assert validate_hurst(loose, 100, (-10.0, 10.0), 400).passed


@dataclass(frozen=True)
class _FixedValue:
    value: float

    def __call__(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        return np.full(x.shape, self.value) if x.shape else self.value


def test_validator_catches_range_mislabel():
    wrong = HurstFunction(_FixedValue(0.9), h_star=0.2, h_sup=0.4, lip_t=0.0, lip_x=0.0)
    report = validate_hurst(wrong, 60, (-1.0, 1.0), 60)
    assert not report.passed
    assert report.total_violations == 3600
    assert len(report.violations) == 50
    assert all(v.kind == "range" for v in report.violations)
    assert report.violations[0].quantity == 0.9


def test_validator_catches_lipschitz_mislabel():
    steep = HurstFunction(
        lambda t, x: 0.3 + 0.05 * np.sin(40.0 * np.asarray(x)),
        h_star=0.25, h_sup=0.35, lip_t=0.0, lip_x=0.1,
    )
    report = validate_hurst(steep, 10, (-1.0, 1.0), 2000)
    assert not report.passed
    assert any(v.kind == "lipschitz_x" for v in report.violations)


def test_validator_catches_time_dependence():
    drifting = HurstFunction(
        lambda t, x: 0.4 + 0.2 * t + 0.0 * np.asarray(x),
        h_star=0.4, h_sup=0.6, lip_t=0.0, lip_x=0.0,
    )
    report = validate_hurst(drifting, 50, (-1.0, 1.0), 10)
    assert any(v.kind == "lipschitz_t" for v in report.violations)


def test_dampening_validator_catches_time_dependence():
    # The engine evaluates a dampening that declares lip_t == 0 once per
    # node; the validator is what catches such a declaration when false.
    drifting = DampeningFunction(
        lambda t, x: t * np.abs(np.asarray(x, dtype=np.float64)),
        growth_C=1.0, lip_t=0.0, lip_x=1.0,
    )
    report = validate_dampening(drifting, 50, (-1.0, 1.0), 10)
    assert not report.passed
    assert any(v.kind == "lipschitz_t" for v in report.violations)


def test_dampening_validator_catches_sign_error():
    signed = DampeningFunction(
        lambda t, x: np.asarray(x, dtype=np.float64), growth_C=1.0, lip_t=0.0, lip_x=1.0
    )
    report = validate_dampening(signed, 20, (-2.0, 2.0), 50)
    assert not report.passed
    assert any(v.kind == "negativity" for v in report.violations)


def test_dampening_validator_catches_growth_mislabel():
    quadratic = DampeningFunction(
        lambda t, x: np.asarray(x, dtype=np.float64) ** 2,
        growth_C=1.0, lip_t=0.0, lip_x=100.0,
    )
    report = validate_dampening(quadratic, 10, (-10.0, 10.0), 200)
    assert any(v.kind == "growth" for v in report.violations)


def test_dampening_validator_catches_lipschitz_mislabel():
    steep = DampeningFunction(
        lambda t, x: np.abs(np.asarray(x, dtype=np.float64)),
        growth_C=1.0, lip_t=0.0, lip_x=0.5,
    )
    report = validate_dampening(steep, 10, (-1.0, 1.0), 200)
    assert not report.passed
    # Every adjacent pair but the one straddling 0, on each of 10 rows.
    assert report.total_violations == 10 * 198
    assert {v.kind for v in report.violations} == {"lipschitz_x"}
    first = report.violations[0]
    assert (first.t, first.x, first.t2) == (0.0, -1.0, None)
    assert first.y > first.x and first.quantity > first.bound


def test_violations_recorded_in_check_order_and_capped_across_kinds():
    # f = 2 (1 + t) |x| on t in {0, 1} and 21 points of [-2, 2]: 28
    # values exceed the growth bound 1 + |x|, 20 adjacent pairs of row
    # t = 1 exceed lip_x = 3, and 20 states move in t despite lip_t = 0.
    f = DampeningFunction(
        lambda t, x: 2.0 * (1.0 + t) * np.abs(np.asarray(x, dtype=np.float64)),
        growth_C=1.0, lip_t=0.0, lip_x=3.0,
    )
    report = validate_dampening(f, 2, (-2.0, 2.0), 21)
    assert not report.passed
    assert report.total_violations == 28 + 20 + 20
    kinds = [v.kind for v in report.violations]
    assert kinds == ["growth"] * 28 + ["lipschitz_x"] * 20 + ["lipschitz_t"] * 2
    assert report.violations[-1].t2 == 1.0 and report.violations[-1].y is None


def test_validators_require_two_samples():
    h = builtin_hurst("bell")
    with pytest.raises(ValueError):
        validate_hurst(h, 1, (-1.0, 1.0), 10)
    with pytest.raises(ValueError):
        validate_dampening(builtin_dampening("bell"), 10, (-1.0, 1.0), 1)


@given(
    t=st.floats(min_value=0.0, max_value=10.0),
    x=st.floats(min_value=-1e6, max_value=1e6),
    h=st.sampled_from(ALL_HURSTS),
)
@settings(max_examples=200, deadline=None)
def test_eval_hurst_always_in_declared_range(t, x, h):
    value = eval_hurst(h, t, x)
    assert h.h_star <= value <= h.h_sup


@given(
    t=st.floats(min_value=0.0, max_value=10.0),
    x=st.floats(min_value=-1e6, max_value=1e6),
    f=st.sampled_from(ALL_DAMPS),
)
@settings(max_examples=200, deadline=None)
def test_dampening_nonnegative_with_linear_growth(t, x, f):
    value = float(f.evaluate(t, x))
    assert value >= 0.0
    assert value <= f.growth_C * (1.0 + abs(x)) * (1.0 + 1e-12)


_COUNT_VALIDATORS = {
    "hurst": lambda **counts: validate_hurst(builtin_hurst("trig", [0.6, 0.2, 1.0]),
                                             x_range=(-1.0, 1.0), **counts),
    "dampening": lambda **counts: validate_dampening(builtin_dampening("abs_value"),
                                                     x_range=(-1.0, 1.0), **counts),
}


@pytest.mark.parametrize("value", [2.0, np.int64(2), 2.5, 1.9, float("nan"), float("inf"),
                                   float("-inf"), True])
@pytest.mark.parametrize("name", ["t_samples", "x_samples"])
@pytest.mark.parametrize("validator", list(_COUNT_VALIDATORS))
def test_counts_are_integers_or_errors(validator, name, value):
    # A value equal to its int() is that int; any other raises, never truncated.
    def use(n):
        return _COUNT_VALIDATORS[validator](**{"t_samples": 3, "x_samples": 5, name: n})

    if value == 2:
        assert use(value) == use(2)
    else:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            use(value)
