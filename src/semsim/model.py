"""Hurst and dampening functions with declared regularity constants.

A Hurst function ``h(t, x)`` steers the local roughness of a simulated
path; a dampening function ``f(t, x) >= 0`` exponentially suppresses the
memory kernel.  Both carry *declared* constants (range bounds, Lipschitz
constants, growth constant) that downstream bounds rely on.  Declarations
are not trusted blindly: :func:`validate_hurst` and
:func:`validate_dampening` falsify them by dense lattice sampling.

Built-in Hurst families (argument ``x`` is the current path value, all are
time-independent):

``constant``
    ``h = H`` for ``H`` in ``(0, 1]``.  ``H = 1.0`` is admitted as a
    boundary test value.
``smooth_at_origin``
    ``h(x) = 1/2 + (1/2) / (1 + x**2)``, range ``[1/2, 1]``, smoothest at
    the origin.
``rough_at_origin``
    ``h(x) = 1/2 - (1/2) / (1 + x**2)`` floored at ``EPSILON_FLOOR``,
    roughest at the origin.  The raw formula reaches 0 at ``x = 0``, which
    the moment and stability bounds exclude, so the floor keeps the lower
    bound strictly positive.
``bell``
    ``h(x) = 1 / (1 + x**2)`` floored at ``EPSILON_FLOOR``; spans nearly
    the whole admissible range.
``trig``
    ``h(x) = alpha + beta * sin(gamma * x)``; requires
    ``0 < alpha - |beta|`` and ``alpha + |beta| < 1``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable

import numpy as np

from .randomness import _as_int, _as_real

__all__ = [
    "EPSILON_FLOOR",
    "HurstFunction",
    "DampeningFunction",
    "Violation",
    "ValidationReport",
    "builtin_hurst",
    "builtin_dampening",
    "validate_hurst",
    "validate_dampening",
]

# Floor applied by built-ins whose raw formula touches 0.
EPSILON_FLOOR = 0.05

# Sharp slope bounds: max |d/dx (1/2)/(1+x^2)| = 3*sqrt(3)/16 at x = 1/sqrt(3),
# and twice that for 1/(1+x^2).
_HALF_CAUCHY_SLOPE = 3.0 * math.sqrt(3.0) / 16.0
_CAUCHY_SLOPE = 3.0 * math.sqrt(3.0) / 8.0


def _store_constants(function, labels) -> None:
    """Store each constant ``labels`` names on the frozen ``function`` as a finite nonnegative float."""
    for label in labels:
        c = _as_real(getattr(function, label), label)
        if not c >= 0.0:
            raise ValueError(f"{label} must be a finite nonnegative constant, got {c!r}")
        object.__setattr__(function, label, c)


@dataclass(frozen=True)
class HurstFunction:
    """A Hurst function together with its declared constants.

    ``evaluator(t, x)`` must accept a float ``t`` and a float or ndarray
    ``x``.  A function declaring ``lip_t > 0``, or one passed to
    :func:`~semsim.kernels.kernel_values`, is also called with an ndarray
    ``t`` that broadcasts against ``x``.  :meth:`evaluate` holds the one
    clip rule: the solver, :func:`~semsim.kernels.kernel_values` and
    :func:`~semsim.kernels.sigma` all read Hurst values through it.  It
    clips the values into ``[h_star, h_sup]``, silently, for every function
    constructed directly or copied with ``dataclasses.replace``, one that
    wraps a built-in evaluator included.  Only :func:`builtin_hurst` marks
    the functions it returns as in range, and :meth:`evaluate` does not
    clip those: each built-in formula stays in its declared range under
    rounding (see :func:`builtin_hurst`), so the clip would return its
    operand and cost the solver two ufunc calls per node.  A custom
    evaluator that strays out of its range has a wrong declaration, which
    :func:`validate_hurst` reports as a ``range`` violation.
    ``h_star`` must be strictly positive and ``h_sup`` at most 1; the value
    1 itself is allowed because two built-ins attain it at the origin.
    """

    evaluator: Callable
    h_star: float
    h_sup: float
    lip_t: float
    lip_x: float
    name: str = "custom"
    # Set by builtin_hurst alone; not an argument, not compared.
    _in_range: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_star", _as_real(self.h_star, "h_star"))
        object.__setattr__(self, "h_sup", _as_real(self.h_sup, "h_sup"))
        if not (0.0 < self.h_star <= self.h_sup <= 1.0):
            raise ValueError(
                f"need 0 < h_star <= h_sup <= 1, got h_star={self.h_star!r}, h_sup={self.h_sup!r}"
            )
        _store_constants(self, ("lip_t", "lip_x"))

    @property
    def is_constant(self) -> bool:
        return self.h_star == self.h_sup

    def evaluate(self, t, x):
        """Evaluation in ``[h_star, h_sup]``; ndarray in, ndarray out.

        The one clip rule for Hurst values, with no warning.  A built-in's
        values are returned as its evaluator gives them; every other
        function's are clipped.  The two ufuncs of the clip give the bits
        of ``np.clip``, NaN included, without its Python-level dispatch,
        and the solver calls this once per node.
        """
        raw = self.evaluator(t, x)
        if self._in_range:
            return raw
        return np.minimum(np.maximum(raw, self.h_star), self.h_sup)


@dataclass(frozen=True)
class DampeningFunction:
    """A nonnegative dampening function with declared constants.

    ``growth_C`` bounds ``|f(t, x)| <= growth_C * (1 + |x|)``; the
    Lipschitz constants bound variation in each argument.  The read-only
    ``constant_value`` is the level of the constant built-in, read from
    its evaluator, so the decay table a simulator builds from it holds the
    level :meth:`evaluate` returns; it is None for every other evaluator.

    ``evaluator(t, x)`` must accept a float ``t`` and a float or ndarray
    ``x``.  A function declaring ``lip_t > 0``, or one passed to
    :func:`~semsim.kernels.kernel_values`, is also called with an ndarray
    ``t`` that broadcasts against ``x``.
    """

    evaluator: Callable
    growth_C: float
    lip_t: float
    lip_x: float
    name: str = "custom"

    def __post_init__(self) -> None:
        _store_constants(self, ("growth_C", "lip_t", "lip_x"))

    @property
    def constant_value(self) -> float | None:
        """The level of the constant built-in's evaluator, None for any other evaluator.

        A custom evaluator that happens to be constant gives None and is
        evaluated column by column, which gives the tabled row's bits.
        """
        return self.evaluator.value if isinstance(self.evaluator, _ConstantEval) else None

    def evaluate(self, t, x):
        return self.evaluator(t, x)


# Built-in evaluators pickle, so configurations built from them can be
# saved or sent to another process.  The block runner needs none of it:
# its workers are forked and inherit the config, and only block results
# are pickled.  A parameterless evaluator is a module-level function,
# pickled by name, and one with parameters is a tiny frozen dataclass,
# which also keeps dataclass equality.

@dataclass(frozen=True)
class _ConstantEval:
    value: float

    def __call__(self, t, x):
        return np.full(np.asarray(x, dtype=np.float64).shape, self.value)


@dataclass(frozen=True)
class _TrigEval:
    alpha: float
    beta: float
    gamma: float

    # The parameters as float64 0-d arrays, made once: a ufunc converts a
    # Python float operand afresh on every call.  They are not fields, so
    # repr and equality read the floats; a pickle holds the fields alone,
    # and unpickling makes the copies again.
    def __post_init__(self):
        object.__setattr__(self, "_abg", tuple(np.array(v, dtype=np.float64) for v in astuple(self)))

    def __getstate__(self):
        return asdict(self)

    def __setstate__(self, state):
        self.__init__(**state)

    def __call__(self, t, x):
        alpha, beta, gamma = self._abg
        return alpha + beta * np.sin(gamma * np.asarray(x, dtype=np.float64))


# The constants of the formulas below as float64 0-d arrays: a ufunc
# converts a Python float operand afresh on every call, and the solver
# calls these evaluators once per node.
_ONE, _HALF, _FLOOR = np.array(1.0), np.array(0.5), np.array(EPSILON_FLOOR)


def _smooth_at_origin(t, x):
    x = np.asarray(x, dtype=np.float64)
    return _HALF + _HALF / (_ONE + x * x)


def _rough_at_origin(t, x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(_HALF - _HALF / (_ONE + x * x), _FLOOR)


def _bell(t, x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(_ONE / (_ONE + x * x), _FLOOR)


def _abs_value(t, x):
    return np.abs(np.asarray(x, dtype=np.float64))


def _constant_hurst(H: float) -> HurstFunction:
    if not (0.0 < H <= 1.0):
        raise ValueError(f"constant H must lie in (0, 1], got {H!r}")
    return HurstFunction(_ConstantEval(H), h_star=H, h_sup=H, lip_t=0.0, lip_x=0.0, name="constant")


def _trig_hurst(alpha: float, beta: float, gamma: float) -> HurstFunction:
    lo, hi = alpha - abs(beta), alpha + abs(beta)
    if not (0.0 < lo and hi < 1.0):
        raise ValueError(
            f"trig range [alpha - |beta|, alpha + |beta|] = [{lo}, {hi}] must lie strictly inside (0, 1)"
        )
    return HurstFunction(
        _TrigEval(alpha, beta, gamma), h_star=lo, h_sup=hi,
        lip_t=0.0, lip_x=abs(beta * gamma), name="trig",
    )


def _constant_dampening(c: float) -> DampeningFunction:
    if not c >= 0.0:
        raise ValueError(f"constant dampening level must be finite and nonnegative, got {c!r}")
    return DampeningFunction(_ConstantEval(c), growth_C=c, lip_t=0.0, lip_x=0.0, name="constant")


# The built-in families of each kind: name -> (parameter names, constructor).
_HURST_FAMILIES = {
    "constant": (("H",), _constant_hurst),
    "smooth_at_origin": ((), lambda: HurstFunction(
        _smooth_at_origin, h_star=0.5, h_sup=1.0,
        lip_t=0.0, lip_x=_HALF_CAUCHY_SLOPE, name="smooth_at_origin",
    )),
    "rough_at_origin": ((), lambda: HurstFunction(
        _rough_at_origin, h_star=EPSILON_FLOOR, h_sup=0.5,
        lip_t=0.0, lip_x=_HALF_CAUCHY_SLOPE, name="rough_at_origin",
    )),
    "bell": ((), lambda: HurstFunction(
        _bell, h_star=EPSILON_FLOOR, h_sup=1.0,
        lip_t=0.0, lip_x=_CAUCHY_SLOPE, name="bell",
    )),
    "trig": (("alpha", "beta", "gamma"), _trig_hurst),
}
_DAMPENING_FAMILIES = {
    "constant": (("c",), _constant_dampening),
    "abs_value": ((), lambda: DampeningFunction(
        _abs_value, growth_C=1.0, lip_t=0.0, lip_x=1.0, name="abs_value")),
    "bell": ((), lambda: DampeningFunction(
        _bell, growth_C=1.0, lip_t=0.0, lip_x=_CAUCHY_SLOPE, name="bell",
    )),
}


def _builtin(families: dict, kind: str, name: str, params):
    """The family ``name`` of ``families`` built on ``params``, each a finite real number."""
    if name not in families:
        raise ValueError(f"unknown {kind} function {name!r}")
    names, make = families[name]
    params = tuple(params)
    if len(params) != len(names):
        raise ValueError(f"{name} takes {len(names)} parameter(s) [{', '.join(names)}], got {len(params)}")
    return make(*(_as_real(p, f"{name} parameter {n}") for p, n in zip(params, names)))


def builtin_hurst(name: str, params: tuple | list = ()) -> HurstFunction:
    """Construct a built-in Hurst function by name (see the module docstring).

    Names and parameters: ``constant [H]`` with ``0 < H <= 1``,
    ``smooth_at_origin []``, ``rough_at_origin []``, ``bell []`` and
    ``trig [alpha, beta, gamma]`` with ``0 < alpha - |beta|`` and ``alpha +
    |beta| < 1``.  An unknown name, a wrong number of parameters, a
    parameter that is not a finite int or float (a bool or a string, say)
    or a value out of range raises ``ValueError``.

    The function is marked as in range, so :meth:`HurstFunction.evaluate`
    does not clip it.  Each formula stays in ``[h_star, h_sup]`` under
    rounding, since IEEE rounding is monotone: the constant returns ``H``;
    ``1 + x**2 >= 1`` puts the quotient in ``[0, 1/2]`` or ``[0, 1]``, and
    the floors are ``np.maximum`` with ``h_star``; numpy's ``sin`` stays in
    ``[-1, 1]``, so ``beta * sin`` stays in ``[-|beta|, |beta|]``, and the
    bounds ``alpha - |beta|`` and ``alpha + |beta|`` are the formula's own
    roundings at those ends.  NaN stays NaN, as under the clip.  The tests
    check each family over a lattice and at its extreme points.
    """
    h = _builtin(_HURST_FAMILIES, "hurst", name, params)
    object.__setattr__(h, "_in_range", True)
    return h


def builtin_dampening(name: str, params: tuple | list = ()) -> DampeningFunction:
    """Construct a built-in dampening function by name.

    Names and parameters: ``constant [c]`` with ``c`` finite and ``>= 0``,
    ``f = c``; ``abs_value []``, ``f(x) = |x|``; ``bell []``, ``f(x) = max(1 /
    (1 + x**2), EPSILON_FLOOR)``, the Hurst ``bell`` evaluator and its
    floor, which the dampening keeps.  An unknown name, a wrong number of
    parameters, a parameter that is not a finite int or float or a value
    out of range raises ``ValueError``.
    """
    return _builtin(_DAMPENING_FAMILIES, "dampening", name, params)


@dataclass(frozen=True)
class Violation:
    """One falsified declaration, with the offending sample and bound."""

    kind: str
    t: float
    x: float
    quantity: float
    bound: float
    t2: float | None = None
    y: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]
    total_violations: int
    samples_used: int


_MAX_RECORDED = 50
# Dense-lattice checks tolerate rounding in the sampled quantities.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12


def _collect(mask: np.ndarray, kind: str, ts, xs, qty, bound, t2=None, ys=None) -> list[Violation]:
    out = []
    for i, j in np.argwhere(mask)[:_MAX_RECORDED]:
        sel = (i, j)
        out.append(
            Violation(
                kind=kind,
                t=float(ts[sel]),
                x=float(xs[sel]),
                quantity=float(qty[sel]),
                bound=float(np.broadcast_to(bound, mask.shape)[sel]),
                t2=None if t2 is None else float(t2[sel]),
                y=None if ys is None else float(ys[sel]),
            )
        )
    return out


def _scan(fn, t_samples, x_range, x_samples, t_range, pointwise) -> ValidationReport:
    """Evaluate ``fn`` on a lattice and check its declarations.

    ``pointwise(vals, xgrid)`` gives the ``(kind, mask, quantity, bound)``
    of each check on single values; they are recorded first, in order,
    then the x-Lipschitz bound on adjacent lattice columns, then the
    t-Lipschitz bound on adjacent lattice rows.
    """
    t_samples = _as_int(t_samples, "t_samples", least=2)
    x_samples = _as_int(x_samples, "x_samples", least=2)
    ts = np.linspace(t_range[0], t_range[1], t_samples)
    xs = np.linspace(x_range[0], x_range[1], x_samples)
    vals = np.empty((t_samples, x_samples))
    for i, t in enumerate(ts):
        vals[i] = np.asarray(fn.evaluator(float(t), xs), dtype=np.float64)
    tgrid = np.broadcast_to(ts[:, None], vals.shape)
    xgrid = np.broadcast_to(xs[None, :], vals.shape)

    checks = [(kind, mask, qty, bound, tgrid, xgrid, None, None)
              for kind, mask, qty, bound in pointwise(vals, xgrid)]
    jump_x = np.abs(np.diff(vals, axis=1))
    bound_x = fn.lip_x * np.abs(np.diff(xs))[None, :] * (1.0 + _REL_SLACK) + _ABS_SLACK
    checks.append(("lipschitz_x", jump_x > bound_x, jump_x, bound_x, tgrid[:, :-1], xgrid[:, :-1],
                   None, np.broadcast_to(xs[None, 1:], jump_x.shape)))
    jump_t = np.abs(np.diff(vals, axis=0))
    bound_t = fn.lip_t * np.abs(np.diff(ts))[:, None] * (1.0 + _REL_SLACK) + _ABS_SLACK
    checks.append(("lipschitz_t", jump_t > bound_t, jump_t, bound_t, tgrid[:-1, :], xgrid[:-1, :],
                   np.broadcast_to(ts[1:, None], jump_t.shape), None))

    violations: list[Violation] = []
    total = 0
    for kind, mask, qty, bound, t_at, x_at, t2, ys in checks:
        total += int(mask.sum())
        violations += _collect(mask, kind, t_at, x_at, qty, bound, t2, ys)
    return ValidationReport(
        passed=total == 0,
        violations=tuple(violations[:_MAX_RECORDED]),
        total_violations=total,
        samples_used=t_samples * x_samples,
    )


def validate_hurst(
    h: HurstFunction,
    t_samples: int,
    x_range: tuple[float, float],
    x_samples: int,
    t_range: tuple[float, float] = (0.0, 1.0),
) -> ValidationReport:
    """Falsify the declared constants of a Hurst function by lattice scan.

    Checks, on a ``t_samples`` by ``x_samples`` lattice over ``t_range``
    and ``x_range``: range containment of the raw evaluator in
    ``[h_star, h_sup]``, the x-Lipschitz bound on adjacent lattice
    columns, and the t-Lipschitz bound on adjacent lattice rows.  Bounds
    are applied with a relative slack of 1e-9 so sharp constants are not
    rejected on rounding noise.  Both sample counts are integers of at
    least 2; any other value raises ``ValueError``.
    """
    def in_range(vals, xgrid):
        return [
            ("range", vals < h.h_star - _ABS_SLACK, vals, h.h_star),
            ("range", vals > h.h_sup + _ABS_SLACK, vals, h.h_sup),
        ]

    return _scan(h, t_samples, x_range, x_samples, t_range, in_range)


def validate_dampening(
    f: DampeningFunction,
    t_samples: int,
    x_range: tuple[float, float],
    x_samples: int,
    t_range: tuple[float, float] = (0.0, 1.0),
) -> ValidationReport:
    """Falsify the declarations of a dampening function by lattice scan.

    Checks nonnegativity, the linear growth bound
    ``|f(t, x)| <= growth_C * (1 + |x|)``, and both Lipschitz bounds, with
    the same slack policy as :func:`validate_hurst`.
    """
    def sign_and_growth(vals, xgrid):
        growth_bound = f.growth_C * (1.0 + np.abs(xgrid)) * (1.0 + _REL_SLACK) + _ABS_SLACK
        return [
            ("negativity", vals < -_ABS_SLACK, vals, 0.0),
            ("growth", np.abs(vals) > growth_bound, np.abs(vals), growth_bound),
        ]

    return _scan(f, t_samples, x_range, x_samples, t_range, sign_and_growth)
