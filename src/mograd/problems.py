"""Benchmark problem suite: objectives, gradients and Lipschitz data.

All problems are smooth convex vector objectives F: R^n -> R^m.  A
:class:`ProblemInstance` bundles the evaluators with the metadata a run
reads: a gradient-Lipschitz constant (for constant step sizes), an
axis-aligned box for sampling starting points and whether merit evaluation
is supported.  The known Pareto sets, the tests' ground truth, are kept with
the tests (``tests/conftest.py``).

Gradients are an (n, m) matrix whose columns are the per-objective
gradients, the layout the simplex QPs consume directly; an oracle returns it
as an array or as rows (see ``ProblemInstance.gradient_columns``).

JOS1, SD and TOI4 follow their standard forms from the benchmark literature:

* JOS1 (Jin, Olhofer, Sendhoff, GECCO 2001):
  f1 = (1/n) sum x_i^2, f2 = (1/n) sum (x_i - 2)^2.
* SD, the four-variable truss design problem (Stadler & Dauer 1992):
  f1 = 2 x1 + sqrt(2) x2 + sqrt(2) x3 + x4,
  f2 = 2/x1 + 2 sqrt(2)/x2 + 2 sqrt(2)/x3 + 2/x4,
  sampled on the classical box [1,3] x [sqrt(2),3]^2 x [1,3] where f2 is
  smooth and convex; the stored Lipschitz constant is valid on that box.
* TOI4 (after Ph. Toint's quadratic test set, in its common bi-objective
  adaptation): f1 = x1^2 + x2^2 + 1, f2 = 0.5 (x1 - x2)^2 + 0.5 (x3 - x4)^2 + 1.

The bi-objective oracles do their elementwise work on Python floats, which
do numpy's IEEE double arithmetic without its dispatch on every operation:
quad2 and toi4 entirely (``_small_objectives``), sd its orthant test,
reciprocal sum and gradient column, jos1 its gradient.  All four answer in
the floats they compute: F as a list of two floats, G as rows of floats,
which :func:`gradient_rows` takes without a scan (``_float_rows``).  Dot
products stay numpy's.  The ``simplex_qp`` module docstring gives the
reasons and bit conditions.

The two seeded tri-objective families draw their data from named Philox
streams so the same (n, p, delta, seed) always yields bit-identical problems:
stream 2j holds the matrix of objective j, stream 2j+1 its offset vector.

In the log-sum-exp and least-squares families (``lse2``, ``ex1``, ``ex2``)
F and G share one pass per point: each keeps the products of the last point
it was called at, log-sum-exp its max-shifted exponentials, their row sums
and shifts, least squares its residuals A_j x - b_j.  One entry suffices,
since the solvers read F(y) right after G(y), and G(x) right after the line
search's accepted F(x).  ``_last_point`` says why it cannot change a result.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .simplex_qp import min_norm_in_hull

Array = np.ndarray
_FLOAT64 = np.dtype(float)


class InvalidConfig(ValueError):
    """Raised for out-of-range problem parameters or unknown registry keys."""


def whole_number(name, value, minimum):
    """``value`` as an int of at least ``minimum``, the one check of a count:
    ``2.0`` becomes ``2``; 2.5, NaN, inf, None, bools and strings raise InvalidConfig."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or isinstance(value, (bool, np.bool_)):
        raise InvalidConfig(f"{name} must be a whole number, not {value!r}")
    if count < minimum:
        least = "nonnegative" if minimum == 0 else f"a whole number of at least {minimum}"
        raise InvalidConfig(f"{name} must be {least}, not {count}")
    return count


def real_number(name, value):
    """``value`` as a float, the one check of a real setting: a finite
    ``numbers.Real`` (3 becomes 3.0); bools, strings, None, NaN and inf
    raise InvalidConfig naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InvalidConfig(f"{name} must be a finite number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class ProblemInstance:
    """A smooth convex multiobjective problem with gradient oracles.

    Attributes:
        name: registry key echoing the full parametrization.
        n, m: decision dimension and number of objectives.
        objectives: x -> F(x), as an array of shape (m,) or a list of m
            floats.  Read it through :func:`objective_values`, which gives an
            array either way; the line search takes a list as it is.
        gradient_columns: x -> (n, m) matrix of per-objective gradients,
            as an array or as n rows (lists) of m floats.  Both oracles are
            given the point as a 1-D float array of shape (n,).  Read the
            matrix through :func:`gradient_matrix`, which gives an array
            whatever the oracle returned, or :func:`gradient_rows` for rows.
            quad2, toi4, sd and jos1 return both F and G as lists.
        init_box: (low, high) arrays bounding the start-point sampling box.
        lipschitz: max over objectives of a gradient Lipschitz constant, or
            None when no global constant is available.  The matrix families
            store ``delta + max_j ||A_j||_2^2`` from an SVD (see ``_stacked``):
            exact for least squares, conservative for log-sum-exp.
        merit_supported: False when the merit function's inner problem is not
            level-bounded (then merit evaluation refuses to run).
    """

    name: str
    n: int
    m: int
    objectives: Callable[[Array], Array]
    gradient_columns: Callable[[Array], Array]
    init_box: tuple[Array, Array]
    lipschitz: Optional[float] = None
    merit_supported: bool = True


def as_point(prob, x, what="point"):
    """``x`` as a finite float array of shape ``(prob.n,)``, the one check of a
    point; else :class:`InvalidConfig` (a ValueError) naming ``what``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.n,):
        size = f"dimension {x.shape[0]}" if x.ndim == 1 else f"shape {x.shape}"
        raise InvalidConfig(f"{what} has {size}, but {prob.name} has dimension {prob.n}")
    if not np.isfinite(x).all():
        raise InvalidConfig(f"{what} contains NaN or Inf")
    return x


def _gradient_array(prob, G):
    """An oracle's result ``G`` as a float array of shape exactly
    ``(prob.n, prob.m)``, the one shape rule of a gradient matrix; else a
    ValueError naming both shapes, or only the shape needed for ragged rows
    or a string that is not a number.  Finiteness is the hull QPs' check."""
    try:
        G = np.asarray(G, dtype=float)
    except ValueError as exc:
        # numpy's own message names neither the problem nor (n, m)
        raise ValueError(
            f"gradient matrix is not an array of numbers, but {prob.name} needs {(prob.n, prob.m)}"
        ) from exc
    if G.shape != (prob.n, prob.m):
        raise ValueError(
            f"gradient matrix has shape {G.shape}, but {prob.name} needs {(prob.n, prob.m)}"
        )
    return G


def _is_float_rows(G, n, m):
    """True when ``G`` is a list of ``n`` lists of ``m`` Python floats."""
    if type(G) is not list or len(G) != n:
        return False
    for row in G:
        if type(row) is not list or len(row) != m:
            return False
        for a in row:
            if type(a) is not float:
                return False
    return True


def _float_rows(gradient_columns):
    """Mark ``gradient_columns`` as an oracle whose list results at a float64
    point are, by construction, rows of ``m`` Python floats, one per entry of
    the point.  :func:`gradient_rows` then takes such a list of ``n`` rows
    without scanning it; at an integer point quad2's rows hold ints, so
    they are scanned there.  The mark is on the function, so a problem
    whose oracle is replaced (``dataclasses.replace``, a wrapper) loses
    it."""
    gradient_columns._float_rows = True
    return gradient_columns


def gradient_matrix(prob, x):
    """``prob.gradient_columns(x)`` as a float array of shape exactly
    ``(prob.n, prob.m)``, rows or array alike; else a ValueError naming both
    shapes."""
    return _gradient_array(prob, prob.gradient_columns(x))


def gradient_rows(prob, x):
    """``prob.gradient_columns(x)`` as ``prob.n`` lists of ``prob.m`` Python
    floats, the list side of :func:`gradient_matrix`: an oracle's own rows
    pass as they are, and any other result (an array, or rows of another
    shape or type) goes through the same shape rule and ``tolist``, so both
    give the same floats and the same errors.  A list of ``prob.n`` rows that
    an oracle marked ``_float_rows`` gives at a float64 point passes
    unscanned; any other rows are checked entry by entry on every call."""
    oracle = prob.gradient_columns
    G = oracle(x)
    if type(G) is list and len(G) == prob.n and (
        (getattr(oracle, "_float_rows", False) and x.dtype is _FLOAT64)
        or _is_float_rows(G, prob.n, prob.m)
    ):
        return G
    return _gradient_array(prob, G).tolist()


def objective_values(prob, x):
    """``prob.objectives(x)`` as a float array of shape exactly ``(prob.m,)``,
    an array and a list of floats alike, the one check of an objectives
    oracle's result off the line search's hot path; else a ValueError naming
    both shapes."""
    F = np.asarray(prob.objectives(x), dtype=float)
    if F.shape != (prob.m,):
        raise ValueError(f"objective vector has shape {F.shape}, but {prob.name} needs {(prob.m,)}")
    return F


def kkt_residual(prob, x):
    """Norm of the minimum-norm element of the gradient hull at ``x``.

    Zero exactly at Pareto-critical points (up to the QP tolerance
    ``simplex_qp.DEFAULT_TOL``).
    """
    sol = min_norm_in_hull(gradient_matrix(prob, as_point(prob, x)))
    return float(np.linalg.norm(sol.point))


# ---------------------------------------------------------------------------
# shared machinery


def _box(lo, hi, n):
    return (np.full(n, float(lo)), np.full(n, float(hi)))


def _stream(seed, index):
    """Named Philox substream: reproducible across platforms and runs."""
    seed = whole_number("seed", seed, 0)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _small_objectives(values, x):
    """The floats of ``np.array(values(*x))`` as a list, evaluated on Python
    floats.

    Python floats do the same IEEE double arithmetic as numpy scalars, and
    ``**`` calls the same libm ``pow``, without numpy's dispatch on every
    operation.  Python's ``**`` raises OverflowError where numpy's returns
    inf, so an overflowing point is evaluated on numpy scalars instead, with
    their overflow and invalid-value warnings off, and their values are
    returned as floats too.
    """
    try:
        return values(*x.tolist())
    except OverflowError:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array(values(*x)).tolist()


def _stacked(mats, offs, delta):
    """The family data as an ``(m, p, n)`` matrix stack, its transpose view and
    ``(m, p)`` offsets, with the gradient Lipschitz constant of the family.

    Each oracle is then one batched ``matmul`` over the stack.  Every slice
    keeps the layout of its matrix, so numpy hands BLAS the same
    matrix-vector products a loop over the objectives would, and the batched
    oracles keep every bit of the per-objective formulas.

    The constant is ``delta + max_j ||A_j||_2^2``, with each spectral norm
    the largest singular value from one batched SVD, exact to rounding.  It
    is the Hessian bound of the least-squares objectives, and conservative
    for log-sum-exp, whose Hessian is at most ``delta I + A_j^T A_j / 2``.
    """
    A3 = np.stack([np.asarray(A, dtype=float) for A in mats])
    B = np.stack([np.asarray(b, dtype=float) for b in offs])
    lipschitz = delta + float(np.linalg.norm(A3, 2, axis=(1, 2)).max()) ** 2
    return A3, A3.transpose(0, 2, 1), B, lipschitz


def _columns(delta, x, H):
    """``delta * x + H[j]`` for each objective j, as a C-contiguous (n, m)."""
    m, n = H.shape
    cols = np.empty((n, m))
    np.add(delta * x[:, None], H.T, out=cols)
    return cols


def _last_point(products):
    """``products`` memoized for the last point it was called at.

    The key is the point's dtype, shape and bytes, so a point of another
    dtype or shape, or one mutated in place since, is computed afresh.  The
    entry is replaced as one ``(key, value)`` tuple, so a reader never pairs
    one point's key with another point's value, and the oracles hand none
    of the value's arrays to a caller: each returns a new array.
    """
    entry = (None, None)

    def at(x):
        nonlocal entry
        key = (x.dtype, x.shape, x.tobytes())
        last = entry
        if last[0] == key:
            return last[1]
        value = products(x)
        entry = (key, value)
        return value

    return at


def logsumexp_family(name, mats, offs, delta, init_box, merit_supported=True):
    """Objectives f_j = delta/2 ||x||^2 + log sum_i exp(<a_i^j, x> - b_i^j)."""
    A3, AT3, B, lipschitz = _stacked(mats, offs, delta)
    m, _, n = A3.shape

    @_last_point
    def shifted(x):
        # the max-shifted exponentials of each objective, their sums and shifts
        Z = A3 @ x - B
        zmax = Z.max(axis=1)
        E = np.exp(Z - zmax[:, None])
        return E, E.sum(axis=1), zmax

    def objectives(x):
        reg = 0.5 * delta * float(x.dot(x))
        _, S, zmax = shifted(x)
        return reg + (zmax + np.log(S))

    def gradient_columns(x):
        E, S, _ = shifted(x)
        softmax = E / S[:, None]
        return _columns(delta, x, (AT3 @ softmax[:, :, None])[:, :, 0])

    return ProblemInstance(
        name=name,
        n=n,
        m=m,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=init_box,
        lipschitz=lipschitz,
        merit_supported=merit_supported,
    )


def least_squares_family(name, mats, offs, delta, init_box):
    """Objectives f_j = delta/2 ||x||^2 + 1/2 ||A^j x - b^j||^2."""
    A3, AT3, B, lipschitz = _stacked(mats, offs, delta)
    m, _, n = A3.shape

    @_last_point
    def residuals(x):
        return A3 @ x - B

    def objectives(x):
        reg = 0.5 * delta * float(x.dot(x))
        return reg + 0.5 * (residuals(x) ** 2).sum(axis=1)

    def gradient_columns(x):
        return _columns(delta, x, (AT3 @ residuals(x)[:, :, None])[:, :, 0])

    return ProblemInstance(
        name=name,
        n=n,
        m=m,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=init_box,
        lipschitz=lipschitz,
    )


# ---------------------------------------------------------------------------
# bi-objective problems


def quadratic_pair():
    """Two shifted convex quadratics on R^2 with a known Pareto segment.

    f1 = (x1 - 1)^2 + x2^2 / 2 and f2 = x1^2 / 2 + (x2 - 1)^2; the Pareto set
    is parametrized by lambda -> (2 lambda / (1 + lambda),
    2 (1 - lambda) / (2 - lambda)) on [0, 1].
    """

    def values(x1, x2):
        return [(x1 - 1.0) ** 2 + 0.5 * x2**2, 0.5 * x1**2 + (x2 - 1.0) ** 2]

    def objectives(x):
        return _small_objectives(values, x)

    @_float_rows
    def gradient_columns(x):
        # rows of Python floats, as in _small_objectives (no ** here, so no
        # overflow)
        x1, x2 = x.tolist()
        return [[2.0 * (x1 - 1.0), x1], [x2, 2.0 * (x2 - 1.0)]]

    return ProblemInstance(
        name="quad2",
        n=2,
        m=2,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=_box(-2.0, 2.0, 2),
        lipschitz=2.0,
    )


_LSE2_A = np.array([[10.0, 10.0], [10.0, -10.0], [-10.0, -10.0], [-10.0, 10.0]])
_LSE2_B = np.array([0.0, -20.0, 0.0, 20.0])


def logsumexp_pair():
    """Mirrored log-sum-exp pair on R^2.

    f1 = lse(A x - b) and f2 = lse(A x + b) with the fixed 4 x 2 matrix A and
    offsets b = (0, -20, 0, 20); the Pareto set is the segment
    lambda -> (-1 + 2 lambda, 1 - 2 lambda).  Swapping the objectives equals
    negating x: f1(-x) = f2(x).
    """
    return logsumexp_family(
        "lse2", [_LSE2_A, _LSE2_A], [_LSE2_B, -_LSE2_B], delta=0.0, init_box=_box(-3.0, 3.0, 2)
    )


def jos1(n=2):
    """JOS1 with f1 = ||x||^2 / n and f2 = ||x - 2||^2 / n (Jin et al. 2001)."""
    n = whole_number("n", n, 2)

    def objectives(x):
        d = x - 2.0
        return [float(x.dot(x)) / n, float(d.dot(d)) / n]

    @_float_rows
    def gradient_columns(x):
        # the floats of (2.0 * np.subtract.outer(x, (0.0, 2.0))) / n, as rows
        return [[(2.0 * a) / n, (2.0 * (a - 2.0)) / n] for a in x.tolist()]

    return ProblemInstance(
        name="jos1" if n == 2 else f"jos1:n={n}",
        n=n,
        m=2,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=_box(-2.0, 2.0, n),
        lipschitz=2.0 / n,
    )


_SD_LINEAR = np.array([2.0, math.sqrt(2.0), math.sqrt(2.0), 1.0])
_SD_RECIP = (2.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 2.0)


def sd():
    """Four-bar truss problem of Stadler & Dauer (1992), smooth form.

    Linear volume objective against a sum of reciprocals; convex for x > 0.
    Start points are sampled from the classical design box, on which the
    reciprocal objective has gradient Lipschitz constant 4.
    """
    lo = np.array([1.0, math.sqrt(2.0), math.sqrt(2.0), 1.0])
    hi = np.full(4, 3.0)
    l1, l2, l3, l4 = _SD_LINEAR.tolist()
    r1, r2, r3, r4 = _SD_RECIP

    # Python floats (see the module docstring); the reciprocal sum adds left
    # to right, as numpy's sum of four entries does
    def objectives(x):
        linear = float(_SD_LINEAR.dot(x))
        x1, x2, x3, x4 = x.tolist()
        if x1 <= 0.0 or x2 <= 0.0 or x3 <= 0.0 or x4 <= 0.0:
            # extended-value form: line searches treat the orthant boundary
            # as an infinite barrier and backtrack instead of crashing
            return [linear, math.inf]
        return [linear, r1 / x1 + r2 / x2 + r3 / x3 + r4 / x4]

    # its underflow fallback returns an array, which gradient_rows converts
    @_float_rows
    def gradient_columns(x):
        x1, x2, x3, x4 = x.tolist()
        if x1 <= 0.0 or x2 <= 0.0 or x3 <= 0.0 or x4 <= 0.0:
            raise ValueError("sd gradients are defined on the positive orthant")
        try:
            return [
                [l1, -r1 / (x1 * x1)],
                [l2, -r2 / (x2 * x2)],
                [l3, -r3 / (x3 * x3)],
                [l4, -r4 / (x4 * x4)],
            ]
        except ZeroDivisionError:
            # an x_i * x_i underflowed to 0.0, where numpy's division gives -inf
            with np.errstate(divide="ignore"):
                return np.column_stack((_SD_LINEAR, -np.array(_SD_RECIP) / (x * x)))

    return ProblemInstance(
        name="sd",
        n=4,
        m=2,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=(lo, hi),
        lipschitz=4.0,
    )


def toi4():
    """TOI4: two convex quadratics on R^4 (Toint test-set adaptation)."""

    def values(x1, x2, x3, x4):
        return [x1**2 + x2**2 + 1.0, 0.5 * ((x1 - x2) ** 2 + (x3 - x4) ** 2) + 1.0]

    def objectives(x):
        return _small_objectives(values, x)

    @_float_rows
    def gradient_columns(x):
        # rows of Python floats, as in _small_objectives (no ** here, so no
        # overflow)
        x1, x2, x3, x4 = x.tolist()
        d12 = x1 - x2
        d34 = x3 - x4
        return [[2.0 * x1, d12], [2.0 * x2, -d12], [0.0, d34], [0.0, -d34]]

    return ProblemInstance(
        name="toi4",
        n=4,
        m=2,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=_box(-2.0, 5.0, 4),
        lipschitz=2.0,
    )


# ---------------------------------------------------------------------------
# seeded tri-objective families


def _seeded_data(key, n, p, delta, seed, low):
    """The name, three matrices, three offset vectors, delta and start box of
    the seeded family ``key``, with the data uniform on [low, 1] and drawn
    in the stream layout of the module docstring.

    delta must be a finite nonnegative number, n and p whole numbers of at
    least 1 and seed a nonnegative whole number; else InvalidConfig.
    """
    delta = real_number("delta", delta)
    if not 0.0 <= delta < math.inf:
        raise InvalidConfig(f"delta must be finite and nonnegative, not {delta}")
    n, p = whole_number("n", n, 1), whole_number("p", p, 1)
    seed = whole_number("seed", seed, 0)
    mats = [_stream(seed, 2 * j).uniform(low, 1.0, size=(p, n)) for j in range(3)]
    offs = [_stream(seed, 2 * j + 1).uniform(low, 1.0, size=p) for j in range(3)]
    name = f"{key}:n={n},p={p},delta={delta!r},seed={seed}"
    return name, mats, offs, delta, _box(-2.0, 2.0, n)


def regularized_logsumexp_triple(n=200, p=100, delta=0.05, seed=0):
    """Three ridge-regularized log-sum-exp objectives with uniform[-1,1] data.

    Each f_j is delta-strongly convex for delta > 0.  With delta == 0 the
    objectives are unbounded below in some directions' complement sets, the
    merit function's inner problem loses level boundedness, and merit
    evaluation is disabled.
    """
    name, mats, offs, delta, box = _seeded_data("ex1", n, p, delta, seed, low=-1.0)
    return logsumexp_family(name, mats, offs, delta, box, merit_supported=delta > 0.0)


def regularized_least_squares_triple(n=100, p=100, delta=0.05, seed=0):
    """Three ridge-regularized least-squares objectives with uniform[0,1] data."""
    return least_squares_family(*_seeded_data("ex2", n, p, delta, seed, low=0.0))


# ---------------------------------------------------------------------------
# registry

_FACTORIES = {
    "quad2": quadratic_pair,
    "lse2": logsumexp_pair,
    "jos1": jos1,
    "sd": sd,
    "toi4": toi4,
    "ex1": regularized_logsumexp_triple,
    "ex2": regularized_least_squares_triple,
}


# each registry name's key parameters, the arguments of its factory
_KEY_PARAMS = {
    name: tuple(inspect.signature(factory).parameters)
    for name, factory in sorted(_FACTORIES.items())
}


def available_problems():
    """Registry names with their optional key parameters."""
    return dict(_KEY_PARAMS)


def get_problem(key):
    """Build a problem from a registry key like ``ex1:n=20,p=10,seed=3``.

    The key sets factory arguments: an integer literal as an exact int (a
    seed past 2**53 keeps every digit), any other number as a float, which
    the factory checks.  Bad names and parameters raise InvalidConfig.
    """
    name, _, spec = key.partition(":")
    name = name.strip()
    if name not in _FACTORIES:
        raise InvalidConfig(f"unknown problem {name!r}; available: {', '.join(sorted(_FACTORIES))}")
    factory = _FACTORIES[name]
    kwargs = {}
    for item in spec.split(",") if spec else ():
        pname, eq, raw = item.partition("=")
        pname = pname.strip()
        if not eq or pname not in _KEY_PARAMS[name]:
            raise InvalidConfig(f"problem {name!r} does not take parameter {item!r}")
        if pname in kwargs:
            raise InvalidConfig(f"problem key {key!r} repeats parameter {pname!r}")
        # an integer literal is a run of digits with an optional sign
        number = int if raw.strip().lstrip("+-").isdigit() else float
        try:
            kwargs[pname] = number(raw)
        except ValueError:
            raise InvalidConfig(f"{pname} must be a number, not {raw!r}, in key {key!r}") from None
    return factory(**kwargs)
