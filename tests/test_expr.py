import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fiberspec import errors, expr
from fiberspec.errors import DomainError, MissingBinding
from fiberspec.expr import BinOp, Call, Neg, Num, Pi, Var


def ev(text, **bindings):
    return expr.evaluate(expr.parse(text), bindings)


def test_numbers_and_constants():
    assert ev("2") == 2.0
    assert ev("2.5") == 2.5
    assert ev(".5") == 0.5
    assert ev("1e3") == 1000.0
    assert ev("2.5e-2") == 0.025
    assert ev("pi") == math.pi
    assert ev("2 ") == 2.0


def test_variables_bind():
    assert ev("omega", omega=0.25) == 0.25
    assert ev("t*s", t=2.0, s=3.0) == 6.0
    assert ev("lambda+1", **{"lambda": 4.0}) == 5.0
    # any Unicode whitespace may stand between tokens
    assert ev("t\n*\ts", t=2.0, s=3.0) == 6.0
    assert ev("1\xa0+\x1c2") == 3.0


def test_precedence_and_associativity():
    assert ev("1+2*3") == 7.0
    assert ev("(1+2)*3") == 9.0
    assert ev("2-3-4") == -5.0  # left assoc
    assert ev("12/3/2") == 2.0
    assert ev("2^3^2") == 512.0  # right assoc
    assert ev("2*3^2") == 18.0


def test_unary_minus():
    assert ev("-3") == -3.0
    assert ev("-2^2") == 4.0  # (-2)^2: unary binds to the power base
    assert ev("2^-3") == 0.125
    assert ev("4--3") == 7.0
    assert ev("-omega", omega=0.5) == -0.5


def test_functions():
    assert ev("sin(0)") == 0.0
    assert abs(ev("cos(pi)") + 1.0) < 1e-15
    assert ev("sqrt(9)") == 3.0
    assert ev("abs(-4)") == 4.0
    assert ev("min(2,3)") == 2.0
    assert ev("max(2,3)") == 3.0
    assert ev("pow(2,10)") == 1024.0
    assert abs(ev("exp(1)") - math.e) < 1e-15
    assert ev("log(exp(2))") == pytest.approx(2.0, abs=1e-15)
    assert abs(ev("tan(pi/4)") - 1.0) < 1e-15


@pytest.mark.parametrize(
    "text,offset",
    [
        ("sin(", 4),
        ("2+", 2),
        ("(1+2", 4),
        ("1 + * 2", 4),
        ("", 0),
        # a number ends where its digits do; identifiers are ASCII
        ("1e", 1),
        ("2pi", 1),
        (".5.5", 2),
        ("π", 0),
        ("ómega", 0),
        # the whole text is scanned before it is parsed
        ("2 ) $", 4),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(errors.ExpressionSyntaxError) as e:
        expr.parse(text)
    # not UnknownIdentifier: 'π' and 'ó' are no identifier characters
    assert type(e.value) is errors.ExpressionSyntaxError
    assert e.value.offset == offset


def test_unknown_identifier_offset():
    for text, offset in (("2*foo(1)", 2), ("x+1", 0), ("_x", 0)):
        with pytest.raises(errors.UnknownIdentifier) as e:
            expr.parse(text)
        assert e.value.offset == offset


def test_trailing_input_rejected():
    with pytest.raises(errors.ExpressionSyntaxError):
        expr.parse("1 2")
    with pytest.raises(errors.ExpressionSyntaxError):
        expr.parse("sin(1))")


def test_arity_checked():
    with pytest.raises(errors.ExpressionSyntaxError):
        expr.parse("sin(1,2)")
    with pytest.raises(errors.ExpressionSyntaxError):
        expr.parse("min(1)")


def test_double_unary_minus_rejected():
    # a single leading minus per factor; '--x' is not in the grammar
    with pytest.raises(errors.ExpressionSyntaxError):
        expr.parse("--3")


MAX_DEPTH = expr._Parser.MAX_DEPTH
# text n levels deep, and the offset of the token that takes it one level
# past the bound when n = MAX_DEPTH + 1
DEEP = {
    "group": (lambda n: "(" * n + "lambda" + ")" * n, MAX_DEPTH),
    "call": (lambda n: "sin(" * n + "lambda" + ")" * n, 4 * MAX_DEPTH + 3),
    "args": (lambda n: "max(1," * n + "lambda" + ")" * n, 6 * MAX_DEPTH + 3),
    "power": (lambda n: "1^" * n + "lambda", 2 * MAX_DEPTH + 1),
    # a flat chain: no nesting, but a tree of height n
    "chain": (lambda n: "lambda" + "+lambda" * n, 6 + 7 * MAX_DEPTH),
    "quotient": (lambda n: "lambda" + "/2" * n, 6 + 2 * MAX_DEPTH),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_depth_bound(shape):
    text, offset = DEEP[shape]
    e = expr.parse(text(MAX_DEPTH))
    # every recursive walker handles a tree at the bound
    assert expr.free_variables(e) == {"lambda"}
    again = expr.parse(text(MAX_DEPTH))
    assert e == again and hash(e) == hash(again)
    expr.to_source(e)
    expr.evaluate(e, {"lambda": np.array([0.0, 1e-3])})
    for n in (MAX_DEPTH + 1, 10_000):
        with pytest.raises(errors.ExpressionSyntaxError) as err:
            expr.parse(text(n))
        assert type(err.value) is errors.ExpressionSyntaxError
        assert err.value.offset == offset
        assert f"nests deeper than {MAX_DEPTH} levels" in str(err.value)


def test_unary_minus_counts_as_a_level():
    # '-(' is two levels: the minus and the group
    half = MAX_DEPTH // 2
    expr.parse("-(" * half + "1" + ")" * half)
    with pytest.raises(errors.ExpressionSyntaxError) as err:
        expr.parse("-(" * (half + 1) + "1" + ")" * (half + 1))
    assert err.value.offset == 2 * half


def test_missing_binding():
    with pytest.raises(errors.MissingBinding):
        ev("omega")


def test_domain_errors():
    with pytest.raises(errors.DomainError):
        ev("1/0")
    with pytest.raises(errors.DomainError):
        ev("log(0)")
    with pytest.raises(errors.DomainError):
        ev("log(-1)")
    with pytest.raises(errors.DomainError):
        ev("sqrt(-1)")
    with pytest.raises(errors.DomainError):
        ev("0^-1")
    with pytest.raises(errors.DomainError):
        ev("(-2)^0.5")


def test_array_domain_errors_name_the_first_offending_value():
    t = np.array([[1.0, 0.0], [-2.0, -3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.DomainError, match=r"non-positive value 0\.0$"):
            expr.evaluate(expr.parse("log(t)"), {"t": t})
        with pytest.raises(errors.DomainError, match=r"sqrt of negative value -2\.0$"):
            expr.evaluate(expr.parse("sqrt(t)"), {"t": t})
        with pytest.raises(errors.DomainError, match="division by zero"):
            expr.evaluate(expr.parse("1/t"), {"t": t})
        with pytest.raises(errors.DomainError, match="non-finite value inf"):
            expr.evaluate(expr.parse("1e200*1e200*t^2"), {"t": t})
        with pytest.raises(errors.DomainError, match="overflow in exp"):
            expr.evaluate(expr.parse("exp(1000*t)"), {"t": t})


def test_array_result_has_the_broadcast_shape():
    omega, t = np.array([[0.25], [0.5]]), np.array([0.0, 1.0, 2.0])
    out = expr.evaluate(expr.parse("2"), {"omega": omega, "t": t})
    assert out.shape == (2, 3) and np.all(out == 2.0)
    out = expr.evaluate(expr.parse("t"), {"t": t})
    assert np.array_equal(out, t) and out is not t


def test_pow_large_overflow():
    with pytest.raises(errors.DomainError):
        ev("10^10^10")


def test_free_variables():
    assert expr.free_variables(expr.parse("omega*sin(pi*t)+s")) == {
        "omega",
        "t",
        "s",
    }
    assert expr.free_variables(expr.parse("1+pi")) == frozenset()


def test_to_source_round_trip():
    for text in ("1+2*3", "-omega^2", "min(s,t)/2", "sin(pi*t)"):
        e = expr.parse(text)
        again = expr.parse(expr.to_source(e))
        assert again == e


@pytest.mark.parametrize("value", [-2.5, -0.0, -5e-324, -1.7976931348623157e308])
def test_to_source_of_a_negative_number(value):
    # a negative Num prints as a parenthesized minus; parsed back it must
    # give the same bits, the sign of zero included
    text = expr.to_source(Num(value))
    assert text.startswith("(-")
    got = expr.evaluate(expr.parse(text), {})
    assert np.float64(got).tobytes() == np.float64(value).tobytes()


# random expression trees over the total operations, so evaluation never
# hits a domain error
def _safe_exprs(depth):
    if depth == 0:
        return st.one_of(
            st.floats(min_value=0.0, max_value=10.0).map(
                lambda v: expr.Num(float(v))
            ),
            st.sampled_from([expr.Var("omega"), expr.Var("t"), expr.Pi()]),
        )
    sub = _safe_exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(
            lambda ops: expr.BinOp(ops[0], ops[1], ops[2])
        ),
        st.tuples(st.sampled_from(["sin", "cos"]), sub).map(
            lambda fa: expr.Call(fa[0], (fa[1],))
        ),
        sub.map(expr.Neg),
    )


@settings(max_examples=200, deadline=None)
@given(_safe_exprs(4))
def test_print_parse_round_trip(tree):
    text = expr.to_source(tree)
    assert expr.parse(text) == tree
    a = expr.evaluate(tree, {"omega": 0.3, "t": 0.7})
    b = expr.evaluate(expr.parse(text), {"omega": 0.3, "t": 0.7})
    assert a == b


# The scalar tree-walker that expr.evaluate replaced, kept as the reference:
# one point at a time, with the math module.
def _oracle_div(a, b):
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _oracle_pow(base, exponent):
    if base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power")
    if base < 0.0 and exponent != math.floor(exponent):
        raise DomainError("negative base with non-integer exponent")
    try:
        return math.pow(base, exponent)
    except OverflowError as exc:
        raise DomainError("overflow in pow") from exc


def _oracle_log(x):
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x!r}")
    return math.log(x)


def _oracle_sqrt(x):
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _oracle_exp(x):
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise DomainError("overflow in exp") from exc


ORACLE_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": _oracle_exp,
    "log": _oracle_log,
    "sqrt": _oracle_sqrt,
    "abs": abs,
    "min": min,
    "max": max,
    "pow": _oracle_pow,
}


def oracle(e, bindings):
    match e:
        case Num(value):
            return value
        case Pi():
            return math.pi
        case Var(name):
            try:
                return float(bindings[name])
            except KeyError:
                raise MissingBinding(f"no binding for variable {name!r}") from None
        case Neg(operand):
            return -oracle(operand, bindings)
        case BinOp("+", left, right):
            return oracle(left, bindings) + oracle(right, bindings)
        case BinOp("-", left, right):
            return oracle(left, bindings) - oracle(right, bindings)
        case BinOp("*", left, right):
            return oracle(left, bindings) * oracle(right, bindings)
        case BinOp("/", left, right):
            return _oracle_div(oracle(left, bindings), oracle(right, bindings))
        case BinOp("^", left, right):
            return _oracle_pow(oracle(left, bindings), oracle(right, bindings))
        case Call(func, args):
            fn = ORACLE_FUNCTIONS[func]
            return float(fn(*(oracle(a, bindings) for a in args)))
    raise TypeError(f"not an expression node: {e!r}")


def outcome(e, bindings):
    """The oracle's value at one point, or the class it raises.

    math raises ValueError or OverflowError for some infinite arguments
    (sin(inf), a negative base to an infinite power), where the oracle has
    no answer; such examples are discarded.
    """
    try:
        return oracle(e, bindings)
    except (DomainError, MissingBinding) as exc:
        return type(exc)
    except (ValueError, OverflowError):
        assume(False)


REALS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e300, -1e300]
) | st.floats(-10.0, 10.0)
LEAVES = st.one_of(
    REALS.map(Num), st.sampled_from([Var(v) for v in expr.VARIABLES]), st.just(Pi())
)


def trees(unary, binary, calls2):
    """Random ASTs over the given operators and one- and two-argument calls."""

    def extend(sub):
        return st.one_of(
            sub.map(Neg),
            st.tuples(st.sampled_from(binary), sub, sub).map(lambda a: BinOp(*a)),
            st.tuples(st.sampled_from(unary), sub).map(lambda a: Call(a[0], (a[1],))),
            st.tuples(st.sampled_from(calls2), sub, sub).map(
                lambda a: Call(a[0], (a[1], a[2]))
            ),
        )

    return st.recursive(LEAVES, extend, max_leaves=8)


# numpy's ufuncs round exactly like math for these; tan, exp, log and pow
# are checked one call at a time below
EXACT_TREES = trees(["sin", "cos", "sqrt", "abs"], "+-*/", ["min", "max"])
SCALAR_BINDINGS = st.dictionaries(st.sampled_from(expr.VARIABLES), REALS)


@st.composite
def array_bindings(draw):
    """Every variable bound; omega (a, 1), t (1, b) and s (b,) broadcast
    to (a, b), lambda stays a float."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes = {"omega": (a, 1), "t": (1, b), "s": (b,)}
    out = {"lambda": draw(REALS)}
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        values = draw(st.lists(REALS, min_size=size, max_size=size))
        out[name] = np.array(values).reshape(shape)
    return out


def expect(e, bindings, want, close=lambda got, want: got == want):
    """evaluate(e, bindings) against the oracle's outcome at every point."""
    want = np.asarray(want, dtype=object)
    failures = [w for w in want.flat if isinstance(w, type)]
    if failures or not all(math.isfinite(w) for w in want.flat):
        # element-wise checks: the first failing node of the walk raises,
        # so with several points the class is that of some failing point
        with pytest.raises((DomainError, MissingBinding)) as info:
            expr.evaluate(e, bindings)
        assert info.type in (failures or [DomainError])
        return
    got = expr.evaluate(e, bindings)
    if want.ndim == 0:
        assert isinstance(got, float)
    assert np.shape(got) == want.shape
    for g, w in zip(np.ravel(got), want.flat):
        assert close(g, w), (g, w)


@settings(max_examples=400, deadline=None)
@given(EXACT_TREES, SCALAR_BINDINGS)
def test_evaluate_matches_oracle_on_scalars(tree, bindings):
    expect(tree, bindings, outcome(tree, bindings))


@settings(max_examples=200, deadline=None)
@given(EXACT_TREES, array_bindings())
def test_evaluate_matches_oracle_on_arrays(tree, bindings):
    shape = np.broadcast_shapes(*(np.shape(v) for v in bindings.values()))
    want = np.empty(shape, dtype=object)
    for index in np.ndindex(shape):
        point = {k: np.broadcast_to(v, shape)[index] for k, v in bindings.items()}
        want[index] = outcome(tree, point)
    expect(tree, bindings, want)


def within_one_ulp(got, want):
    return got in (want, np.nextafter(want, -np.inf), np.nextafter(want, np.inf))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["tan(t)", "exp(t)", "log(t)", "t^s", "pow(t,s)"]),
    st.lists(REALS | st.floats(-800.0, 800.0), min_size=1, max_size=6),
    REALS | st.integers(-4, 4).map(float),
)
def test_inexact_functions_within_one_ulp(text, ts, s):
    e = expr.parse(text)
    t = np.array(ts)
    want = [outcome(e, {"t": x, "s": s}) for x in ts]
    for x, w in zip(ts, want):
        expect(e, {"t": x, "s": s}, w, within_one_ulp)
    expect(e, {"t": t, "s": s}, want, within_one_ulp)


# A constant right operand of '/' or '^' skips the domain checks it cannot
# trip.  Neg(Neg(Num(c))) evaluates to c bit for bit but is not a Num, so
# it takes every check; both forms must agree on the value, or on the
# error class and message, and with the oracle.
CONSTANT_RIGHT_OPERANDS = [("/", c) for c in (0.0, -0.0, 4.0)] + [
    ("^", c) for c in (0.0, -0.0, 0.5, -1.0, 2.0, 3.0, 1e300, math.inf)
]


@st.composite
def constant_right_operand(draw):
    op, c = draw(st.sampled_from(CONSTANT_RIGHT_OPERANDS))
    left = draw(EXACT_TREES)
    return BinOp(op, left, Num(c)), BinOp(op, left, Neg(Neg(Num(c))))


def result_bits(e, bindings):
    try:
        value = expr.evaluate(e, bindings)
    except (DomainError, MissingBinding) as exc:
        return type(exc), str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


@settings(max_examples=400, deadline=None)
@given(constant_right_operand(), SCALAR_BINDINGS)
def test_constant_right_operand_matches_oracle_on_scalars(pair, bindings):
    fast, checked = pair
    assert result_bits(fast, bindings) == result_bits(checked, bindings)
    want = outcome(fast, bindings)
    expect(fast, bindings, want, within_one_ulp)
    if want is DomainError:
        with pytest.raises(DomainError) as info:
            oracle(fast, bindings)
        assert result_bits(fast, bindings) == (DomainError, str(info.value))


@settings(max_examples=200, deadline=None)
@given(constant_right_operand(), array_bindings())
def test_constant_right_operand_matches_checked_path_on_arrays(pair, bindings):
    fast, checked = pair
    assert result_bits(fast, bindings) == result_bits(checked, bindings)


@pytest.mark.parametrize("text", ["lambda", "-lambda", "abs(lambda)", "lambda^1"])
def test_result_never_shares_memory_with_a_binding(text):
    for points in (np.array([0.5, -1.0, 2.0]), np.array([[0.5], [2.0]])):
        before = points.copy()
        out = expr.evaluate(expr.parse(text), {"lambda": points})
        out[...] = 7.0
        assert np.array_equal(points, before)


def test_bare_builtin_is_a_syntax_error():
    with pytest.raises(errors.ExpressionSyntaxError) as info:
        expr.parse("sin + 1")
    assert str(info.value) == "builtin 'sin' must be called with arguments (offset 0)"
    assert info.value.offset == 0


@pytest.mark.parametrize(
    "walk",
    [lambda e: expr.evaluate(e, {}), expr.free_variables, expr.to_source],
    ids=["evaluate", "free_variables", "to_source"],
)
def test_walkers_refuse_what_is_not_a_node(walk):
    with pytest.raises(TypeError, match=r"^not an expression node: 'x'$"):
        walk("x")
    # a node nested in a tree is refused as well
    with pytest.raises(TypeError, match=r"^not an expression node: 2$"):
        walk(BinOp("+", Num(1.0), 2))
