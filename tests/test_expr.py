import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bsvie.expr import (
    FUNCTIONS,
    VARIABLES,
    Bin,
    Call,
    ExprError,
    Num,
    Program,
    Unary,
    Var,
    eval_expr,
    format_expr,
    free_variables,
    parse,
)
from bsvie.ensemble import sample_ensemble
from bsvie.grid import build_grid
from bsvie.solver import Terminal, _generator_env

# Golden suite: 20 frozen cases covering precedence, associativity,
# literals, calls, and located errors.  Value entries are
# (source, env, expected); error entries are
# (source, message fragment, byte offset).
GOLDEN_VALUES = [
    ("2+3*4", {}, 14.0),
    ("2*3+4", {}, 10.0),
    ("2*3^2", {}, 18.0),
    ("2^3^2", {}, 512.0),
    ("-2^2", {}, -4.0),
    ("2^-2", {}, 0.25),
    ("8/4/2", {}, 1.0),
    ("8-4-2", {}, 2.0),
    ("(2+3)*4", {}, 20.0),
    ("1.5e2", {}, 150.0),
    ("--3", {}, 3.0),
    ("log(exp(2))", {}, 2.0),
    ("min(2, 3) + max(2, 3)", {}, 5.0),
    ("abs(-3.5) * sqrt(16)", {}, 14.0),
]
GOLDEN_ERRORS = [
    ("2+", "unexpected end of input", 2),
    ("(2+3", "unbalanced '('", 0),
    ("2+3)", "unbalanced ')'", 3),
    ("foo(1)", "unknown function", 0),
    ("min(1)", "argument", 0),
    ("2 @ 3", "unexpected character", 2),
]


def test_golden_suite_has_twenty_cases():
    assert len(GOLDEN_VALUES) + len(GOLDEN_ERRORS) == 20


@pytest.mark.parametrize("src,env,expected", GOLDEN_VALUES)
def test_golden_values(src, env, expected):
    assert eval_expr(parse(src), env) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("src,fragment,offset", GOLDEN_ERRORS)
def test_golden_errors(src, fragment, offset):
    with pytest.raises(ExprError) as info:
        parse(src)
    assert fragment in info.value.message
    assert info.value.offset == offset


def test_offsets_count_bytes_not_characters():
    with pytest.raises(ExprError) as info:
        parse("2π + 3")
    assert info.value.offset == 1
    with pytest.raises(ExprError) as info:
        parse("π² + t")
    assert info.value.offset == 0


def test_unknown_identifier_rejected_at_parse_time():
    with pytest.raises(ExprError) as info:
        parse("2 * q")
    assert "unknown identifier" in info.value.message
    assert info.value.offset == 4


def test_unbound_variable_raises_at_eval_time():
    node = parse("t + zeta")
    with pytest.raises(ExprError) as info:
        eval_expr(node, {"t": 1.0})
    assert "unbound variable" in info.value.message
    assert info.value.offset == 4


def test_eval_broadcasts_arrays():
    node = parse("w^2 - s")
    w = np.array([1.0, 2.0, 3.0])
    out = eval_expr(node, {"w": w, "s": 1.0})
    np.testing.assert_allclose(out, [0.0, 3.0, 8.0])


def test_domain_fault_produces_nan():
    assert np.isnan(eval_expr(parse("sqrt(t)"), {"t": -1.0}))


def test_free_variables():
    assert free_variables(parse("t*s + exp(y) - 3")) == {"t", "s", "y"}
    assert free_variables(parse("1 + 2")) == frozenset()


def test_error_string_names_the_byte():
    err = ExprError("boom", 7)
    assert str(err) == "boom (byte 7)"


_LEAVES = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(
        lambda v: Num(float(v))
    ),
    st.sampled_from(VARIABLES).map(Var),
)


def _compound(children):
    unary_fns = sorted(n for n, k in FUNCTIONS.items() if k == 1)
    binary_fns = sorted(n for n, k in FUNCTIONS.items() if k == 2)
    return st.one_of(
        st.builds(lambda o: Unary(o), children),
        st.builds(
            lambda op, left, right: Bin(op, left, right),
            st.sampled_from("+-*/^"),
            children,
            children,
        ),
        st.builds(
            lambda name, a: Call(name, (a,)), st.sampled_from(unary_fns), children
        ),
        st.builds(
            lambda name, a, b: Call(name, (a, b)),
            st.sampled_from(binary_fns),
            children,
            children,
        ),
    )


@given(st.recursive(_LEAVES, _compound, max_leaves=25))
def test_print_parse_fixpoint(node):
    assert parse(format_expr(node)) == node


# -- the compiled evaluator against the tree walk -------------------------

_ORACLE_CALLS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "min": np.minimum, "max": np.maximum,
}


def _walk(node, env):
    """Reference evaluator: a recursive tree walk allocating every result."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        return -_walk(node.operand, env)
    if isinstance(node, Bin):
        left, right = _walk(node.left, env), _walk(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        return np.power(left, right)
    return _ORACLE_CALLS[node.name](*[_walk(a, env) for a in node.args])


def _oracle(node, env):
    with np.errstate(all="ignore"):
        return _walk(node, env)


def _sweep_env(rows: int, m: int, seed: int) -> dict:
    """The arguments of one off-diagonal generator call, laid out as the
    sweep lays them out: node-major paths, so a node row and a block of
    outer-node rows, and a path-major Y, with values of both signs for
    the domain faults."""
    rng = np.random.default_rng(seed)
    paths = 2.0 * rng.standard_normal((rows + 2, m))
    y_table = rng.standard_normal((m, rows + 2))
    return {
        "t": np.linspace(0.0, 1.0, rows + 1)[:rows, None],
        "s": np.float64(0.375),
        "y": y_table[:, rows],
        "z": rng.standard_normal((rows, m)),
        "zeta": rng.standard_normal((rows, m)),
        "w": paths[rows],
        "wt": paths[:rows],
        "wT": paths[-1],
        "T": 1.0,
        "T1": 0.0,
    }


@given(
    node=st.recursive(_LEAVES, _compound, max_leaves=12),
    rows=st.integers(1, 4),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@example(node=parse("0.1*abs(y) + (0.3 + 0)*z"), rows=3, m=5, seed=0)
# numpy's power of a one-element array by 0.5 is a square root unless the
# result overwrites the exponent
@example(node=parse("zeta^(0.5 + t)"), rows=1, m=1, seed=32768)
def test_compiled_program_matches_the_tree_walk(node, rows, m, seed):
    env = _sweep_env(rows, m, seed)
    before = {k: np.copy(v) for k, v in env.items()}
    program = Program(node)
    try:
        expected = _oracle(node, env)
    except ZeroDivisionError:
        # Python floats in the environment divide as Python floats do
        with pytest.raises(ZeroDivisionError):
            program(env)
        return
    # a compiled program runs again with the same result
    for got in (program(env), program(env), eval_expr(node, env)):
        assert np.shape(got) == np.shape(expected)
        np.testing.assert_array_equal(got, expected)
        # same layout too: a reduction over the result reads it in that order
        assert np.asarray(got).strides == np.asarray(expected).strides
    for k, v in env.items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)


def test_program_returns_a_lone_variable_borrowed_and_a_constant_as_a_scalar():
    env = _sweep_env(3, 5, 1)
    assert Program(parse("z"))(env) is env["z"]
    constant = Program(parse("0.3 + 0"))(env)
    assert type(constant) is np.float64 and constant == 0.3


def test_a_strided_y_gives_the_bytes_of_a_contiguous_one():
    # the sweep hands the generator its Y column as a contiguous copy of a
    # strided column of the iterate; the loops numpy picks for these calls
    # must round alike for both layouts, or the copy would move bits
    rng = np.random.default_rng(7)
    columns = rng.standard_normal((4099, 9)) * 3.0
    t = np.linspace(0.5, 1.0, 5)[:, None]
    program = Program(parse("exp(-t*y)*sin(y) + cos(s*y)^2 - log(1 + y^2) + abs(y)^1.7 + 2^y"))
    for j in range(columns.shape[1]):
        results = []
        for y in (columns[:, j], np.ascontiguousarray(columns[:, j])):
            env = {"t": t, "s": np.float64(0.75), "y": y}
            results.append(program(env))
        assert results[0].tobytes() == results[1].tobytes()


def test_node_major_paths_give_the_bytes_of_path_major_ones():
    # a sampled ensemble stores its paths node-major, so the generator's
    # and the free term's w, wt and wT are contiguous rows, where a
    # path-major ensemble gives strided ones; the loops numpy picks for
    # these calls must round alike for both layouts, or the layout would
    # move bits
    grid = build_grid(1.0, 8)
    ensemble = sample_ensemble(grid, 4099, seed=7)
    node_major = ensemble.values
    path_major = node_major.copy(order="C")
    assert node_major[:, 3].flags.c_contiguous and not path_major[:, 3].flags.c_contiguous
    generator = Program(parse(
        "exp(-t*w)*sin(wt) + cos(s*wT)^2 - log(1 + w^2) + abs(wt)^1.7 + 2^wT - w^3"))
    for j in range(grid.steps):
        for outer in (slice(0, j + 1), j):
            results = [generator(_generator_env(grid, paths, outer, j, None, None, None))
                       for paths in (node_major, path_major)]
            assert results[0].tobytes() == results[1].tobytes()
    terminal = Terminal.from_expression(
        "exp(wT)*sin(wt) - log(1 + wT^2) + cos(t*wT)^3 + abs(wt)^0.5")
    results = [terminal.eval_all(grid, paths) for paths in (node_major, path_major)]
    assert results[0].tobytes() == results[1].tobytes()
