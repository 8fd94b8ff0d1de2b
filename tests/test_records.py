"""The immutable records: construction, immutability and, for the expression
nodes, structural equality, hashing, repr and class patterns."""

import copy
import inspect
import itertools
import pickle

import numpy as np
import pytest

import fiberspec as fs
from fiberspec.config import section_by_name, threshold_by_name
from fiberspec.expr import BinOp, Call, Neg, Num, Pi, Var, parse
from fiberspec.verify import CheckResult

# every public record class with its fields in constructor order
FIELDS = {
    fs.OmegaGrid: ("nodes", "weights"),
    fs.SQuadrature: ("rule", "nodes", "weights"),
    fs.ScalarField: ("grid", "values"),
    fs.Section: ("ogrid", "squad", "values"),
    fs.SeparableKernel: ("terms",),
    fs.SampledKernel: ("ogrid", "squad", "values"),
    fs.FiberDecomposition: (
        "ogrid",
        "squad",
        "eigenvalues",
        "functions",
        "labels",
        "eigensums",
    ),
    fs.ThresholdField: ("field", "tie_tol"),
    fs.Partition: ("labels",),
    fs.Tolerances: ("rank_tol", "tie_tol", "eig_tol", "member_tol"),
    fs.Config: (
        "ogrid",
        "squad",
        "kernel",
        "sections",
        "thresholds",
        "partitions",
        "tolerances",
        "epsilon",
    ),
    CheckResult: ("name", "value", "bound", "relation", "passed", "note"),
    Num: ("value",),
    Var: ("name",),
    Pi: (),
    Neg: ("operand",),
    BinOp: ("op", "left", "right"),
    Call: ("func", "args"),
}


@pytest.fixture(scope="module")
def records(cfg, decomposition):
    """One instance of every class in FIELDS, built from trig_rank3."""
    out = [
        cfg,
        cfg.ogrid,
        cfg.squad,
        cfg.kernel,
        cfg.tolerances,
        decomposition,
        decomposition.m,
        section_by_name(cfg, "f"),
        threshold_by_name(cfg, "mid"),
        fs.Partition(np.arange(len(cfg.ogrid)) % 3),
        fs.mercer_reconstruct(decomposition, 2),
        CheckResult("residual", 1e-14, 1e-10, "<=", True, "a note"),
    ]
    e = parse("-sin(3*lambda)+pi/4")
    call = e.left.operand
    out += [e, e.left, call, call.args[0].left, call.args[0].right, e.right.left]
    assert {type(r) for r in out} == set(FIELDS)
    return out


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_fields_cannot_be_assigned_or_deleted(records):
    for r in records:
        for name in FIELDS[type(r)] + ("extra",):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)


def test_positional_and_keyword_construction(records):
    for r in records:
        cls, names = type(r), FIELDS[type(r)]
        values = [getattr(r, name) for name in names]
        for rebuilt in (cls(*values), cls(**dict(zip(names, values)))):
            for name, value in zip(names, values):
                assert _same(getattr(rebuilt, name), value), (cls, name)
        with pytest.raises(TypeError):
            cls(*values, None)


def test_fields_follow_the_constructor_parameters(records):
    # Record.__init__ stores one value per field in the order of __slots__
    # (or _fields), so each constructor's parameters must lead that order.
    # The fixture's Tolerances has tie_tol == eig_tol; with every argument
    # distinct, a rebuilt record that hands two of them over swapped fails.
    tol = fs.Tolerances(1e-10, 2e-12, 3e-12, 4e-8)
    for r in [tol if type(r) is fs.Tolerances else r for r in records]:
        cls, names = type(r), FIELDS[type(r)]
        assert tuple(inspect.signature(cls).parameters) == names, cls
        stored = getattr(cls, "_fields", None) or cls.__slots__
        assert stored[: len(names)] == names, cls
        values = [getattr(r, name) for name in names]
        for a, b in itertools.combinations(values, 2):
            # _same compares arrays when its first argument is one
            assert not _same(*((b, a) if isinstance(b, np.ndarray) else (a, b))), cls
        rebuilt = cls(*values)
        for name, value in zip(names, values):
            assert _same(getattr(rebuilt, name), value), (cls, name)


def test_copy_and_pickle_keep_the_fields(records):
    _check_copies(records)


def test_copy_and_pickle_after_queries(records, cfg, decomposition):
    # a query keeps g's multiplier outside the decomposition, and the nodes'
    # weak reference slot is not state: both still copy and pickle
    f = section_by_name(cfg, "f")
    nodes = [r for r in records if isinstance(r, fs.expr._Node)]
    want = [fs.functional_calculus(decomposition, g, f) for g in nodes]
    _check_copies(records)
    for g, out in zip(nodes, want):
        copies = (copy.copy(decomposition), pickle.loads(pickle.dumps(decomposition)))
        for d in copies:
            for clone in (g, copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                got = fs.functional_calculus(d, clone, f)
                assert got.values.tobytes() == out.values.tobytes()


def _check_copies(records):
    for r in records:
        for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(clone) is type(r)
            for name in FIELDS[type(r)]:
                value = getattr(r, name)
                if isinstance(value, (np.ndarray, str, float, tuple, Num)):
                    assert _same(getattr(clone, name), value), (type(r), name)
            with pytest.raises(AttributeError):
                setattr(clone, "extra", None)


def test_defaults(cfg, decomposition):
    tol = fs.Tolerances()
    assert (tol.rank_tol, tol.tie_tol, tol.eig_tol, tol.member_tol) == (
        1e-10,
        1e-12,
        1e-12,
        1e-8,
    )
    assert fs.ThresholdField(decomposition.m).tie_tol == 1e-12
    assert CheckResult("c", 0.0, 1.0, "<=", True).note == ""
    args = (cfg.ogrid, cfg.squad, cfg.kernel, {}, {}, {})
    first, second = fs.Config(*args), fs.Config(*args)
    assert first.epsilon == 1e-6
    assert type(first.tolerances) is fs.Tolerances
    assert first.tolerances.rank_tol == 1e-10
    # each Config gets a Tolerances of its own
    assert first.tolerances is not second.tolerances


def test_load_config_fills_absent_tolerances(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        '{"kernel": {"type": "separable", "terms": [{"curve": "1", "basis": "1"}]},'
        ' "tolerances": {"member_tol": 1e-6}}'
    )
    tol = fs.load_config(str(path)).tolerances
    assert (tol.rank_tol, tol.tie_tol, tol.eig_tol, tol.member_tol) == (
        1e-10,
        1e-12,
        1e-12,
        1e-6,
    )


def test_expression_nodes_are_structural():
    text = "sin(3*lambda)+lambda/4"
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse("sin(3*lambda)+lambda/5")
    assert Num(1.0) != Var("t") and Num(1.0) != 1.0 and Pi() == Pi()
    assert len({Num(2.0), Num(2.0), Var("t"), Var("t"), Pi(), Pi()}) == 3
    assert repr(a) == (
        "BinOp(op='+', left=Call(func='sin', args=(BinOp(op='*', "
        "left=Num(value=3.0), right=Var(name='lambda')),)), right=BinOp(op='/', "
        "left=Var(name='lambda'), right=Num(value=4.0)))"
    )
    assert repr(Pi()) == "Pi()" and repr(Neg(Num(1.0))) == "Neg(operand=Num(value=1.0))"


def test_expression_nodes_match_class_patterns():
    # unary minus binds tighter than the base of '^'
    match parse("-max(t, 2)^pi"):
        case BinOp("^", Neg(Call("max", (Var(name), Num(value)))), Pi()):
            assert (name, value) == ("t", 2.0)
        case _:
            pytest.fail("pattern did not match")
