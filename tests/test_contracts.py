"""The input rules every family shares, at every public entry that takes a
size, an index, a threshold, a spin weight or an angle, and the structure
that keeps each rule in one place.

A size, a frequency or a grid index is a Python or numpy integer, not a bool
and not a float, even a whole one: `8.0` is refused as `4.5` is, since
truncating either would compute a value nobody asked for.  A threshold lies
in [0, 1).  A weight is a half-integer (`HalfInt.coerce`) on the spin's
lattice, and an angle is finite.  A threshold, a width and an angle are real
numbers: a Python or numpy integer or float, not a bool, a string or None.
The last test keeps numpy's optional subpackages out of import time."""

import argparse
import ast
import importlib.util
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

from speclab import (
    HALF_CIRCLE,
    ArcSymbol,
    ContractError,
    HalfInt,
    SpinRep,
    cap_integral,
    cli,
    fourier_coeff,
    fourier_expansion_d,
    grid_in_arc,
    hankel_truncation,
    heisenberg_commutator,
    heisenberg_submatrix,
    lanczos_top,
    models,
    projection_x,
    projection_x_entries,
    ring_commutator,
    ring_submatrix,
    se2_commutator,
    spinrep,
    su2_caps_commutator,
    su2_commutator,
    su2_submatrix,
    szego_approximation,
    truncated_norm_record,
    wigner_d_matrix,
    wigner_d_sum,
    wigner_d_theta,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "speclab"

# each entry maps a size s to a value that is compared at s = 8 and
# s = np.int64(8); a CommutatorReport is compared by its norm record
SIZE_ENTRIES = {
    "SpinRep": lambda s: SpinRep(s).twice,
    "su2_commutator": lambda s: su2_commutator(s).record,
    "su2_caps_commutator": lambda s: su2_caps_commutator(s, 0.3).record,
    "su2_submatrix": lambda s: su2_submatrix(40, s),
    "grid_in_arc": lambda s: grid_in_arc(3, s),
    "ring_commutator n": lambda s: ring_commutator(s, 4).record,
    "ring_commutator window": lambda s: ring_commutator(20, s).record,
    "ring_submatrix n": lambda s: ring_submatrix(s, 1),
    "ring_submatrix size": lambda s: ring_submatrix(40, s),
    "heisenberg_commutator": lambda s: heisenberg_commutator(s).record,
    "heisenberg_submatrix n": lambda s: heisenberg_submatrix(s, 1),
    "heisenberg_submatrix size": lambda s: heisenberg_submatrix(40, s, 0.3),
    "se2_commutator": lambda s: se2_commutator(s).record,
    "hankel_truncation": lambda s: hankel_truncation(HALF_CIRCLE, s),
    "truncated_norm_record a=0": lambda s: truncated_norm_record(HALF_CIRCLE, s),
    "truncated_norm_record a=0.3": lambda s: truncated_norm_record(ArcSymbol(0.3), s),
    "lanczos_top": lambda s: lanczos_top(lambda x: x @ np.diag(np.arange(1.0, 9.0)), s).value,
}

THRESHOLD_ENTRIES = {
    "ArcSymbol": lambda a: ArcSymbol(a),
    "projection_x": lambda a: projection_x(SpinRep(5), a),
    "su2_commutator": lambda a: su2_commutator(8, a),
    "su2_commutator interval": lambda a: su2_commutator(8, a, 0.5),
    "su2_caps_commutator": lambda a: su2_caps_commutator(8, a),
    "ring_commutator": lambda a: ring_commutator(8, 4, a),
    "ring_submatrix": lambda a: ring_submatrix(40, 4, a),
    "heisenberg_commutator": lambda a: heisenberg_commutator(8, a),
    "heisenberg_submatrix": lambda a: heisenberg_submatrix(40, 4, a),
    "cap_integral": lambda a: cap_integral(a, 1),
    "grid_in_arc": lambda a: grid_in_arc(3, 8, a),
}

# the exact weight predicates keep any finite threshold, since they serve the
# b side (up to 1) as well, but no nan or inf, which no rational can hold
WEIGHT_PREDICATES = {
    "weight_exceeds": lambda a: spinrep.weight_exceeds(1, a, 5),
    "weight_at_most": lambda a: spinrep.weight_at_most(1, a, 5),
    "weights_exceeding": lambda a: spinrep.weights_exceeding(np.arange(-4, 5, 2), a, 5),
    "weights_at_most": lambda a: spinrep.weights_at_most(np.arange(-4, 5, 2), a, 5),
}


# each entry maps one weight w of spin j = 3 (n = 7) to a value; szego takes
# it as both m' and m, so m - m' = 0 and only the lattice can refuse it
WEIGHT_ENTRIES = {
    "SpinRep.index_of": lambda w: SpinRep(7).index_of(w),
    "wigner_d_sum": lambda w: wigner_d_sum(3, w, 1, 0.9),
    "wigner_d_theta": lambda w: wigner_d_theta(SpinRep(7), w, 1, 0.9),
    "fourier_expansion_d": lambda w: fourier_expansion_d(SpinRep(7), 1, w),
    "projection_x_entries": lambda w: projection_x_entries(SpinRep(7), 0.3, [(w, 1), (1, w)]),
    "szego_approximation": lambda w: szego_approximation(3, w, w, 0.7),
}

ANGLE_ENTRIES = {
    "wigner_d_sum": lambda t: wigner_d_sum(3, 2, 1, t),
    "wigner_d_sum_matrix": lambda t: spinrep.wigner_d_sum_matrix(SpinRep(7), t),
    "wigner_d_theta": lambda t: wigner_d_theta(SpinRep(7), 2, 1, t),
    "wigner_d_matrix": lambda t: wigner_d_matrix(SpinRep(7), t),
}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRIES))
def test_every_size_entry_takes_only_integers(name):
    entry = SIZE_ENTRIES[name]
    for bad in (4.5, 8.0, True, np.float64(8.0)):
        with pytest.raises(ContractError):
            entry(bad)
    plain, wide = entry(8), entry(np.int64(8))
    assert np.array_equal(plain, wide) if isinstance(plain, np.ndarray) else plain == wide


# what is not a real number: a bool once read as 0 or 1 (su2_commutator(8,
# False) returned a norm), and a string or None raised TypeError
NOT_REAL = (False, True, np.False_, np.True_, "0.3", None)


@pytest.mark.parametrize("name", sorted(THRESHOLD_ENTRIES))
def test_every_threshold_entry_refuses_a_outside_0_1(name):
    entry = THRESHOLD_ENTRIES[name]
    for bad in (math.nan, math.inf, -math.inf, -0.1, 1.0):
        with pytest.raises(ContractError):
            entry(bad)
    for bad in NOT_REAL:
        with pytest.raises(ContractError, match="must be a real number"):
            entry(bad)
    for fine in (0.0, 0.3, 0, np.int64(0), np.float64(0.3)):
        entry(fine)


# each entry maps a width b to a value; 1 is the widest
WIDTH_ENTRIES = {
    "z_interval_mask": lambda b: spinrep.z_interval_mask(SpinRep(8), b),
    "su2_commutator": lambda b: su2_commutator(8, 0.0, b),
}


@pytest.mark.parametrize("name", sorted(WIDTH_ENTRIES))
def test_every_width_entry_refuses_b_outside_0_1(name):
    # su2_commutator(8, 0.0, True) once took the bool as b = 1
    entry = WIDTH_ENTRIES[name]
    for bad in (math.nan, math.inf, 0.0, -0.1, 1.5):
        with pytest.raises(ContractError):
            entry(bad)
    for bad in NOT_REAL:
        with pytest.raises(ContractError, match="must be a real number"):
            entry(bad)
    for fine in (0.5, 1.0, 1, np.int64(1), np.float64(0.5)):
        entry(fine)


@pytest.mark.parametrize("name", sorted(WEIGHT_PREDICATES))
def test_weight_predicates_refuse_a_threshold_that_is_not_finite(name):
    entry = WEIGHT_PREDICATES[name]
    for bad in (math.nan, math.inf, -math.inf, *NOT_REAL):
        with pytest.raises(ContractError, match=name):
            entry(bad)
    for fine in (-2.0, 0.0, 0.3, 1, 1.0, 1.5):
        entry(fine)


@pytest.mark.parametrize("name", sorted(WEIGHT_ENTRIES))
def test_every_weight_entry_takes_only_lattice_half_integers(name):
    # 4 is past j = 3 and 0.5 has the wrong parity for an integer spin;
    # szego once returned a value for the latter, and the bools, the strings
    # and the non-finite floats reached int(), Fraction or the lattice test
    entry = WEIGHT_ENTRIES[name]
    for bad in (4, -4, 0.5, 0.3, True, np.True_, "1/2", "2", math.nan, math.inf, -math.inf):
        with pytest.raises(ContractError):
            entry(bad)
    want = pickle.dumps(entry(2))
    for same in (np.int64(2), 2.0, HalfInt(4)):
        assert pickle.dumps(entry(same)) == want


@pytest.mark.parametrize("name", sorted(ANGLE_ENTRIES))
def test_every_angle_entry_refuses_an_angle_that_is_not_finite(name):
    entry = ANGLE_ENTRIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractError, match="theta must be finite"):
                entry(bad)
        # wigner_d_theta once took True as theta = 1, and "1" raised TypeError
        for bad in (True, np.True_, "1", None):
            with pytest.raises(ContractError, match="theta must be a real number"):
                entry(bad)
        want = entry(1.0)
        for same in (1, np.int64(1), np.float64(1.0)):
            assert np.array_equal(entry(same), want)


def test_halfint_stores_only_integers():
    # HalfInt(2.7) once truncated to 1 and HalfInt(True) was 1/2
    for bad in (2.7, 2.0, True, np.True_, "3"):
        with pytest.raises(ContractError, match="HalfInt: twice"):
            HalfInt(bad)
    assert HalfInt(np.int64(3)) == HalfInt(3) == HalfInt.coerce(1.5)


@pytest.mark.parametrize("call, name", [
    (lambda p: fourier_coeff(HALF_CIRCLE, p), "fourier_coeff: p"),
    (lambda p: fourier_coeff(ArcSymbol(0.3), p), "fourier_coeff: p"),
    (lambda k: grid_in_arc(k, 8), "grid_in_arc: k"),
    (lambda k: grid_in_arc(k, 8, 0.3), "grid_in_arc: k"),
])
def test_frequencies_and_grid_indices_are_integers(call, name):
    # fourier_coeff(HALF_CIRCLE, 2.7) once truncated to coeff(2) = 0.0 and
    # 1.9 to coeff(1); grid_in_arc(2.5, 8) answered False; True was 1
    for bad in (2.7, 1.9, 2.5, 2.0, True, np.True_, np.float64(3.0), "3", None):
        with pytest.raises(ContractError, match=name):
            call(bad)
    for k in (-3, 0, 1, 5):
        assert call(np.int64(k)) == call(k)


def test_grid_in_arc_refuses_a_threshold_outside_0_1():
    # it once answered False at a = 1.5 and True at a = -2
    for k, a in ((3, 1.5), (0, -2.0)):
        with pytest.raises(ContractError, match="grid_in_arc: a"):
            grid_in_arc(k, 8, a)


@pytest.mark.parametrize("call, name", [
    (lambda b: spinrep.z_interval_mask(SpinRep(8), b), "z_interval_mask: b"),
    (lambda b: cli.main(["norms", "--family", "su2_interval", "--b", repr(b), "--out", "-"]), "--b"),
])
def test_the_b_rule_names_its_caller(call, name, capsys):
    for bad in (math.nan, 0.0, -0.1, 1.5, math.inf):
        try:
            code = call(bad)
        except ContractError as exc:
            message = str(exc)
        else:
            assert code == 1
            message = capsys.readouterr().err
        assert f"{name} must lie in (0, 1], got {bad}" in message


def _functions_with(tree, found) -> set:
    """Names of the functions of tree holding a node for which found is true."""
    return {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and any(found(node) for node in ast.walk(f))}


def _abs_above(node) -> bool:
    """A range test abs(x) > y (or np.abs)."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", getattr(node.left.func, "attr", None)) == "abs"
            and isinstance(node.ops[0], ast.Gt))


def _mod_two(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and getattr(node.right, "value", None) == 2)


def test_each_input_rule_has_one_implementation():
    # the 1/2 bound is refused in linalg.certified_norm alone, the threshold
    # test 0 <= a < 1 is written out in _errors.threshold alone, the width
    # test 0 < b <= 1 in _errors.width alone, and a Fraction's denominator
    # (a half-integer parse) is read in HalfInt.coerce alone
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        cap = [node for node in ast.walk(tree)
               if getattr(node, "id", None) == "NORM_CAP" or getattr(node, "attr", None) == "NORM_CAP"
               or isinstance(node, ast.alias) and node.name == "NORM_CAP"]
        assert not cap or path.name == "linalg.py", path.name
        spans = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                 and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]
                 and getattr(node.left, "value", None) == 0
                 and getattr(node.comparators[-1], "value", None) == 1]
        assert not spans or path.name == "_errors.py", path.name
        widths = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and [type(op) for op in node.ops] == [ast.Lt, ast.LtE]
                  and getattr(node.left, "value", None) == 0
                  and getattr(node.comparators[-1], "value", None) == 1]
        assert not widths or path.name == "_errors.py", path.name
        parses = _functions_with(tree, lambda node: getattr(node, "attr", None) == "denominator")
        assert parses <= ({"coerce"} if path.name == "spinrep.py" else set()), path.name
    assert "__post_init__" not in vars(models.CommutatorReport)
    # spinrep's weight lattice: the range test |m| > j sits in one function,
    # which also holds the parity test (j - m) % 2
    tree = ast.parse((SRC / "spinrep.py").read_text())
    assert _functions_with(tree, _abs_above) == {"_lattice_rows"}
    assert "_lattice_rows" in _functions_with(tree, _mod_two)
    # the config types are argparse's own: cli.py keeps no module-level
    # table naming option dests or the types int and float
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for sub in subs.choices.values() for a in sub._actions} - {"help"}
    for node in ast.parse((SRC / "cli.py").read_text()).body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                value, (ast.Dict, ast.Tuple, ast.List, ast.Set)):
            names = {getattr(x, "id", None) for x in ast.walk(value)}
            strings = {x.value for x in ast.walk(value) if isinstance(x, ast.Constant)}
            assert not names & {"int", "float"} and not strings & dests, ast.unparse(node)


def _module_level(tree):
    """The nodes of tree outside function bodies: what runs at import."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack += ast.iter_child_nodes(node)


def _numpy_subpackages(nodes) -> set:
    """The numpy subpackages the nodes name: by import (`import numpy.x`,
    `from numpy.x import y`, `from numpy import x`) or by attribute
    (`np.x`, which numpy 2 loads on first access)."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("numpy.")}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy"):
            names.add(node.attr)
    return {x for x in names if importlib.util.find_spec(f"numpy.{x}") is not None}


def test_import_time_loads_only_the_numpy_every_command_uses():
    # numpy.fft (every Fourier family and Hankel norm) and numpy.linalg load
    # at import; any other numpy subpackage loads where it is used, so that
    # norms, hankel and vectors do not pay for validate's numpy.random or the
    # quadrature's numpy.polynomial, and only validate draws random numbers
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        eager = _numpy_subpackages(_module_level(tree))
        assert eager <= ({"fft", "linalg", "random"} if path.name == "validate.py"
                         else {"fft", "linalg"}), path.name
        anywhere = _numpy_subpackages(ast.walk(tree))
        assert "random" not in anywhere or path.name == "validate.py", path.name
