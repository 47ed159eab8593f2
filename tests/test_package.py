import inspect
import os
import re
import subprocess
import sys
import types

import pytest

import herbrand
from helpers import PROGRAMS_DIR, ROOT


def test_all_lists_no_module_objects():
    modules = [name for name in herbrand.__all__ if isinstance(getattr(herbrand, name), types.ModuleType)]
    assert modules == []


def test_all_names_exist_and_are_unique():
    assert len(set(herbrand.__all__)) == len(herbrand.__all__)
    assert all(hasattr(herbrand, name) for name in herbrand.__all__)


def test_term_level_oracles_are_not_exported():
    for name in (
        "nondet_definitional",
        "y_free_universe_terms",
        "enum_paths",
        "path_congruence",
        "m_l",
        "congruence_violations",
        "is_congruence",
        "Violation",
        "substitute",
        "depth",
        "meet_all",
        "ExtendedValue",
    ):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)
    assert not hasattr(herbrand.Atom, "is_constant")
    assert not hasattr(herbrand.TermUniverse, "pair_operands")
    assert not hasattr(herbrand.Partition, "pair_classes")
    assert not hasattr(herbrand.Partition, "classes")
    assert not hasattr(herbrand.Partition, "num_classes")
    assert not hasattr(herbrand.TermUniverse, "pairs")


def test_report_oracles_are_test_helpers():
    # the class lists and ``written``, which reads a report back as one
    # string, live in tests/helpers.py; every report writer takes the output
    # stream first and returns nothing, and none returns a report or yields
    # its pieces
    import herbrand.report as report_module

    for name in ("visible_classes", "written", "verify_lines"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)
        assert not hasattr(report_module, name)
    writers = ("render_points", "emit_report", "render_mop", "render_verify", "render_check")
    for name in writers:
        writer = getattr(report_module, name)
        assert next(iter(inspect.signature(writer).parameters)) == "out", name
        assert inspect.signature(writer).return_annotation == "None", name
        assert not inspect.isgeneratorfunction(writer), name


def test_lattice_order_and_node_lookups_are_test_helpers():
    # ``refines`` is ``meet(a, b) == a`` and lives in tests/helpers.py; tests
    # index ``graph.kinds`` and ``graph.preds`` directly
    import herbrand.congruence as congruence_module

    assert "refines" not in herbrand.__all__
    assert not hasattr(herbrand, "refines")
    assert not hasattr(congruence_module, "refines")
    assert not hasattr(herbrand.FlowGraph, "kind")
    assert not hasattr(herbrand.FlowGraph, "pred")


def test_mop_submodule_is_not_shadowed():
    import herbrand.mop as mop_module

    assert "mop" not in herbrand.__all__
    assert isinstance(mop_module, types.ModuleType)
    assert isinstance(herbrand.mop, types.ModuleType)


def test_node_kinds_are_the_four_classes():
    for name in ("Function", "AnalysisState"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)
    node_kinds = (herbrand.Entry, herbrand.Assign, herbrand.NonDet, herbrand.Confluence)
    _, graph = herbrand.parse_program((PROGRAMS_DIR / "diamond.dfg").read_text(encoding="utf-8"))
    assert {type(kind) for kind in graph.kinds} <= set(node_kinds)


def test_lattice_values_have_one_equality():
    for name in ("partitions_equal", "states_equal"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)


def test_one_solver_is_exported():
    assert "solve" in herbrand.__all__
    for name in ("SolverConfig", "solve_jacobi", "solve_worklist"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)


def test_atoms_are_terms_and_values_are_ints_or_pairs():
    for name in ("AtomRef", "Base", "Pair"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)


def test_readme_library_example_prints_a_class(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(ROOT)
    exec(code, {})
    printed = eval(capsys.readouterr().out, {"Atom": herbrand.Atom, "Sum": herbrand.Sum})
    assert isinstance(printed, set)
    assert {herbrand.format_term(t) for t in printed} == {"x", "y", "a"}


def test_importing_the_cli_imports_no_dataclasses_inspect_or_json():
    # a fresh interpreter, so no module another test imported counts
    code = "import sys, herbrand.cli; print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_value_classes_keep_the_frozen_dataclass_contract():
    universe = herbrand.build_universe(["x", "y"], ["a"])
    x, y, a = universe.atoms[:3]
    pair = herbrand.Sum(x, a)
    assign, nondet = herbrand.Assign(y, pair), herbrand.NonDet(x)
    kinds = (herbrand.Entry(), assign, nondet)
    graph = herbrand.FlowGraph(n=3, kinds=kinds, preds=((), (1,), (2,)))
    values = {
        x: ("kind", "name"),
        pair: ("left", "right"),
        universe: ("variables", "atoms", "index"),
        herbrand.bottom(universe): ("universe", "atoms", "defs"),
        assign: ("target", "rhs"),
        nondet: ("target",),
        graph: ("n", "kinds", "preds"),
    }
    for value, fields in values.items():
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is not None
    # the hash of the field tuple, as a frozen dataclass's, so no set or
    # dict order moves
    assert hash(x) == hash(("variable", "x"))
    assert hash(pair) == hash((x, a))
    assert hash(assign) == hash((y, pair))
    assert hash(nondet) == hash((x,))
    assert hash(graph) == hash((3, kinds, ((), (1,), (2,))))
    assert herbrand.Entry() == herbrand.Entry() != herbrand.Confluence()
    assert hash(herbrand.Entry()) == hash(herbrand.Confluence()) == hash(())
    assert herbrand.Sum(x, a) == pair != herbrand.Sum(a, x)
    assert herbrand.Assign(target=y, rhs=pair) == assign
    assert herbrand.build_universe(["x", "y"], ["a"]) != universe
    assert repr(x) == "Atom(kind='variable', name='x')"
    assert repr(herbrand.Entry()) == "Entry()"
    assert repr(assign) == (
        "Assign(target=Atom(kind='variable', name='y'), "
        "rhs=Sum(left=Atom(kind='variable', name='x'), right=Atom(kind='constant', name='a')))"
    )
    assert repr(graph).startswith("FlowGraph(n=3, kinds=(Entry(), Assign(")
    assert graph.succ(1) == (2,) and graph.succs == ((2,), (3,), ())
    result = herbrand.SolveResult(state=(herbrand.TOP,), iterations=0, trace=None)
    assert (result.state, result.iterations, result.trace) == ((herbrand.TOP,), 0, None)
    assert herbrand.SolveResult((herbrand.TOP,), 0) == result
