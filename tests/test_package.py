import re
import types

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
    # the whole-string verify report and the class lists live in
    # tests/helpers.py; the command line writes verify_lines
    import herbrand.report as report_module

    for name in ("visible_classes", "render_verify"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)
        assert not hasattr(report_module, name)
    assert hasattr(report_module, "verify_lines")


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
