import types

import herbrand


def test_all_lists_no_module_objects():
    modules = [name for name in herbrand.__all__ if isinstance(getattr(herbrand, name), types.ModuleType)]
    assert modules == []


def test_all_names_exist_and_are_unique():
    assert len(set(herbrand.__all__)) == len(herbrand.__all__)
    assert all(hasattr(herbrand, name) for name in herbrand.__all__)


def test_term_level_oracles_are_not_exported():
    for name in ("nondet_definitional", "y_free_universe_terms", "enum_paths", "path_congruence", "m_l"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)


def test_mop_submodule_is_not_shadowed():
    import herbrand.mop as mop_module

    assert "mop" not in herbrand.__all__
    assert isinstance(mop_module, types.ModuleType)
    assert isinstance(herbrand.mop, types.ModuleType)


def test_one_solver_is_exported():
    assert "solve" in herbrand.__all__
    for name in ("SolverConfig", "solve_jacobi", "solve_worklist"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)
