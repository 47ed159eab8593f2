import types

import herbrand


def test_all_lists_no_module_objects():
    modules = [name for name in herbrand.__all__ if isinstance(getattr(herbrand, name), types.ModuleType)]
    assert modules == []


def test_all_names_exist_and_are_unique():
    assert len(set(herbrand.__all__)) == len(herbrand.__all__)
    assert all(hasattr(herbrand, name) for name in herbrand.__all__)


def test_term_level_oracles_are_not_exported():
    for name in ("nondet_definitional", "y_free_universe_terms"):
        assert name not in herbrand.__all__
        assert not hasattr(herbrand, name)
