"""Release gate: every criterion below runs at its full stated size and
prints one PASS line; any failed assertion fails the criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

import pytest

from herbrand import (
    Assign,
    NonDet,
    apply_statement,
    assign_transfer,
    bottom,
    equivalent,
    meet,
    nondet_transfer,
    parse_program,
    parse_term,
    solve,
    term_value,
    verify_mop_mfp,
)
from herbrand.cli import main
from helpers import (
    GOLDEN_DIR,
    PROGRAMS_DIR,
    cls,
    congruence_violations,
    full_corpus,
    grid,
    is_congruence,
    meet_all,
    nondet_definitional,
    rand_partition,
    rand_statement,
    rand_universe,
    reference_refines,
    reference_round_robin,
    visible_classes,
    y_free_universe_terms,
)

MAX_LEN = 10


def _report(n: int, detail: str) -> None:
    print(f"criterion {n} PASS: {detail}", flush=True)


@pytest.fixture(scope="module")
def corpus():
    programs = []
    for name, text in full_corpus(random_count=14):
        universe, graph = parse_program(text)
        programs.append((name, universe, graph))
    return programs


@pytest.fixture(scope="module")
def corpus_verification(corpus):
    started = time.monotonic()
    reports = [
        (name, universe, graph, verify_mop_mfp(graph, universe, MAX_LEN))
        for name, universe, graph in corpus
    ]
    elapsed = time.monotonic() - started
    return reports, elapsed


def test_criterion_1_mop_equals_mfp_on_corpus(corpus_verification, capsys):
    reports, elapsed = corpus_verification
    assert len(reports) >= 20
    for name, _, _, report in reports:
        assert report.ok, f"{name}: {report.iterate_mismatches} {report.fixpoint_mismatches}"
    stabilized = sum(1 for _, _, _, r in reports if r.stabilized)
    assert stabilized >= 5  # the fixpoint comparison must actually fire

    started = time.monotonic()
    for path in sorted(PROGRAMS_DIR.glob("*.dfg")):
        code = main(["verify", str(path), "--max-len", str(MAX_LEN)])
        capsys.readouterr()
        assert code == 0, path.name
    elapsed += time.monotonic() - started
    assert elapsed < 60.0
    _report(
        1,
        f"path meets match the fixpoint on {len(reports)} programs "
        f"({stabilized} stabilized within length {MAX_LEN}) in {elapsed:.1f}s",
    )


def test_criterion_2_per_iteration_equality(corpus_verification):
    reports, _ = corpus_verification
    checks = 0
    for name, _, graph, report in reports:
        assert report.iterate_mismatches == [], name
        assert report.checks == (MAX_LEN + 1) * graph.n
        checks += report.checks
    _report(2, f"{checks} (node, length) pairs match the solver iterates exactly")


def test_criterion_3_congruence_preservation():
    rng = random.Random(321)
    sequences = 1000
    steps_checked = 0
    for _ in range(sequences):
        universe = rand_universe(rng)
        assert len(universe.atoms) <= 6
        pool = [bottom(universe)]
        current = pool[0]
        for _ in range(rng.randrange(1, 7)):
            roll = rng.random()
            if roll < 0.25 and len(pool) > 1:
                current = meet(current, rng.choice(pool))
            else:
                stmt = rand_statement(universe, rng)
                current = apply_statement(current, stmt)
            pool.append(current)
            violations = congruence_violations(current)
            assert violations == [], violations
            steps_checked += 1
    _report(3, f"{sequences} op sequences, {steps_checked} steps, zero axiom violations")


def test_criterion_4_two_constant_characterization():
    rng = random.Random(654)
    trials = 500
    user_pair_checked = 0
    for _ in range(trials):
        universe = rand_universe(rng)
        p = rand_partition(universe, rng)
        y = rng.choice(universe.variables)
        via_reserved = nondet_transfer(p, y)
        via_all_betas = nondet_definitional(p, y, y_free_universe_terms(universe, y))
        assert grid(via_reserved) == via_all_betas
        if len(universe.constants) >= 2:
            c1, c2 = universe.constants[:2]
            via_user = meet_all(
                [p, assign_transfer(p, y, c1), assign_transfer(p, y, c2)]
            )
            assert via_user == via_reserved
            user_pair_checked += 1
    assert user_pair_checked >= 50
    _report(
        4,
        f"{trials} partitions: reserved-pair result equals the all-substitutions "
        f"oracle; {user_pair_checked} also checked with a user constant pair",
    )


def test_criterion_5_lattice_laws():
    rng = random.Random(987)
    trials = 500
    for _ in range(trials):
        universe = rand_universe(rng)
        p = rand_partition(universe, rng)
        q = rand_partition(universe, rng)

        m = meet(p, q)
        assert reference_refines(m, p) and reference_refines(m, q)
        r = meet(m, rand_partition(universe, rng))
        assert reference_refines(r, p) and reference_refines(r, q) and reference_refines(r, m)

        extras = [rand_partition(universe, rng) for _ in range(rng.randrange(0, 3))]
        assert meet_all([p, q] + extras) == meet(meet_all([p, q]), meet_all(extras))

        stmt = rand_statement(universe, rng)
        if isinstance(stmt, Assign):
            f = lambda elem: assign_transfer(elem, stmt.target, stmt.rhs)
        else:
            f = lambda elem: nondet_transfer(elem, stmt.target)
        assert f(m) == meet(f(p), f(q))
        fine = meet(p, q)
        assert reference_refines(f(fine), f(p))
    _report(5, f"{trials} pairs: meet is the GLB, union rule holds, transfers distribute and are monotone")


def test_criterion_6_solver_agreement_and_termination(corpus):
    for name, universe, graph in corpus:
        jac = solve(graph, universe, trace=True)
        wl = reference_round_robin(graph, universe)
        assert jac.state == wl.state, name
        bound = graph.n * (len(universe.terms) + 1) + 1
        assert jac.iterations <= bound, name
        assert wl.iterations <= bound, name
        assert jac.trace is not None
        for prev, nxt in zip(jac.trace, jac.trace[1:]):
            for before, after in zip(prev, nxt):
                assert reference_refines(after, before), name
    _report(6, f"solver and round-robin reference agree on {len(corpus)} programs within the iteration bound")


def test_criterion_7_canonical_examples(corpus, capsys):
    by_name = {name: (universe, graph) for name, universe, graph in corpus}

    universe, graph = by_name["straight_line.dfg"]
    exit_state = solve(graph, universe).state[-1]
    assert cls(exit_state, "x") == {"x", "y", "a"}

    universe, graph = by_name["diamond.dfg"]
    join_state = solve(graph, universe).state[4]
    assert cls(join_state, "x") == {"x", "y", "a"}

    universe, graph = by_name["nondet_copy.dfg"]
    state = solve(graph, universe).state
    assert cls(state[1], "y") == {"x", "y"}
    assert cls(state[2], "y") == {"y"}
    assert cls(state[2], "x") == {"x"}

    for name in ("straight_line", "diamond", "nondet_copy"):
        code = main(["analyze", str(PROGRAMS_DIR / f"{name}.dfg"), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert out == golden, f"{name} report drifted from its golden file"
        json.loads(out)
        code = main(["analyze", str(PROGRAMS_DIR / f"{name}.dfg")])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8"), name
    # text with every class, every iterate and TOP points
    code = main(["analyze", str(PROGRAMS_DIR / "loop.dfg"), "--full", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / "loop_full_trace.txt").read_text(encoding="utf-8")
    _report(7, "hand-derived classes and golden reports for the three canonical programs")


# The README's 7-line program, and a diamond that computes z from a+b on
# each arm. On every path to the last node, y+c ≡ z and (a+b)+c ≡ z hold,
# but a depth-1 value drops the definition of z's class once no atom is left
# in the class of a+b, and cannot bring it back. ``verify`` still says ok,
# because both of its routes cut at the same depth. A value that keeps
# deeper classes closes these misses, and then this test must change.
DEPTH_ONE_MISSES = {
    "kill": (
        "vars x y z\nconsts a b c\nnode 1 entry\n"
        "node 2 assign x := a + b pred 1\nnode 3 assign z := x + c pred 2\n"
        "node 4 nondet x pred 3\nnode 5 assign y := a + b pred 4\n",
        5, "y+c", [["a+b", "y"]], 21,
    ),
    "diamond": (
        "vars x w z\nconsts a b c\nnode 1 entry\n"
        "node 2 assign x := a + b pred 1\nnode 3 assign z := x + c pred 2\n"
        "node 4 assign w := a + b pred 1\nnode 5 assign z := w + c pred 4\n"
        "node 6 confluence pred 3 5\n",
        6, "(a+b)+c", [], (36, 5),
    ),
}


@pytest.mark.parametrize("name", sorted(DEPTH_ONE_MISSES))
def test_documented_depth_one_misses(name, tmp_path, capsys):
    text, node, term, shown, value = DEPTH_ONE_MISSES[name]
    universe, graph = parse_program(text)
    p = solve(graph, universe).state[node - 1]
    assert visible_classes(p) == shown
    t, z = parse_term(term, universe), parse_term("z", universe)
    assert (term_value(t, p), term_value(z, p)) == (value, 2)
    assert not equivalent(t, z, p)
    path = tmp_path / f"{name}.dfg"
    path.write_text(text)
    assert main(["verify", str(path), "--max-len", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"
