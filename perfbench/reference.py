"""Reference answers for the benchmark's output check.

``analyze_json`` recomputes ``herbrand analyze --format json`` for a
generated ``Program`` without importing ``herbrand``: a Jacobi iteration over
canonical label vectors, with each transfer compiled to index arithmetic on
the atom/pair grid (the atom at index i sits at position i, the pair (i, j)
at ``m + i*m + j``). It is a second implementation of the paper's analysis,
so a wrong answer from the program under test does not match it by sharing
code. ``verify_text`` is the known ``verify`` report: by the MOP = MFP
theorem every length and the fixpoint agree.
"""

from __future__ import annotations

import json

from gen import Program

RESERVED = ("$nd1", "$nd2")


def _canon(keys) -> tuple[int, ...]:
    dense: dict = {}
    return tuple(dense.setdefault(key, len(dense)) for key in keys)


def _assign(labels: tuple[int, ...], m: int, y: int, rhs: tuple[int, ...]) -> tuple[int, ...]:
    """Labels after ``y := rhs`` (rhs: one atom index or two)."""
    keys: list = list(labels)
    if len(rhs) == 1:
        (b,) = rhs
        keys[y] = labels[b]
        for j in range(m):
            jj = b if j == y else j
            keys[m + y * m + j] = labels[m + b * m + jj]
            keys[m + j * m + y] = labels[m + jj * m + b]
        return _canon(keys)
    b1, b2 = rhs
    beta = labels[m + b1 * m + b2]
    pair_classes = {}
    for i in range(m):
        for j in range(m):
            pair_classes[(labels[i], labels[j])] = labels[m + i * m + j]

    def value(left: int, right: int):
        key = (left, right)
        return pair_classes.get(key, key)

    keys[y] = beta
    for j in range(m):
        other = beta if j == y else labels[j]
        # A compound of a compound is never a label, so it needs the tuple
        # tag to keep it apart from plain class numbers.
        keys[m + y * m + j] = _tagged(value(beta, other))
        keys[m + j * m + y] = _tagged(value(other, beta))
    return _canon(keys)


def _tagged(v):
    return v if isinstance(v, int) else ("pair",) + v


def _meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return _canon(zip(a, b))


def _fixpoint(program: Program) -> tuple[list, int]:
    atoms = list(program.variables) + list(program.constants) + list(RESERVED)
    index = {name: i for i, name in enumerate(atoms)}
    m = len(atoms)
    bottom = tuple(range(m + m * m))
    nd1, nd2 = index[RESERVED[0]], index[RESERVED[1]]

    def step(state: list) -> list:
        out = []
        for node in program.nodes:
            if node[0] == "entry":
                out.append(bottom)
                continue
            if node[0] == "confluence":
                out.append(_meet(state[node[1] - 1], state[node[2] - 1]))
                continue
            elem = state[node[-1] - 1]
            if elem is None:
                out.append(None)
            elif node[0] == "assign":
                out.append(_assign(elem, m, index[node[1]], tuple(index[a] for a in node[2])))
            else:
                y = index[node[1]]
                out.append(_canon(zip(elem, _assign(elem, m, y, (nd1,)), _assign(elem, m, y, (nd2,)))))
        return out

    state: list = [None] * len(program.nodes)
    steps = 0
    while True:
        steps += 1
        nxt = step(state)
        if nxt == state:
            return nxt, steps - 1
        state = nxt


def analyze_json(program: Program) -> str:
    """Expected stdout of ``analyze PROG --format json``."""
    atoms = list(program.variables) + list(program.constants) + list(RESERVED)
    m = len(atoms)
    names = atoms + [f"{a}+{b}" for a in atoms for b in atoms]
    hidden = [i >= m - 2 for i in range(m)]
    hidden += [hidden[i] or hidden[j] for i in range(m) for j in range(m)]
    state, iterations = _fixpoint(program)
    points = []
    for node_id, labels in enumerate(state, start=1):
        members: dict[int, list[str]] = {}
        for pos, label in enumerate(labels):
            if not hidden[pos]:
                members.setdefault(label, []).append(names[pos])
        rows = sorted(sorted(row) for row in members.values() if len(row) >= 2)
        points.append({"id": node_id, "status": "partition", "classes": rows})
    payload = {"solver": "jacobi", "iterations": iterations, "points": points}
    return json.dumps(payload, indent=2) + "\n"


def verify_text(node_count: int, max_len: int) -> str:
    """Expected stdout of ``verify PROG --max-len max_len`` when all agree."""
    lines = [f"length {l}: ok ({node_count} nodes)" for l in range(max_len + 1)]
    lines += ["stabilized within bound: yes", "path meet vs fixpoint: ok", "ok"]
    return "\n".join(lines) + "\n"
