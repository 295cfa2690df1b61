"""Mutated manifold files through every command: each run ends in one of the
documented exit codes 0-3, never in an exception.

The mutations start from the ``samples/`` and ``tests/golden/`` files and
are seeded, so a failure names a reproducible input.  Integers move by a
little, so most mutants stay small enough to decide quickly; gluing matrices
are also changed by an elementary matrix, which keeps them unimodular, so
that many mutants are valid graphs and reach the deciding code.
"""

import copy
import json
import random
from pathlib import Path

from tautfol.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "samples").glob("*.json")) + sorted((ROOT / "tests" / "golden").glob("*.json"))
COMMANDS = ("validate", "longitude", "detect", "ctf", "oracle-check")
MUTANTS = 600


def _nodes(node, path=()):
    """(path, value) for every node of a decoded JSON tree, the root first."""
    yield path, node
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _is_matrix(value):
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in value)
            and all(type(x) is int for row in value for x in row))


def _replacement(rng, value, data):
    """A mutated copy of one node."""
    if _is_matrix(value) and rng.random() < 0.5:
        k = rng.choice((-2, -1, 1, 2))
        (a, b), (c, d) = value
        return [[a + k * c, b + k * d], [c, d]] if rng.random() < 0.5 \
            else [[a, b], [c + k * a, d + k * b]]
    if type(value) is bool:
        return not value
    if type(value) is int:
        return rng.choice((value + rng.choice((-2, -1, 1, 2)), -value, rng.randint(-6, 6)))
    if isinstance(value, str):
        # An earlier change may have left the root or its pieces a non-list.
        pieces = data.get("pieces") if isinstance(data, dict) else None
        ids = [p.get("id") for p in pieces if isinstance(p, dict)] if isinstance(pieces, list) else []
        return rng.choice(ids + ["closed", "solid-torus", "zz", ""])
    if isinstance(value, list) and value and rng.random() < 0.7:
        out = list(value)
        i = rng.randrange(len(out))
        if rng.random() < 0.5:
            del out[i]
        else:
            out.insert(rng.randrange(len(out) + 1), copy.deepcopy(out[i]))
        return out
    if isinstance(value, dict) and value and rng.random() < 0.7:
        out = dict(value)
        if rng.random() < 0.5:
            del out[rng.choice(sorted(out))]
        else:
            out["extra"] = 0
        return out
    return rng.choice((None, "x", [], {}, 1.5, [0, 0]))


def _mutant(rng, text):
    """The text of a mutated manifold file: one to three node changes, most
    of them to a number or a gluing matrix, or now and then a truncated
    file."""
    if rng.random() < 0.05:
        return text[:rng.randrange(len(text))]
    data = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(data))
        numbers = [(path, v) for path, v in nodes if type(v) is int or _is_matrix(v)]
        path, value = rng.choice(numbers if numbers and rng.random() < 0.7 else nodes)
        new = _replacement(rng, value, data)
        if not path:
            data = new
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    return json.dumps(data)


def test_mutated_files_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(0xF022)
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    codes = {}
    for i in range(MUTANTS):
        path = tmp_path / f"m{i}.json"
        path.write_text(_mutant(rng, rng.choice(texts)), encoding="utf-8")
        for command in COMMANDS:
            code = main([command, str(path), "--format", "json"])
            assert code in (0, 1, 2, 3), (i, command, path.read_text(encoding="utf-8"))
            codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
    # Enough mutants stay valid to reach every command's deciding code.
    assert codes.get(0, 0) > MUTANTS // 2 and codes.get(1, 0) > MUTANTS, codes
