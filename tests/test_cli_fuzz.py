"""Property: any mutation of a small valid input file, given to any CLI command,
ends with a documented exit status, never a traceback, a printed NaN or a hang.

The mutations edit header and body tokens (bad numbers, out-of-range ids,
stray words), drop, duplicate or swap lines, and truncate the file.  Each
command runs in-process; an exception escaping ``main`` is the traceback a
user would see.
"""

import contextlib
import io
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from linfflow.cli import main

MATRIX = ("linf-matrix v1 2 3 3\n0 0 0.5\n1 1 -0.25\n0 2 0.3\n"
          "b 0 0.2\nb 1 -0.1\n")
DIMACS = ("c undirected\np max 4 4\nn 1 s\nn 4 t\n"
          "a 1 2 1\na 2 3 1\na 3 4 1\na 1 3 1\n")
TOKENS = ("-1", "0", "1", "2", "3", "5", "-0", "0.5", "1.5", "-2.5", "1e-320",
          "1e308", "1e400", "-1e400", "nan", "inf", "-inf", "1000000000000",
          "99999999999999999999999", "0x10", "x", "s", "t", "a", "b", "c", "p",
          "max", "linf-matrix", "v1")
COMMANDS = (
    ("regress", "--solver", "cd-l2", "--eps", "0.2"),
    ("regress", "--solver", "mirror-prox", "--eps", "0.2"),
    ("maxflow", "--eps", "0.2"),
    ("exact-flow",),
    ("verify",),
)
BUDGET_S = 30.0


@st.composite
def mutated(draw):
    lines = draw(st.sampled_from((MATRIX, DIMACS))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "token", "drop", "dup", "swap",
                                     "truncate")))
        if kind == "token":
            parts = lines[k].split()
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
                lines[k] = " ".join(parts)
        elif kind == "drop":
            del lines[k]
        elif kind == "dup":
            lines.insert(k, lines[k])
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[other] = lines[other], lines[k]
        else:
            text = "\n".join(lines)
            lines = text[:draw(st.integers(0, len(text)))].split("\n")
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(text=mutated(), command=st.sampled_from(COMMANDS))
def check_mutation(text, command):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, "--input", path])
    assert code in (0, 2, 3, 4)
    assert "nan" not in out.getvalue()


def test_mutated_inputs_end_with_a_documented_status():
    start = time.perf_counter()
    check_mutation()
    assert time.perf_counter() - start < BUDGET_S
