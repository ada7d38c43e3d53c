"""Mutated input files through the CLI, in process.

Each example takes a small valid file of one input kind, mutates its bytes
and runs the command that reads it. The command must either succeed with a
finite report, or exit 1, 2 or 3 with exactly one line on stderr: no
escaped exception, no warning and no traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import pytest

from wideca.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TRIPLET = b"%3 3 4\n0 0 1\n1 1 2\n2 1 1\n0 2 3\n"
DENSE = b"1,2,3\n4,5,6\n0.5,0,2\n"
SIGNAL = b"1\n2.5\n3\n2\n4\n"
MARGINALS = b"3\n1\n2\n"

# (input file, command; "IN" and "OUT" stand for the input and output paths)
CASES = {
    "analyze-dense": (DENSE, ["analyze", "IN", "-o", "OUT"]),
    "analyze-triplet": (TRIPLET, ["analyze", "IN", "--format", "triplet",
                                  "-o", "OUT"]),
    "fit-dense": (DENSE, ["fit", "IN", "-o", "OUT.json"]),
    "fit-triplet": (TRIPLET, ["fit", "IN", "--format", "triplet",
                              "-o", "OUT.json"]),
    "embed": (SIGNAL, ["embed", "--signal", "IN", "--windows", "2",
                       "--stride", "1", "--length", "2", "-o", "OUT.csv"]),
    "gen-marginals": (MARGINALS, ["gen", "powerlaw", "--rows", "3", "--cols",
                                  "4", "--marginals", "IN", "-o", "OUT.tpl"]),
}

TOKENS = [b"nan", b"inf", b"-inf", b"1e400", b"5e-324", b"\x00", b"\r\n",
          b"\xff", b"\xc3", b"99999999999999999999", b"-1", b"0", b" ",
          b",", b"\n"]
# Header fields: small, negative and malformed ones, and dimensions beyond
# what any array can hold. A dimension in between would have the loader
# allocate its arrays, so byte mutations leave a triplet header alone.
HEADER_FIELDS = [b"0", b"1", b"3", b"4", b"-1", b"2.0", b"x", b"\xff",
                 b"99999999999999999999", b"9223372036854775807",
                 b"1152921504606846976", b"399999999999999999999"]


def _mutate(data: st.DataObject, text: bytes) -> bytes:
    """Apply one to three byte flips, token insertions, deletions,
    truncations or (triplet only) header edits."""
    header = text.index(b"\n") + 1 if text.startswith(b"%") else 0
    head, body = text[:header], text[header:]
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(
            ["flip", "insert", "delete", "truncate"] + ["header"] * bool(head)))
        i = data.draw(st.integers(0, len(body)))
        if op == "flip" and i < len(body):
            body = body[:i] + bytes([data.draw(st.integers(0, 255))]) + body[i + 1:]
        elif op == "insert":
            body = body[:i] + data.draw(st.sampled_from(TOKENS)) + body[i:]
        elif op == "delete":
            body = body[:i] + body[i + data.draw(st.integers(1, 8)):]
        elif op == "truncate":
            body = body[:i]
        elif op == "header":
            fields = data.draw(st.lists(st.sampled_from(HEADER_FIELDS),
                                        min_size=2, max_size=4))
            head = b"%" + b" ".join(fields) + b"\n"
    return head + body


def _finite(doc: dict) -> bool:
    fields = doc["report"] if "report" in doc else dict(doc["fit"], x_max=0.0)
    return all(v is not None and math.isfinite(v) for v in fields.values())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@hypothesis.settings(max_examples=240)
@hypothesis.given(case=st.sampled_from(sorted(CASES)), data=st.data())
def test_mutated_inputs_exit_cleanly(workdir, case, data):
    text, argv = CASES[case]
    src, out = workdir / "input", workdir / "out"
    src.write_bytes(_mutate(data, text))
    for old in workdir.glob("out*"):
        old.unlink()
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(src) if a == "IN" else a.replace("OUT", str(out))
                     for a in argv])
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        if case.startswith(("analyze", "fit")):
            report = out.with_name("out.json")
            assert _finite(json.loads(report.read_text())), report.read_text()
    else:
        assert code in (1, 2, 3)
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), \
            err.getvalue()
