"""Hostile input: mutated design files must end in exit 0, 2 or 3.

Small serialized designs (an abelian base carrying [transfer] data, and a
lifted design over a two-level group) are mutated line by line: lines are
dropped, duplicated, retyped or truncated, and integers are replaced or
inserted, huge ones among them.
`verify` must then return 0, 2 or 3 and never raise.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffsets import cli

JUNK = ["", "x", "-1", "0", "1.5", "2,2", "|", "0|", "|0", "=", " = ", ",,",
        "[members]", "[level 0]", "kind = abelian", "99999999999999999999999"]
NUMBERS = ["99999999999999999999", str(2 ** 64), str(2 ** 63 - 1),
           "-9223372036854775809", "0", "-1"]

OPS = ["drop", "dup", "retype", "truncate", "number"]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """name -> text of a base design with [transfer] data and of its lift."""
    work = tmp_path_factory.mktemp("hostile")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", "dillon", "--out", str(work / "d0")]) == 0
        assert cli.main(["transfer", "--design", str(work / "d0.design.txt"),
                         "--out", str(work / "d1")]) == 0
    return {name: (work / f"{name}.design.txt").read_text() for name in ("d0", "d1")}, work


def _mutate(text, data):
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(OPS))
        # most lines are members and elements; aim at the headers 3 times in 4
        pool = [i for i, ln in enumerate(lines) if " = " in ln]
        if not (pool and data.draw(st.integers(0, 3))):
            pool = list(range(len(lines)))
        if not pool:
            break
        i = data.draw(st.sampled_from(pool))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "retype":
            key, sep, _ = lines[i].partition(" = ")
            junk = data.draw(st.sampled_from(JUNK))
            lines[i] = key + sep + junk if sep else junk
        elif op == "truncate":
            lines = lines[:i] + [lines[i][:len(lines[i]) // 2]]
        else:
            number = data.draw(st.sampled_from(NUMBERS))
            if re.search(r"\d", lines[i]):
                lines[i] = re.sub(r"-?\d+", number, lines[i], count=1)
            else:
                lines.insert(i, number)
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["d0", "d1"]), data=st.data())
def test_mutated_design_never_raises(sources, which, data):
    texts, work = sources
    path = work / "mutated.design.txt"
    path.write_text(_mutate(texts[which], data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--design", str(path)])
    assert code in (0, 2, 3), err.getvalue()


@pytest.fixture(scope="module")
def rds_source(tmp_path_factory):
    """The text of rds-transfer --d 1's base design, which has every kind of
    section: [design], [members], [forbidden], [transfer], [group],
    [level 0] and [elements]."""
    work = tmp_path_factory.mktemp("repeated")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", "rds-transfer", "--d", "1", "--out", str(work / "r")]) == 0
    return (work / "r.design.txt").read_text(), work


@pytest.mark.parametrize("section", ["design", "members", "forbidden", "transfer",
                                     "level 0", "elements"])
def test_repeated_section_exits_2(rds_source, section):
    """A section repeated right after itself is a parse error naming it, not
    a file whose first copy is silently dropped."""
    text, work = rds_source
    lines = text.split("\n")
    lo = lines.index(f"[{section}]")
    hi = next((i for i in range(lo + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    path = work / "repeated.design.txt"
    path.write_text("\n".join(lines[:hi] + lines[lo:hi] + lines[hi:]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--design", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: section [{section}] appears more than once\n"
