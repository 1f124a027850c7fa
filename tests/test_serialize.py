"""Text round trips, parse-time re-certification, and graph exports."""

import functools
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from diffsets import serialize
from diffsets import (
    AbelianGroup,
    DesignSet,
    ForbiddenNotSubgroup,
    ParseError,
    abelian_make,
    aut_from_images,
    extension_closure,
    make_instance,
    mcfarland_base,
    pcp_pds,
    rds_base,
    transfer_pds,
    transfer_rds,
)
from diffsets.groups import group_levels
from diffsets.serialize import (
    _element_text,
    _sections,
    _split_sections,
    cayley_export,
    design_text,
    dot_text,
    group_text,
    parse_design,
    parse_group_sections,
)


def _edges_text(design):
    head, arcs, tail = cayley_export(design, "edges")
    return head + "".join(arcs) + tail


def test_abelian_design_round_trip():
    d = mcfarland_base(2, 1)
    txt = design_text(d)
    d2, inst = parse_design(txt)
    assert inst is None
    assert d2.members.tolist() == d.members.tolist()
    assert d2.kind == d.kind and d2.claimed == d.claimed
    assert design_text(d2) == txt


def test_group_round_trip_abelian():
    g = abelian_make((4, 2, 3))
    txt = group_text(g)
    g2 = parse_group_sections(_split_sections(txt))
    assert g2.size == g.size
    assert group_text(g2) == txt


def test_extension_design_round_trip(corpus):
    _, rep = corpus["spence_d1"]
    txt = design_text(rep.new_design)
    d2, _ = parse_design(txt)
    assert d2.members.tolist() == rep.new_design.members.tolist()
    assert design_text(d2) == txt
    # the rebuilt group multiplies identically
    for z in (0, 1, 17, 350):
        assert d2.group.mul(z, 17) == rep.new_group.mul(z, 17)


def test_nested_extension_round_trip(corpus):
    _, rep = corpus["mcfarland_even_d2_v3"]
    txt = design_text(rep.new_design)
    d2, _ = parse_design(txt)
    assert d2.members.tolist() == rep.new_design.members.tolist()
    assert design_text(d2) == txt


def _element_line(group, z):
    """One [elements] line, element by element: the digits of an abelian
    element, or "a;" before the base element's line."""
    if isinstance(group, AbelianGroup):
        return ",".join(str(d) for d in oracle.decode(group.orders, z))
    a, b = group.pair_of(z)
    return f"{a};{_element_line(group.base, b)}"


def test_element_lines_spelled_out(corpus):
    """The [elements] table of every corpus closure, the nested one among
    them, reads as each element spelled out on its own."""
    for _, rep in corpus.values():
        if rep.new_group is None:
            continue
        g = rep.new_group
        lines = group_text(g).splitlines()
        got = lines[lines.index("[elements]") + 1:]
        assert got == [_element_line(g, z) for z in range(g.size)]


def _assert_spelled_out(group):
    got = _element_text(group_levels(group))
    want = "".join(_element_line(group, z) + "\n" for z in range(group.size))
    same = got == want  # not asserted directly: pytest's diff of 10^5 lines takes minutes
    assert same, next(((z, x, y) for z, (x, y) in enumerate(zip(got.split("\n"),
                                                                 want.split("\n")))
                       if x != y), "the line counts differ")


@pytest.mark.parametrize("orders", [
    (2048,),  # one factor above the low-table bound
    (3,) * 6 + (364,),  # a lone factor above BLOCK_ORDER, ragged widths
    (7, 7, 7, 58),
    (2,) * 12,
    (999,), (1000,), (1001,), (12345,),  # numerals around and above 1000
    (1 << 20,),
], ids=["C2048", "C3^6xC364", "C7^3xC58", "C2^12", "C999", "C1000", "C1001", "C12345",
        "C2^20"])
def test_element_text_abelian_spelled_out(orders):
    """The byte-string [elements] text of an abelian group, NUL padding
    stripped and low digits before high ones, reads as each element spelled
    out on its own."""
    g = abelian_make(orders)
    _assert_spelled_out(g)


def test_element_text_extensions_spelled_out(corpus):
    """Extension levels: C23 under x -> 5x has 22 automorphisms, so its "a;"
    prefixes are one and two digits wide; the nested corpus closure stacks
    two extension levels."""
    c23 = abelian_make((23,))
    holo = extension_closure(c23, [aut_from_images(c23, [5])], [((0,), 0), ((), 1)],
                             cap=23 * 22)
    assert holo.aut_perms.shape[0] == 22 and holo.size == 23 * 22
    nested = corpus["mcfarland_even_d2_v3"][1].new_group
    assert len(group_levels(nested)) == 3
    for g in (holo, nested):
        _assert_spelled_out(g)


def test_transfer_instance_round_trip(corpus):
    inst, rep = corpus["spence_d1"]
    txt = design_text(inst.design, inst)
    d2, inst2 = parse_design(txt)
    assert inst2 is not None
    rep2 = transfer_pds(inst2)
    assert rep2.verified.params == rep.verified.params
    assert rep2.new_design.members.tolist() == rep.new_design.members.tolist()
    assert design_text(d2, inst2) == txt


def test_rds_round_trip_with_forbidden(corpus):
    inst, rep = corpus["rds_d1_v1"]
    txt = design_text(inst.design, inst)
    d2, inst2 = parse_design(txt)
    assert d2.forbidden is not None and d2.forbidden.order == 4
    rep2 = transfer_rds(inst2)
    assert rep2.verified.params == (16, 4, 16, 4)


@pytest.mark.parametrize("section", ["transfer", "level 1"])
def test_short_automorphism_row_names_section_and_counts(corpus, section):
    """[transfer] and an extension level share one reader of their
    automorphism rows: a row one image short is named with both counts."""
    inst, rep = corpus["spence_d1"]  # C3^3 x C13, four generators
    text = (design_text(inst.design, inst) if section == "transfer"
            else design_text(rep.new_design))
    lines = text.split("\n")
    i = lines.index(f"[{section}]")
    i += next(j for j, ln in enumerate(lines[i:]) if ln.startswith("aut0 = "))
    lines[i] = lines[i].rpartition(",")[0]
    with pytest.raises(ParseError, match=re.escape(
            f"[{section}] aut0 has 3 images, but the group it acts on has 4 generators")):
        parse_design("\n".join(lines))


def test_corrupted_enumeration_rejected():
    txt = design_text(mcfarland_base(2, 1))
    lines = txt.splitlines()
    i = lines.index("[elements]")
    lines[i + 6], lines[i + 7] = lines[i + 7], lines[i + 6]
    with pytest.raises(ParseError, match=re.escape(
            "element 5 reads '0,1,1' but the rebuilt group enumerates '1,0,1'; "
            "the file is corrupted")):
        parse_design("\n".join(lines) + "\n")


def test_element_lines_read_as_split_sections_leaves_them(corpus):
    """CRLF line ends, indented element lines, and a blank line and a "#"
    comment inside [elements] still load: the parse compares the element
    lines stripped and filtered as every other section's."""
    _, rep = corpus["spence_d1"]
    txt = design_text(rep.new_design)
    lines = txt.splitlines()
    i = lines.index("[elements]")
    lines[i + 1:] = ["  " + ln if z % 2 else "\t" + ln + " " for z, ln in enumerate(lines[i + 1:])]
    lines[i + 4:i + 4] = ["", "  # a comment", " \t"]
    d2, _ = parse_design("\r\n".join(lines) + "\r\n")
    assert d2.members.tolist() == rep.new_design.members.tolist()
    assert design_text(d2) == txt


def _outcome(text):
    """The parsed design re-rendered, or the type and message of the error."""
    try:
        design, inst = parse_design(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return "loaded", design_text(design, inst)


def _outcome_by_lines(text, monkeypatch):
    """_outcome through the oracle's line path: every line split, and the
    [elements] lines compared with the rebuilt table one at a time."""
    with monkeypatch.context() as m:
        m.setattr(serialize, "_sections",
                  lambda t: (oracle.split_sections(t, ParseError), -1))
        m.setattr(serialize, "_check_element_lines",
                  functools.partial(oracle.check_element_lines, error=ParseError))
        return _outcome(text)


_DIFFERENTIAL = ["mcfarland_even_d2_v3", "rds_d1_v1", "spence_d1", "pgroup_3_2_s2"]
_HEADER = "\n[elements]\n"


def _texts(corpus, name):
    """The lifted design of a corpus instance, and its base design with the
    [transfer] data."""
    inst, rep = corpus[name]
    return [design_text(rep.new_design), design_text(inst.design, inst)]


def test_every_corpus_file_compares_its_table_in_place(corpus, monkeypatch):
    """Every corpus design file, base and lifted, leaves its [elements] body
    unsplit, and loads exactly as the line path loads it."""
    for name in corpus:
        for text in _texts(corpus, name):
            assert _sections(text)[1] == text.index(_HEADER) + len(_HEADER)
            assert _outcome(text) == ("loaded", text) == _outcome_by_lines(text, monkeypatch)


_TAIL_OPS = ["break", "indent", "blank", "comment", "header", "swap", "drop", "dup",
             "trail", "unterminated", "section"]


def _mutate_tail(text, data):
    """The text with its [elements] table edited line by line: other line
    breaks, indented, blank, "#" and "[x]" lines, swapped, dropped and
    duplicated lines, a line after the table, no final newline, or a second
    [elements] or [members] section after the table."""
    cut = text.rindex(_HEADER) + len(_HEADER)
    rows = [[line, "\n"] for line in text[cut:].split("\n")[:-1]]
    for _ in range(data.draw(st.integers(0, 3))):
        op = data.draw(st.sampled_from(_TAIL_OPS))
        i = data.draw(st.integers(0, len(rows) - 1))
        if op == "break":
            rows[i][1] = data.draw(st.sampled_from(["\r\n", "\r", "\x85"]))
        elif op == "indent":
            rows[i][0] = (data.draw(st.sampled_from([" ", "\t", "  "])) + rows[i][0]
                          + data.draw(st.sampled_from(["", " ", "\t"])))
        elif op in ("blank", "comment", "header"):
            line = {"blank": data.draw(st.sampled_from(["", " ", "\t "])),
                    "comment": "# a note", "header": "[x]"}[op]
            rows.insert(i, [line, "\n"])
        elif op == "swap":
            j = data.draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "drop" and len(rows) > 1:
            del rows[i]
        elif op == "dup":
            rows.insert(i, list(rows[i]))
        elif op == "trail":
            rows.append([data.draw(st.sampled_from(["", " ", "# a note", rows[i][0]])), "\n"])
        elif op == "unterminated":
            rows[-1][1] = ""
        elif op == "section":
            rows[-1][1] = "\n"
            head = data.draw(st.sampled_from(["[elements]", "[members]"]))
            rows += [[head, "\n"]] + [list(r) for r in rows[:data.draw(st.integers(0, 3))]]
    return text[:cut] + "".join(line + brk for line, brk in rows)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_DIFFERENTIAL), lifted=st.booleans(), data=st.data())
def test_parse_matches_the_line_path(corpus, monkeypatch, name, lifted, data):
    """A file whose [elements] table is edited loads to the same design as
    the oracle's line path loads it, or fails with the same error type and
    message."""
    text = _mutate_tail(_texts(corpus, name)[0 if lifted else 1], data)
    assert _outcome(text) == _outcome_by_lines(text, monkeypatch)


def test_parse_peak_memory(corpus):
    """Parsing the denniston-odd p = 3, t = 1 base design (C3^9, with its
    [transfer] data) holds the file's text once, not its lines as well: the
    traced peak stays under 2.5 MiB (3.4 MiB when every line was split)."""
    inst, _ = corpus["denniston_odd_p3_t1"]
    text = design_text(inst.design, inst)
    parse_design(text)  # per-process caches, such as the field's, are not the parse's
    tracemalloc.start()
    try:
        design, _ = parse_design(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.members.tolist() == inst.design.members.tolist()
    assert peak < 2.5 * 2 ** 20, peak


def test_truncated_enumeration_rejected():
    txt = design_text(mcfarland_base(2, 1))
    lines = txt.splitlines()
    i = lines.index("[elements]")
    del lines[i + 3]
    with pytest.raises(ParseError):
        parse_design("\n".join(lines) + "\n")


def test_member_out_of_range_rejected():
    txt = design_text(mcfarland_base(2, 1))
    lines = txt.splitlines()
    i = lines.index("[members]")
    lines[i + 1] = "99"
    with pytest.raises(ParseError, match="out of range"):
        parse_design("\n".join(lines) + "\n")


def test_forbidden_must_close():
    txt = design_text(rds_base(1))
    lines = txt.splitlines()
    i = lines.index("[forbidden]")
    lines[i + 1] = lines[i + 1].rsplit(",", 1)[0] + ",3"
    with pytest.raises(ForbiddenNotSubgroup):
        parse_design("\n".join(lines) + "\n")


def test_missing_sections_rejected():
    with pytest.raises(ParseError):
        parse_design("[design]\nkind = DS\nclaimed = 7,3,1\n")
    with pytest.raises(ParseError):
        parse_group_sections(_split_sections("[group]\nlevels = 1\n"))


def test_split_sections_rules():
    """Lines are stripped; blank lines and "#" comments are dropped anywhere;
    a stripped line in brackets opens a section; a line break may be any that
    str.splitlines knows."""
    text = "# tag\r\n\n  [a]  \nx = 1\n  # note\n\t y = 2 \r\n[b]\x85[c\n]\n#[d]\n[]\n"
    assert _split_sections(text) == [("a", ["x = 1", "y = 2"]), ("b", ["[c", "]"]), ("", [])]
    assert _split_sections("") == [] and _split_sections("\n# c\n") == []
    assert oracle.split_sections(text, ParseError) == _split_sections(text)
    for split in (_split_sections, functools.partial(oracle.split_sections, error=ParseError)):
        with pytest.raises(ParseError, match=r"^line 3: content before any section header: 'x'$"):
            split("# c\n\n x \n[a]\n")


def test_edges_undirected_convention():
    d = pcp_pds(2, 2, 2)  # regular PDS: inverse closed, no identity
    txt = _edges_text(d)
    head = txt.splitlines()[0]
    assert "graph" in head and "digraph" not in head
    pairs = [tuple(map(int, ln.split())) for ln in txt.splitlines()
             if not ln.startswith("#")]
    assert len(pairs) == 16 * 6 // 2
    assert all(u <= v for u, v in pairs)
    assert len(set(pairs)) == len(pairs)
    # degree of each vertex is k
    deg = {}
    for u, v in pairs:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert set(deg.values()) == {6}


def test_edges_directed_convention():
    d = mcfarland_base(2, 1)  # not inverse closed
    txt = _edges_text(d)
    assert "digraph" in txt.splitlines()[0]
    arcs = [tuple(map(int, ln.split())) for ln in txt.splitlines()
            if not ln.startswith("#")]
    assert len(arcs) == 16 * 6
    members = set(d.members)
    for u, v in arcs[:50]:
        assert d.group.mul(v, d.group.inv(u)) in members


def test_edges_loops_when_identity_present():
    g = abelian_make((4,))
    d = DesignSet(g, (0, 1, 3), "DS", (4, 3, 2))
    txt = _edges_text(d)
    pairs = [tuple(map(int, ln.split())) for ln in txt.splitlines()
             if not ln.startswith("#")]
    assert (0, 0) in pairs  # identity member yields a loop at every vertex
    assert (2, 2) in pairs


def test_dot_output_shape():
    d = pcp_pds(2, 2, 2)
    txt = dot_text(d)
    lines = txt.splitlines()
    assert lines[2].startswith("graph ")
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if " -- " in ln and ln.endswith(";")) == 48
