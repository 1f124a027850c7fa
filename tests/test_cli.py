"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from diffsets import DesignSet, abelian_make, serialize, subgroup_closure, verify
from diffsets.cli import FAMILIES, PARAM_FLAGS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_files_and_verifies(tmp_path, capsys):
    out = str(tmp_path / "mcf")
    code, stdout, _ = run(capsys, "construct", "mcfarland",
                          "--q", "2", "--s", "1", "--out", out)
    assert code == 0
    assert "DS(16,6,2) OK, reversible: false" in stdout
    for suffix in (".group.txt", ".design.txt", ".manifest.txt"):
        assert (tmp_path / f"mcf{suffix}").exists()


def test_construct_is_deterministic(tmp_path, capsys):
    out = str(tmp_path / "sp")
    assert run(capsys, "construct", "spence", "--d", "1", "--out", out)[0] == 0
    first = {s: (tmp_path / f"sp{s}").read_bytes()
             for s in (".group.txt", ".design.txt")}
    manifest1 = [ln for ln in (tmp_path / "sp.manifest.txt").read_text().splitlines()
                 if not ln.startswith("elapsed_s")]
    assert run(capsys, "construct", "spence", "--d", "1", "--out", out)[0] == 0
    for s, data in first.items():
        assert (tmp_path / f"sp{s}").read_bytes() == data
    manifest2 = [ln for ln in (tmp_path / "sp.manifest.txt").read_text().splitlines()
                 if not ln.startswith("elapsed_s")]
    assert manifest1 == manifest2


def test_verify_round_trip(tmp_path, capsys):
    out = str(tmp_path / "pcp")
    run(capsys, "construct", "pcp", "--p", "2", "--n", "2", "--s", "2",
        "--out", out)
    code, stdout, _ = run(capsys, "verify", "--design", out + ".design.txt")
    assert code == 0
    assert "PDS(16,6,2,2) OK" in stdout


def test_verify_rds_with_a_large_forbidden_subgroup(tmp_path, capsys):
    """The trivial RDS (2, 2^15, 1, 0) in C2^16 verifies in bounded memory:
    the parse and the subgroup check close the forbidden set from at most 15
    greedy generators, never from its u^2 member products (8 GiB of int64)."""
    g = abelian_make((2,) * 16)
    forbidden = subgroup_closure(g, g.generators[:15])
    path = tmp_path / "rds.design.txt"
    path.write_text(serialize.design_text(
        DesignSet(g, (0,), "RDS", (2, 2 ** 15, 1, 0), forbidden=forbidden)))
    tracemalloc.start()
    try:
        code, stdout, _ = run(capsys, "verify", "--design", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "RDS(2,32768,1,0) OK" in stdout
    assert peak < 64 << 20


@pytest.mark.parametrize("argv, spans", [
    (["construct", "rds-transfer", "--d", "1", "--out", "c"], 0),
    (["transfer", "--family", "rds-transfer", "--d", "1", "--out", "f"], 1),
    (["transfer", "--design", "r.design.txt", "--out", "t"], 2),
    (["verify", "--design", "r.design.txt"], 1),
    (["verify", "--design", "rx.design.txt"], 1),
    (["export", "--design", "rx.design.txt"], 1),
], ids=["construct", "transfer-family", "transfer-design", "verify-base", "verify-lift",
        "export"])
def test_each_command_spans_each_forbidden_subgroup_once(tmp_path, capsys, monkeypatch,
                                                         argv, spans):
    """Every forbidden-set check spans the set through verify.greedy_span;
    a command spans each subgroup it reads or lifts once, and trusts the
    subgroup_closure a family builds.  verify_rds re-checks only a Subgroup
    built by hand."""
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "construct", "rds-transfer", "--d", "1", "--out", "r")[0] == 0
    assert run(capsys, "transfer", "--design", "r.design.txt", "--out", "rx")[0] == 0
    real, seen = verify.greedy_span, []

    def spy(group, members):
        seen.append((id(group), np.asarray(members).tobytes()))
        return real(group, members)

    monkeypatch.setattr(verify, "greedy_span", spy)
    assert run(capsys, *argv)[0] == 0
    assert len(seen) == len(set(seen)) == spans


@pytest.mark.parametrize("line, message", [
    ("4,8,12", "does not contain the identity"),
    ("0,1", "is not closed under inversion"),
    ("0,4,8", "is not closed under the group operation"),
])
def test_forbidden_set_that_is_no_subgroup_exits_3(tmp_path, capsys, line, message):
    """A [forbidden] line that is no subgroup of C4 x C2^4 is named by the
    first property it lacks, at parse time, and nothing is written."""
    assert run(capsys, "construct", "rds-transfer", "--d", "1",
               "--out", str(tmp_path / "r"))[0] == 0
    lines = (tmp_path / "r.design.txt").read_text().split("\n")
    lines[lines.index("[forbidden]") + 1] = line
    path = tmp_path / "bad.design.txt"
    path.write_text("\n".join(lines))
    files = sorted(os.listdir(tmp_path))
    for argv in (["verify", "--design", str(path)],
                 ["transfer", "--design", str(path), "--out", str(tmp_path / "bx")]):
        assert run(capsys, *argv) == (3, "", f"error: forbidden set {message}\n")
        assert sorted(os.listdir(tmp_path)) == files


def test_verify_corrupted_members_exits_3(tmp_path, capsys):
    out = str(tmp_path / "mcf")
    run(capsys, "construct", "mcfarland", "--q", "2", "--s", "1", "--out", out)
    path = tmp_path / "mcf.design.txt"
    lines = path.read_text().splitlines()
    i = lines.index("[members]")
    lines[i + 1] = "7" if lines[i + 1] != "7" else "6"
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "verify", "--design", str(path))
    assert code == 3
    assert "offender" in stderr


@pytest.mark.parametrize("entries, message", [
    (["x7"], "non-integer entry in [members]"),
    (["-5"], "member -5 is out of range for a group of order 16"),
    (["99", "-1"], "member 99 is out of range for a group of order 16"),
    (["99999999999999999999999"],
     "member 99999999999999999999999 is out of range for a group of order 16"),
    (["16", "99999999999999999999999"], "member 16 is out of range for a group of order 16"),
    (["99999999999999999999999", "x"], "non-integer entry in [members]"),
    (["0", "0"], "design members must be distinct"),
])
def test_bad_member_lines_exit_2(tmp_path, capsys, entries, message):
    """Each bad [members] entry exits 2 with one message: a non-integer line
    before any range check, then the first member out of range in file order,
    one above int64 included."""
    run(capsys, "construct", "mcfarland", "--q", "2", "--s", "1", "--out", str(tmp_path / "mcf"))
    path = tmp_path / "mcf.design.txt"
    lines = path.read_text().splitlines()
    i = lines.index("[members]") + 1
    lines[i:i + len(entries)] = entries
    path.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run(capsys, "verify", "--design", str(path))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("line, message", [
    ("0,4,8,12,4", "forbidden element 4 is repeated"),
    ("0,4,8,12,12,8", "forbidden element 8 is repeated"),
    ("0,4,64,-1", "forbidden element 64 is out of range"),
    ("0,99999999999999999999999,64", "forbidden element 99999999999999999999999 is out of range"),
    ("0,4,8,12,4,64", "forbidden element 64 is out of range"),
    ("0,4,x,99999999999999999999999", "bad integer list in [forbidden]: '0,4,x,99999999999999999999999'"),
])
def test_bad_forbidden_line_exits_2(tmp_path, capsys, line, message):
    """A bad [forbidden] line exits 2 with one message: a non-integer entry
    before any range check, then the first element out of range in file
    order, then a repeated element, which used to be dropped silently."""
    run(capsys, "construct", "rds", "--d", "1", "--out", str(tmp_path / "rds"))
    path = tmp_path / "rds.design.txt"
    text = path.read_text()
    assert "[forbidden]\n0,4,8,12\n" in text
    path.write_text(text.replace("[forbidden]\n0,4,8,12\n", f"[forbidden]\n{line}\n", 1))
    code, stdout, stderr = run(capsys, "verify", "--design", str(path))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("family, kind", [(("spence", "--d", "1"), "DS"),
                                          (("pgroup", "--p", "2", "--n", "2"), "PDS")])
@pytest.mark.parametrize("command", ["verify", "transfer"])
def test_forbidden_section_outside_an_rds_exits_2(tmp_path, capsys, family, kind, command):
    """Only an RDS claim reads a forbidden subgroup: a [forbidden] section in
    a DS or PDS file is an error naming the kind, where verify used to
    report it and transfer to drop it."""
    run(capsys, "construct", *family, "--out", str(tmp_path / "d"))
    path = tmp_path / "d.design.txt"
    path.write_text(path.read_text().replace("[transfer]\n", "[forbidden]\n0\n[transfer]\n", 1))
    extra = ["--out", str(tmp_path / "dx")] if command == "transfer" else []
    code, stdout, stderr = run(capsys, command, "--design", str(path), *extra)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: a {kind} has no forbidden subgroup; only an RDS takes one\n"


def test_verify_corrupted_enumeration_exits_2(tmp_path, capsys):
    out = str(tmp_path / "mcf")
    run(capsys, "construct", "mcfarland", "--q", "2", "--s", "1", "--out", out)
    path = tmp_path / "mcf.design.txt"
    lines = path.read_text().splitlines()
    i = lines.index("[elements]")
    lines[i + 1], lines[i + 2] = lines[i + 2], lines[i + 1]
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "verify", "--design", str(path))
    assert code == 2
    assert "corrupted" in stderr


def test_parameter_error_exits_2(capsys):
    code, _, stderr = run(capsys, "construct", "mcfarland-odd",
                          "--q", "3", "--s", "1")
    assert code == 2
    assert "r+1 = 5 is not twice an odd prime" in stderr


def test_unknown_family_exits_2(capsys):
    code, _, stderr = run(capsys, "construct", "nosuch")
    assert code == 2 and "unknown family" in stderr


def test_missing_flag_exits_2(capsys):
    code, _, stderr = run(capsys, "construct", "spence")
    assert code == 2 and "requires --d" in stderr


def test_transfer_from_file(tmp_path, capsys):
    out = str(tmp_path / "sp")
    run(capsys, "construct", "spence", "--d", "1", "--out", out)
    code, stdout, _ = run(capsys, "transfer", "--design", out + ".design.txt",
                          "--out", str(tmp_path / "spt"))
    assert code == 0
    assert "condition (i): pass" in stdout
    assert "condition (iii): pass" in stdout
    assert "abelian = false" in stdout
    assert "DS(351,126,45) OK" in stdout
    # the transferred design file re-verifies
    code2, stdout2, _ = run(capsys, "verify", "--design",
                            str(tmp_path / "spt.design.txt"))
    assert code2 == 0 and "DS(351,126,45) OK" in stdout2


def test_transfer_via_family_flags(tmp_path, capsys):
    code, stdout, _ = run(capsys, "transfer", "--family", "denniston-gr4",
                          "--t", "2", "--k", "1",
                          "--out", str(tmp_path / "dgr"))
    assert code == 0
    assert "PDS(64,18,2,6) OK" in stdout


@pytest.mark.parametrize("flags, named", [
    (("--family", "spence", "--d", "7"), "--family, --d"),
    (("--variant", "2"), "--variant"),
])
def test_transfer_design_with_family_flags_exits_2(tmp_path, capsys, flags, named):
    out = str(tmp_path / "sp")
    run(capsys, "construct", "spence", "--d", "1", "--out", out)
    code, stdout, stderr = run(capsys, "transfer", "--design", out + ".design.txt",
                               *flags, "--out", str(tmp_path / "spt"))
    assert code == 2 and stdout == ""
    assert stderr == ("error: transfer --design takes its instance from the file; "
                      f"drop {named}\n")
    assert not (tmp_path / "spt.design.txt").exists()


def test_identity_transfer_via_file(tmp_path, capsys):
    from diffsets import make_instance, pcp_pds
    from diffsets.serialize import design_text
    d = pcp_pds(2, 2, 2)
    inst = make_instance(d, [], [((), g) for g in d.group.generators])
    path = tmp_path / "ident.design.txt"
    path.write_text(design_text(d, inst))
    code, stdout, _ = run(capsys, "transfer", "--design", str(path),
                          "--out", str(tmp_path / "ident_t"))
    assert code == 0
    assert "abelian = true" in stdout
    assert "PDS(16,6,2,2) OK" in stdout


def test_hand_edited_transfer_gens_exit_3(tmp_path, capsys):
    out = str(tmp_path / "sp")
    run(capsys, "construct", "spence", "--d", "1", "--out", out)
    path = tmp_path / "sp.design.txt"
    lines = path.read_text().splitlines()
    # drop one candidate generator: the closure shrinks, condition (i) fails
    k = next(i for i, ln in enumerate(lines) if ln.startswith("gens = 4"))
    lines[k] = "gens = 3"
    del lines[next(i for i, ln in enumerate(lines) if ln.startswith("gen3 = "))]
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "transfer", "--design", str(path),
                          "--out", str(tmp_path / "spt"))
    assert code == 3
    assert "condition" in stderr


def test_hand_edited_aut_images_exit_3(tmp_path, capsys):
    out = str(tmp_path / "sp")
    run(capsys, "construct", "spence", "--d", "1", "--out", out)
    path = tmp_path / "sp.design.txt"
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("aut0 = ")
             and "[transfer]" in lines[:i][-4:])
    head, _, imgs = lines[i].partition(" = ")
    vals = imgs.split(",")
    vals[0] = "5" if vals[0] != "5" else "6"
    lines[i] = f"{head} = " + ",".join(vals)
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "transfer", "--design", str(path),
                          "--out", str(tmp_path / "spt"))
    assert code == 3


def test_transfer_aut_breaking_a_relation_exits_3(tmp_path, capsys):
    """A bijective [transfer] map that sends a generator of order n to an
    element of another order is named by the relation it breaks."""
    run(capsys, "construct", "spence", "--d", "1", "--out", str(tmp_path / "sp"))
    path = tmp_path / "sp.design.txt"
    lines = path.read_text().splitlines()
    i = lines.index("[transfer]")
    i += next(j for j, ln in enumerate(lines[i:]) if ln.startswith("aut0 = "))
    # C3^3 x C13, generators 1, 3, 9, 27: the shear e_0 -> e_0 + e_3 is a
    # bijection, but 3 (e_0 + e_3) = 3 e_3 is not the identity
    lines[i] = "aut0 = 28,3,9,27"
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "transfer", "--design", str(path),
                          "--out", str(tmp_path / "spt"))
    assert code == 3
    assert ("generator (1,0,0,0) of order 3 goes to (1,0,0,1), which breaks the "
            "relation 3*(1,0,0,0) = identity: 3*(1,0,0,1) = (0,0,0,3)") in stderr
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def lifted_mcfarland(tmp_path_factory):
    """The lifted mcfarland-odd q=7 s=2 design file: its extension level
    lists the 7 automorphisms of a cyclic part, aut0 the identity and aut1 a
    generator of the rest."""
    work = tmp_path_factory.mktemp("mcf7")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "mcfarland-odd", "--q", "7", "--s", "2",
                     "--out", str(work / "m")]) == 0
        assert main(["transfer", "--design", str(work / "m.design.txt"),
                     "--out", str(work / "mx")]) == 0
    return (work / "mx.design.txt").read_text()


def test_parse_certifies_only_new_automorphisms(lifted_mcfarland, monkeypatch):
    """Parsing certifies aut1 alone: aut0 and aut2..aut6 have the generator
    images of products of automorphisms certified before them."""
    real, seen = serialize.aut_from_images, []
    monkeypatch.setattr(serialize, "aut_from_images",
                        lambda group, images: seen.append(images) or real(group, images))
    group = serialize.parse_design(lifted_mcfarland)[0].group
    assert seen == [[1, 8, 56, 2401]]
    gens = list(group.base.generators)
    for perm in group.aut_perms:
        assert np.array_equal(real(group.base, perm[gens]).perm, perm)


@pytest.mark.parametrize("old, new, code, message", [
    ("aut3", "1,8,56,2402", 3,
     "generator (0,0,0,1) of order 58 goes to (1,0,0,7), which breaks the relation "
     "58*(0,0,0,1) = identity: 58*(1,0,0,7) = (2,0,0,0)"),
    ("aut3", "aut2", 2, "element 48 reads '3;1,3,3,0' but the rebuilt group "
                        "enumerates '6;1,3,3,0'; the file is corrupted"),
    ("aut0", "aut1", 2, "[level 1] closure has more than the 19894 elements the file claims"),
], ids=["relation", "copy", "identity-replaced"])
def test_edited_extension_automorphisms(tmp_path, capsys, lifted_mcfarland,
                                        old, new, code, message):
    """An edited automorphism row of the lifted file is still rejected with
    the check that fails: a certified relation, the enumeration, or the
    closure size.  `new` is images or the name of the row to copy."""
    lines = lifted_mcfarland.splitlines()
    rows = {ln.partition(" = ")[0]: i for i, ln in enumerate(lines) if ln.startswith("aut")}
    images = lines[rows[new]].partition(" = ")[2] if new in rows else new
    lines[rows[old]] = f"{old} = {images}"
    path = tmp_path / "edited.design.txt"
    path.write_text("\n".join(lines) + "\n")
    got, _, stderr = run(capsys, "verify", "--design", str(path))
    assert got == code
    assert message in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("entry, message", [
    ("|99999999999999999999", "candidate base element 99999999999999999999 out of range"),
    ("|-1", "candidate base element -1 out of range"),
    ("7|1", "candidate word refers to automorphism 7, but only 1 were given"),
], ids=["huge-base", "negative-base", "word-index"])
def test_out_of_range_transfer_gen_exits_2(tmp_path, capsys, entry, message):
    """Out-of-range [transfer] data is corrupted input (exit 2); only an
    automorphism that moves the design is a failed check (exit 3)."""
    run(capsys, "construct", "dillon", "--out", str(tmp_path / "dl"))
    path = tmp_path / "dl.design.txt"
    lines = path.read_text().splitlines()
    i = lines.index("[transfer]")
    i += next(j for j, ln in enumerate(lines[i:]) if ln.startswith("gen0 = "))
    lines[i] = f"gen0 = {entry}"
    path.write_text("\n".join(lines) + "\n")
    before = sorted(tmp_path.iterdir())
    code, _, stderr = run(capsys, "transfer", "--design", str(path),
                          "--out", str(tmp_path / "dlx"))
    assert code == 2
    assert message in stderr and "Traceback" not in stderr
    assert sorted(tmp_path.iterdir()) == before


def test_condition_iii_failure_from_file_exits_3(tmp_path, capsys, v4_swap):
    path = tmp_path / "v4.design.txt"
    path.write_text(serialize.design_text(v4_swap.design, v4_swap))
    code, stdout, stderr = run(capsys, "transfer", "--design", str(path),
                               "--out", str(tmp_path / "v4x"))
    assert (code, stdout) == (3, "")
    assert stderr.startswith("error: ") and "condition (iii): fail" in stderr
    assert "Traceback" not in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v4.design.txt"]


def test_transfer_failure_reports_witness(capsys, tmp_path):
    code, _, stderr = run(capsys, "transfer", "--family", "rds-transfer",
                          "--d", "2", "--out", str(tmp_path / "r"))
    assert code == 3
    assert "self-paired slots" in stderr


def test_export_edges_regularity(tmp_path, capsys):
    run(capsys, "transfer", "--family", "denniston-gr4", "--t", "2", "--k", "1",
        "--out", str(tmp_path / "dgr"))
    out = str(tmp_path / "dgr.edges")
    code, stdout, _ = run(capsys, "export", "--design",
                          str(tmp_path / "dgr.design.txt"),
                          "--format", "edges", "--out", out)
    assert code == 0
    assert "64 vertices" in stdout
    deg = {}
    for ln in (tmp_path / "dgr.edges").read_text().splitlines():
        if ln.startswith("#"):
            continue
        u, v = map(int, ln.split())
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert len(deg) == 64 and set(deg.values()) == {18}


def test_export_dot(tmp_path, capsys):
    run(capsys, "construct", "pcp", "--p", "2", "--n", "2", "--s", "2",
        "--out", str(tmp_path / "pcp"))
    code, stdout, _ = run(capsys, "export", "--design",
                          str(tmp_path / "pcp.design.txt"), "--format", "dot",
                          "--out", str(tmp_path / "pcp.dot"))
    assert code == 0
    text = (tmp_path / "pcp.dot").read_text()
    assert text.splitlines()[2].startswith("graph ")
    assert text.rstrip().endswith("}")


def test_unwritable_out_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing_dir" / "x")
    code, _, stderr = run(capsys, "construct", "mcfarland", "--q", "2", "--s", "1",
                          "--out", missing)
    assert code == 2 and "cannot write" in stderr
    run(capsys, "construct", "mcfarland", "--q", "2", "--s", "1",
        "--out", str(tmp_path / "mcf"))
    code, _, stderr = run(capsys, "export", "--design", str(tmp_path / "mcf.design.txt"),
                          "--out", missing)
    assert code == 2 and "cannot write" in stderr


def test_missing_file_exits_2(capsys):
    code, _, stderr = run(capsys, "verify", "--design", "/nonexistent.txt")
    assert code == 2 and "cannot read" in stderr


@pytest.mark.parametrize("key", ["levels", "size", "auts", "gens"])
def test_non_integer_count_exits_2(tmp_path, capsys, key):
    from diffsets import (DesignSet, abelian_make, aut_from_images,
                          extension_closure, make_instance)
    from diffsets.serialize import design_text
    c4 = abelian_make((4,))
    d8 = extension_closure(c4, [aut_from_images(c4, [3])], [((), 1), ((0,), 0)])
    d = DesignSet(d8, (0,), "DS", (8, 1, 0))
    inst = make_instance(d, [], [((), g) for g in d8.generators])
    path = tmp_path / "d8.design.txt"
    path.write_text(design_text(d, inst))
    assert run(capsys, "verify", "--design", str(path))[0] == 0
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key} = "))
    lines[i] = f"{key} = one"
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "verify", "--design", str(path))
    assert code == 2
    assert f"{key}: 'one'" in stderr and "Traceback" not in stderr


def test_oversized_group_exits_2(tmp_path, capsys):
    out = str(tmp_path / "mcf")
    run(capsys, "construct", "mcfarland", "--q", "2", "--s", "1", "--out", out)
    path = tmp_path / "mcf.design.txt"
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("orders = "))
    lines[i] = "orders = 4000000,4000000"
    path.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "verify", "--design", str(path))
    assert code == 2
    assert "exceeds the supported maximum" in stderr and "Traceback" not in stderr


def test_extension_level_above_the_ceiling_exits_2(tmp_path, capsys, monkeypatch):
    """An extension level's claimed size is checked against the ceiling
    before it is certified or closed: mcfarland-even d = 2 variant 3's file
    has a bottom level of order 48 and an extension level of size 96."""
    from diffsets import groups
    out = str(tmp_path / "m")
    assert run(capsys, "construct", "mcfarland-even", "--d", "2", "--variant", "3",
               "--out", out)[0] == 0
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 64)
    code, stdout, stderr = run(capsys, "verify", "--design", f"{out}.design.txt")
    assert (code, stdout) == (2, "")
    assert stderr == "error: group order 96 exceeds the supported maximum of 64\n"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def _far(family, *flags):
    return pytest.param([family, *flags], id="-".join((family,) + flags[1::2]))


@pytest.mark.parametrize("argv", [
    ["denniston-gr4", "--t", "8", "--k", "1"],
    ["denniston-odd", "--p", "3", "--t", "2"],
    ["rds", "--d", "12"],
    ["rds-transfer", "--d", "12"],
    ["mcfarland", "--q", "2", "--s", "12"],
    # far above the ceiling: the order is judged from exponents, before any
    # power of a parameter or tuple of factors is formed
    _far("denniston-even", "--m", "1000000000", "--r", "1"),
    _far("denniston-gr4", "--t", "1000000000", "--k", "1"),
    _far("mcfarland-even", "--d", "1000000000"),
    _far("rds", "--d", "1000000000"),
    _far("rds-transfer", "--d", "1000000000"),
    _far("denniston-odd", "--p", "3", "--t", "100000000"),
    _far("denniston-odd", "--p", "99999999999999999989", "--t", "1"),
    _far("denniston-odd", "--p", "1009", "--t", "1"),
    _far("spence", "--d", "1000000000"),
    _far("pgroup", "--p", "3", "--n", "1000000000"),
    _far("mcfarland", "--q", "3", "--s", "1000000000"),
    _far("mcfarland-odd", "--q", "3", "--s", "1000000000"),
    _far("pcp", "--p", "3", "--n", "1000000000", "--s", "2"),
], ids=lambda argv: argv[0])
def test_oversized_family_fails_fast(tmp_path, argv):
    """Each family checks its group's order before it builds powers, factor
    tuples, fields, rings, planes or members, so an oversized request exits 2
    within seconds, and its message formats no huge integer."""
    proc = subprocess.run(
        [sys.executable, "-m", "diffsets", "construct", *argv, "--out", str(tmp_path / "x")],
        env=_src_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "group order" in proc.stderr and "exceeds the supported maximum" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_tracer_hooks_resolve():
    """The benchmark's tracer wraps CLI, family, field, serialize and transfer
    module attributes by name; each of them must still exist."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import passes; passes.install_tracer(passes.Tracer('t'))"],
        cwd=os.path.join(ROOT, "perfbench"), env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


NUMPY_MA_SCRIPT = """
import os, sys
import numpy
preloaded = "numpy.ma" in sys.modules
from diffsets import cayley_srg_check, cli
from diffsets.serialize import parse_design
os.chdir(sys.argv[1])
for family, flags in (("denniston-even", ["--m", "3", "--r", "1"]),
                      ("denniston-gr4", ["--t", "3", "--k", "3"])):
    assert cli.main(["construct", family, *flags, "--out", "d"]) == 0
    assert cli.main(["transfer", "--design", "d.design.txt", "--out", "dx"]) == 0
    assert cli.main(["verify", "--design", "dx.design.txt"]) == 0
    for path in ("d.design.txt", "dx.design.txt"):
        with open(path, encoding="utf-8") as fh:
            cayley_srg_check(parse_design(fh.read())[0])
print(" ".join(sorted({"argparse", "gettext", "locale"} & set(sys.modules))))
print("preloaded" if preloaded else "numpy.ma" in sys.modules)
"""


def test_pipeline_never_loads_numpy_ma(tmp_path):
    """Under numpy 2 a plain np.unique imports numpy.ma, about 15 ms; no
    stage from construct to the SRG check may pay it.  The SRG check runs on
    the base and lifted designs of both families, all four by the character
    route.  Nor does any stage import argparse, gettext or locale: with the
    parser tree they served, they took a few ms of the first command."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == ""
    if proc.stdout.strip().endswith("preloaded"):
        pytest.skip("importing numpy alone loads numpy.ma (numpy 1.x)")
    assert proc.stdout.strip().endswith("False")


@pytest.mark.parametrize("command", ["verify", "export", "transfer"])
@pytest.mark.parametrize("damage", ["bom", "one-byte"])
def test_non_utf8_design_exits_2(tmp_path, capsys, command, damage):
    """A design file that is not UTF-8 is a parse error naming the path and
    the offending byte's offset, not a UnicodeDecodeError traceback."""
    path = tmp_path / "bad.txt"
    if damage == "bom":
        path.write_bytes(b"\xff\xfe\x00bad")
        offset = 0
    else:
        run(capsys, "transfer", "--family", "denniston-gr4", "--t", "2", "--k", "1",
            "--out", str(tmp_path / "dgr"))
        data = bytearray((tmp_path / "dgr.design.txt").read_bytes())
        offset = data.index(b"[members]") + 3
        data[offset] = 0xFF
        path.write_bytes(bytes(data))
    code, stdout, stderr = run(capsys, command, "--design", str(path))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {path} is not UTF-8 text: byte 0xff at offset {offset}\n"


# good calls with usage errors (exit 2) and --help (exit 0) between them,
# every path relative to the working directory
PARSER_SEQUENCE = [
    ["construct", "denniston-gr4", "--t", "2", "--k", "1", "--out", "g"],
    ["construct", "--bogus"],
    ["verify"],
    ["construct", "nosuch"],
    ["construct", "spence"],
    ["--help"],
    ["transfer", "--design", "g.design.txt", "--out", "gx"],
    ["transfer", "--family", "denniston-gr4", "--t", "2", "--k", "1", "--out", "gf"],
    ["verify", "--design", "gx.design.txt"],
    ["export", "--design", "gx.design.txt", "--format", "xml"],
    ["export", "--design", "gx.design.txt"],
    ["construct", "denniston-gr4", "--t", "2", "--k", "1", "--out", "g"],
]


def _run_sequence(capsys, workdir, fresh_process):
    outcomes = []
    for argv in PARSER_SEQUENCE:
        if fresh_process:
            proc = subprocess.run([sys.executable, "-m", "diffsets", *argv], cwd=workdir,
                                  env=_src_env(), capture_output=True, text=True)
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        else:
            code = main(argv)
            outcomes.append((code,) + tuple(capsys.readouterr()))
    files = {path.name: [ln for ln in path.read_text(encoding="utf-8").splitlines()
                         if not ln.startswith("elapsed_s")]
             for path in sorted(workdir.iterdir())}
    return outcomes, files


def test_reused_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    """Calls of main one after another in one process give the exit code,
    stdout, stderr and output files that each call gives in a fresh
    interpreter: no call leaves state behind for the next."""
    runs = []
    for fresh in (True, False):
        workdir = tmp_path / ("fresh" if fresh else "reused")
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        runs.append(_run_sequence(capsys, workdir, fresh))
    (fresh_outcomes, fresh_files), (reused_outcomes, reused_files) = runs
    assert [o[0] for o in reused_outcomes] == [0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 0, 0]
    assert reused_outcomes == fresh_outcomes
    assert reused_files == fresh_files and len(reused_files) == 10


# (argv, the one stderr line); {d} is a design file with transfer data
USAGE_ERRORS = [
    ([], "no command given; choose from construct, transfer, verify, export "
         "(see diffsets --help)"),
    (["frobnicate"], "unknown command 'frobnicate'; choose from construct, transfer, "
                     "verify, export (see diffsets --help)"),
    (["--bogus"], "diffsets takes no option --bogus; see diffsets --help"),
    (["construct"], "construct requires FAMILY"),
    (["construct", "--out", "o"], "construct requires FAMILY"),
    (["verify"], "verify requires --design"),
    (["export", "--format", "dot"], "export requires --design"),
    (["transfer", "--out", "o"], "transfer needs --design FILE or --family NAME"),
    (["construct", "denniston-even", "--m", "x", "--r", "1"], "--m takes an integer, not 'x'"),
    (["construct", "spence", "--d=1.5"], "--d takes an integer, not '1.5'"),
    (["transfer", "--family", "spence", "--d", ""], "--d takes an integer, not ''"),
    (["export", "--design", "{d}", "--format", "xml"],
     "--format is one of edges, dot, not 'xml'"),
    (["construct", "spence", "--d"], "--d needs a value"),
    (["construct", "spence", "--out", "--d", "1"], "--out needs a value"),
    (["verify", "--design", "--help"], "--design needs a value"),
    (["construct", "spence", "--d", "1", "extra"], "unexpected argument 'extra' to construct"),
    (["verify", "--design", "{d}", "extra"], "unexpected argument 'extra' to verify"),
    (["construct", "spence", "--bogus", "1"],
     "diffsets construct takes no option --bogus; see diffsets construct --help"),
    (["construct", "spence", "-d", "1"],
     "diffsets construct takes no option -d; see diffsets construct --help"),
    (["construct", "spence", "--", "--d", "1"],
     "diffsets construct takes no option --; see diffsets construct --help"),
    (["verify", "--design", "{d}", "--out", "o"],
     "diffsets verify takes no option --out; see diffsets verify --help"),
    (["construct", "spence", "--format", "dot"],
     "diffsets construct takes no option --format; see diffsets construct --help"),
    (["construct", "nosuch"], "unknown family 'nosuch'; choose from "
                              + ", ".join(sorted(FAMILIES))),
    (["construct", "spence", "--d", "1", "--m", "2"], "family 'spence' does not take --m"),
    (["transfer", "--family", "denniston-odd", "--p", "3"],
     "family 'denniston-odd' requires --t"),
    (["construct", "denniston-even", "--m", "-1", "--r", "1"], "need m >= 2 and 1 <= r < m"),
]


@pytest.fixture(scope="module")
def transfer_file(tmp_path_factory):
    work = tmp_path_factory.mktemp("source")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "dillon", "--out", str(work / "d")]) == 0
    return str(work / "d.design.txt")


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "(none)" for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_2(tmp_path, capsys, monkeypatch, transfer_file, argv, message):
    """Each usage error exits 2 with its one error line, prints nothing to
    stdout and writes no file."""
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *(a.format(d=transfer_file) for a in argv))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, same_as", [
    (["construct", "spence", "--d=1", "--out=a"], ["construct", "spence", "--d", "1", "--out", "a"]),
    (["construct", "--d", "1", "spence", "--out", "a"],
     ["construct", "spence", "--d", "1", "--out", "a"]),
    (["construct", "rds-transfer", "--d", "1", "--var", "2", "--o", "a"],
     ["construct", "rds-transfer", "--d", "1", "--variant", "2", "--out", "a"]),
    (["construct", "spence", "--d", "7", "--d", "1", "--out", "b", "--out", "a"],
     ["construct", "spence", "--d", "1", "--out", "a"]),
    (["transfer", "--fam", "rds-transfer", "--d", "1", "--out", "a"],
     ["transfer", "--family", "rds-transfer", "--d", "1", "--out", "a"]),
    (["transfer", "--de=d.design.txt", "--out", "a"],
     ["transfer", "--design", "d.design.txt", "--out", "a"]),
    (["export", "--des", "d.design.txt", "--f=dot", "--out", "a"],
     ["export", "--design", "d.design.txt", "--format", "dot", "--out", "a"]),
    (["construct", "mcfarland-even", "--d", "2"],
     ["construct", "mcfarland-even", "--d", "2", "--variant", "1"]),
], ids=lambda x: " ".join(x))
def test_argument_forms_agree(tmp_path, capsys, monkeypatch, argv, same_as):
    """--flag=value, a positional after a flag, unique prefixes, a repeated
    flag (the last value counts) and a left-out default read as the plain
    spelling: the same exit code, output and files."""
    outcomes = []
    for which, call in (("form", argv), ("plain", same_as)):
        work = tmp_path / which
        work.mkdir()
        monkeypatch.chdir(work)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", "dillon", "--out", "d"]) == 0
        outcomes.append((run(capsys, *call), {
            path.name: [ln for ln in path.read_text(encoding="utf-8").splitlines()
                        if not ln.startswith("elapsed_s")]
            for path in sorted(work.iterdir())}))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == 0 and len(outcomes[0][1]) > 3


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["-h", "construct"],
                                  ["construct", "--help"], ["construct", "spence", "-h"],
                                  ["transfer", "--h"], ["verify", "-h"], ["export", "--help"]],
                         ids=lambda x: " ".join(x))
def test_help_exits_0(tmp_path, capsys, monkeypatch, argv):
    """Help at the top level names every command, family and flag; a
    command's help names its flags and, if it takes a family, every family and
    its parameters."""
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stderr) == (0, "")
    assert not list(tmp_path.iterdir())
    command = argv[0] if argv[0] in ("construct", "transfer", "verify", "export") else None
    words = set(stdout.replace("[", " ").replace("]", " ").split())
    takes = {"construct": ["out"], "transfer": ["design", "family", "out"],
             "verify": ["design"], "export": ["design", "format", "out"]}
    for name, flags in takes.items():
        if command in (None, name):
            assert f"diffsets {name} " in stdout
            assert {f"--{flag}" for flag in flags} <= words
    if command in (None, "construct", "transfer"):
        assert set(FAMILIES) | {f"--{flag}" for flag in PARAM_FLAGS} <= words
    else:
        assert "--d" not in words and "spence" not in words
    assert "-h" in words and "--help" in words

