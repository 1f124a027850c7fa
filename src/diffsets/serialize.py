"""Line-oriented text serialization for groups, designs, and Cayley graphs.

Files are UTF-8 text with bracketed section headers.  A group is stored as a
stack of levels (the innermost abelian group first, one section per extension
layer), followed by its full element enumeration, one element per line, as
comma-separated exponent tuples (extension elements prefix the automorphism
part with a semicolon).  Parsing does not trust the file: automorphisms are
re-certified (groups.aut_from_images) unless they are products of ones
certified before them, closures are re-run, and the stored
enumeration is compared against the rebuilt group, so corrupted group data
cannot load.  The enumeration is one text, built from fixed-width
byte-string arrays with no Python step per element: an abelian line is a
table of leading digits joined to a table of the rest, an extension line is
its automorphism's prefix "a;" plus its base line.  A table that ends the
file is compared with it in place; the line path reads any other text.

Design files embed their group, the member indices (one per line), the
forbidden subgroup for relative difference sets, and optionally the transfer
data (automorphism images and candidate generator words) needed to rebuild a
TransferInstance.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ClosureOverflow, ParameterError, ParseError
from .groups import (
    AbelianGroup,
    ExtensionGroup,
    Group,
    GroupAutomorphism,
    abelian_make,
    aut_from_images,
    check_order,
    close_automorphisms,
    extension_closure,
    factor_runs,
    group_levels,
)
from .transfer import GenWord, TransferInstance, make_instance
from .verify import DesignSet, forbidden_subgroup

FORMAT_TAG = "diffsets-text-1"
_MARKED = re.compile(r"\n[\[#]")  # a line starting "[" or "#"
_ELEMENTS = "\n[elements]\n"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# largest table of leading digits an abelian level's lines are joined from
_LOW_ORDER = 1024


def _numerals(n: int) -> np.ndarray:
    """str(d) for d < n, NUL-padded bytes: cast (0.33 us an entry) below 1000,
    else str(d // 1000) joined to d % 1000 padded to three digits."""
    if n <= 1000:
        return np.arange(n).astype(f"S{len(str(n - 1))}")
    low, high = _numerals(1000), _numerals((n - 1) // 1000 + 1)[1:]
    return np.concatenate([low, (high[:, None] + np.char.zfill(low, 3)).ravel()[:n - 1000]])


def _digit_lines(orders: Sequence[int]) -> np.ndarray:
    """"d_0,d_1,..." for every index d_0 + n_0 * (d_1 + ...) over `orders`, as
    a NUL-padded byte-string array grown one factor at a time, d_0 fastest."""
    out = _numerals(orders[0])
    for n in orders[1:]:
        out = (out[None, :] + (b"," + _numerals(n))[:, None]).ravel()
    return out


def _element_text(levels: List[Group]) -> str:
    """The [elements] body of the top level, one line per element, each ending
    in a newline, joined from byte-string arrays with no Python step per
    element.  The abelian element with low part l over the leading factors
    and high part h over the rest reads low[l] + high[h]; an extension
    element (a, b) reads "a;" + the base line of b."""
    orders = levels[0].orders
    k = next(factor_runs(orders, _LOW_ORDER))[1]
    # the newline rides in the smaller table, not in a pass over every line
    lines = _digit_lines(orders[:k])
    if k < len(orders):
        high = b"," + _digit_lines(orders[k:]) + b"\n"
        lines = (lines[None, :] + high[:, None]).ravel()
    else:
        lines = lines + b"\n"
    for lev in levels[1:]:
        prefix = _numerals(lev.aut_perms.shape[0]) + b";"
        lines = prefix[lev.aut_part] + lines[lev.base_part]
    raw = lines.tobytes()
    del lines  # freed before the NUL strip copies the bytes
    return raw.replace(b"\0", b"").decode("ascii")


def _block_lines(auts: Sequence[Sequence[int]], gens: Sequence[GenWord]) -> List[str]:
    """The automorphism and generator records of a [level i] or [transfer]
    section: each automorphism's generator images, then each generator's
    automorphism word and base element."""
    lines = [f"auts = {len(auts)}"]
    lines += [f"aut{ai} = " + ",".join(map(str, images)) for ai, images in enumerate(auts)]
    lines.append(f"gens = {len(gens)}")
    lines += [f"gen{gi} = " + ",".join(map(str, word)) + f"|{b}"
              for gi, (word, b) in enumerate(gens)]
    return lines


def _group_head_lines(levels: List[Group]) -> List[str]:
    """The group's sections up to and including the [elements] header."""
    lines = ["[group]", f"levels = {len(levels)}"]
    for li, lev in enumerate(levels):
        lines.append(f"[level {li}]")
        if isinstance(lev, AbelianGroup):
            lines.append("kind = abelian")
            lines.append("orders = " + ",".join(str(n) for n in lev.orders))
        else:
            assert isinstance(lev, ExtensionGroup)
            lines.append("kind = extension")
            lines.append(f"size = {lev.size}")
            lines += _block_lines(lev.aut_perms[:, list(lev.base.generators)].tolist(),
                                  [((a,), b) for a, b in lev.gen_pairs])
    lines.append("[elements]")
    return lines


def _design_head_lines(design: DesignSet,
                       instance: Optional[TransferInstance]) -> List[str]:
    lines = [f"# {FORMAT_TAG}", "[design]",
             f"kind = {design.kind}",
             "claimed = " + ",".join(str(x) for x in design.claimed)]
    for entry in design.log:
        lines.append(f"log = {entry}")
    lines.append("[members]")
    lines.extend(map(str, design.members.tolist()))
    if design.forbidden is not None:
        lines.append("[forbidden]")
        lines.append(",".join(map(str, design.forbidden.members.tolist())))
    if instance is not None:
        if instance.design is not design:
            raise ParameterError("transfer instance does not belong to this design")
        lines.append("[transfer]")
        lines += _block_lines([aut.images for aut in instance.aut_gens],
                              instance.candidate_gens)
        for entry in instance.log:
            lines.append(f"log = {entry}")
    return lines


def group_text(group: Group) -> str:
    levels = group_levels(group)
    return ("\n".join([f"# {FORMAT_TAG}", *_group_head_lines(levels)]) + "\n"
            + _element_text(levels))


def design_text(design: DesignSet, instance: Optional[TransferInstance] = None,
                rendered_group: Optional[str] = None) -> str:
    """The design file: its own sections, then the group file without its
    format-tag line.  `rendered_group` is group_text(design.group) when the
    caller has it already, so that the [elements] table is built once."""
    if rendered_group is None:
        rendered_group = group_text(design.group)
    group_body = rendered_group[rendered_group.index("\n") + 1:]
    return "\n".join(_design_head_lines(design, instance)) + "\n" + group_body


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _split_sections(text: str) -> List[Tuple[str, List[str]]]:
    # the stripped lines, each after a newline: the few header and comment
    # lines are found by one regex pass and numbered by counting newlines
    lines = list(map(str.strip, text.splitlines()))
    joined = "\n" + "\n".join(lines)
    heads, pos, row = [], 0, -1
    for hit in _MARKED.finditer(joined):
        row, pos = row + joined.count("\n", pos, hit.end()), hit.end()
        if lines[row][0] == "#":
            lines[row] = ""  # dropped like a blank line
        elif lines[row].endswith("]"):
            heads.append(row)
    for ln, line in enumerate(lines[:heads[0] if heads else len(lines)], start=1):
        if line:
            raise ParseError(f"line {ln}: content before any section header: {line!r}")
    return [(lines[lo][1:-1], list(filter(None, lines[lo + 1:hi])))
            for lo, hi in zip(heads, heads[1:] + [len(lines)])]


def _sections(text: str) -> Tuple[List[Tuple[str, List[str]]], int]:
    """_split_sections(text), and -1; or, when no "[" follows the last
    "[elements]" header line, so no later line opens a section, the split of
    the text before that header and the offset of the unsplit body."""
    cut = text.rfind(_ELEMENTS) + 1
    if cut and text.find("[", cut + 1) < 0:
        return _split_sections(text[:cut]) + [("elements", [])], cut + len(_ELEMENTS) - 1
    return _split_sections(text), -1


def _kv(lines: Sequence[str], section: str) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for line in lines:
        if "=" not in line:
            raise ParseError(f"[{section}] line is not a key = value pair: {line!r}")
        key, _, val = line.partition("=")
        out.setdefault(key.strip(), []).append(val.strip())
    return out


def _one(kv: Dict[str, List[str]], key: str, section: str) -> str:
    if key not in kv or len(kv[key]) != 1:
        raise ParseError(f"[{section}] needs exactly one {key!r} entry")
    return kv[key][0]


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad integer in {what}: {text!r}") from None


def _ints(text: str, what: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ParseError(f"bad integer list in {what}: {text!r}") from None


def _int_array(tokens: List[str]) -> np.ndarray:
    """The tokens as int64 in one vector pass, or as Python ints if one is
    above int64, so a range check names the first offender; else ValueError."""
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        return np.array([int(tok) for tok in tokens], dtype=object)


def _parse_gen(entry: str, what: str) -> GenWord:
    if "|" not in entry:
        raise ParseError(f"{what} must look like 'word|base', got {entry!r}")
    word_s, _, base_s = entry.partition("|")
    return tuple(_ints(word_s, what)), _int(base_s, f"{what} base element")


def _parse_block(kv: Dict[str, List[str]], section: str,
                 n_images: int) -> Tuple[List[List[int]], List[GenWord]]:
    """The records _block_lines writes: each automorphism's generator images,
    n_images of them, and each generator's (word, base) pair."""
    auts = []
    for ai in range(_int(_one(kv, "auts", section), f"[{section}] auts")):
        images = _ints(_one(kv, f"aut{ai}", section), f"[{section}] aut{ai}")
        if len(images) != n_images:
            raise ParseError(f"[{section}] aut{ai} has {len(images)} images, but the "
                             f"group it acts on has {n_images} generators")
        auts.append(images)
    ng = _int(_one(kv, "gens", section), f"[{section}] gens")
    return auts, [_parse_gen(_one(kv, f"gen{gi}", section), f"[{section}] gen{gi}")
                  for gi in range(ng)]


def parse_group_sections(sections: List[Tuple[str, List[str]]],
                         text: str = "", at: int = -1) -> Group:
    """The group of a file's sections, its [elements] table checked.  With
    `at` >= 0 the table is text[at:] (see _sections), compared in place with
    the rebuilt text; if they differ, the line path reads the whole text."""
    by_name = dict(sections)
    if "group" not in by_name:
        raise ParseError("missing [group] section")
    head = _kv(by_name["group"], "group")
    n_levels = _int(_one(head, "levels", "group"), "[group] levels")
    if n_levels < 1:
        raise ParseError(f"[group] levels must be at least 1, got {n_levels}")
    group: Optional[Group] = None
    for li in range(n_levels):
        name = f"level {li}"
        if name not in by_name:
            raise ParseError(f"missing [{name}] section")
        kv = _kv(by_name[name], name)
        kind = _one(kv, "kind", name)
        if kind == "abelian":
            if group is not None:
                raise ParseError("abelian level is only allowed at the bottom of the stack")
            orders = _ints(_one(kv, "orders", name), f"[{name}] orders")
            group = abelian_make(orders)
        elif kind == "extension":
            if group is None:
                raise ParseError("extension level has no base group")
            size = _int(_one(kv, "size", name), f"[{name}] size")
            check_order(size)
            image_lists, gens = _parse_block(kv, name, len(group.generators))
            auts: List[GroupAutomorphism] = []
            # an automorphism with the generator images of a product of ones
            # certified before it is that product: only the others are certified
            certified: Optional[List[np.ndarray]] = []
            perms, keys, _ = close_automorphisms(group, certified, size)
            for images in image_lists:
                key = (np.array(images, dtype=np.int64).tobytes()
                       if all(0 <= i < group.size for i in images) else None)
                if certified is not None and key in keys:
                    auts.append(GroupAutomorphism(group, tuple(images), perms[keys[key]]))
                    continue
                auts.append(aut_from_images(group, images))
                if certified is not None:
                    certified.append(auts[-1].perm)
                    try:
                        perms, keys, _ = close_automorphisms(group, certified, size)
                    except (ClosureOverflow, ParameterError):
                        certified = None  # extension_closure below reports it
            try:
                rebuilt = extension_closure(group, auts, gens, cap=size)
            except ClosureOverflow:
                raise ParseError(f"[{name}] closure has more than the {size} elements "
                                 f"the file claims") from None
            if rebuilt.size != size:
                raise ParseError(f"[{name}] closure has {rebuilt.size} elements, "
                                 f"file claims {size}")
            group = rebuilt
        else:
            raise ParseError(f"unknown level kind {kind!r}")
    if "elements" not in by_name:
        raise ParseError("missing [elements] section")
    want = _element_text(group_levels(group))
    if at >= 0 and len(text) - at == len(want) and text.startswith(want, at):
        return group
    elems = by_name["elements"] if at < 0 else dict(_split_sections(text))["elements"]
    _check_element_lines(elems, want, group.size)
    return group


def _check_element_lines(elems: List[str], want: str, size: int) -> None:
    """The line path's check: the [elements] lines, joined, read `want`."""
    if len(elems) != size:
        raise ParseError(f"[elements] lists {len(elems)} elements, group has {size}")
    if "\n".join(elems) + "\n" != want:
        want_lines = want.split("\n")
        idx = next(i for i, (x, y) in enumerate(zip(elems, want_lines)) if x != y)
        raise ParseError(f"element {idx} reads {elems[idx]!r} but the rebuilt group "
                         f"enumerates {want_lines[idx]!r}; the file is corrupted")


def parse_design(text: str) -> Tuple[DesignSet, Optional[TransferInstance]]:
    sections, at = _sections(text)
    by_name = dict(sections)
    if len(by_name) < len(sections):
        names = [name for name, _ in sections]
        again = next(name for i, name in enumerate(names) if name in names[:i])
        raise ParseError(f"section [{again}] appears more than once")
    if "design" not in by_name:
        raise ParseError("missing [design] section")
    head = _kv(by_name["design"], "design")
    kind = _one(head, "kind", "design")
    claimed = tuple(_ints(_one(head, "claimed", "design"), "[design] claimed"))
    log = list(head.get("log", []))

    group = parse_group_sections(sections, text, at)

    if "members" not in by_name:
        raise ParseError("missing [members] section")
    try:
        members = _int_array(by_name["members"])
    except ValueError:
        raise ParseError("non-integer entry in [members]") from None
    outside = (members < 0) | (members >= group.size)
    if outside.any():
        raise ParseError(f"member {members[outside.argmax()]} is out of range for a group "
                         f"of order {group.size}")

    forbidden = None
    if "forbidden" in by_name:
        if len(by_name["forbidden"]) != 1:
            raise ParseError("[forbidden] must be a single comma-separated line")
        line = by_name["forbidden"][0]
        try:
            stored = _int_array(list(filter(None, line.split(","))))
        except ValueError:
            raise ParseError(f"bad integer list in [forbidden]: {line!r}") from None
        outside = (stored < 0) | (stored >= group.size)
        if outside.any():
            raise ParseError(f"forbidden element {stored[outside.argmax()]} is out of range")
        ordered = np.sort(stored)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ParseError(f"forbidden element {repeated[0]} is repeated")
        forbidden = forbidden_subgroup(group, stored)

    design = DesignSet(group, members, kind, claimed, forbidden=forbidden, log=log)

    instance = None
    if "transfer" in by_name:
        kv = _kv(by_name["transfer"], "transfer")
        image_lists, gens = _parse_block(kv, "transfer", len(group.generators))
        auts = [aut_from_images(group, images) for images in image_lists]
        instance = make_instance(design, auts, gens, log=list(kv.get("log", [])))
    return design, instance


# ---------------------------------------------------------------------------
# Cayley graph exports
# ---------------------------------------------------------------------------

def cayley_export(design: DesignSet, fmt: str) -> Tuple[str, Iterator[str], str]:
    """(header, arc chunks, footer) of the Cayley graph in the "edges" or
    "dot" format, each arc line ending in a newline.

    There is one arc u -> v = d * u per member d and vertex u, or one line
    per edge u <= v when the design is inverse-closed.  Each chunk holds the
    arc lines of one member d, u ascending, so no k * n arc table is ever
    held; the lines are joined from per-vertex "u" and "v" strings formatted
    once.
    """
    group = design.group
    directed = not design.is_inverse_closed()
    kind = "digraph" if directed else "graph"
    if fmt == "edges":
        head = [f"# {FORMAT_TAG} cayley {kind}",
                f"# vertices: {group.size}",
                "# arc u -> v present iff v * u^-1 is a design member"
                + ("" if directed else "; undirected, one line per edge u <= v")]
        left, right, tail = "{} ", "{}\n", ""
    else:
        sep = "->" if directed else "--"
        head = [f"// {FORMAT_TAG}: Cayley {kind} on {group!r}",
                f"// arc u {sep} v present iff v * u^-1 is a design member",
                f"{kind} cayley {{"]
        left, right, tail = "  {} " + sep + " ", "{};\n", "}\n"

    def arcs() -> Iterator[str]:
        us = np.arange(group.size, dtype=np.int64)
        lefts = np.array([left.format(u) for u in range(group.size)], dtype=object)
        rights = np.array([right.format(v) for v in range(group.size)], dtype=object)
        for d in design.members.tolist():
            vs = group.mul_many(d, us)
            keep = slice(None) if directed else us <= vs
            u_keep = us[keep]
            parts = np.empty((u_keep.size, 2), dtype=object)
            parts[:, 0] = lefts[u_keep]
            parts[:, 1] = rights[vs[keep]]
            yield "".join(parts.ravel().tolist())

    return "\n".join(head) + "\n", arcs(), tail


def dot_text(design: DesignSet) -> str:
    head, arcs, tail = cayley_export(design, "dot")
    return head + "".join(arcs) + tail


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def manifest_text(command: str, family: str, params: Dict[str, object],
                  files: Dict[str, str], results: List[str],
                  log: List[str], elapsed_s: float) -> str:
    lines = [f"# {FORMAT_TAG} manifest", "[manifest]",
             f"command = {command}",
             f"family = {family}",
             "params = " + " ".join(f"{k}={v}" for k, v in sorted(params.items())),
             "determinism = seed-free; every arbitrary choice is canonical"]
    for key in sorted(files):
        lines.append(f"file.{key} = {files[key]}")
    for r in results:
        lines.append(f"result = {r}")
    lines.append(f"elapsed_s = {elapsed_s:.3f}")
    lines.append("[log]")
    lines.extend(log)
    return "\n".join(lines) + "\n"
