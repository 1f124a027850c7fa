"""Command-line interface: construct, transfer, verify, and export.

Every construction is deterministic, so re-running a command reproduces the
output files byte for byte (the manifest's elapsed-time line is the only
exception).  Exit codes: 0 on success, 2 for bad parameters or unparseable
files, 3 for mathematical failures (verification mismatches, failed transfer
conditions, corrupted designs).

The argument parser is built on the first `main()` call and reused by every
later call in the process: parsing does not modify it, each call gets a fresh
namespace, and it holds no per-call state.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, TextIO, Tuple, Union

from .errors import MathError, ParameterError, ParseError
from .families import (
    corollary_chain,
    denniston_even,
    denniston_gr4,
    denniston_odd,
    dihedral_converse,
    dillon_fixture,
    mcfarland_base,
    mcfarland_even,
    mcfarland_odd,
    pcp_pds,
    pgroup_multiplier_transfer,
    rds_base,
    rds_transfer,
    spence,
)
from .groups import abelian_make, fingerprint
from .serialize import (
    cayley_export,
    design_text,
    group_text,
    manifest_text,
    parse_design,
)
from .transfer import TransferInstance, transfer_pds, transfer_rds
from .verify import DesignSet, VerifyResult, verify_design

Built = Union[DesignSet, TransferInstance]


def _dillon_instance() -> TransferInstance:
    design, x_sub = dillon_fixture()
    return dihedral_converse(design, x_sub)


def _dillon_forward() -> DesignSet:
    design, x_sub = dillon_fixture()
    return corollary_chain(design, x_sub, abelian_make((8, 2))).final_design


# family name -> (required flags, optional flags with defaults, builder)
FAMILIES: Dict[str, Tuple[Tuple[str, ...], Dict[str, int],
                          Callable[[Dict[str, int]], Built]]] = {
    "pcp": (("p", "n", "s"), {},
            lambda a: pcp_pds(a["p"], a["n"], a["s"])),
    "pgroup": (("p", "n"), {"s": 2},
               lambda a: pgroup_multiplier_transfer(a["p"], a["n"], s=a["s"])),
    "dillon": ((), {}, lambda a: _dillon_instance()),
    "dillon-forward": ((), {}, lambda a: _dillon_forward()),
    "spence": (("d",), {}, lambda a: spence(a["d"])),
    "denniston-even": (("m", "r"), {},
                       lambda a: denniston_even(a["m"], a["r"])),
    "denniston-gr4": (("t", "k"), {},
                      lambda a: denniston_gr4(a["t"], a["k"])),
    "denniston-odd": (("p", "t"), {},
                      lambda a: denniston_odd(a["p"], a["t"])),
    "mcfarland": (("q", "s"), {},
                  lambda a: mcfarland_base(a["q"], a["s"])),
    "mcfarland-even": (("d",), {"variant": 1},
                       lambda a: mcfarland_even(a["d"], a["variant"])),
    "mcfarland-odd": (("q", "s"), {},
                      lambda a: mcfarland_odd(a["q"], a["s"])),
    "rds": (("d",), {}, lambda a: rds_base(a["d"])),
    "rds-transfer": (("d",), {"variant": 1},
                     lambda a: rds_transfer(a["d"], a["variant"])),
}

PARAM_FLAGS = ("p", "q", "d", "m", "n", "r", "s", "t", "k", "variant")


def _collect_params(args: argparse.Namespace, family: str) -> Dict[str, int]:
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; choose from "
                             + ", ".join(sorted(FAMILIES)))
    needs, defaults, _ = FAMILIES[family]
    params: Dict[str, int] = {}
    for flag in PARAM_FLAGS:
        val = getattr(args, flag, None)
        if val is None:
            continue
        if flag not in needs and flag not in defaults:
            raise ParameterError(f"family {family!r} does not take --{flag}")
        params[flag] = val
    for flag in needs:
        if flag not in params:
            raise ParameterError(f"family {family!r} requires --{flag}")
    for flag, default in defaults.items():
        params.setdefault(flag, default)
    return params


def _build_family(family: str, params: Dict[str, int]) -> Built:
    return FAMILIES[family][2](params)


def _default_out(family: str, params: Dict[str, int]) -> str:
    slug = family.replace("-", "_")
    for key in sorted(params):
        slug += f"_{key}{params[key]}"
    return slug


def _result_line(res: VerifyResult) -> str:
    parts = [f"{res.kind}({','.join(str(x) for x in res.params)}) OK"]
    if res.reversible is not None:
        parts.append(f"reversible: {'true' if res.reversible else 'false'}")
    if res.regular is not None:
        parts.append(f"regular: {'true' if res.regular else 'false'}")
    return ", ".join(parts)


def _print_summary(result: VerifyResult, design: DesignSet,
                   instance: Optional[TransferInstance]) -> str:
    """Print a checked design's result line, its forbidden subgroup's order
    and its transfer data; return the result line."""
    line = _result_line(result)
    print(line)
    if design.forbidden is not None:
        print(f"forbidden subgroup order {design.forbidden.order}")
    if instance is not None:
        print(f"transfer data: {len(instance.aut_gens)} automorphism(s), "
              f"{len(instance.candidate_gens)} candidate generator(s)")
    return line


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    params = _collect_params(args, family)
    t0 = time.perf_counter()
    built = _build_family(family, params)
    if isinstance(built, TransferInstance):
        design, instance = built.design, built
    else:
        design, instance = built, None
    result = verify_design(design)
    elapsed = time.perf_counter() - t0

    line = _print_summary(result, design, instance)

    out = args.out or _default_out(family, params)
    rendered_group = group_text(design.group)
    _write(f"{out}.group.txt", rendered_group)
    _write(f"{out}.design.txt", design_text(design, instance, rendered_group))
    log = list(design.log) + (list(instance.log) if instance else [])
    _write(f"{out}.manifest.txt", manifest_text(
        "construct", family, params,
        {"group": f"{out}.group.txt", "design": f"{out}.design.txt"},
        [line], log, elapsed))
    return 0


def _fingerprint_lines(report) -> List[str]:
    fp = fingerprint(report.new_group)
    hist = ",".join(f"{o}^{c}" for o, c in fp.order_histogram)
    lines = [f"order = {fp.order}",
             f"abelian = {'true' if fp.is_abelian else 'false'}",
             f"exponent = {fp.exponent}",
             f"order histogram = {hist}",
             f"center order = {fp.center_order}",
             f"derived subgroup order = {fp.derived_order}"]
    if fp.nonabelian_pair is not None:
        a, b = fp.nonabelian_pair
        lines.append("noncommuting generators = "
                     f"{report.new_group.element_name(a)}, "
                     f"{report.new_group.element_name(b)}")
    return lines


def cmd_transfer(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.design:
        ignored = [f"--{f}" for f in ("family",) + PARAM_FLAGS if getattr(args, f) is not None]
        if ignored:
            raise ParameterError("transfer --design takes its instance from the file; "
                                 "drop " + ", ".join(ignored))
        design, instance = parse_design(_read(args.design))
        if instance is None:
            raise ParameterError(f"{args.design} has no [transfer] section")
        family, params = "file", {}
        out = args.out or "transferred"
    else:
        if not args.family:
            raise ParameterError("transfer needs --design FILE or --family NAME")
        family = args.family
        params = _collect_params(args, family)
        built = _build_family(family, params)
        if not isinstance(built, TransferInstance):
            raise ParameterError(f"family {family!r} builds a plain design; "
                                 "nothing to transfer")
        instance = built
        out = args.out or _default_out(family, params) + "_transferred"

    if instance.design.kind == "RDS":
        report = transfer_rds(instance)
    else:
        report = transfer_pds(instance)
    elapsed = time.perf_counter() - t0

    for line in report.condition_lines():
        print(line)
    fp_lines = _fingerprint_lines(report)
    for line in fp_lines:
        print(line)
    line = _print_summary(report.verified, report.new_design, None)

    _write(f"{out}.design.txt", design_text(report.new_design))
    report_body = "\n".join(["[report]"] + report.condition_lines()
                            + fp_lines + [line]) + "\n"
    _write(f"{out}.report.txt", report_body)
    _write(f"{out}.manifest.txt", manifest_text(
        "transfer", family, params, {"design": f"{out}.design.txt",
                                     "report": f"{out}.report.txt"},
        report.condition_lines() + [line],
        list(instance.design.log) + list(instance.log), elapsed))
    return 0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    design, instance = parse_design(_read(args.design))
    _print_summary(verify_design(design), design, instance)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    design, _ = parse_design(_read(args.design))
    base = args.design
    for ext in (".design.txt", ".txt"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    out = args.out or base + "." + args.format
    head, arcs, tail = cayley_export(design, args.format)
    n_arcs = 0
    with _open_out(out) as fh:
        fh.write(head)
        for chunk in arcs:
            fh.write(chunk)
            n_arcs += chunk.count("\n")
        fh.write(tail)
    directed = not design.is_inverse_closed()
    print(f"{design.group.size} vertices, {n_arcs} "
          f"{'directed arcs' if directed else 'undirected edges'}")
    print(f"wrote {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffsets",
        description="construct, transfer, verify, and export difference sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_flags(p: argparse.ArgumentParser) -> None:
        for flag in PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=int, default=None)

    p_con = sub.add_parser("construct", help="build and verify a design family")
    p_con.add_argument("family", help="one of: " + ", ".join(sorted(FAMILIES)))
    add_param_flags(p_con)
    p_con.add_argument("--out", default=None, help="output file prefix")
    p_con.set_defaults(func=cmd_construct)

    p_tr = sub.add_parser("transfer", help="run a transfer and verify the result")
    p_tr.add_argument("--design", default=None,
                      help="design file with an embedded [transfer] section")
    p_tr.add_argument("--family", default=None,
                      help="build the named family's instance, then transfer")
    add_param_flags(p_tr)
    p_tr.add_argument("--out", default=None, help="output file prefix")
    p_tr.set_defaults(func=cmd_transfer)

    p_ver = sub.add_parser("verify", help="re-verify a serialized design")
    p_ver.add_argument("--design", required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export", help="write the Cayley graph of a design")
    p_exp.add_argument("--design", required=True)
    p_exp.add_argument("--format", choices=("edges", "dot"), default="edges")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
