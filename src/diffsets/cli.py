"""Command-line interface: construct, transfer, verify, and export.

Every construction is deterministic, so re-running a command reproduces the
output files byte for byte (the manifest's elapsed-time line is the only
exception).  Exit codes: 0 on success, 2 for bad parameters or unparseable
files, 3 for mathematical failures (verification mismatches, failed transfer
conditions, corrupted designs).
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple, Union

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
Args = Dict[str, Any]


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

# the value each flag but the PARAM_FLAGS (integers) takes, as help names it
METAVARS = {"design": "FILE", "family": "NAME", "format": "edges|dot", "out": "PREFIX"}
FORMATS = ("edges", "dot")


def _family_params(family: str, args: Args) -> Dict[str, int]:
    """The family's parameters from the PARAM_FLAGS in args: every one it
    needs, none it does not take, and its defaults for the rest."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; choose from "
                             + ", ".join(sorted(FAMILIES)))
    needs, defaults, _ = FAMILIES[family]
    params = {flag: args[flag] for flag in PARAM_FLAGS if flag in args}
    for flag in params:
        if flag not in needs and flag not in defaults:
            raise ParameterError(f"family {family!r} does not take --{flag}")
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


def cmd_construct(args: Args) -> int:
    family, params = args["family"], args["params"]
    t0 = time.perf_counter()
    built = _build_family(family, params)
    if isinstance(built, TransferInstance):
        design, instance = built.design, built
    else:
        design, instance = built, None
    result = verify_design(design)
    elapsed = time.perf_counter() - t0

    line = _print_summary(result, design, instance)

    out = args.get("out") or _default_out(family, params)
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


def cmd_transfer(args: Args) -> int:
    t0 = time.perf_counter()
    if "design" in args:
        design, instance = parse_design(_read(args["design"]))
        if instance is None:
            raise ParameterError(f"{args['design']} has no [transfer] section")
        family, params = "file", {}
        out = args.get("out") or "transferred"
    else:
        family, params = args["family"], args["params"]
        built = _build_family(family, params)
        if not isinstance(built, TransferInstance):
            raise ParameterError(f"family {family!r} builds a plain design; "
                                 "nothing to transfer")
        instance = built
        out = args.get("out") or _default_out(family, params) + "_transferred"

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


def cmd_verify(args: Args) -> int:
    design, instance = parse_design(_read(args["design"]))
    _print_summary(verify_design(design), design, instance)
    return 0


def cmd_export(args: Args) -> int:
    design, _ = parse_design(_read(args["design"]))
    base = args["design"]
    for ext in (".design.txt", ".txt"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    fmt = args.get("format", FORMATS[0])
    out = args.get("out") or base + "." + fmt
    head, arcs, tail = cayley_export(design, fmt)
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


# command -> (handler, summary, positional argument, required arguments,
# flags); every flag takes one value, and a family named by construct or
# transfer decides which of the PARAM_FLAGS apply (_family_params)
COMMANDS: Dict[str, Tuple[Callable[[Args], int], str, Optional[str],
                          Tuple[str, ...], Tuple[str, ...]]] = {
    "construct": (cmd_construct, "build and verify a design family",
                  "family", ("family",), PARAM_FLAGS + ("out",)),
    "transfer": (cmd_transfer, "transfer the instance in --design's file or of --family, "
                 "and verify the lift", None, (), ("design", "family") + PARAM_FLAGS + ("out",)),
    "verify": (cmd_verify, "re-verify a serialized design", None, ("design",), ("design",)),
    "export": (cmd_export, "write the Cayley graph of a design", None, ("design",),
               ("design", "format", "out")),
}


def _help(command: Optional[str]) -> str:
    """The usage of every command, or of one, naming each flag it takes; then,
    for a command that takes a family, each family with its parameters."""
    lines, takes = ["usage:"], set()
    for name in [command] if command else COMMANDS:
        _, summary, positional, required, flags = COMMANDS[name]
        takes.update(flags)
        words = [positional.upper()] if positional else []
        for flag in flags:
            if flag in METAVARS:
                word = f"--{flag} {METAVARS[flag]}"
                words.append(word if flag in required else f"[{word}]")
            elif flag == PARAM_FLAGS[0]:
                words.append("[--PARAM N ...]")
        lines += [f"  diffsets {name} {' '.join(words)}", f"      {summary}"]
    lines += ["", "A flag reads as --flag VALUE, --flag=VALUE or a unique prefix of the flag;",
              "the last of a repeated flag counts.  -h or --help prints this help."]
    if PARAM_FLAGS[0] in takes:
        lines += ["", "families and the PARAM flags each takes ([--flag default]):"]
        lines += [f"  {family:<16} " + " ".join(
            [f"--{f} N" for f in needs] + [f"[--{f} {v}]" for f, v in defaults.items()]
            or ["(none)"]) for family, (needs, defaults, _) in FAMILIES.items()]
    return "\n".join(lines)


def _flag(token: str, flags: Tuple[str, ...], where: str) -> str:
    """The flag a `-h` or `--name` token names: `name` itself, else the one
    flag (or help) that `name` is a prefix of."""
    if token == "-h":
        return "help"
    name = token[2:] if token.startswith("--") else ""
    names = flags + ("help",)
    found = [f for f in names if f == name] or [f for f in names if name and f.startswith(name)]
    if len(found) != 1:  # none, or several: no two flags of a command share one today
        raise ParameterError(f"{where} takes no option {token}; see {where} --help")
    return found[0]


def _is_value(token: str) -> bool:
    """A token that is no flag; a negative integer such as -1 is a value."""
    return not token.startswith("-") or token[1:].isdigit()


def _value(flag: str, text: str) -> Any:
    if flag in PARAM_FLAGS:
        try:
            return int(text)
        except ValueError:
            raise ParameterError(f"--{flag} takes an integer, not {text!r}") from None
    if flag == "format" and text not in FORMATS:
        raise ParameterError(f"--format is one of {', '.join(FORMATS)}, not {text!r}")
    return text


def _parse(argv: List[str]) -> Optional[Args]:
    """The command and its arguments, read by COMMANDS: the positional
    argument, each flag by `--flag value`, `--flag=value` or a unique prefix
    of the flag (a repeated flag keeps its last value) and, where a family is
    named, its parameters as "params".  Prints the help and returns None on
    -h or --help; raises ParameterError on any other usage error."""
    if argv and argv[0].startswith("-"):
        _flag(argv[0].partition("=")[0], (), "diffsets")  # help is the only flag
        print(_help(None))
        return None
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ParameterError(f"{what}; choose from {', '.join(COMMANDS)} (see diffsets --help)")
    command, tokens = argv[0], iter(argv[1:])
    _, _, positional, required, flags = COMMANDS[command]
    args: Args = {"command": command}
    for token in tokens:
        if _is_value(token):
            if positional is None or positional in args:
                raise ParameterError(f"unexpected argument {token!r} to {command}")
            args[positional] = token
            continue
        head, eq, value = token.partition("=")
        flag = _flag(head, flags, f"diffsets {command}")
        if flag == "help":
            print(_help(command))
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise ParameterError(f"--{flag} needs a value")
        args[flag] = _value(flag, value)
    for name in required:
        if name not in args:
            raise ParameterError(f"{command} requires "
                                 + (name.upper() if name == positional else f"--{name}"))
    if command == "transfer":
        if "design" in args:
            dropped = [f"--{f}" for f in ("family",) + PARAM_FLAGS if f in args]
            if dropped:
                raise ParameterError("transfer --design takes its instance from the file; "
                                     "drop " + ", ".join(dropped))
        elif "family" not in args:
            raise ParameterError("transfer needs --design FILE or --family NAME")
    if "family" in args:
        args["params"] = _family_params(args["family"], args)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return 0 if args is None else COMMANDS[args["command"]][0](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
