"""One benchmark pass, run in a fresh interpreter.

Usage: python3 passes.py SPEC.json RESULT.json

SPEC is written by run.py.  Its "mode" is one of

  setup   import diffsets and diffsets.cli, then stop;
  plain   drive `diffsets.cli.main` through construct, transfer --design and
          verify --design for every instance, then `cayley_srg_check` on the
          base and lifted designs of every PDS, timing each stage;
  traced  the same calls with a span around each call into a layer, plus a
          second (warm) call of each family constructor.

The pass runs its instances back to back in this one interpreter, so field
and ring tables built for one instance are reused by the next.  RESULT.json
receives the monotonic time at which set-up ended, the stage times, the
outputs the correctness gate compares (stdout, exit codes, file digests,
SRG parameters) and, for a traced pass, the spans and counters.  The clock is
CLOCK_MONOTONIC, which run.py shares, so set-up is timed from the moment the
parent started this process.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


class Tracer:
    """Spans (name, start, end, parent span, pass id) and counters, kept in
    memory and returned with the pass result."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list = []
        self.counters: dict = {}
        self.stage = None      # CLI command being run, or "warm"
        self.instance = None
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "pass": self.pass_id, "instance": self.instance,
               "start": time.monotonic(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def count(self, key: str, amount) -> None:
        if self.stage != "warm":
            self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Replace module.attr by a function that runs it inside a span.

        `name` is a span name or a function of the tracer giving one; `count`
        receives (tracer, args, result) after the call.
        """
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(self) if callable(name) else name):
                out = inner(*args, **kwargs)
            if count is not None:
                count(self, args, out)
            return out

        setattr(module, attr, traced)


def _warm_aware(name: str, warm_name: str):
    return lambda t: warm_name if t.stage == "warm" else name


def install_tracer(tracer: Tracer) -> None:
    """Wrap every call the CLI path makes into a layer, at module boundaries."""
    from diffsets import cli, families, fields, serialize, transfer

    def pairs(t, args, out):
        t.count("verify.pairs", len(args[0].members) ** 2)

    def cert(t, args, out):
        t.count("groups.aut_certs", 1)
        t.count("groups.aut_exact", not getattr(out, "certified_by_sampling", False))

    def closure(t, args, out):
        t.count("groups.closure_order", out.size)
        t.count("groups.aut_slices", out.aut_perms.shape[0])

    def rendered(t, args, out):
        t.count("serialize.bytes", len(out.encode()))

    def parsed(t, args, out):
        t.count("serialize.bytes", len(args[0].encode()))

    def fingerprinted(t, args, out):
        t.count("groups.fingerprint_passes", out.exponent)

    tracer.wrap(cli, "_build_family", "families.build")
    # field and ring table construction; the cached entry points, so a cache
    # hit is a span of a few microseconds
    tables = _warm_aware("fields.tables", "families.warm.tables")
    tracer.wrap(fields, "_field_cached", tables)
    for attr in ("galois_ring_make", "field_embed"):
        tracer.wrap(families, attr, tables)
    for attr in ("verify_ds", "verify_pds", "verify_rds"):
        tracer.wrap(families, attr,
                    _warm_aware("verify.base", "families.warm.verify"), pairs)
    tracer.wrap(cli, "verify_design",
                lambda t: "verify.base" if t.stage == "construct" else "verify.lifted",
                pairs)
    tracer.wrap(transfer, "verify_design", "verify.lifted", pairs)
    tracer.wrap(families, "aut_from_images",
                _warm_aware("groups.aut_cert", "families.warm.aut_cert"), cert)
    tracer.wrap(serialize, "aut_from_images", "groups.aut_cert", cert)
    tracer.wrap(transfer, "extension_closure", "groups.closure", closure)
    tracer.wrap(serialize, "extension_closure", "groups.closure", closure)
    tracer.wrap(transfer, "check_conditions", "transfer.conditions")
    tracer.wrap(cli, "transfer_pds", "transfer.lift")
    tracer.wrap(cli, "transfer_rds", "transfer.lift")
    tracer.wrap(cli, "fingerprint", "groups.fingerprint", fingerprinted)
    for attr in ("group_text", "design_text", "manifest_text"):
        tracer.wrap(cli, attr, "serialize.render", rendered)
    tracer.wrap(cli, "parse_design", "serialize.parse", parsed)


def _tamper(path: str, out_path: str) -> None:
    """Copy a design file with its first member replaced by a non-member."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    start = lines.index("[members]") + 1
    stop = start
    while stop < len(lines) and not lines[stop].startswith("["):
        stop += 1
    members = {int(x) for x in lines[start:stop] if x}
    lines[start] = str(min(set(range(len(members) + 1)) - members))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _digest(path: str, drop_elapsed: bool = False):
    import hashlib
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return None
    if drop_elapsed:
        text = "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.startswith("elapsed_s = "))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(spec: dict) -> dict:
    import io
    import os
    import resource
    import traceback

    from diffsets import cayley_srg_check, cli
    from workloads import construct_argv, label

    tracer = Tracer(spec["pass_id"]) if spec["mode"] == "traced" else None
    if tracer is not None:
        install_tracer(tracer)

    seen: dict = {}
    verify_inner = cli.verify_design

    def capture(design, *args, **kwargs):
        # hands the verified design to the SRG stage, which must not re-parse it
        seen["design"] = design
        return verify_inner(design, *args, **kwargs)

    cli.verify_design = capture

    def stage(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    def command(rec: dict, name: str, argv: list):
        out, err = io.StringIO(), io.StringIO()
        seen.clear()
        if tracer is not None:
            tracer.stage = name
        t0 = time.monotonic()
        try:
            with stage(f"cli.{name}"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash of the pass
            rc = -1
            err.write(traceback.format_exc(limit=3))
        rec["times"][name] = time.monotonic() - t0
        rec["exit"][name] = rc
        rec["stdout"][name] = out.getvalue()
        rec["stderr"][name] = err.getvalue()
        return seen.get("design")

    os.chdir(spec["workdir"])
    records = []
    for family, flags in spec["instances"]:
        inst = (family, tuple(tuple(f) for f in flags))
        base = label(inst)
        rec = {"label": base, "times": {}, "exit": {}, "stdout": {}, "stderr": {},
               "srg": []}
        if tracer is not None:
            tracer.instance = base
        design = command(rec, "construct", construct_argv(inst))
        if tracer is not None:
            params = {**cli.FAMILIES[family][1], **dict(inst[1])}
            tracer.stage = "warm"
            with tracer.span("families.build_warm"):
                cli.FAMILIES[family][2](params)
        command(rec, "transfer",
                ["transfer", "--design", f"{base}.design.txt", "--out", f"{base}_x"])
        lifted_path = f"{base}_x.design.txt"
        if spec.get("tamper"):
            _tamper(lifted_path, f"{base}_x_tampered.design.txt")
            lifted_path = f"{base}_x_tampered.design.txt"
        lifted = command(rec, "verify", ["verify", "--design", lifted_path])

        srg_s = 0.0
        if design is None or design.kind == "PDS":
            if tracer is not None:
                tracer.stage = "srg"
            for which, d in (("base", design), ("lifted", lifted)):
                row = {"which": which, "params": None, "claim": None,
                       "exact": None, "error": None}
                if d is None:
                    row["error"] = f"no {which} design to check"
                else:
                    row["claim"] = list(d.claimed)
                    t0 = time.monotonic()
                    try:
                        with stage("verify.srg"):
                            res = cayley_srg_check(d)
                        row["params"] = [res.n, res.k, res.lam, res.mu]
                        row["exact"] = bool(getattr(res, "exhaustive", True))
                    except Exception as exc:  # recorded as a failed SRG check
                        row["error"] = f"{type(exc).__name__}: {exc}"
                    srg_s += time.monotonic() - t0
                    if tracer is not None and row["exact"] is not None:
                        tracer.count("verify.srg_results", 1)
                        tracer.count("verify.srg_exact", row["exact"])
                rec["srg"].append(row)
        rec["times"]["srg"] = srg_s
        records.append(rec)
    end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for rec in records:
        base = rec["label"]
        rec["files"] = {name: _digest(name) for name in (
            f"{base}.group.txt", f"{base}.design.txt",
            f"{base}_x.design.txt", f"{base}_x.report.txt")}
        rec["manifests"] = {name: _digest(name, drop_elapsed=True) for name in (
            f"{base}.manifest.txt", f"{base}_x.manifest.txt")}
    result = {"end": end, "peak_rss_mb": peak_kb / 1024.0, "instances": records}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    return result


def main(argv: list) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import diffsets      # set-up: what every CLI invocation pays before work
    import diffsets.cli  # noqa: F401
    result = {"ready": time.monotonic(), "diffsets_file": diffsets.__file__}
    if spec["mode"] != "setup":
        result.update(run_pass(spec))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
