"""Stage-by-stage pipeline benchmark for diffsets.

    python3 perfbench/run.py --workload pds-4096 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each pass is a fresh interpreter
(passes.py) with `src/` on its path, so it pays set-up and builds its field
and ring tables from empty, as every CLI invocation does.  A pass drives
`diffsets.cli.main` through construct, transfer --design and verify --design
for each instance of the workload, then runs `cayley_srg_check` on the base
and lifted design of every PDS.

--trace 0 repeats untraced passes for --seconds and prints the end-to-end
metrics (medians over passes).  --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of the traced ones; the spans go to
.perfbench_out/trace-<workload>-s<seed>.jsonl.  Every pass is checked by the
output gate against reference.json; the last line of stdout is one JSON
object with correct, attempted, failed and metrics.

    python3 perfbench/run.py --record-reference

rewrites reference.json from one pass of every workload.  Do that only when
the program's outputs are meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, ordered  # noqa: E402

COMMANDS = ("construct", "transfer", "verify")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "construct_s": "s", "transfer_s": "s", "verify_s": "s",
    "srg_check_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "fields.tables_s": "s", "families.build_s": "s", "verify.base_s": "s",
    "verify.lifted_s": "s", "groups.aut_cert_s": "s", "groups.closure_s": "s",
    "transfer.conditions_s": "s", "transfer.lift_s": "s",
    "groups.fingerprint_s": "s", "verify.srg_s": "s", "serialize.render_s": "s",
    "serialize.parse_s": "s", "cli.self_s": "s",
    "verify.pairs": "count", "groups.aut_certs": "count",
    "groups.closure_order": "count", "groups.aut_slices": "count",
    "groups.fingerprint_passes": "count", "serialize.bytes": "count",
    "groups.aut_exact_share": "ratio", "verify.srg_exact_share": "ratio",
    "trace.coverage": "ratio",
}
COVERAGE_FLOOR = 0.95   # named spans must cover this share of a pass's wall time


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def pass_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(nproc())
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_pass(mode: str, instances, pass_id: str, deadline: float,
             tamper: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its result, with
    setup_s and wall_s measured from the moment it was started."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        spec_path = os.path.join(workdir, "spec.json")
        result_path = os.path.join(workdir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "pass_id": pass_id, "workdir": workdir,
                       "tamper": tamper, "instances": instances}, fh)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passes.py"), spec_path, result_path],
            env=pass_env(), cwd=str(ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} pass {pass_id} ran past the time limit") from None
        except BaseException:  # interrupted or terminated: leave no pass behind
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass {pass_id} exited {proc.returncode}:\n{err[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not Path(res["diffsets_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"the pass imported diffsets from {res['diffsets_file']}, "
                         f"not from {SRC}")
    res["spawn"] = t_spawn
    res["setup_s"] = res["ready"] - t_spawn
    if mode != "setup":
        res["wall_s"] = res["end"] - t_spawn
    return res


def stage_times(res: dict) -> dict:
    tot = {name: sum(rec["times"].get(name, 0.0) for rec in res["instances"])
           for name in COMMANDS + ("srg",)}
    m = {"construct_s": tot["construct"], "transfer_s": tot["transfer"],
         "verify_s": tot["verify"], "srg_check_s": tot["srg"]}
    m["pipeline_s"] = sum(m.values())
    m["peak_rss_mb"] = res["peak_rss_mb"]
    return m


# ---------------------------------------------------------------------------
# output-correctness gate
# ---------------------------------------------------------------------------

def gate(res: dict, reference: dict):
    """(attempted, failures) over one pass.  An operation is one CLI command,
    one SRG check or one output comparison."""
    attempted, failures = 0, []

    def op(ok: bool, where: str, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(f"{where}: {what}")

    for rec in res["instances"]:
        name = rec["label"]
        ref = reference.get(name)
        if ref is None:
            op(False, name, "no stored reference for this instance")
            continue
        for cmd in COMMANDS:
            rc = rec["exit"].get(cmd)
            op(rc == 0, f"{name} {cmd}",
               f"exit {rc}: {rec['stderr'].get(cmd, '').strip()[-300:]}")
            op(rec["stdout"].get(cmd) == ref["stdout"][cmd], f"{name} {cmd}",
               "stdout differs from the reference")
        for kind in ("files", "manifests"):
            for fname, want in ref[kind].items():
                got = rec[kind].get(fname)
                op(got == want, f"{name} {fname}",
                   "file missing" if got is None else "digest differs from the reference")
        rows = {row["which"]: row for row in rec["srg"]}
        for want in ref["srg"]:
            row = rows.pop(want["which"], None)
            if row is None:
                op(False, f"{name} srg {want['which']}", "SRG check did not run")
            elif row["error"] is not None:
                op(False, f"{name} srg {want['which']}", row["error"])
            else:
                op(row["params"] == row["claim"] == want["params"],
                   f"{name} srg {want['which']}",
                   f"SRG {row['params']} vs claim {row['claim']}, "
                   f"reference {want['params']}")
        for which, row in rows.items():
            op(False, f"{name} srg {which}", f"unexpected SRG check: {row['error']}")
    return attempted, failures


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record_reference() -> int:
    reference = {}
    for workload, insts in WORKLOADS.items():
        res = run_pass("plain", insts, f"{workload}-reference",
                       time.monotonic() + 600)
        for rec in res["instances"]:
            bad = [c for c in COMMANDS if rec["exit"][c] != 0]
            bad += [r["which"] for r in rec["srg"]
                    if r["error"] is not None or r["params"] != r["claim"]]
            if bad:
                raise BenchError(f"{rec['label']}: cannot record, failed {bad}")
            reference[rec["label"]] = {
                "stdout": rec["stdout"], "files": rec["files"],
                "manifests": rec["manifests"],
                "srg": [{"which": r["which"], "params": r["params"]} for r in rec["srg"]],
            }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} ({len(reference)} instances)")
    return 0


# ---------------------------------------------------------------------------
# traced-pass metrics
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        total += max(0.0, hi - max(lo, reach))
        reach = max(reach, hi)
    return total


def layer_metrics(res: dict) -> dict:
    spans = res["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    dur: dict = {}
    own: dict = {}
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] = dur.get(s["name"], 0.0) + d
        own[s["name"]] = own.get(s["name"], 0.0) + d - child[s["id"]]

    def D(name):
        return dur.get(name, 0.0)

    def S(name):
        return own.get(name, 0.0)

    c = res["counters"]
    m = {
        "fields.tables_s": S("fields.tables"),
        "families.build_s": S("families.build_warm"),
        "verify.base_s": D("verify.base"),
        "verify.lifted_s": D("verify.lifted"),
        "groups.aut_cert_s": D("groups.aut_cert"),
        "groups.closure_s": D("groups.closure"),
        "transfer.conditions_s": S("transfer.conditions"),
        "transfer.lift_s": S("transfer.lift"),
        "groups.fingerprint_s": D("groups.fingerprint"),
        "verify.srg_s": D("verify.srg"),
        "serialize.render_s": D("serialize.render"),
        "serialize.parse_s": S("serialize.parse"),
        "cli.self_s": S("cli.construct") + S("cli.transfer") + S("cli.verify"),
    }
    for key in ("verify.pairs", "groups.aut_certs", "groups.closure_order",
                "groups.aut_slices", "groups.fingerprint_passes", "serialize.bytes"):
        m[key] = c.get(key, 0)
    certs = c.get("groups.aut_certs", 0)
    m["groups.aut_exact_share"] = c.get("groups.aut_exact", 0) / certs if certs else 1.0
    srgs = c.get("verify.srg_results", 0)
    m["verify.srg_exact_share"] = c.get("verify.srg_exact", 0) / srgs if srgs else 1.0
    # top-level spans plus set-up, over the pass's wall time from its start
    tops = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    tops.append((res["spawn"], res["ready"]))
    m["trace.coverage"] = _union_length(tops) / (res["end"] - res["spawn"])
    m["traced_pipeline_s"] = (D("cli.construct") + D("cli.transfer")
                              + D("cli.verify") + D("verify.srg"))
    return m


def coverage_gate(layers: list):
    """(attempted, failures) over traced passes: a pass whose wall time the
    named spans cover less than COVERAGE_FLOOR of is a failed operation, as
    its layer metrics would miss work."""
    failures = [f"traced pass {i}: spans cover {m['trace.coverage']:.4f} of its "
                f"wall time, below {COVERAGE_FLOOR}"
                for i, m in enumerate(layers) if m["trace.coverage"] < COVERAGE_FLOOR]
    return len(layers), failures


def write_trace(path: Path, traced: list, summary: dict) -> None:
    """Spans as JSON lines, times in seconds from the start of their pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for res in traced:
            t0 = res["spawn"]
            fh.write(json.dumps({"id": None, "name": "setup.import", "parent": None,
                                 "pass": res["spans"][0]["pass"], "instance": None,
                                 "start": 0.0, "end": res["ready"] - t0}) + "\n")
            for s in res["spans"]:
                fh.write(json.dumps(dict(s, start=s["start"] - t0,
                                         end=s["end"] - t0)) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------

def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"git_commit": commit, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "nproc": nproc(),
            "openblas_threads": nproc(),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace}


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout's outputs")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "diffsets" / "cli.py").is_file():
        print(f"error: {SRC / 'diffsets'} not found; run from a diffsets checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def bench(args) -> int:
    hard_deadline = time.monotonic() + RUN_LIMIT_S
    reference = load_reference()
    insts = [[fam, [list(f) for f in flags]]
             for fam, flags in ordered(args.workload, args.seed)]
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    tag = f"{args.workload}-s{args.seed}"

    # untimed warm-up: compiles bytecode and fills the page cache, as an
    # installed CLI has them
    run_pass("setup", [], f"{tag}-warmup", hard_deadline)
    setups = [run_pass("setup", [], f"{tag}-setup{i}", hard_deadline)["setup_s"]
              for i in range(SETUP_SAMPLES)]

    # passes start until --seconds have gone by, so a run measures at least
    # that long and at most one pass (cycle) longer; no cycle starts that
    # would end past the run's time limit
    deadline = time.monotonic() + args.seconds
    plain, traced = [], []
    while True:
        plain.append(run_pass("plain", insts, f"{tag}-plain{len(plain)}", hard_deadline))
        if args.trace:
            traced.append(run_pass("traced", insts, f"{tag}-traced{len(traced)}",
                                   hard_deadline))
        cycle = max(r["wall_s"] for r in plain) + max(
            (r["wall_s"] for r in traced), default=0.0)
        now = time.monotonic()
        if now >= deadline or now + cycle > hard_deadline:
            break

    attempted, failures = 0, []
    for res in plain + traced:
        a, f = gate(res, reference)
        attempted += a
        failures += f

    per_pass = [stage_times(r) for r in plain]
    samples = {key: [m[key] for m in per_pass] for key in per_pass[0]}
    samples["setup_s"] = setups
    if args.trace:
        layers = [layer_metrics(r) for r in traced]
        a, f = coverage_gate(layers)
        attempted += a
        failures += f
        lsamples = {key: [m[key] for m in layers] for key in layers[0]}
        # tracing overhead: each traced pass against the untraced pass just
        # before it, so drift of the host over the run cancels
        overheads = [m["traced_pipeline_s"] - stage_times(r)["pipeline_s"]
                     for m, r in zip(layers, plain)]
        report_units = PER_LAYER_UNITS
        report_samples = lsamples
        trace_path = OUT / f"trace-{tag}.jsonl"
        write_trace(trace_path, traced, {
            "provenance": prov, "overhead_s": overheads,
            "coverage": lsamples["trace.coverage"],
            "untraced_pipeline_s": samples["pipeline_s"],
            "traced_pipeline_s": lsamples["traced_pipeline_s"]})
    else:
        report_units = END_TO_END_UNITS
        report_samples = samples
    report = {key: quartiles(report_samples[key]) for key in report_units}

    fail_rate = len(failures) / attempted if attempted else 1.0
    metrics = {key: {"value": report[key][1], "unit": unit}
               for key, unit in report_units.items()}

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up samples")
    for key, unit in report_units.items():
        q1, med, q3 = report[key]
        print(f"{key} = {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n = {len(report_samples[key])})")
    if args.trace:
        print(f"trace overhead (traced minus untraced pipeline_s) = "
              f"{statistics.median(overheads):.6g} s  (n = {len(overheads)})")
        print(f"span coverage of pass wall time: min "
              f"{min(lsamples['trace.coverage']):.4f} (floor {COVERAGE_FLOOR}); "
              f"spans in {trace_path.relative_to(ROOT)}")
    print(f"fail_rate = {fail_rate:.6g} ratio  ({len(failures)} of {attempted} operations)")
    for line in failures[:20]:
        print(f"FAIL {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
