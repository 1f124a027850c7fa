"""Self-test of the benchmark's output-correctness gate.

    python3 -m pytest perfbench/test_gate.py

A clean pass must report no failed operation; a pass whose `verify --design`
reads a copy of the lifted design file with one member changed must count
that command as failed and say so; a traced pass whose spans cover less than
0.95 of its wall time must count as failed.
"""

import time

import run

INSTANCE = [["pgroup", [["p", 3], ["n", 3]]]]   # PDS(729,52,25,2) from corpus-small


def _gate(tamper: bool):
    res = run.run_pass("plain", INSTANCE, "gate-selftest", time.monotonic() + 120,
                       tamper=tamper)
    return run.gate(res, run.load_reference())


def test_clean_pass_has_no_failed_operation():
    attempted, failures = _gate(tamper=False)
    assert attempted == 14
    assert failures == []


def test_changed_member_is_a_failed_operation():
    attempted, failures = _gate(tamper=True)
    assert attempted == 14
    assert "pgroup_p3_n3 verify: stdout differs from the reference" in failures
    assert any(f.startswith("pgroup_p3_n3 verify: exit 3: error:") for f in failures)
    # construct, transfer and their files are untouched by the tampering
    assert not any(" construct" in f or " transfer" in f or ".txt" in f
                   for f in failures)


def test_low_span_coverage_is_a_failed_operation():
    attempted, failures = run.coverage_gate(
        [{"trace.coverage": 0.999}, {"trace.coverage": 0.9}])
    assert attempted == 2
    assert len(failures) == 1 and failures[0].startswith("traced pass 1: spans cover 0.9000")
