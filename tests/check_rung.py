"""The 2^18 rung end to end: construct, transfer and verify seven instances
in fresh processes, log each command's exit code, wall time and peak RSS
(logged, not bounded), then compare every output file with
tests/rung_sha256.json, manifests without their elapsed_s line.

Run it from an empty scratch directory, which receives the 42 files, with
the package importable:

    PYTHONPATH=<repo>/src python <repo>/tests/check_rung.py

It exits with the first failing command's code, or with a message naming
the first file whose digest differs.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

RUNG = ["spence --d 2", "mcfarland-odd --q 11 --s 2", "denniston-even --m 6 --r 3",
        "denniston-gr4 --t 6 --k 3", "mcfarland-even --d 6 --variant 1",
        "pgroup --p 3 --n 6",
        # nested base: its closures take the translation path over an extension
        "mcfarland-even --d 6 --variant 3"]


def main() -> None:
    for i, inst in enumerate(RUNG):
        for argv in (["construct", *inst.split(), "--out", f"rung{i}"],
                     ["transfer", "--design", f"rung{i}.design.txt", "--out", f"rung{i}x"],
                     ["verify", "--design", f"rung{i}x.design.txt"]):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "diffsets", *argv],
                                    stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)  # this command's own peak
            code = os.waitstatus_to_exitcode(status)
            print(f"{inst}, {argv[0]}: exit {code}, {time.perf_counter() - start:.2f} s, "
                  f"peak RSS {usage.ru_maxrss / 1024:.0f} MB", flush=True)
            if code:
                sys.exit(code)
    # manifests are compared without their elapsed_s line
    want = json.loads(pathlib.Path(__file__).with_name("rung_sha256.json").read_text())
    for name, digest in sorted(want.items()):
        data = pathlib.Path(name).read_bytes()
        if name.endswith(".manifest.txt"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"elapsed_s = "))
        if hashlib.sha256(data).hexdigest() != digest:
            sys.exit(f"{name} differs from its recorded sha256")
    print(f"{len(want)} rung files byte-identical")


if __name__ == "__main__":
    main()
