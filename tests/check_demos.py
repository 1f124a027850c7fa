"""Run every demo in demos/ in its own empty scratch directory and compare
its stdout and each file it writes with tests/demo_sha256.json, keyed
<demo>/stdout and <demo>/<file name>.

The demos print the Dillon chain, the Sylow witnesses and the RDS lifts,
which neither the benchmark nor tests/check_rung.py runs.  Run it with the
package importable:

    PYTHONPATH=<repo>/src python <repo>/tests/check_demos.py

It exits with the first failing demo's code, or with a message naming each
output whose digest differs from the recorded one, with both digests (None
for an output that is missing, or not recorded).
"""

import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def main() -> None:
    want = json.loads(pathlib.Path(__file__).with_name("demo_sha256.json").read_text())
    got = {}
    for demo in sorted(DEMOS.glob("*.py")):
        with tempfile.TemporaryDirectory() as scratch:
            print(f"== {demo.name}", flush=True)
            proc = subprocess.run([sys.executable, str(demo)], cwd=scratch,
                                  stdout=subprocess.PIPE)
            sys.stdout.write(proc.stdout.decode())
            if proc.returncode:
                sys.exit(proc.returncode)
            got[f"{demo.name}/stdout"] = hashlib.sha256(proc.stdout).hexdigest()
            for path in pathlib.Path(scratch).iterdir():
                got[f"{demo.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    problems = [f"{name}: recorded sha256 {want.get(name)}, now {got.get(name)}"
                for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
    if problems:
        sys.exit("\n".join(problems))
    print(f"{len(got)} demo outputs byte-identical")


if __name__ == "__main__":
    main()
