"""Record the sha256 of every output of `splitlaw run fixtures/*.ini`.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run from the checkout root. Rewrites perfbench/digests.json, which the
cli-fixtures workload compares every pass against. Re-record only when a
change is meant to move output bytes, and say which outputs moved and why.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from splitlaw import cli

from workloads import DIGESTS, fixture_outputs, sha256_file


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=".") as out_root:
        os.environ["SPLITLAW_OUTPUT_ROOT"] = out_root
        for fixture in sorted(str(p) for p in Path("fixtures").glob("*.ini")):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", fixture])
            if rc != 0:
                sys.exit(f"{fixture}: exit {rc}")
            for name in fixture_outputs(fixture):
                digests[name] = sha256_file(Path(out_root) / name)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")


if __name__ == "__main__":
    main()
