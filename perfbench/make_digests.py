"""Records the sha256 of every artifact each cli_runs command writes.

    python3 perfbench/make_digests.py

Writes ``perfbench/digests.json``, the reference the cli_runs oracle
compares artifacts with byte for byte.  Run it only at a commit whose
artifacts are the reference: the README promises that they never change.
Trajectory dumps are left out; they are checked by their moments instead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import ROOT, child_env

sys.path.insert(0, str(ROOT / "src"))
from workloads import CLI_SEEDS, HERE, artifact_digests, cli_variants, digest_key  # noqa: E402


def main() -> int:
    env = child_env()
    scratch = ROOT / ".perfbench" / "digests"
    digests = {}
    for seed in CLI_SEEDS:
        for bucket, argv, expected in cli_variants(seed):
            key = digest_key(argv)
            if key in digests:
                continue
            shutil.rmtree(scratch, ignore_errors=True)
            proc = subprocess.run([sys.executable, "-m", "gaussmarkov.cli", *argv, "--out", str(scratch)],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != expected:
                print(f"{bucket}: exit {proc.returncode}, expected {expected}\n{proc.stderr}", file=sys.stderr)
                return 1
            digests[key] = artifact_digests(scratch)
            print(f"{bucket} seed {seed}: {len(digests[key])} files")
    shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
