"""Write goldens.json: digests of the CLI's stdout on the README examples.

    python3 bench/capture_goldens.py

Run it at the commit whose output the benchmark pins; every benchmark run
then compares the same commands' stdout with these digests byte for byte.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import GOLDENS, README_EXAMPLES, ROOT, cli_env, digest  # noqa: E402


def main() -> None:
    goldens = {}
    for sub, argv in README_EXAMPLES.items():
        proc = subprocess.run([sys.executable, "-m", "livsic.cli", *argv], capture_output=True,
                              env=cli_env(), cwd=ROOT, check=True, timeout=120)
        goldens[sub] = digest(proc.stdout)
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
