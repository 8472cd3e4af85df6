#!/usr/bin/env python3
"""Compare the reports of two source trees, command by command.

Runs each command below once per tree, as `python -m ncstar.cli`, in text
and in JSON.  For each it prints the exit codes, whether the text output is
byte-identical, whether the JSON output is equal once `config` and
`config_hash` are set aside, and the sha256 of each tree's JSON file, which
is what the pinned-digest tests read.  The verify and regularize commands
run on the non-regular n = 3 pair that the CLI tests pin.  A command may
name its own argv for the other tree, for a flag only one of them takes.

Run:  python scripts/compare_reports.py --against OTHER/src
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NONREGULAR_N3 = {"n": 3, "epsilon": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                 "eta": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}

# (argv, the other tree's argv or None for the same); PAIR stands for the pair file
CASES = [
    (("sweep", "--n", "2", "--jobs", "1"), None),
    (("sweep", "--n", "3", "--jobs", "1"), None),
    (("verify", "hopf", "--input", "PAIR"), None),
    (("verify", "sphere-action", "--input", "PAIR"), None),
    (("verify", "tuple-action", "--input", "PAIR"), None),
    (("verify", "noninjectivity"), None),
    (("regularize", "--input", "PAIR"), None),
    (("witness", "all"), None),
    (("witness", "probe-products"), None),
    (("witness", "unit-squares"), None),
    (("witness", "torus"), None),
    (("witness", "free-unitary"), None),
    (("witness", "o2plus"), None),
    (("witness", "torus", "--phases", "1,1", "0.6+0.8j,1j"), None),
    (("witness", "torus", "--phases", "1,1", "1,1j", "1j,-1j"), None),
    (("witness", "free-unitary", "--dim", "6", "--seed", "3"), None),
    (("witness", "probe-products"), ("witness", "probe-products", "--tol", "1e-3")),
]


def run(src: Path, argv, pair: str, out: Path) -> tuple:
    """(exit code of the text run, its stdout, the JSON run's file bytes)."""
    argv = [pair if a == "PAIR" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "ncstar.cli", *argv]
    text = subprocess.run(cmd, env=env, capture_output=True, text=True)
    subprocess.run(cmd + ["--format", "json", "--output", str(out)], env=env, capture_output=True)
    return text.returncode, text.stdout, out.read_bytes()


def without_config(data: bytes) -> dict:
    payload = json.loads(data)
    payload.pop("config")
    payload.pop("config_hash")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the other tree's src directory")
    args = parser.parse_args()
    other = Path(args.against).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        pair = Path(tmp) / "pair.json"
        pair.write_text(json.dumps(NONREGULAR_N3))
        out = Path(tmp) / "report.json"
        print("exit here/other | text equal | json equal without config | sha256 here / other | argv")
        for argv, other_argv in CASES:
            code, text, data = run(SRC, argv, str(pair), out)
            other_code, other_text, other_data = run(other, other_argv or argv, str(pair), out)
            digests = " / ".join(hashlib.sha256(d).hexdigest()[:8] for d in (data, other_data))
            shown = " ".join(argv) + (f"  (other: {' '.join(other_argv)})" if other_argv else "")
            print(f"{code}/{other_code} | {text == other_text} | "
                  f"{without_config(data) == without_config(other_data)} | {digests} | {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
