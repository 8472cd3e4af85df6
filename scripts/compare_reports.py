#!/usr/bin/env python3
"""Compare the reports of two source trees, command by command.

Runs each command below once per tree, as `python -m ncstar.cli`, in text
and in JSON.  For each it prints the exit codes, whether the text output is
byte-identical, whether the JSON output is equal once `config` and
`config_hash` are set aside, and the sha256 of each tree's JSON file, which
is what the pinned-digest tests read.  The verify and regularize commands
run on the non-regular n = 3 pair that the CLI tests pin.

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

# each command's argv; PAIR stands for the pair file
CASES = [
    ("sweep", "--n", "2", "--jobs", "1"),
    ("sweep", "--n", "3", "--jobs", "1"),
    # full builds above bound 2, which replay the row table's None entries
    ("sweep", "--n", "3", "--bound", "3", "--jobs", "1"),
    ("verify", "hopf", "--bound", "4", "--input", "PAIR"),
    ("verify", "hopf", "--input", "PAIR"),
    ("verify", "sphere-action", "--input", "PAIR"),
    ("verify", "tuple-action", "--input", "PAIR"),
    ("verify", "noninjectivity"),
    ("regularize", "--input", "PAIR"),
    ("witness", "all"),
    ("witness", "probe-products"),
    ("witness", "unit-squares"),
    ("witness", "torus"),
    ("witness", "free-unitary"),
    ("witness", "o2plus"),
    ("witness", "torus", "--phases", "1,1", "0.6+0.8j,1j"),
    ("witness", "torus", "--phases", "1,1", "1,1j", "1j,-1j"),
    ("witness", "free-unitary", "--dim", "6", "--seed", "3"),
]


def run(src: Path, argv, pair: str, out: Path) -> tuple:
    """(exit code of the text run, its stdout, the JSON run's file bytes)."""
    argv = [pair if a == "PAIR" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "ncstar.cli", *argv]
    text = subprocess.run(cmd, env=env, capture_output=True, text=True)
    # a JSON run that writes no file reads as empty, not as the last case's file
    out.unlink(missing_ok=True)
    subprocess.run(cmd + ["--format", "json", "--output", str(out)], env=env, capture_output=True)
    return text.returncode, text.stdout, out.read_bytes() if out.exists() else b""


def without_config(data: bytes):
    """The JSON report without `config` and `config_hash`; None where the run wrote none."""
    if not data:
        return None
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
        for argv in CASES:
            code, text, data = run(SRC, argv, str(pair), out)
            other_code, other_text, other_data = run(other, argv, str(pair), out)
            digests = " / ".join(hashlib.sha256(d).hexdigest()[:8] for d in (data, other_data))
            print(f"{code}/{other_code} | {text == other_text} | "
                  f"{without_config(data) == without_config(other_data)} | {digests} | {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
