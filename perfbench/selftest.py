#!/usr/bin/env python3
"""Self-test of the service benchmark (stdlib only). Run from the root:

    python3 perfbench/selftest.py

Checks, on short runs:
  1. two runs with one seed give identical op counts, stored bytes and
     compression ratio on every workload, and an identical
     core.ae_block_share on archive-aesz;
  2. another seed gives different inputs (different stored bytes);
  3. the client side is built only through TcpTransport::connect: the
     benchmark sources set no socket options of their own.
Exits 0 when every check passes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.exit(f"FAIL: {workload} seed {seed} exited {done.returncode}")
    detail = next(json.loads(l[len("detail "):]) for l in lines
                  if l.startswith("detail "))
    result = json.loads(lines[-1])
    return detail, result


def fingerprint(detail, result, trace):
    fp = {k: detail[k] for k in ("ops", "attempted", "stored_bytes",
                                 "original_bytes")}
    if trace:
        fp["core.ae_block_share"] = \
            result["metrics"]["core.ae_block_share"]["value"]
    else:
        fp["compression_ratio"] = \
            result["metrics"]["compression_ratio"]["value"]
    return fp


def main():
    failures = []
    for workload in ("archive-sz", "archive-aesz", "interactive"):
        for trace in ((0, 1) if workload == "archive-aesz" else (0,)):
            a = fingerprint(*run(workload, 7, trace), trace)
            b = fingerprint(*run(workload, 7, trace), trace)
            if a != b:
                failures.append(f"{workload} trace {trace}: seed 7 runs "
                                f"differ: {a} vs {b}")
            print(f"{workload} trace {trace} seed 7 x2: {a}")
        c = fingerprint(*run(workload, 8, 0), 0)
        if c["stored_bytes"] == a["stored_bytes"]:
            failures.append(f"{workload}: seed 8 stored the same bytes as "
                            "seed 7")
        print(f"{workload} seed 8: {c}")

    sources = [p for p in HERE.iterdir() if p.suffix in (".cpp", ".hpp")]
    text = "\n".join(p.read_text() for p in sources)
    if "TcpTransport::connect" not in text:
        failures.append("the client is not built through "
                        "TcpTransport::connect")
    for pattern in (r"\bsetsockopt\b", r"TCP_NODELAY", r"TCP_QUICKACK",
                    r"\bsocket\s*\("):
        if re.search(pattern, text):
            failures.append(f"benchmark source matches {pattern}")

    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
