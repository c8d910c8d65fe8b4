"""The scripts under benchmarks/ run at small sizes and pass their own
checks: each exits 1 when its twins' bits or its written bytes disagree."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        # 7 rows end the C kernel's bands of 4 pivot rows in a band of 2
        ["bench_jacobi.py", "--shapes", "16x16,12x40,7x30", "--json", "jacobi.json"],
        ["bench_cli.py", "--sizes", "4,16", "--repeats", "2", "--json", "cli.json"],
        # 5003 samples leave a last block of 907 streams, which pads its last tile
        ["bench_sampling.py", "--samples", "5003", "--vectors", "7", "--json", "sampling.json"],
        ["op_digests.py", "--seeds", "1", "--samples", "2000", "--json", "digests.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_passes_its_checks(tmp_path, argv):
    script = os.path.join(ROOT, "benchmarks", argv[0])
    proc = subprocess.run(
        [sys.executable, script, *argv[1:]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if "--json" in argv:
        written = json.loads((tmp_path / argv[argv.index("--json") + 1]).read_text())
        assert written["same"] is True
