#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each subcommand once on small inputs, confirms that its check accepts
the real output, then confirms that the same check rejects a deliberately
perturbed copy: a wrong rank, a kernel off by 1e-6, a flipped bit in a
written float, a shifted Monte-Carlo sample, and so on.  Exits 0 when every
check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import run

SAMPLES = 20_000


def flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    import checks
    import inputs

    fk, cli = run.import_framekit()
    results = []

    def expect(label: str, problems: list, accepted: bool) -> None:
        ok = (not problems) == accepted
        results.append(ok)
        verdict = "accepts" if accepted else "rejects"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict:7} {label}" + ("" if ok else f": {problems}"))

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        frames = {f.name: f for f in inputs.frame_cli_inputs(0)}
        small = frames["small-12x6"]
        path = os.path.join(tmp, "small.json")
        inputs.write_frame(path, small)
        t = checks.frame_truth(small.points, small.weights, small.vectors)
        lib = run.library_results(fk, small, {"kernel", "canonical"})

        _, rc, out, _ = run.run_op(cli, ("analyze", path))
        expect("analyze", checks.check_analyze(t, rc, out), True)
        wrong = out.replace(f"rank={t.rank}", f"rank={t.rank + 1}")
        expect("analyze with a wrong rank", checks.check_analyze(t, rc, wrong), False)

        kpath = os.path.join(tmp, "kernel.json")
        _, rc, out, _ = run.run_op(cli, ("kernel", path, "--out", kpath))
        text = Path(kpath).read_text(encoding="utf-8")
        k = np.asarray(json.loads(text)["matrix"], dtype=float)
        expect("kernel summary", checks.check_kernel_stdout(t, rc, out), True)
        expect("kernel file bits", checks.check_file_bits(text, lib["kernel"]), True)
        expect("kernel matrix", checks.check_kernel_matrix(t, k), True)
        off = k.copy()
        off[1, 2] += 1e-6
        expect("kernel off by 1e-6", checks.check_kernel_matrix(t, off), False)
        raw = json.loads(text)
        expect("kernel file re-written unchanged", checks.check_file_bits(json.dumps(raw), lib["kernel"]), True)
        raw["matrix"][0][0] = flip_last_bit(raw["matrix"][0][0])
        expect("kernel file with a flipped bit", checks.check_file_bits(json.dumps(raw), lib["kernel"]), False)

        cpath = os.path.join(tmp, "canonical.json")
        _, rc, out, _ = run.run_op(cli, ("canonical", path, "--out", cpath))
        text = Path(cpath).read_text(encoding="utf-8")
        psi = np.asarray(json.loads(text)["vectors"], dtype=float)
        expect("canonical summary", checks.check_canonical_stdout(t, rc, out), True)
        expect("canonical file bits", checks.check_file_bits(text, lib["canonical"]), True)
        expect("canonical tight frame", checks.check_tight_matrix(t, psi), True)
        off = psi.copy()
        off[0, 0] += 1e-6
        expect("tight frame off by 1e-6", checks.check_tight_matrix(t, off), False)
        raw = json.loads(text)
        raw["grid"]["weights"][3] = flip_last_bit(raw["grid"]["weights"][3])
        expect("canonical file with a flipped bit", checks.check_file_bits(json.dumps(raw), lib["canonical"]), False)

        _, rc, out, _ = run.run_op(cli, ("verify", path))
        expect("verify", checks.check_verify(t, rc, out), True)
        value, tolerance = checks.parse_verify(out)["lax_identity_max"]
        raised = out.replace(f"lax_identity_max={value:.6g}", f"lax_identity_max={2 * tolerance:.6g}")
        expect("verify with a residual above tolerance", checks.check_verify(t, rc, raised), False)
        expect("verify with exit status 4", checks.check_verify(t, 4, out), False)

        scaled = frames["small-12x6-e-90"]
        spath = os.path.join(tmp, "scaled.json")
        inputs.write_frame(spath, scaled)
        ts = checks.frame_truth(scaled.points, scaled.weights, scaled.vectors)
        _, rc, out, _ = run.run_op(cli, ("verify", spath))
        expect("verify on the 1e-90 copy (scale fault)", checks.check_verify(ts, rc, out), False)

        sizes = (4, 5, 6)
        _, rc, out, _ = run.run_op(cli, ("hilbert", "--sizes", "4,5,6"))
        expect("hilbert", checks.check_hilbert(sizes, rc, out), True)
        lines = out.splitlines()
        parts = lines[2].split()
        lines[2] = " ".join([parts[0], "1.5"] + parts[2:])
        expect("hilbert with a lam_max off", checks.check_hilbert(sizes, rc, "\n".join(lines)), False)

        model = inputs.kl_inputs(0)[1]
        mpath = os.path.join(tmp, "model.json")
        inputs.write_model(mpath, model)
        mt = checks.model_truth(model, SAMPLES)
        _, rc, out, _ = run.run_op(cli, ("gp-sim", mpath, "--samples", str(SAMPLES), "--seed", "5"))
        expect("gp-sim", checks.check_gp(mt, SAMPLES, 5, rc, out), True)
        emp = float(checks.fields(out.splitlines()[1])["ey2_empirical"])
        shifted = out.replace(f"ey2_empirical={emp:.6g}", f"ey2_empirical={emp + 10 * mt.ey2_se:.6g}")
        expect("gp-sim with a shifted sample", checks.check_gp(mt, SAMPLES, 5, rc, shifted), False)
        expect("gp-sim with a violated sandwich", checks.check_gp(mt, SAMPLES, 5, rc, out.replace("holds", "VIOLATED")), False)
        _, rc2, out2, _ = run.run_op(cli, ("gp-sim", mpath, "--samples", str(SAMPLES), "--seed", "5"))
        expect("gp-sim repeated seed gives identical output", [] if out2 == out else ["outputs differ"], True)

    print(f"{sum(results)}/{len(results)} checks behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
