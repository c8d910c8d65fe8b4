#!/usr/bin/env python3
"""End-to-end benchmark of the framekit CLI, with an optional per-layer trace.

    python3 perfbench/run.py --workload frame-cli --seed 1 --seconds 30 --trace 0

Run from the root of a framekit checkout; framekit is imported from ``src/``
of that checkout and driven in-process through ``framekit.cli.main``, one
operation at a time (a closed loop with one caller).  An operation is one
subcommand on one input file.  Inputs are generated from ``--seed`` and
written as files; framekit only sees the files.  Every output is checked
against a computation made apart from framekit's linear algebra (see
``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details of the run
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 3  # set-ups per run, each followed by a slice of the measurement; setup_s is their median
KL_SAMPLES = 200_000
HILBERT_SIZES = tuple(range(4, 17))
WORKLOADS = ("frame-cli", "kl-sampling")
E2E_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # analyze | kernel | canonical | verify | hilbert | gp-sim
    argv: tuple
    source: str | None  # name of the input the op reads
    out: str | None  # file the op writes
    known_fault: bool  # fails until the scale fault in spectral.sym_eig is mended


def build_ops(workload: str, seed: int, work: Path) -> tuple[list, dict]:
    """Generate and write the inputs of a workload; return its ops and inputs by name."""
    import inputs

    ops, sources = [], {}
    if workload == "frame-cli":
        for f in inputs.frame_cli_inputs(seed):
            path = str(work / f"{f.name}.json")
            inputs.write_frame(path, f)
            sources[f.name] = f
            for kind in ("analyze", "kernel", "canonical", "verify"):
                out = str(work / f"{f.name}.{kind}.out.json") if kind in ("kernel", "canonical") else None
                argv = (kind, path) + (("--out", out) if out else ())
                ops.append(Op(f"{kind}:{f.name}", kind, argv, f.name, out, f.name in inputs.SCALES))
        sizes = ",".join(str(n) for n in HILBERT_SIZES)
        ops.append(Op("hilbert:4..16", "hilbert", ("hilbert", "--sizes", sizes), None, None, False))
    else:
        for k, model in enumerate(inputs.kl_inputs(seed)):
            path = str(work / f"{model.name}.json")
            inputs.write_model(path, model)
            sources[model.name] = model
            argv = ("gp-sim", path, "--samples", str(KL_SAMPLES), "--seed", str(1000 * seed + k))
            ops.append(Op(f"gp-sim:{model.name}", "gp-sim", argv, model.name, None, False))
    return ops, sources


def run_op(cli, argv) -> tuple:
    """One in-process CLI call: (seconds, exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a traceback is a failed operation, not a benchmark crash
            rc = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, rc, out.getvalue(), err.getvalue()


def import_framekit():
    for name in [m for m in sys.modules if m == "framekit" or m.startswith("framekit.")]:
        del sys.modules[name]
    fk = importlib.import_module("framekit")
    return fk, importlib.import_module("framekit.cli")


def library_results(fk, src, kinds) -> dict:
    """framekit's in-process results for one frame input, as its written files must hold them."""
    from checks import RANK_TOL

    fs = fk.FrameSystem(grid=fk.Grid(points=src.points, weights=src.weights), vectors=src.vectors)
    lib = {}
    if "kernel" in kinds:
        lib["kernel"] = {"matrix": fk.rk_kernel(fs, RANK_TOL).values, "kind": "rkhs", "rank_tol": RANK_TOL}
    if "canonical" in kinds:
        lib["canonical"] = {
            "grid.points": src.points,
            "grid.weights": src.weights,
            "vectors": fk.canonical_tight(fs, RANK_TOL).vectors,
        }
    return lib


class Checker:
    """Reference values for one run's inputs, and the per-op check."""

    def __init__(self, fk, ops, sources):
        import checks
        import numpy as np

        self.np, self.checks = np, checks
        self.truth, self.lib, self.warm = {}, {}, {}
        for op in ops:
            src = sources.get(op.source)
            if src is None or op.source in self.truth:
                continue
            if op.kind == "gp-sim":
                self.truth[op.source] = checks.model_truth(src, KL_SAMPLES)
                continue
            self.truth[op.source] = checks.frame_truth(src.points, src.weights, src.vectors)
            kinds = {o.kind for o in ops if o.source == op.source}
            self.lib[op.source] = library_results(fk, src, kinds)

    def check(self, op: Op, rc, stdout: str) -> list:
        c, t = self.checks, self.truth.get(op.source)
        if op.kind == "analyze":
            problems = c.check_analyze(t, rc, stdout)
        elif op.kind == "kernel":
            problems = c.check_kernel_stdout(t, rc, stdout)
            problems += self._file(op, lambda raw: c.check_kernel_matrix(t, self.np.asarray(raw["matrix"], float)))
        elif op.kind == "canonical":
            problems = c.check_canonical_stdout(t, rc, stdout)
            problems += self._file(op, lambda raw: c.check_tight_matrix(t, self.np.asarray(raw["vectors"], float)))
        elif op.kind == "verify":
            problems = c.check_verify(t, rc, stdout)
        elif op.kind == "hilbert":
            problems = c.check_hilbert(HILBERT_SIZES, rc, stdout)
        else:
            problems = c.check_gp(t, KL_SAMPLES, int(op.argv[-1]), rc, stdout)
        reference = self.warm.get(op.label)
        if reference is not None and stdout != reference:
            problems.append("output differs from the warm-up run of the same input and seed")
        return problems

    def _file(self, op: Op, math_check) -> list:
        try:
            with open(op.out, "r", encoding="utf-8") as fh:
                text = fh.read()
            os.remove(op.out)
        except OSError as exc:
            return [f"output file unreadable: {exc}"]
        problems = self.checks.check_file_bits(text, self.lib[op.source][op.kind])
        try:
            raw = json.loads(text)
            problems += math_check(raw)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"output file content: {exc!r}")
        return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "framekit" / "cli.py").is_file():
        print(f"perfbench: no framekit sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # pin BLAS before numpy loads
        os.environ[var] = "1"
    os.environ.pop("FRAMEKIT_JACOBI", None)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    import tracer as tracing

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return _run(args, work, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, tracing) -> int:
    tracer = tracing.Tracer()
    checker = None
    setups, pass_times, overheads, per_pass, unexpected = [], [], [], [], []
    attempted = failed = passed = 0
    failures = {}
    # The machine's speed drifts over tens of seconds, so the measurement is
    # split into one slice after each set-up: a run samples its whole length
    # rather than one stretch of it.
    for _ in range(SETUPS):
        start = perf_counter()
        fk, cli = import_framekit()
        ops, sources = build_ops(args.workload, args.seed, work)
        warm = [run_op(cli, op.argv) for op in ops]
        setups.append(perf_counter() - start)
        if checker is None:
            if not Path(fk.__file__).resolve().is_relative_to(ROOT / "src"):
                print(f"perfbench: framekit imported from {fk.__file__}, not this checkout", file=sys.stderr)
                return 2
            backend = fk.jacobi_backend()
            print(f"perfbench: workload={args.workload} seed={args.seed} jacobi_backend={backend}")
            checker = Checker(fk, ops, sources)
            for op, (_, rc, stdout, _) in zip(ops, warm):
                problems = checker.check(op, rc, stdout)
                if problems and not op.known_fault:
                    unexpected.append((f"warm-up {op.label}", problems))
            checker.warm = {op.label: w[2] for op, w in zip(ops, warm)}
            latencies = {op.label: [] for op in ops}
        if args.trace:
            print(f"perfbench: traced {tracer.install(fk)} bindings of framekit functions")
        begin = perf_counter()
        while True:
            # A traced pass runs every op twice, traced and untraced, back to
            # back and in alternating order, so the difference is the overhead.
            if args.trace:
                order = (False, True) if len(pass_times) % 2 == 0 else (True, False)
            else:
                order = (False,)
            mark = tracer.mark()
            spent = {False: 0.0, True: 0.0}
            for op in ops:
                for traced in order:
                    tracer.enabled = traced
                    seconds, rc, stdout, stderr = run_op(cli, op.argv)
                    tracer.enabled = False
                    spent[traced] += seconds
                    if not traced:
                        latencies[op.label].append(seconds)
                    attempted += 1
                    problems = checker.check(op, rc, stdout)
                    if not problems:
                        passed += 1
                        continue
                    failed += 1
                    failures.setdefault(op.label, problems + [stderr.strip()[-300:]] * bool(stderr.strip()))
                    if not op.known_fault:
                        unexpected.append((op.label, problems))
            pass_times.append(spent[False])
            if args.trace:
                per_pass.append(tracer.aggregate(mark, tracer.mark()))
                overheads.append(spent[True] - spent[False])
            if perf_counter() - begin >= args.seconds / SETUPS:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for label, problems in failures.items():
        print(f"perfbench: FAILED {label}: {'; '.join(problems)}")
    if args.trace:
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        units = tracing.metric_units()
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        tracer.write(
            str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "jacobi_backend": backend},
        )
    else:
        # The timed phase of a pass is the sum of its op latencies (checks run
        # between ops, untimed).  Medians over passes and over each op's
        # repeats keep bursts of load from other processes out of the figures.
        values = {
            "ops_per_s": passed / len(pass_times) / statistics.median(pass_times),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(v) for v in latencies.values()),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setups),
        }
        result_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    summary = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    details = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jacobi_backend": backend,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "setup_s_each": setups,
        "op_ms": {k: [1e3 * x for x in v] for k, v in latencies.items()},
        "ops_per_pass": [op.label for op in ops],
        "failures": failures,
        "unexpected": unexpected,
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for label, problems in unexpected:
        print(f"perfbench: UNEXPECTED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(f"perfbench: passes={len(pass_times)} pass_s={[round(s, 3) for s in pass_times]} setups_s={[round(s, 3) for s in setups]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
