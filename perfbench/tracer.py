"""Span tracing of framekit's public functions, installed from outside the package.

Every public function of the traced modules is wrapped, and the wrapper is
bound wherever the package binds the original, found by object identity.
``frames``, ``rkhs``, ``classic`` and ``cli`` import ``sym_eig`` by name, so
a call is counted whichever module makes it.  Spans are kept in memory while
the tracer is enabled and aggregated (or written out) when the run ends.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

TRACED_MODULES = ("spectral", "frames", "rkhs", "cli", "classic", "gp", "rng")
IO_READ = ("cli.parse_frame_file", "cli.parse_model_file", "cli.read_kernel_file")
IO_WRITE = ("cli.write_frame_file", "cli.write_kernel_file")

# metric -> span name whose calls it counts
COUNTS = {
    "spectral.sym_eig.calls": "spectral.sym_eig",
    "spectral.pinv.calls": "spectral.pinv",
    "spectral.inv_sqrt.calls": "spectral.inv_sqrt",
    "frames.build_gramian.calls": "frames.build_gramian",
    "frames.analysis.calls": "frames.analysis",
    "frames.synthesis.calls": "frames.synthesis",
    "rkhs.verify_lax_identity.calls": "rkhs.verify_lax_identity",
    "rkhs.verify_reproducing.calls": "rkhs.verify_reproducing",
    "rng.seeded_normal_matrix.calls": "rng.seeded_normal_matrix",
}
# metric -> span name whose self time it sums
SELF_TIMES = {
    "spectral.sym_eig.self_s": "spectral.sym_eig",
    "spectral.pinv.self_s": "spectral.pinv",
    "spectral.inv_sqrt.self_s": "spectral.inv_sqrt",
    "frames.build_gramian.self_s": "frames.build_gramian",
    "frames.compute_frame_bounds.self_s": "frames.compute_frame_bounds",
    "rkhs.verify_lax_identity.self_s": "rkhs.verify_lax_identity",
    "rkhs.verify_reproducing.self_s": "rkhs.verify_reproducing",
    "cli.identity_suite.self_s": "cli.identity_suite",
    "rkhs.rk_kernel.self_s": "rkhs.rk_kernel",
    "rkhs.canonical_tight.self_s": "rkhs.canonical_tight",
    "rkhs.lax_milgram.self_s": "rkhs.lax_milgram",
    "classic.hilbert_spectrum_report.self_s": "classic.hilbert_spectrum_report",
    "rng.seeded_normal_matrix.self_s": "rng.seeded_normal_matrix",
    "gp.sample_kl.self_s": "gp.sample_kl",
    "gp.fourier_at_atoms.self_s": "gp.fourier_at_atoms",
}
# metric -> (span attribute it sums, unit)
ATTR_SUMS = {
    "spectral.sym_eig.repeat_calls": ("repeat", "count"),
    "spectral.sym_eig.n3": ("n3", "count"),
    "cli.io.bytes_read": ("bytes_read", "bytes"),
    "cli.io.bytes_written": ("bytes_written", "bytes"),
    "rng.normals": ("normals", "count"),
    "gp.sample_kl.bytes": ("kl_bytes", "bytes"),
}


def metric_units() -> dict:
    units = {name: "count" for name in COUNTS}
    units.update({name: "s" for name in SELF_TIMES})
    units.update({name: unit for name, (_, unit) in ATTR_SUMS.items()})
    units.update({
        "spectral.sym_eig.max_dim": "count",
        "cli.io.read_s": "s",
        "cli.io.write_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Records spans [name, parent, start, end, attrs] while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._stack: list = []
        self._seen: set = set()  # sym_eig inputs of the current operation

    def install(self, package) -> int:
        """Wrap the traced modules' public functions; returns the bindings replaced."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"{package.__name__}.{short}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        replaced = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package.__name__ or name.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    replaced += 1
        return replaced

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        before, after = _ATTRS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._seen.clear()
            bound = _bind(signature, args, kwargs) if before or after else None
            attrs = _attrs(before, self, bound)
            record = [name, parent, 0.0, 0.0, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                if after:
                    record[4] = _attrs(after, self, bound)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def mark(self) -> int:
        return len(self.spans)

    def aggregate(self, start: int, end: int) -> dict:
        """Per-layer metrics of the spans recorded in [start, end)."""
        spans = self.spans
        child = [0.0] * (end - start)
        foreign_child = [0.0] * (end - start)  # child time outside the cli module
        for i in range(start, end):
            name, parent, t0, t1, _ = spans[i]
            if parent >= start:
                child[parent - start] += t1 - t0
                if not name.startswith("cli."):
                    foreign_child[parent - start] += t1 - t0
        calls, self_s, sums = {}, {}, {}
        max_dim = 0
        read_s = write_s = 0.0
        for i in range(start, end):
            name, _, t0, t1, attrs = spans[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i - start])
            if name in IO_READ:
                read_s += t1 - t0 - foreign_child[i - start]
            elif name in IO_WRITE:
                write_s += t1 - t0 - foreign_child[i - start]
            if attrs:
                for key, value in attrs.items():
                    sums[key] = sums.get(key, 0) + value
                max_dim = max(max_dim, attrs.get("dim", 0))
        out = {m: calls.get(f, 0) for m, f in COUNTS.items()}
        out.update({m: self_s.get(f, 0.0) for m, f in SELF_TIMES.items()})
        out.update({m: sums.get(k, 0) for m, (k, _) in ATTR_SUMS.items()})
        out["spectral.sym_eig.max_dim"] = max_dim
        out["cli.io.read_s"] = read_s
        out["cli.io.write_s"] = write_s
        return out

    def write(self, path: str, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [index[n], p, round((a - t0) * 1e9), round((b - a) * 1e9), attrs]
            for n, p, a, b, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "parent", "start_ns", "dur_ns", "attrs"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _bind(signature, args, kwargs):
    try:
        return signature.bind(*args, **kwargs).arguments
    except TypeError:
        return None


def _attrs(extract, tracer, bound):
    # A renamed parameter loses the attribute, never the call itself.
    if extract is None or bound is None:
        return None
    try:
        return extract(tracer, bound)
    except (KeyError, AttributeError, TypeError):
        return None


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def _sym_eig_attrs(tracer, args):
    entries = args["a"].entries
    key = (entries.shape, hashlib.blake2b(entries.tobytes(), digest_size=16).digest())
    repeat = 1 if key in tracer._seen else 0
    tracer._seen.add(key)
    n = entries.shape[0]
    return {"dim": n, "n3": n**3, "repeat": repeat}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


_ATTRS = {
    "spectral.sym_eig": (_sym_eig_attrs, None),
    "cli.parse_frame_file": (lambda t, a: {"bytes_read": _size(a["path"])}, None),
    "cli.parse_model_file": (lambda t, a: {"bytes_read": _size(a["path"])}, None),
    "cli.read_kernel_file": (lambda t, a: {"bytes_read": _size(a["path"])}, None),
    "cli.write_frame_file": (None, lambda t, a: {"bytes_written": _size(a["path"])}),
    "cli.write_kernel_file": (None, lambda t, a: {"bytes_written": _size(a["path"])}),
    "rng.seeded_normal_matrix": (lambda t, a: {"normals": a["n_streams"] * a["count"]}, None),
    "rng.seeded_normals": (lambda t, a: {"normals": a["count"]}, None),
    "gp.sample_kl": (
        lambda t, a: {"kl_bytes": 16 * a["s"] * a["model"].frame.n_vectors},
        None,
    ),
}
