import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framekit import _kernels, classic, cli, errors, frames, gp, mercedes_frame, rkhs, spectral
from framekit.cli import (
    EXIT_DEGENERATE,
    EXIT_MATH,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_SANDWICH,
    EXIT_SCHEMA,
)
from oracles import TWINS


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_kernel(path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    return np.asarray(raw["matrix"], dtype=float), raw["kind"], raw.get("rank_tol")


def standard_basis_payload():
    return {
        "grid": {"points": [0.0, 1.0], "weights": [1.0, 1.0]},
        "vectors": [[1.0, 0.0], [0.0, 1.0]],
    }


def mercedes_payload():
    fs = mercedes_frame()
    return {
        "grid": {
            "points": list(fs.grid.points),
            "weights": list(fs.grid.weights),
        },
        "vectors": [list(row) for row in fs.vectors],
    }


def onb_model_payload(scale=1.0):
    masses = [0.5, 1.25, 2.0]
    rows = np.diag(1.0 / np.sqrt(masses)) * scale
    return {
        "atoms": [
            {"u": -1.0, "mass": masses[0]},
            {"u": 0.5, "mass": masses[1]},
            {"u": 2.0, "mass": masses[2]},
        ],
        "frame": [list(r) for r in rows],
        "phat": {"re": [0.3, -1.1, 0.25], "im": [0.0, 0.7, -0.4]},
    }


def random_model_payload(scale):
    """9 random vectors on 6 atoms, masses uniform in [0.5, 2) times
    ``scale``, and a random phat, from one fixed seed."""
    rng = np.random.default_rng(0)
    masses = rng.uniform(0.5, 2.0, 6)
    return {
        "atoms": [{"u": u, "mass": mass * scale} for u, mass in zip(rng.normal(size=6), masses)],
        "frame": rng.normal(size=(9, 6)).tolist(),
        "phat": {"re": rng.normal(size=6).tolist(), "im": rng.normal(size=6).tolist()},
    }


def dyadic_model_payload(profile):
    """12 vectors on 6 atoms and a phat or phi_x profile, all exact dyadic
    values from integer formulas."""
    i, a = np.arange(12 * 6), np.arange(6)
    payload = {
        "atoms": [{"u": 1.5 * k - 3.0, "mass": 1.0 + (k % 5) / 8.0} for k in range(6)],
        "frame": (((i * 7919) % 1021 - 510) / 256.0).reshape(12, 6).tolist(),
    }
    if profile == "phat":
        payload["phat"] = {
            "re": (((a * 37) % 29 - 14) / 16.0).tolist(),
            "im": (((a * 53) % 31 - 15) / 32.0).tolist(),
        }
    else:
        x = np.arange(16)
        payload["phi_x"] = {
            "grid": {"points": ((x - 8) / 4.0).tolist(), "weights": [0.25] * 16},
            "values": (((x * 13) % 17 - 8) / 8.0).tolist(),
        }
    return payload


class TestAnalyze:
    def test_standard_basis(self, tmp_path, capsys):
        path = write(tmp_path / "basis.json", standard_basis_payload())
        assert cli.main(["analyze", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "B1=1 B2=1" in out
        assert "parseval=true" in out

    def test_mercedes(self, tmp_path, capsys):
        path = write(tmp_path / "mercedes.json", mercedes_payload())
        assert cli.main(["analyze", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "B1=1.5 B2=1.5" in out
        assert "parseval=false" in out
        assert "N=3 M=2 rank=2" in out

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["analyze", str(tmp_path / "nope.json")]) == EXIT_MISSING

    @pytest.mark.parametrize("command", ["analyze", "gp-sim"])
    def test_directory_keeps_its_error_type(self, tmp_path, capsys, command):
        parse = cli.parse_frame_file if command == "analyze" else cli.parse_model_file
        with pytest.raises(IsADirectoryError):
            parse(str(tmp_path))
        assert cli.main([command, str(tmp_path)]) == EXIT_MISSING
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_weights(self, tmp_path, capsys):
        payload = standard_basis_payload()
        payload["grid"]["weights"] = [1.0]
        path = write(tmp_path / "bad.json", payload)
        assert cli.main(["analyze", path]) == EXIT_SCHEMA
        assert "grid" in capsys.readouterr().err

    def test_ragged_vectors(self, tmp_path, capsys):
        payload = standard_basis_payload()
        payload["vectors"] = [[1.0, 0.0], [0.0]]
        path = write(tmp_path / "ragged.json", payload)
        assert cli.main(["analyze", path]) == EXIT_SCHEMA
        assert "vectors[1]" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["analyze", str(bad)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("command", ["analyze", "gp-sim"])
    @pytest.mark.parametrize("where", ["utf16-bom", "latin1-string"])
    def test_not_utf8(self, tmp_path, capsys, command, where):
        payload = standard_basis_payload() if command == "analyze" else onb_model_payload()
        text = json.dumps(payload)
        if where == "utf16-bom":  # the file starts with the bytes ff fe
            data = b"\xff\xfe" + text.encode("utf-16-le")
        else:  # a lone 0xe9 (Latin-1 e acute) inside a string
            data = b'{"note": "caf\xe9", ' + text[1:].encode("utf-8")
        path = tmp_path / "not-utf8.json"
        path.write_bytes(data)
        assert cli.main([command, str(path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {path}: ")
        assert "UTF-8" in err

    @pytest.mark.parametrize("command", ["analyze", "gp-sim"])
    def test_deep_nesting(self, tmp_path, capsys, command):
        # json.loads runs out of stack on 100,000 open brackets, in a frame
        # file or a model file; that is a schema error naming the file
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert cli.main([command, str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == f"schema error: {path}: nested too deeply to read\n"

    def test_overflowing_bounds_read_inf(self, tmp_path, capsys):
        # B1 = B2 = 1e600 is past the largest double: the bounds print as
        # inf, with no RuntimeWarning (an error under this suite's filter)
        payload = standard_basis_payload()
        payload["vectors"] = [[1e300, 0.0], [0.0, 1e300]]
        path = write(tmp_path / "big.json", payload)
        assert cli.main(["analyze", path]) == EXIT_OK
        assert "rank=2 B1=inf B2=inf frame=true" in capsys.readouterr().out


class TestKernel:
    def test_roundtrip_bit_exact(self, tmp_path, capsys):
        src = write(tmp_path / "m.json", mercedes_payload())
        out_path = tmp_path / "kernel.json"
        assert cli.main(["kernel", src, "--out", str(out_path)]) == EXIT_OK
        matrix, kind, rank_tol = read_kernel(out_path)
        assert kind == "rkhs"
        assert rank_tol == 1e-10
        from framekit import rk_kernel

        expected = rk_kernel(mercedes_frame()).values
        assert np.array_equal(matrix, expected)

    def test_naive_mercedes(self, tmp_path, capsys):
        src = write(tmp_path / "m.json", mercedes_payload())
        out_path = tmp_path / "naive.json"
        assert cli.main(["kernel", src, "--naive", "--out", str(out_path)]) == EXIT_OK
        matrix, kind, rank_tol = read_kernel(out_path)
        assert kind == "naive" and rank_tol is None  # it reads no rank
        np.testing.assert_allclose(matrix, 1.5 * np.eye(2), atol=1e-15)

    def test_single_vector_hand_values(self, tmp_path, capsys):
        payload = {
            "grid": {"points": [0.0, 1.0, 2.0], "weights": [1.0, 1.0, 1.0]},
            "vectors": [[1.0, 1.0, 0.0]],
        }
        src = write(tmp_path / "one.json", payload)
        out_path = tmp_path / "k.json"
        assert cli.main(["kernel", src, "--out", str(out_path)]) == EXIT_OK
        matrix, _, _ = read_kernel(out_path)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(matrix, expected, atol=1e-12)

    def test_zero_span(self, tmp_path, capsys):
        payload = {
            "grid": {"points": [0.0, 1.0], "weights": [1.0, 1.0]},
            "vectors": [[0.0, 0.0]],
        }
        src = write(tmp_path / "zero.json", payload)
        assert cli.main(["kernel", src]) == EXIT_DEGENERATE

    def test_report_line(self, tmp_path, capsys):
        src = write(tmp_path / "m.json", mercedes_payload())
        assert cli.main(["kernel", src]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kind=rkhs" in out
        assert "psd_violation=" in out
        assert "max_reproducing_residual=" in out

    def test_overflowing_table_is_refused_before_writing(self, tmp_path, capsys, recwarn):
        payload = {
            "grid": {"points": [0.0, 1.0, 2.0], "weights": [1.0, 1.0, 1.0]},
            "vectors": [[1e200, -1e200, 0.0], [2e200, 1e200, 0.0]],
        }
        src = write(tmp_path / "big.json", payload)
        out_path = tmp_path / "o.json"
        assert cli.main(["kernel", src, "--naive", "--out", str(out_path)]) == EXIT_SCHEMA
        assert not out_path.exists()
        assert not recwarn.list
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


    def test_psd_bound_past_the_double_range_reads_inf(self, tmp_path, capsys, recwarn):
        # every row of the 10 x 100 naive factor is finite, but ||F||_F^2
        # sums to about 1e309: the bound prints inf, with nothing on stderr
        vectors = np.random.default_rng(0).standard_normal((10, 100)) * 1e153
        payload = {
            "grid": {"points": list(range(100)), "weights": [1.0] * 100},
            "vectors": vectors.tolist(),
        }
        assert cli.main(["kernel", write(tmp_path / "big.json", payload), "--naive"]) == EXIT_OK
        assert not recwarn.list
        captured = capsys.readouterr()
        assert "psd_violation=inf" in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("command", [["kernel"], ["kernel", "--naive"], ["canonical"]])
def test_unwritable_out_exits_1(tmp_path, capsys, command):
    src = write(tmp_path / "m.json", mercedes_payload())
    target = tmp_path / "a-directory"
    target.mkdir()
    argv = [command[0], src, *command[1:], "--out", str(target)]
    assert cli.main(argv) == EXIT_MISSING
    assert capsys.readouterr().err.startswith("error: ")


class TestHilbert:
    def test_single(self, capsys):
        assert cli.main(["hilbert", "--sizes", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("1 1 1 ")

    def test_monotone_below_pi(self, capsys):
        assert cli.main(["hilbert", "--sizes", "4,8,16"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        lam = [float(line.split()[1]) for line in lines]
        assert lam == sorted(lam)
        assert all(x < math.pi for x in lam)

    def test_n12_lam_min(self, capsys):
        assert cli.main(["hilbert", "--sizes", "12"]) == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split()[2]) < 1e-8

    def test_unsorted_sizes_with_repeat(self, capsys):
        assert cli.main(["hilbert", "--sizes", "16,4,8,4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert [int(line.split()[0]) for line in lines] == [16, 4, 8, 4]

    def test_invalid_size(self, capsys):
        assert cli.main(["hilbert", "--sizes", "0"]) == EXIT_SCHEMA
        assert cli.main(["hilbert", "--sizes", "a,b"]) == EXIT_SCHEMA

    @pytest.mark.parametrize("sizes", ["203", "4,203", "4,0"])
    def test_size_outside_limit_refused_before_any_factorization(
        self, monkeypatch, capsys, sizes
    ):
        calls = []
        active = _kernels.ACTIVE
        jacobi = active.jacobi_rows
        monkeypatch.setattr(
            _kernels,
            "ACTIVE",
            active._replace(jacobi_rows=lambda *a: calls.append(1) or jacobi(*a)),
        )
        assert cli.main(["hilbert", "--sizes", sizes]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[1, 202]" in captured.err
        assert calls == []

    @pytest.mark.parametrize(
        "lam_max, message",
        [((1.5, math.pi), "lam_max reached pi"), ((2.0, 1.5), "lam_max not increasing with n")],
        ids=["pi", "falling"],
    )
    def test_table_violation_exits_4(self, monkeypatch, capsys, lam_max, message):
        rows = [
            classic.SpectrumRow(n=n, lam_max=lam, lam_min=0.5, pi_gap=math.pi - lam)
            for n, lam in zip((4, 8), lam_max)
        ]
        monkeypatch.setattr(classic, "hilbert_spectrum_report", lambda sizes: rows)
        assert cli.main(["hilbert", "--sizes", "4,8"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1 + len(rows)
        assert captured.err == f"violation: {message}\n"

    @pytest.mark.parametrize("sizes", [",", ""])
    def test_empty_sizes_refused(self, capsys, sizes):
        assert cli.main(["hilbert", "--sizes", sizes]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", "invalid input: --sizes is empty\n")

    def test_largest_size_is_read(self, capsys):
        assert cli.main(["hilbert", "--sizes", "202"]) == EXIT_OK
        (line,) = capsys.readouterr().out.strip().splitlines()[1:]
        assert line.startswith("202 ")


class TestGpSim:
    def test_onb_equal_columns(self, tmp_path, capsys):
        path = write(tmp_path / "model.json", onb_model_payload())
        assert cli.main(["gp-sim", path, "--samples", "5000", "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a=1 b=1" in out
        assert "holds" in out
        ex2 = float(out.split("ex2=")[1].split()[0])
        ey2 = float(out.split("ey2=")[1].split()[0])
        assert abs(ex2 - ey2) <= 1e-9 * max(1.0, ex2)

    def test_scaled_onb(self, tmp_path, capsys):
        path = write(tmp_path / "model.json", onb_model_payload(scale=2.0))
        assert cli.main(["gp-sim", path, "--samples", "2000", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a=4 b=4" in out
        ex2 = float(out.split("ex2=")[1].split()[0])
        ey2 = float(out.split("ey2=")[1].split()[0])
        assert abs(ey2 - 4.0 * ex2) <= 1e-6 * max(1.0, ey2)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path / "model.json", onb_model_payload())
        args = ["gp-sim", path, "--samples", "3000", "--seed", "11"]
        assert cli.main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert cli.main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_phi_x_variant(self, tmp_path, capsys):
        payload = onb_model_payload()
        del payload["phat"]
        m = 64
        x = list(-1.0 + (np.arange(m) + 0.5) * (2.0 / m))
        payload["phi_x"] = {
            "grid": {"points": x, "weights": [2.0 / m] * m},
            "values": list(np.exp(-np.array(x) ** 2)),
        }
        path = write(tmp_path / "model.json", payload)
        assert cli.main(["gp-sim", path, "--samples", "2000"]) == EXIT_OK

    def test_requires_exactly_one_profile(self, tmp_path, capsys):
        payload = onb_model_payload()
        payload["phi_x"] = {
            "grid": {"points": [0.0], "weights": [1.0]},
            "values": [1.0],
        }
        path = write(tmp_path / "model.json", payload)
        assert cli.main(["gp-sim", path]) == EXIT_SCHEMA
        del payload["phi_x"]
        del payload["phat"]
        path = write(tmp_path / "model2.json", payload)
        assert cli.main(["gp-sim", path]) == EXIT_SCHEMA

    @pytest.mark.parametrize("twin", sorted(TWINS))
    @pytest.mark.parametrize("overflow", ["phat", "frame", "masses", "phi_x"])
    def test_overflow_is_refused_before_sampling(
        self, tmp_path, capsys, monkeypatch, twin, overflow
    ):
        # the identity frame on two unit atoms (a = b = 1) with phat =
        # (1e300, 1e300 i) has E|X|^2 = E|Y|^2 = inf, and a frame of entries
        # 1e300 has a = b = inf; masses of 1e300 under that phat overflow
        # the KL coefficients, and an atom and a grid point at 1e200 the
        # phases of phi_x.  Each is refused, naming what overflowed, before
        # a sample is drawn and with no RuntimeWarning
        monkeypatch.setattr(gp, "sample_kl", None)  # a call would raise TypeError
        payload = {
            "atoms": [{"u": 0.0, "mass": 1.0}, {"u": 1.0, "mass": 1.0}],
            "frame": [[1.0, 0.0], [0.0, 1.0]],
            "phat": {"re": [1e300, 0.0], "im": [0.0, 1e300]},
        }
        if overflow == "frame":
            payload["frame"] = [[1e300, 0.0], [0.0, 1e300]]
            payload["phat"] = {"re": [1.0, 0.0], "im": [0.0, 1.0]}
        elif overflow == "masses":
            for atom in payload["atoms"]:
                atom["mass"] = 1e300
        elif overflow == "phi_x":
            payload["atoms"][0]["u"] = 1e200
            del payload["phat"]
            payload["phi_x"] = {
                "grid": {"points": [1e200, 1.0], "weights": [1.0, 1.0]},
                "values": [1.0, 1.0],
            }
        path = write(tmp_path / "model.json", payload)
        for backend in TWINS[twin]:
            monkeypatch.setattr(_kernels, "ACTIVE", backend)
            assert cli.main(["gp-sim", path]) == EXIT_SCHEMA
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == {
                "phat": "invalid input: E|X|^2 = inf is not finite\n",
                "frame": "invalid input: a = inf is not finite\n",
                "masses": "invalid input: complex vector has non-finite entries\n",
                "phi_x": "schema error: phi_x.values: complex vector has non-finite entries\n",
            }[overflow], backend.variant

    @pytest.mark.parametrize("doubled", [False, True], ids=["model", "doubled"])
    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-300])
    def test_sandwich_is_decided_at_any_mass_scale(
        self, tmp_path, capsys, monkeypatch, scale, doubled
    ):
        # each side has degree 2 in the masses, so at masses of 1e-300 all
        # three read 0 on the model itself; doubled KL coefficients put
        # E|Y|^2 past b E|X|^2 for this model, which must show at every scale
        if doubled:
            kl = gp.kl_coefficients

            def doubled_kl(fs, phat):
                c = kl(fs, phat)
                return gp.ComplexVector(re=2.0 * c.re, im=2.0 * c.im)

            monkeypatch.setattr(gp, "kl_coefficients", doubled_kl)
        path = write(tmp_path / "model.json", random_model_payload(scale))
        code = cli.main(["gp-sim", path, "--samples", "1000"])
        out = capsys.readouterr().out
        assert code == (EXIT_SANDWICH if doubled else EXIT_OK)
        assert out.endswith("VIOLATED\n" if doubled else "holds\n")
        # the printed sides are the ones decided: over E|X|^2 where the
        # model's own read 0
        sides = out.splitlines()[-1].rsplit(":", 1)[0]
        assert ("sandwich over ex2 " in sides) == (scale == 1e-300)
        lower, middle, upper = map(float, sides.split()[-5::2])
        assert 0.0 < lower <= upper
        assert (lower <= middle <= upper) == (not doubled)

    @pytest.mark.parametrize("balanced", [False, True], ids=["generic", "balanced"])
    def test_masses_across_the_double_range(self, tmp_path, capsys, balanced):
        # masses [5e-324, 1, 1e-300] put the centred weights near 2**536,
        # where E|Y|^2, of degree 4 in W^{1/2}, read inf on the centred
        # frame.  A generic 3 x 3 frame there is no frame at the rank rule
        # and must be refused as one, not as an overflow; with each column
        # divided by sqrt(mass) it is a frame, decided as at any other mass.
        masses = np.array([5e-324, 1.0, 1e-300])
        rows = np.array([[1.0, 0.5, -0.25], [0.25, 1.0, 0.5], [-0.5, 0.25, 1.0]])
        payload = {
            "atoms": [{"u": u, "mass": mass} for u, mass in zip([-1.0, 0.5, 2.0], masses)],
            "frame": (rows / np.sqrt(masses) if balanced else rows).tolist(),
            "phat": {"re": [1.0, -0.5, 0.75], "im": [0.25, 0.5, -1.0]},
        }
        path = write(tmp_path / "model.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["gp-sim", path, "--samples", "1000"])
        captured = capsys.readouterr()
        if balanced:
            assert code == EXIT_OK
            assert captured.out.endswith("sandwich 0.03125 <= 0.65625 <= 0.96875: holds\n")
        else:
            assert code == EXIT_DEGENERATE
            assert captured.err == (
                "degenerate input: sandwich bounds need a strictly positive lower bound\n"
            )

    def test_finite_ex2_on_masses_at_both_ends_of_the_double_range(self, tmp_path, capsys):
        # masses [5e-324, 1.7e308, 1.7e308] keep W as it is, so the centred
        # E|X|^2 = sum w |phat|^2 needs its own power of two, and the centred
        # B = Phi W^{1/2} lies near 2**-538, where its eigenvalues underflow
        masses = np.array([5e-324, 1.7e308, 1.7e308])
        rows = np.array([[1.0, 0.5, -0.25], [0.25, 1.0, 0.5], [-0.5, 0.25, 1.0]])
        payload = {
            "atoms": [{"u": u, "mass": mass} for u, mass in zip([-1.0, 0.5, 2.0], masses)],
            "frame": (rows / np.sqrt(masses)).tolist(),
            "phat": {"re": [0.1, -0.1, 0.1], "im": [0.0, 0.0, 0.0]},
        }
        path = write(tmp_path / "model.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["gp-sim", path, "--samples", "1000"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("ex2=3.4e+306 ")
        assert out.endswith(": holds\n")

    def test_not_a_frame(self, tmp_path, capsys):
        payload = onb_model_payload()
        payload["frame"] = [[1.0, 0.0, 0.0]]
        path = write(tmp_path / "model.json", payload)
        assert cli.main(["gp-sim", path, "--samples", "10"]) == EXIT_DEGENERATE

    @pytest.mark.parametrize("twin", sorted(TWINS))
    @pytest.mark.parametrize("profile", ["phat", "phi_x"])
    def test_stdout_is_pinned(self, tmp_path, capsys, monkeypatch, twin, profile):
        # sha256 of the whole report, recorded before gp was rebuilt on Grid
        # and FrameSystem; the models are dyadic, so no platform enters them
        digest = {
            "phat": "dca71a188f65b2c328863a6587cf3a004fe117f1243ba353edaa5cbae2e64003",
            "phi_x": "fc90bca6cfe3d139ff97c8f2912cf51ad62df868cc7ccfef0009c348e6014a46",
        }[profile]
        path = write(tmp_path / "model.json", dyadic_model_payload(profile))
        for backend in TWINS[twin]:
            monkeypatch.setattr(_kernels, "ACTIVE", backend)
            assert cli.main(["gp-sim", path, "--samples", "20001", "--seed", "7"]) == EXIT_OK
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, backend.variant

    @pytest.mark.parametrize("profile, grids", [("phat", 1), ("phi_x", 2)])
    def test_bounds_and_coefficients_computed_once(
        self, tmp_path, capsys, monkeypatch, profile, grids
    ):
        # one Grid for the atoms (and one for phi_x's quadrature grid), one
        # Jacobi call, counted at the backend whichever module makes it, and
        # one set of KL coefficients per call
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        path = write(tmp_path / "model.json", dyadic_model_payload(profile))
        monkeypatch.setattr(frames.Grid, "__post_init__", counted("grid", frames.Grid.__post_init__))
        active = _kernels.ACTIVE
        monkeypatch.setattr(
            _kernels, "ACTIVE", active._replace(jacobi_rows=counted("jacobi", active.jacobi_rows))
        )
        monkeypatch.setattr(gp, "kl_coefficients", counted("kl", gp.kl_coefficients))
        assert cli.main(["gp-sim", path, "--samples", "3000", "--seed", "7"]) == EXIT_OK
        assert calls == {"grid": grids, "jacobi": 1, "kl": 1}


class TestCanonicalAndVerify:
    def test_canonical_roundtrip(self, tmp_path, capsys):
        src = write(tmp_path / "m.json", mercedes_payload())
        out_path = tmp_path / "tight.json"
        assert cli.main(["canonical", src, "--out", str(out_path)]) == EXIT_OK
        tight = cli.parse_frame_file(str(out_path))
        expected = math.sqrt(2.0 / 3.0) * mercedes_frame().vectors
        np.testing.assert_allclose(tight.vectors, expected, atol=1e-12)
        out = capsys.readouterr().out
        assert "projector_residual=" in out

    def test_verify_mercedes(self, tmp_path, capsys):
        src = write(tmp_path / "m.json", mercedes_payload())
        assert cli.main(["verify", src]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max_reproducing_residual=" in out
        assert "kernel_vs_tight_max=" in out
        assert "isometry_relative_max=" in out

    def test_verify_ill_conditioned_monomials(self, tmp_path, capsys):
        # Hilbert-type Gramian: retained condition number ~1e10 costs the
        # pseudo-inverse route ~eps*kappa accuracy; the gate widens with it
        from framekit import monomial_frame

        src = tmp_path / "mono.json"
        cli.write_frame_file(str(src), monomial_frame(8, 24))
        assert cli.main(["verify", str(src)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max_reproducing_residual=" in out

    def test_verify_weighted_frame(self, tmp_path, capsys):
        payload = {
            "grid": {"points": [0.0, 1.0, 2.5], "weights": [0.5, 1.5, 0.75]},
            "vectors": [
                [1.0, 0.25, -0.5],
                [0.0, 1.0, 1.0],
                [0.5, -1.0, 2.0],
                [1.0, 1.0, 1.0],
            ],
        }
        src = write(tmp_path / "w.json", payload)
        assert cli.main(["verify", src]) == EXIT_OK

    @pytest.mark.parametrize("weights", [[5e-324, 1.0, 1.7e308], [1e-320, 1.0, 1e300]])
    def test_verify_subnormal_and_huge_weights(self, tmp_path, capsys, weights):
        # centring W must not lift the largest weight past the double range
        payload = {
            "grid": {"points": [0.0, 1.0, 2.0], "weights": weights},
            "vectors": [[1.0, 0.5, 0.25], [0.0, 1.0, -1.0]],
        }
        src = write(tmp_path / "w.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", src]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_verify_refuses_a_gramian_past_the_double_range(self, tmp_path, capsys):
        # two weights of 1.7e308 and a subnormal one leave W as it is when
        # centred, and the Gramian's first entry, 1.7e308 (0.9^2 + 0.9^2),
        # overflows: refused as invalid input, with no numpy warning
        payload = {
            "grid": {"points": [0.0, 1.0, 2.0], "weights": [5e-324, 1.7e308, 1.7e308]},
            "vectors": [[0.9, 0.9, 0.9], [0.9, -0.9, 0.5]],
        }
        src = write(tmp_path / "w.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", src]) == EXIT_SCHEMA
        assert capsys.readouterr().err == "invalid input: Gramian has non-finite entries\n"

    def test_verify_nan_residual_fails_its_row(self, tmp_path, capsys, monkeypatch):
        # NaN compares false both ways, so the verdict must be
        # residual <= tolerance, not "not residual > tolerance"
        from framekit import rkhs

        rows = rkhs._identity_rows

        def nan_row(fs, rank_tol):
            out = rows(fs, rank_tol)
            out["lax_identity_max"] = (math.nan, *out["lax_identity_max"][1:])
            return out

        monkeypatch.setattr(rkhs, "_identity_rows", nan_row)
        src = write(tmp_path / "m.json", mercedes_payload())
        assert cli.main(["verify", src]) == EXIT_MATH
        captured = capsys.readouterr()
        assert "lax_identity_max=nan" in captured.out
        assert "violation" in captured.err


def spell(x):
    """One double as a file spells it: 17 significant digits, -0.0 kept.

    "-0" would read back as the integer 0, that is +0.0.
    """
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def per_element_spelling(a):
    """The written text of a float64 array, spelled one value at a time."""
    if a.ndim == 1:
        return "[" + ", ".join(spell(x) for x in a) + "]"
    return "[" + ", ".join(per_element_spelling(row) for row in a) + "]"


def frame_file_text(fs):
    return (
        '{"grid": {"points": ' + per_element_spelling(fs.grid.points)
        + ', "weights": ' + per_element_spelling(fs.grid.weights)
        + '}, "vectors": ' + per_element_spelling(fs.vectors) + "}\n"
    )


def assert_frame_file_exact(path, fs):
    text = path.read_text(encoding="utf-8")
    assert text == frame_file_text(fs)
    raw = json.loads(text)
    for back, sent in (
        (raw["grid"]["points"], fs.grid.points),
        (raw["grid"]["weights"], fs.grid.weights),
        (raw["vectors"], fs.vectors),
    ):
        assert np.asarray(back, dtype=np.float64).tobytes() == sent.tobytes()


class TestSerialization:
    def test_dump_json_roundtrip_awkward_floats(self, tmp_path):
        values = [math.pi, 1.0 / 3.0, 1e-300, 123456789.123456789, 2.0**-1074]
        grid = frames.Grid(points=values, weights=np.abs(values))
        path = tmp_path / "f.json"
        cli.write_frame_file(str(path), frames.FrameSystem(grid=grid, vectors=[values]))
        parsed = json.loads(path.read_text(encoding="utf-8"))
        assert parsed["grid"]["points"] == values
        assert parsed["vectors"][0] == values

    @settings(max_examples=300, deadline=None, database=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @example(x=-0.0)
    @example(x=0.0)
    @example(x=5e-324)
    @example(x=-2.225073858507201e-308)  # largest subnormal
    @example(x=1.7e308)
    @example(x=-1.7e308)
    @example(x=1.7976931348623157e308)
    def test_every_finite_double_round_trips_bit_for_bit(self, x, tmp_path_factory):
        # x in every row of the file: points, weights (|x| > 0 only) and vectors
        other = 2.0 if x == 1.0 else 1.0
        grid = frames.Grid(points=[x, other], weights=[abs(x) or 1.0, 1.0])
        fs = frames.FrameSystem(grid=grid, vectors=[[x, 1.0], [2.5, x]])
        path = tmp_path_factory.mktemp("x") / "f.json"
        cli.write_frame_file(str(path), fs)
        assert_frame_file_exact(path, fs)
        # only negative zero is spelled differently from ".17g"
        expected = "-0.0" if x == 0.0 and math.copysign(1.0, x) < 0 else format(x, ".17g")
        assert path.read_text(encoding="utf-8").startswith(
            '{"grid": {"points": [' + expected + ", "
        )

    def test_entry_point_runs(self, tmp_path):
        path = write(tmp_path / "m.json", mercedes_payload())
        # the child runs the framekit this test imported, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "framekit.cli", "analyze", path],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert "B1=1.5" in proc.stdout


class TestArraySerialization:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        a=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(a=np.array([[1.5, -0.0, 2.0, -0.0]]))
    @example(a=np.array([[0.0, -0.0], [-0.5, -0.0]]))
    @example(a=np.array([[5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308]]))
    @example(a=np.array([[1.7976931348623157e308, -1.7976931348623157e308]]))
    @example(a=np.array([[1.0, -2.0, 3e20, 2.0**53, -(2.0**60)]]))
    @example(a=np.array([[0.1, -0.30000000000000004, 123456789.125, -7.5]]))
    def test_ndarray_rows_match_per_element_spelling(self, a, tmp_path_factory):
        # the first row doubles as the points where distinct, the last as the
        # weights where nonzero, so the grid rows see the same doubles
        points = a[0] if np.unique(a[0]).size == a.shape[1] else np.arange(a.shape[1], dtype=float)
        weights = np.abs(a[-1]) if np.all(a[-1] != 0) else np.ones(a.shape[1])
        fs = frames.FrameSystem(grid=frames.Grid(points=points, weights=weights), vectors=a)
        path = tmp_path_factory.mktemp("a") / "f.json"
        cli.write_frame_file(str(path), fs)
        assert_frame_file_exact(path, fs)

    def test_ndarray_inside_payload(self, tmp_path):
        # the naive kernel reads no rank, so its file records none
        path = tmp_path / "k.json"
        cli.write_kernel_file(str(path), rkhs.naive_kernel(mercedes_frame()), "naive", 1e-10)
        assert path.read_text(encoding="utf-8") == (
            '{"matrix": [[1.5, 0], [0, 1.4999999999999998]], "kind": "naive"}\n'
        )

    def test_kernel_write_memory_is_one_row(self, tmp_path):
        # the text of a 1000 x 1000 table is 20 MB; the write forms the 8 MB
        # table from its factor and holds one row of its text
        table = rkhs.KernelMatrix(
            grid=frames.Grid(points=np.arange(1000.0), weights=np.ones(1000)),
            factor=np.random.default_rng(0).standard_normal((1000, 2)),
        )
        path = tmp_path / "k.json"
        tracemalloc.start()
        try:
            cli.write_kernel_file(str(path), table, "rkhs", 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - table.values.nbytes < 1 << 20
        text = path.read_text(encoding="utf-8")  # whole: every row, then the tail
        assert text.count("], [") == 999
        assert text.endswith(']], "kind": "rkhs", "rank_tol": 1e-10}\n')


class TestParserOnce:
    def test_built_once_over_several_calls(self, tmp_path, capsys):
        path = write(tmp_path / "basis.json", standard_basis_payload())
        cli._build_parser.cache_clear()
        for argv in (["analyze", path], ["verify", path], ["hilbert", "--sizes", "4"]):
            assert cli.main(argv) == EXIT_OK
        with pytest.raises(SystemExit):  # an argument error leaves the parser usable
            cli.main(["analyze", path, "--out", "x"])
        assert cli.main(["analyze", path]) == EXIT_OK
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = "from framekit import cli; print(cli._build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


#: argv rows for main's one argparse pass: each command's valid argv,
#: "--opt=value" and abbreviated options, and rows that end in help or in an
#: argument error; no file is read, every handler is a stub
PARSE_ROWS = [
    ["analyze", "frame.json"],
    ["kernel", "frame.json", "--out", "k.json", "--naive"],
    ["canonical", "frame.json", "--out", "tight.json"],
    ["verify", "frame.json", "--rank-tol", "0.5"],
    ["gp-sim", "model.json", "--seed", "3", "--samples", "10"],
    ["hilbert", "--sizes", "4,5"],
    ["kernel", "frame.json", "--out=k.json"],
    ["analyze", "frame.json", "--rank", "1e-3"],
    ["canonical", "--rank=0", "frame.json"],
    ["analyze", "--", "frame.json"],
    [],
    ["bogus", "frame.json"],
    ["Analyze", "frame.json"],
    ["-h"],
    ["--help"],
    *([name, "-h"] for name in ("analyze", "kernel", "canonical", "verify", "gp-sim", "hilbert")),
    ["analyze", "frame.json", "--he"],
    ["analyze"],
    ["hilbert"],
    ["analyze", "frame.json", "--out", "x"],
    ["hilbert", "--sizes", "4", "--rank-tol", "0"],
    ["analyze", "frame.json", "second.json"],
    ["verify", "frame.json", "--rank-tol", "2"],
    ["kernel", "frame.json", "--naive", "--rank-tol=nan"],
    ["analyze", "frame.json", "--rank-tol"],
    ["gp-sim", "model.json", "--samples", "1"],
]


class TestOneParsePass:
    @pytest.mark.parametrize("argv", PARSE_ROWS, ids=lambda argv: " ".join(argv) or "no command")
    def test_main_parses_as_the_top_level_parser(self, monkeypatch, capsysbinary, argv):
        # the Namespace main hands its handler, or the exit code, stdout and
        # stderr of help or of an argument error, against the top-level
        # parser's parse_args
        handled = []
        for name in cli._build_parser().plain:
            monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), handled.append)

        def through_main(argv):
            cli.main(argv)
            (args,) = handled
            return args

        def outcome(parse):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
            return result, capsysbinary.readouterr()

        assert outcome(through_main) == outcome(cli._build_parser().parse_args)


COMMANDS = ["analyze", "kernel", "canonical", "verify", "gp-sim", "hilbert"]
#: values for drawn argv: paths, numbers in and out of range, words that
#: start with "-", numbers that do not convert and the empty word
VALUES = [
    "frame.json", "k.json", "0", "0.5", "1e-3", "3", "10", "4,5", "1", "2",
    "-1", "-0.5", "-x", "-", "nan", "1.5", "x", "",
]
#: values each argument reads, for a command's own arguments to draw from
GOOD_VALUES = {
    None: ["frame.json", "x", ""], "--rank-tol": ["0", "0.5", "1e-3"], "--out": ["k.json"],
    "--seed": ["0", "3"], "--samples": ["2", "10"], "--sizes": ["4,5", "4"],
}
#: words put in anywhere: each option by its exact name, "--opt=value"
#: forms, abbreviations (ambiguous ones too), help and "--"
OTHER_WORDS = [
    "--rank-tol", "--out", "--naive", "--seed", "--samples", "--sizes",
    "--rank-tol=0.5", "--out=k.json", "--naive=1", "--seed=3", "--sizes=4",
    "--rank", "--o", "--na", "--s", "--se", "--sa", "--si", "-h", "--help", "--",
]


@st.composite
def drawn_argv(draw):
    """A command, then each argument it reads, given three times in four,
    in any order, with a value it reads three times in four and one drawn
    from VALUES else, or at times none, and in half the draws one or two
    more words of any kind put in anywhere."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    units = []
    for name, action in cli._build_parser().plain.get(command, {}).items():
        if not draw(st.integers(0, 3)):
            continue
        if action.nargs == 0:  # a flag
            units.append([name])
            continue
        value = draw(st.sampled_from(GOOD_VALUES[name] if draw(st.integers(0, 3)) else VALUES))
        if name is None:
            units.append([value])
        else:  # an option's value left out one time in eight
            units.append([name] + [value] * bool(draw(st.integers(0, 7))))
    units = draw(st.permutations(units))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        word = draw(st.sampled_from(VALUES + OTHER_WORDS))
        units.insert(draw(st.integers(0, len(units))), [word])
    return [command, *(word for unit in units for word in unit)]


#: argv shaped as perfbench passes them, which the plain walk parses alone
PLAIN_ARGV = [
    ["analyze", "frame.json"],
    ["kernel", "frame.json", "--out", "kernel.json"],
    ["canonical", "frame.json", "--out", "tight.json"],
    ["verify", "frame.json"],
    ["hilbert", "--sizes", "4,5,6,7,8,9,10,11,12,13,14,15,16"],
    ["gp-sim", "model.json", "--samples", "200000", "--seed", "1000"],
]


def parse_outcome(parse, argv):
    """The Namespace ``parse`` returns for ``argv``, or the exit code of its
    help or argument error, with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestPlainWalk:
    @settings(max_examples=400, deadline=None, database=None)
    @given(argv=drawn_argv())
    @example(argv=["verify", "frame.json", "--rank-tol", "0.5", "--rank-tol", "0"])
    @example(argv=["kernel", "--naive", "frame.json", "--naive"])
    @example(argv=["gp-sim", "--seed", "3", "model.json", "--samples", "1"])
    @example(argv=["hilbert", "--sizes", ""])
    @example(argv=["kernel", "frame.json", "--out"])
    @example(argv=["canonical", "frame.json", "--out", "-x"])
    def test_parses_as_argparse(self, argv):
        # a plain argv by the walk, any other by argparse: the same
        # Namespace, or the same exit code, stdout and stderr, as parse_args
        parser = cli._build_parser()
        assert parse_outcome(cli._parse, argv) == parse_outcome(parser.parse_args, argv)

    @pytest.mark.parametrize("argv", PLAIN_ARGV, ids=lambda argv: argv[0])
    def test_plain_argv_never_reach_argparse(self, monkeypatch, argv):
        expected = cli._build_parser().parse_args(argv)

        def refuse(*args, **kwargs):
            raise AssertionError("a plain argv reached argparse")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert cli._parse(argv) == expected


def phi_x_model_payload():
    payload = onb_model_payload()
    del payload["phat"]
    payload["phi_x"] = {
        "grid": {"points": [0.0, 0.5, 1.0], "weights": [0.5, 0.5, 0.5]},
        "values": [1.0, 0.5, 0.25],
    }
    return payload


def _put(target, key, bad):
    target[key] = bad


# field name in the message: (command, payload, how to put a bad value there)
NUMBER_FIELDS = {
    "grid.points": ("analyze", standard_basis_payload, lambda p, x: _put(p["grid"]["points"], 0, x)),
    "grid.weights": ("analyze", standard_basis_payload, lambda p, x: _put(p["grid"]["weights"], 1, x)),
    "vectors[1]": ("analyze", standard_basis_payload, lambda p, x: _put(p["vectors"][1], 1, x)),
    "atoms[].u": ("gp-sim", onb_model_payload, lambda p, x: _put(p["atoms"][1], "u", x)),
    "atoms[].mass": ("gp-sim", onb_model_payload, lambda p, x: _put(p["atoms"][2], "mass", x)),
    "frame[0]": ("gp-sim", onb_model_payload, lambda p, x: _put(p["frame"][0], 0, x)),
    "phat.re": ("gp-sim", onb_model_payload, lambda p, x: _put(p["phat"]["re"], 0, x)),
    "phat.im": ("gp-sim", onb_model_payload, lambda p, x: _put(p["phat"]["im"], 2, x)),
    "phi_x.grid.points": (
        "gp-sim", phi_x_model_payload, lambda p, x: _put(p["phi_x"]["grid"]["points"], 1, x)
    ),
    "phi_x.grid.weights": (
        "gp-sim", phi_x_model_payload, lambda p, x: _put(p["phi_x"]["grid"]["weights"], 0, x)
    ),
    "phi_x.values": ("gp-sim", phi_x_model_payload, lambda p, x: _put(p["phi_x"]["values"], 2, x)),
}
NOT_A_DOUBLE = {
    "true": True,
    "string": "1.0",
    "null": None,
    "nested": [1.0],
    "int401": 10**400,  # 401 digits, past the largest double
}


class TestNumberFieldRejection:
    @pytest.mark.parametrize("bad", list(NOT_A_DOUBLE), ids=str)
    @pytest.mark.parametrize("field", list(NUMBER_FIELDS), ids=str)
    def test_rejected_with_field_name(self, tmp_path, capsys, field, bad):
        command, payload_fn, put = NUMBER_FIELDS[field]
        payload = payload_fn()
        put(payload, NOT_A_DOUBLE[bad])
        path = write(tmp_path / "bad.json", payload)
        assert cli.main([command, path]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: ")
        assert field in err

    def test_large_integer_that_fits_a_double_is_read(self, tmp_path, capsys):
        payload = standard_basis_payload()
        payload["vectors"][1][1] = 10**150
        path = write(tmp_path / "big.json", payload)
        assert cli.main(["analyze", path]) == EXIT_OK

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads refuses int literals over sys.get_int_max_str_digits()
        path = tmp_path / "huge.json"
        path.write_text('{"grid": {"points": [0, 1], "weights": [1, 1]}, '
                        '"vectors": [[1, 0], [0, 1' + "0" * 5000 + ']]}', encoding="utf-8")
        assert cli.main(["analyze", str(path)]) == EXIT_SCHEMA
        assert "huge.json" in capsys.readouterr().err


def _without(path):
    # drop the last key of a path into the payload
    def drop(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return payload
    return drop


def _with(path, value):
    # set the value at a path into the payload
    def put(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload
    return put


# one malformed file per path of the reader: (command, payload, how to break
# it, the start of the message after "schema error: "); FILE is the path
SCHEMA_WALK = {
    "frame top level": ("analyze", standard_basis_payload, lambda p: [p], "FILE: "),
    "model top level": ("gp-sim", onb_model_payload, lambda p: "model", "FILE: "),
    "grid missing": ("analyze", standard_basis_payload, _without(["grid"]), "grid: missing"),
    "vectors missing": (
        "analyze", standard_basis_payload, _without(["vectors"]), "vectors: missing"
    ),
    "grid not an object": ("analyze", standard_basis_payload, _with(["grid"], [0.0]), "grid: "),
    "grid.points missing": (
        "analyze", standard_basis_payload, _without(["grid", "points"]), "grid.points: missing"
    ),
    "grid.weights missing": (
        "analyze", standard_basis_payload, _without(["grid", "weights"]), "grid.weights: missing"
    ),
    "grid weights count": (
        "analyze", standard_basis_payload, _with(["grid", "weights"], [1.0]), "grid: "
    ),
    "vectors not rows": ("analyze", standard_basis_payload, _with(["vectors"], []), "vectors: "),
    "vectors ragged": (
        "analyze", standard_basis_payload, _with(["vectors", 1], [0.0]), "vectors[1]: "
    ),
    "vectors columns": (
        "analyze", standard_basis_payload, _with(["vectors"], [[1.0, 0.0, 2.0]]), "vectors: "
    ),
    "atoms missing": ("gp-sim", onb_model_payload, _without(["atoms"]), "atoms: missing"),
    "frame missing": ("gp-sim", onb_model_payload, _without(["frame"]), "frame: missing"),
    "atoms not an array": ("gp-sim", onb_model_payload, _with(["atoms"], {}), "atoms: "),
    "atom not an object": ("gp-sim", onb_model_payload, _with(["atoms", 1], 0.5), "atoms[1]: "),
    "atoms[i].u missing": (
        "gp-sim", onb_model_payload, _without(["atoms", 1, "u"]), "atoms[1].u: missing"
    ),
    "atoms[i].mass missing": (
        "gp-sim", onb_model_payload, _without(["atoms", 2, "mass"]), "atoms[2].mass: missing"
    ),
    "atoms repeated u": ("gp-sim", onb_model_payload, _with(["atoms", 1, "u"], -1.0), "atoms: "),
    "frame ragged": ("gp-sim", onb_model_payload, _with(["frame", 2], [0.0]), "frame[2]: "),
    "frame columns": (
        "gp-sim", onb_model_payload, _with(["frame"], [[1.0, 0.0]]), "frame: "
    ),
    "both profiles": (
        "gp-sim", onb_model_payload, _with(["phi_x"], phi_x_model_payload()["phi_x"]), "phat/phi_x: "
    ),
    "neither profile": ("gp-sim", onb_model_payload, _without(["phat"]), "phat/phi_x: "),
    "phat not an object": ("gp-sim", onb_model_payload, _with(["phat"], [0.0]), "phat: "),
    "phat.re missing": (
        "gp-sim", onb_model_payload, _without(["phat", "re"]), "phat.re: missing"
    ),
    "phat.im missing": (
        "gp-sim", onb_model_payload, _without(["phat", "im"]), "phat.im: missing"
    ),
    "phat re/im lengths": (
        "gp-sim", onb_model_payload, _with(["phat", "im"], [0.0, 1.0]), "phat: "
    ),
    "phat length": (
        "gp-sim", onb_model_payload, _with(["phat"], {"re": [1.0], "im": [0.0]}), "phat: "
    ),
    "phi_x not an object": ("gp-sim", phi_x_model_payload, _with(["phi_x"], 1.0), "phi_x: "),
    "phi_x.grid missing": (
        "gp-sim", phi_x_model_payload, _without(["phi_x", "grid"]), "phi_x.grid: missing"
    ),
    "phi_x.values missing": (
        "gp-sim", phi_x_model_payload, _without(["phi_x", "values"]), "phi_x.values: missing"
    ),
    "phi_x.grid.points missing": (
        "gp-sim",
        phi_x_model_payload,
        _without(["phi_x", "grid", "points"]),
        "phi_x.grid.points: missing",
    ),
    "phi_x.grid weights count": (
        "gp-sim", phi_x_model_payload, _with(["phi_x", "grid", "weights"], [0.5]), "phi_x.grid: "
    ),
    "phi_x.values length": (
        "gp-sim", phi_x_model_payload, _with(["phi_x", "values"], [1.0, 0.5]), "phi_x.values: "
    ),
}


class TestSchemaWalk:
    @pytest.mark.parametrize("case", list(SCHEMA_WALK), ids=str)
    def test_refusal_names_its_field(self, tmp_path, capsys, case):
        command, payload_fn, breaks, start = SCHEMA_WALK[case]
        path = write(tmp_path / "bad.json", breaks(payload_fn()))
        assert cli.main([command, path]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: " + start.replace("FILE", path)), err


class TestSeedRange:
    @pytest.mark.parametrize("seed, code", [
        ("0", EXIT_OK),
        (str(2**64 - 1), EXIT_OK),
        ("-1", EXIT_SCHEMA),
        (str(2**64), EXIT_SCHEMA),
    ])
    def test_ends(self, tmp_path, capsys, seed, code):
        path = write(tmp_path / "model.json", onb_model_payload())
        assert cli.main(["gp-sim", path, "--samples", "10", f"--seed={seed}"]) == code
        captured = capsys.readouterr()
        if code == EXIT_OK:
            assert f"seed={seed}" in captured.out
        else:
            assert "seed" in captured.err and captured.out == ""


class TestSampleCount:
    @pytest.mark.parametrize("samples", ["1", "0", "-3", "two"])
    def test_below_two_is_refused_up_front(self, tmp_path, capsys, monkeypatch, samples):
        # refused by the parser, as --rank-tol is: the model file, which does
        # not exist, is never opened, and no sample is drawn
        monkeypatch.setattr(gp, "sample_kl", None)
        with pytest.raises(SystemExit) as exc:
            cli.main(["gp-sim", str(tmp_path / "missing.json"), "--samples", samples])
        assert exc.value.code == EXIT_SCHEMA
        assert "--samples" in capsys.readouterr().err

    def test_two_is_accepted(self, tmp_path, capsys):
        path = write(tmp_path / "model.json", onb_model_payload())
        assert cli.main(["gp-sim", path, "--samples", "2"]) == EXIT_OK
        assert "samples=2 " in capsys.readouterr().out

    @pytest.mark.parametrize("samples", [10**13, 2**63, 10**30])
    def test_more_than_memory_holds_is_an_argument_error(self, tmp_path, capsys, samples):
        # the two output arrays cannot be allocated: an argument error that
        # names the count, not numpy's MemoryError (or, past 2**63 - 1, its
        # ValueError)
        path = write(tmp_path / "model.json", onb_model_payload())
        assert cli.main(["gp-sim", path, "--samples", str(samples)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.err == f"invalid input: {samples} samples do not fit in memory\n"
        assert captured.out == ""


RANK_TOL_COMMANDS = {  # name: argv, with PATH and MODEL for the input files
    "analyze": ["analyze", "PATH"],
    "kernel": ["kernel", "PATH"],
    "kernel --naive": ["kernel", "PATH", "--naive"],
    "canonical": ["canonical", "PATH"],
    "verify": ["verify", "PATH"],
    "gp-sim": ["gp-sim", "MODEL", "--samples", "10"],
}


class TestRankTolRange:
    @pytest.fixture(scope="class")
    def argv(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rank-tol")
        inputs = {
            "PATH": write(root / "basis.json", standard_basis_payload()),
            "MODEL": write(root / "model.json", onb_model_payload()),
        }

        def build(command, rank_tol):
            args = [inputs.get(a, a) for a in RANK_TOL_COMMANDS[command]]
            return args + [f"--rank-tol={rank_tol}"]

        return build

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        command=st.sampled_from(sorted(RANK_TOL_COMMANDS)),
        rank_tol=st.one_of(
            st.just(math.nan),
            st.floats(max_value=-5e-324),  # negative, down to -inf
            st.floats(min_value=1.0),  # 1 and above, up to inf
        ),
    )
    def test_outside_unit_interval_is_an_argument_error(self, argv, command, rank_tol):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv(command, repr(rank_tol)))
        assert exc.value.code == EXIT_SCHEMA

    @pytest.mark.parametrize("command", sorted(RANK_TOL_COMMANDS))
    @pytest.mark.parametrize("rank_tol", ["0", "-0.0", "0.5"])
    def test_inside_unit_interval_is_accepted(self, argv, command, rank_tol):
        assert cli.main(argv(command, rank_tol)) == EXIT_OK


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "PATH", "--out", "x"],
            ["verify", "PATH", "--naive"],
            ["canonical", "PATH", "--seed", "1"],
            ["kernel", "PATH", "--samples", "10"],
            ["gp-sim", "PATH", "--out", "x"],
            ["hilbert", "--sizes", "4", "--rank-tol", "0"],
        ],
    )
    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys, argv):
        path = write(tmp_path / "basis.json", standard_basis_payload())
        with pytest.raises(SystemExit) as exc:
            cli.main([path if a == "PATH" else a for a in argv])
        assert exc.value.code == EXIT_SCHEMA
        assert "unrecognized arguments" in capsys.readouterr().err


# Every FramekitError class and the exit code the module docstring gives it.
EXIT_BY_ERROR = {
    errors.FramekitError: EXIT_SCHEMA,
    errors.InvalidMatrix: EXIT_SCHEMA,
    errors.DimensionMismatch: EXIT_SCHEMA,
    errors.InvalidIndex: EXIT_SCHEMA,
    errors.InvalidArgument: EXIT_SCHEMA,
    cli.SchemaError: EXIT_SCHEMA,
    errors.ZeroSpan: EXIT_DEGENERATE,
    errors.NotAFrame: EXIT_DEGENERATE,
    errors.NotConverged: EXIT_SCHEMA,
    errors.Violation: EXIT_MATH,
}

# The label main prints before each class's message on stderr.
LABEL_BY_ERROR = {
    errors.FramekitError: "error",
    errors.InvalidMatrix: "invalid input",
    errors.DimensionMismatch: "invalid input",
    errors.InvalidIndex: "invalid input",
    errors.InvalidArgument: "invalid input",
    cli.SchemaError: "schema error",
    errors.ZeroSpan: "degenerate input",
    errors.NotAFrame: "degenerate input",
    errors.NotConverged: "error",
    errors.Violation: "violation",
}


class TestExitCodes:
    def test_exit_numbers_are_the_documented_ones(self):
        # the constants are read from the error classes, so the tests that
        # compare against them would follow a changed class; this one does not
        codes = (EXIT_OK, EXIT_MISSING, EXIT_SCHEMA, EXIT_DEGENERATE, EXIT_MATH, EXIT_SANDWICH)
        assert codes == (0, 1, 2, 3, 4, 5)

    def test_every_error_class_is_mapped(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert set(subclasses(errors.FramekitError)) <= set(EXIT_BY_ERROR)

    @pytest.mark.parametrize(
        "error, code", list(EXIT_BY_ERROR.items()), ids=lambda x: getattr(x, "__name__", str(x))
    )
    def test_error_class_exit_code(self, monkeypatch, tmp_path, capsys, error, code):
        def failing(args):
            raise error("stubbed failure")

        monkeypatch.setattr(cli, "cmd_analyze", failing)
        path = write(tmp_path / "basis.json", standard_basis_payload())
        assert cli.main(["analyze", path]) == code
        assert "stubbed failure" in capsys.readouterr().err

    @pytest.mark.parametrize("error", list(EXIT_BY_ERROR), ids=lambda x: x.__name__)
    def test_error_class_label(self, monkeypatch, tmp_path, capsys, error):
        def failing(args):
            print("printed before the failure")
            raise error("stubbed failure")

        monkeypatch.setattr(cli, "cmd_analyze", failing)
        path = write(tmp_path / "basis.json", standard_basis_payload())
        cli.main(["analyze", path])
        expected = f"{LABEL_BY_ERROR[error]}: stubbed failure\n"
        assert capsys.readouterr() == ("printed before the failure\n", expected)

    def test_a_new_class_brings_its_own_code_and_label(self, monkeypatch, tmp_path, capsys):
        # main reads the code and the label from the class, so a class added
        # later needs no handler of its own
        class Custom(errors.FramekitError):
            exit_code = 7
            label = "custom failure"

        def failing(args):
            raise Custom("stubbed failure")

        monkeypatch.setattr(cli, "cmd_analyze", failing)
        path = write(tmp_path / "basis.json", standard_basis_payload())
        assert cli.main(["analyze", path]) == 7
        assert capsys.readouterr().err == "custom failure: stubbed failure\n"
        # drop the class, so test_every_error_class_is_mapped never meets it
        monkeypatch.undo()
        del Custom, failing
        gc.collect()

    @pytest.mark.parametrize("command", ["analyze", "kernel", "verify"])
    def test_jacobi_sweep_limit(self, monkeypatch, tmp_path, capsys, command):
        r = np.random.default_rng(4)
        payload = {
            "grid": {"points": list(range(8)), "weights": [1.0] * 8},
            "vectors": r.standard_normal((8, 8)).tolist(),
        }
        path = write(tmp_path / "dense.json", payload)
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
        assert cli.main([command, path]) == EXIT_SCHEMA
        assert "after 1 sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "kernel", "canonical", "verify"])
    def test_rank_tol_zero_on_scaled_duplicates(self, tmp_path, capsys, command):
        # 8 random vectors on 16 points, each listed twice, scaled by 1e3:
        # the eigenvalues past the 8th are rounding noise, about 1e-32 of
        # lambda_max, below the floor of the rank rule, so rank_tol 0 keeps
        # rank 8 and every command prints what it prints at the default
        r = np.random.default_rng(3)
        m = 16
        base = r.standard_normal((8, m))
        payload = {
            "grid": {
                "points": list(np.arange(m) + r.uniform(0.0, 0.5, m)),
                "weights": list(r.uniform(0.5, 2.0, m)),
            },
            "vectors": (1e3 * np.vstack([base, base])).tolist(),
        }
        path = write(tmp_path / "dup.json", payload)
        assert cli.main([command, path]) == EXIT_OK
        default = capsys.readouterr()
        assert cli.main([command, path, "--rank-tol", "0"]) == EXIT_OK
        assert capsys.readouterr() == default
        if command == "analyze":
            assert " rank=8 " in default.out and "frame=false" in default.out
