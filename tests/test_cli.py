import contextlib
import dataclasses
import io
import json
import math
import os
import re
import stat
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sltosim import bytescan, cli, designer, engine, optics, slto
from sltosim.cli import (
    KINDS,
    ConfigError,
    _float_list,
    _int_list,
    main,
    read_matrix_file,
    run_experiment,
    verify_slto,
    write_matrix_file,
)
from sltosim.designer import AnnealSchedule, DesignTargets, PotentialAnsatz, design_cost
from sltosim.engine import CompactEngineConfig, evolution_operator, evolve_cycle
from sltosim.linalg import Operator, ShapeError, group_populations

from conftest import dense_slto_residuals, random_hermitian


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def strip_wall_clock(raw: bytes) -> bytes:
    return b"\n".join(line for line in raw.splitlines() if b"wall_clock_seconds" not in line)


#: the names of TestMatrixFiles.writer_inputs
WRITER_CASES = ["exported", "perturbed", "exported_transposed", "zero_rows",
                "first_column_only", "last_column_only", "signed_zeros", "dim_1_zero", "dim_1",
                "special_values", "special_values_transposed"]


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        path = tmp_path / "m.txt"
        write_matrix_file(path, m, layout=(5,))
        back, layout = read_matrix_file(path)
        assert layout == (5,)
        assert np.max(np.abs(back - m)) <= 1e-15

    def test_bad_layout_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("4 3 2\n" + "\n".join("0+0j 0+0j 0+0j 0+0j" for _ in range(4)) + "\n")
        with pytest.raises(ConfigError):
            read_matrix_file(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\nnot-a-number\n")
        with pytest.raises(ConfigError):
            read_matrix_file(path)

    @pytest.mark.parametrize("token", ["nan+0j", "0+infj", "-inf+0j"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        path = tmp_path / "m.txt"
        path.write_text(f"2\n1+0j 0+0j\n0+0j {token}\n")
        with pytest.raises(ConfigError, match=r"m\.txt: non-finite entry in row 1"):
            read_matrix_file(path)

    @staticmethod
    def special_values_matrix() -> np.ndarray:
        """12x12, entries over 600 decades plus signed zeros, subnormals and extremes."""
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e-310, 1.7976931348623157e308]
        n = 12
        parts = [rng.normal(size=n * n) * 10.0 ** rng.integers(-300, 300, n * n)
                 for _ in range(2)]
        for part in parts:
            part[rng.choice(n * n, len(special), replace=False)] = special
        return (parts[0] + 1j * parts[1]).reshape(n, n)

    @staticmethod
    def writer_inputs():
        """(matrix, layout) pairs shaped like exports, most entries exact zeros, and the
        dense special values matrix."""
        cfg = CompactEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g=0.3, n_max1=4, n_max2=3)
        exported = evolution_operator(cfg, cfg.tau).entries
        perturbed = exported.copy()
        c, s = math.cos(1e-3), math.sin(1e-3)
        perturbed[[3, 30]] = c * exported[3] - s * exported[30], s * exported[3] + c * exported[30]
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        zero_rows = dense.copy()
        zero_rows[[0, 2, 5]] = 0
        first_only, last_only = np.zeros((5, 5), complex), np.zeros((5, 5), complex)
        first_only[2, 0] = last_only[2, 4] = 0.25 - 1e-300j
        signed_zeros = np.zeros((5, 5), complex)
        signed_zeros.real[1, 2] = signed_zeros.imag[1, 3] = -0.0  # (-0, +0) and (+0, -0)
        signed_zeros.real[3, 0] = signed_zeros.imag[3, 0] = -0.0
        signed_zeros.imag[4, 4] = -0.0
        special = TestMatrixFiles.special_values_matrix()
        layout = (cfg.n_max1 + 1, cfg.n_max2 + 1, 2)
        return {
            "exported": (exported, layout),
            "perturbed": (perturbed, layout),
            "exported_transposed": (exported.T, layout),
            "zero_rows": (zero_rows, None),
            "first_column_only": (first_only, None),
            "last_column_only": (last_only, None),
            "signed_zeros": (signed_zeros, (5,)),
            "dim_1_zero": (np.zeros((1, 1), complex), None),
            "dim_1": (np.full((1, 1), -2.5 + 1e-310j), (1,)),
            "special_values": (special, (3, 4)),
            "special_values_transposed": (special.T, (3, 4)),
        }

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_round_trip_is_bit_exact(self, tmp_path, case):
        m, layout = self.writer_inputs()[case]
        path = tmp_path / "m.txt"
        write_matrix_file(path, m, layout)
        back, layout_back = read_matrix_file(path)
        assert layout_back == layout
        assert back.tobytes() == np.ascontiguousarray(m).tobytes()  # signed zeros too

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_written_bytes_match_per_entry_format(self, tmp_path, case):
        m, layout = self.writer_inputs()[case]
        path = tmp_path / "m.txt"
        write_matrix_file(path, m, layout)
        assert path.read_text() == per_entry_matrix_file(m, layout)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_written_bytes_match_per_entry_format_on_any_parts(self, tmp_path_factory, data):
        """Every mix of exact and signed zeros, subnormal, normal and non-finite parts,
        most of them +0 as in an export."""
        dim = data.draw(st.integers(1, 24))
        part = st.one_of(
            st.just(0.0), st.just(-0.0),
            st.builds(lambda k, sign: sign * k * 5e-324,  # the subnormals, k 2^-1074
                      st.integers(1, 2**52 - 1), st.sampled_from([1, -1])),
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False),
            st.sampled_from([math.inf, -math.inf, math.nan]),
        )
        m = np.empty((dim, dim), complex)
        m.real, m.imag = (data.draw(hnp.arrays(np.float64, (dim, dim), elements=part,
                                               fill=st.just(0.0)))
                          for _ in range(2))
        if data.draw(st.booleans()):
            m = m.T
        path = tmp_path_factory.mktemp("write") / "m.txt"
        write_matrix_file(path, m)
        assert path.read_text() == per_entry_matrix_file(m, None)

    def test_writer_streams_its_rows(self, tmp_path):
        """An export is written a row at a time, never held as one body string."""
        cfg = CompactEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g=0.3,
                                  n_max1=31, n_max2=31)
        u = evolution_operator(cfg, cfg.tau).entries
        assert cfg.dim == 2048 and np.count_nonzero(u) < 2 * cfg.dim
        path = tmp_path / "u.txt"
        tracemalloc.start()
        try:
            write_matrix_file(path, u.T)  # a view, so a whole contiguous copy would show too
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(path)
        assert size > 20_000_000
        # u was allocated before tracing started, so the peak is the writer's own
        assert peak < size / 4

    @pytest.mark.parametrize("at, bad", [(17, b"\xff"), (9000, b"\xff"),
                                         ((1 << 16) - 1, b"\xc3\xff"), (72004, b"\xc3")],
                             ids=["first_chunk", "later_chunk", "across_chunks", "truncated_end"])
    def test_undecodable_byte_named_by_its_file_offset(self, tmp_path, at, bad):
        """A file that is not UTF-8 is named with the offset of its first bad byte
        in the file, wherever the text reader's chunks fall."""
        path = tmp_path / "m.txt"
        write_matrix_file(path, np.zeros((120, 120), dtype=complex))
        raw = bytearray(path.read_bytes())
        assert len(raw) == 72004
        raw[at:at + len(bad)] = bad
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError) as decoded:
            bytes(raw).decode("utf-8")
        assert decoded.value.start == at
        with pytest.raises(ConfigError,
                           match=rf"m\.txt: byte {at} \(0x{bad[0]:02x}\) is not UTF-8$"):
            read_matrix_file(path)

    @pytest.mark.parametrize("body, message", [
        ("2\n1+0j 0+0j\n0+0j\n", "row 1 has 1 entries"),  # ragged row
        ("2\n1+0j 0+0j 0+0j\n0+0j 1+0j 0+0j\n", "row 0 has 3 entries"),
        ("2\n1+0j 0+0j\n\n0+0j 1+0j\n", "expected 2 rows, found 3"),  # blank row
        ("3\n1 0 0\n0 1 0\n", "expected 3 rows, found 2"),  # missing row
        ("2\n1 0\n0 1\n0 0\n", "expected 2 rows, found 3"),  # extra row
        ("2\n1+0j 0+0j\n0+0j 1+0k\n", "unparsable entry in row 1"),
        ("1\n1+2J\n", "unparsable entry in row 0"),  # the format's unit is lower-case j
        ("0\n", "bad header '0'"),
        ("", "empty matrix file"),
        ("2.5\n1 0\n0 1\n", "bad header '2.5'"),
    ])
    def test_malformed_rows_named(self, tmp_path, body, message):
        path = tmp_path / "m.txt"
        path.write_text(body)
        with pytest.raises(ConfigError, match=rf"m\.txt: {re.escape(message)}$"):
            read_matrix_file(path)

    @pytest.mark.parametrize("dim, refused", [(3, False), (4, True)])
    def test_dimension_cap_checked_before_any_row(self, tmp_path, monkeypatch, dim, refused):
        monkeypatch.setattr(bytescan, "MAX_DENSE_DIM", 3)
        path = tmp_path / "m.txt"
        write_matrix_file(path, np.eye(dim, dtype=complex))
        parsed = []  # every parse of the body, by the byte pass or by rows
        for owner, name in ((bytescan, "parse_body"), (np, "loadtxt")):
            parse = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, name=name, parse=parse, **k:
                                parsed.append(name) or parse(*a, **k))
        if refused:
            with pytest.raises(ConfigError, match=r"m\.txt: dimension 4, above the cap 3$"):
                read_matrix_file(path)
            assert not parsed
        else:
            assert read_matrix_file(path)[0].shape == (3, 3)
            assert parsed == ["parse_body", "loadtxt"]


def per_entry_matrix_file(m: np.ndarray, layout) -> str:
    """The text of a matrix file with every entry formatted on its own, as the oracle."""
    rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in m]
    return " ".join(map(str, (len(m), *(layout or ())))) + "\n" + "\n".join(rows) + "\n"


def _matrix_file_outcome(path):
    """What read_matrix_file makes of a file: its entries' bytes, or its error message."""
    try:
        entries, layout = read_matrix_file(path)
    except ConfigError as err:
        return "error", str(err)
    return "ok", entries.shape, entries.tobytes(), layout


#: spellings of zero the byte pass must leave to the float parser
ZERO_SPELLINGS = ["-0+0j", "0-0j", "00+0j", "+0+0j"]

#: tokens that do not parse, the first a near miss of the exact zero
BAD_TOKENS = ["0+0jj", "1+2J", "0+0k"]


def _value_tokens() -> list[str]:
    values = [*TestMatrixFiles.special_values_matrix().ravel()[:40],
              complex(5e-324, -0.0), complex(-0.0, 0.0), complex(-5e-324, 1e-310), 1 + 0j]
    return [f"{z.real:.17g}{z.imag:+.17g}j" for z in values] + ["nan+0j"]


@st.composite
def matrix_file_texts(draw):
    """A matrix file mixing exact zeros with other zero spellings, full-precision
    and special values, varied blanks and row endings, and now and then a
    ragged, missing or extra row, a token that does not parse or a non-ASCII
    separator."""
    dim = draw(st.integers(1, 6))
    token = st.one_of(st.just("0+0j"), st.just("0+0j"), st.sampled_from(ZERO_SPELLINGS),
                      st.sampled_from(_value_tokens()))
    if draw(st.integers(0, 7)) == 0:
        rows = [["0+0j"] * dim for _ in range(dim)]
    else:
        rows = [draw(st.lists(token, min_size=dim, max_size=dim)) for _ in range(dim)]
    fault = draw(st.sampled_from(["none"] * 10 + ["drop", "add", "move", "row", "no row", "bad"]))
    r1 = draw(st.integers(0, dim - 1))
    r2 = (r1 + draw(st.integers(1, max(1, dim - 1)))) % dim  # another row, if there is one
    if fault in ("drop", "move"):
        moved = rows[r1].pop()
        if fault == "move":
            rows[r2].append(moved)
    elif fault == "add":
        rows[r1].append("0+0j")
    elif fault == "row":
        rows.insert(r1, ["0+0j"] * dim)
    elif fault == "no row":
        rows.pop(r1)
    elif fault == "bad":
        rows[r1][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(BAD_TOKENS))
    separator = st.sampled_from([" ", " ", "  ", "\t", " \t", "\x1f"])
    blank = st.sampled_from(["", "", " ", "\t", "  "])
    lines = []
    for row in rows:
        text = draw(blank)
        for i, tok in enumerate(row):
            text += tok + (draw(separator) if i < len(row) - 1 else "")
        lines.append(text + draw(blank))
    if lines and draw(st.integers(0, 9)) == 0:
        r, c = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, 40))
        lines[r] = lines[r][:c] + "\u00a0" + lines[r][c:]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return f"{dim}{ending}" + ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestMatrixFileParser:
    @given(matrix_file_texts(), st.booleans())
    @example("3\n0+0j 0+0j\n0+0j 0+0j 0+0j 0+0j\n0+0j 0+0j 0+0j\n", True)  # a token moved
    @example("2\n0+0j -0+0j\n0-0j 0+0j\n", True)
    @example("2\n0+0j 0+0j\n0+0j 0+0j", True)
    @example("2\n0+0j\x070+0j\n0+0j 0+0j\n", True)  # a control byte that is no blank
    @example("2\n0+0j 0+0j\n0+0j 0+0k\n", True)  # a kept token that does not parse
    @settings(max_examples=300, deadline=None)
    def test_byte_pass_matches_row_parse(self, tmp_path_factory, text, gates_lifted):
        """The byte pass returns the per-row loadtxt entries to the byte, or the same error."""
        path = tmp_path_factory.mktemp("parse") / "m.txt"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bytescan, "parse_body", lambda body, dim: None)
            expected = _matrix_file_outcome(path)
        if expected[0] == "ok":
            rows = path.read_text().rstrip().splitlines()[1:]
            assert expected[2] == np.loadtxt(rows, dtype=np.complex128, ndmin=2,
                                             comments=None).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            if gates_lifted:
                mp.setattr(bytescan, "BYTE_PASS_MIN_ENTRIES", 3)
                mp.setattr(bytescan, "BYTE_PASS_MAX_BYTES_PER_ENTRY", 10**6)
            assert _matrix_file_outcome(path) == expected

    def test_byte_pass_reads_the_exported_files(self, tmp_path):
        """The exported unitary is read by the byte pass, exact zeros and all."""
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1.0", "--omega1", "2.0",
                     "--g", "0.3", "--n-max1", "5", "--n-max2", "5", "--export-matrices",
                     str(tmp_path), "--out", str(tmp_path / "out"), "--no-color"]) == 0
        body = (tmp_path / "u_tau.txt").read_text().split("\n", 1)[1].rstrip()
        entries = bytescan.parse_body(body, 72)
        assert entries is not None
        assert entries.tobytes() == np.loadtxt(body.splitlines(), dtype=np.complex128,
                                               comments=None).tobytes()
        assert np.count_nonzero(entries) < entries.size // 10


class TestAbstractCycleCommand:
    def test_reference_run(self, tmp_path, capsys):
        code = main([
            "abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
            "--g", "0.05", "--out", str(tmp_path), "--no-color",
        ])
        assert code == 0
        report = load_report(tmp_path)
        res = report["results"]
        assert abs(res["eta"] - 0.5) <= 1e-9
        assert abs(res["tau"] - math.pi / 0.1) <= 1e-10
        assert abs(res["power"] - 2 * 0.05 * 1.0 / math.pi) <= 1e-10
        assert report["all_checks_passed"]

    def test_series_schema(self, tmp_path):
        code = main([
            "abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
            "--g", "0.05", "--n-max1", "4", "--n-max2", "4",
            "--out", str(tmp_path), "--series", "--no-color",
        ])
        assert code == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "t,pop1,pop2,pop3,S_ent,E_B1,E_B2,resid_energy,resid_weighted"
        assert len(lines) == 102  # header + default grid

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                   "g": 0.05, "bogus": 1}))
        code = main(["abstract-cycle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                   "g": 0.05, "n_max1": 3, "n_max2": 3}))
        code = main(["abstract-cycle", "--config", str(cfg), "--g", "0.1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0
        report = load_report(tmp_path / "o")
        assert abs(report["results"]["tau"] - math.pi / 0.2) <= 1e-10

    def test_equal_temperatures_rejected_at_load(self, tmp_path):
        code = main(["abstract-cycle", "--beta1", "1", "--beta2", "1",
                     "--omega1", "2", "--g", "0.05", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--beta1", "0.5", "--g", "inf"],
        ["--beta1", "nan", "--g", "0.05", "--n-max1", "4", "--n-max2", "4"],
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, flags):
        code = main(["abstract-cycle", "--beta2", "1", "--omega1", "2", *flags,
                     "--out", str(tmp_path), "--no-color"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    def test_sector_cap_is_usage_error(self, tmp_path, capsys):
        # the tail rule derives n_max1 = n_max2 = 13815510941 here
        code = main(["abstract-cycle", "--beta1", "1e-9", "--beta2", "1", "--omega1", "1",
                     "--g", "0.1", "--out", str(tmp_path / "o"),
                     "--export-matrices", str(tmp_path / "x"), "--no-color"])
        assert code == 2
        assert "n_max1 = 13815510941" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "x").exists()

    def test_dense_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # 2 * 65 * 65 = 8450 > MAX_DENSE_DIM; refused before the cycle runs
        assert 2 * 65 * 65 > engine.MAX_DENSE_DIM >= 2 * 61 * 61

        def cycle_run(cfg):
            raise AssertionError("the cycle ran before the dense cap was checked")

        monkeypatch.setattr(cli, "evolve_cycle", cycle_run)
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "64", "--n-max2", "64",
                     "--out", str(tmp_path / "o"), "--export-matrices", str(tmp_path / "x"),
                     "--no-color"])
        assert code == 2
        assert "n_max1 = 64, n_max2 = 64" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "x").exists()

    def test_derived_omega2_runs_where_a_given_one_missed_the_resonance(self, tmp_path):
        # beta1*omega1 = 8968 but 35 * (4*2242/35) = 8968.000000000002
        code = main(["abstract-cycle", "--beta1", "4", "--beta2", "35", "--omega1", "2242",
                     "--g", "0.1", "--n-max1", "2", "--n-max2", "2",
                     "--out", str(tmp_path), "--no-color"])
        assert code != 2
        used = load_report(tmp_path)["results"]["config_used"]
        assert used["omega2"] == 4 * 2242 / 35

    def test_empty_ensemble_keeps_the_per_exchange_heats(self, tmp_path):
        # exp(-beta1 * omega1) = exp(-8968) underflows: every pair has weight 0
        code = main(["abstract-cycle", "--beta1", "4", "--beta2", "35", "--omega1", "2242",
                     "--g", "0.1", "--n-max1", "2", "--n-max2", "2",
                     "--out", str(tmp_path), "--no-color"])
        assert code == 0
        res = load_report(tmp_path)["results"]
        assert res["success_weight"] == 0.0
        assert res["q1_ensemble"] == 0.0
        cfg = CompactEngineConfig(beta1=4.0, beta2=35.0, omega1=2242.0, g=0.1,
                                  n_max1=2, n_max2=2)
        transfer = abs(evolve_cycle(cfg).amplitude_trace[-1, 1]) ** 2
        assert res["q1"] == 2242.0 * transfer
        assert res["eta"] == pytest.approx(res["eta_carnot"], abs=1e-9)

    @pytest.mark.parametrize("cutoffs", [("0", "3"), ("3", "0")])
    def test_cutoffs_without_pairs_move_no_heat(self, tmp_path, cutoffs):
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", cutoffs[0], "--n-max2", cutoffs[1],
                     "--out", str(tmp_path), "--no-color"])
        assert code == 1  # no exchange, so no Carnot efficiency
        res = load_report(tmp_path)["results"]
        assert res["q1"] == res["q2"] == res["eta"] == 0.0

    def test_omega2_is_not_an_input(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                  "--omega2", "1", "--g", "0.05", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        with pytest.raises(ConfigError, match="unknown keys \\['omega2'\\]"):
            run_experiment("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                              "omega2": 1.0, "g": 0.05}, tmp_path)

    def test_drifting_propagator_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        class Drifting(engine.SpectralPropagator):
            def states(self, psi0, times):
                return super().states(psi0, times) * (1 + 1e-8)

        monkeypatch.setattr(engine, "SpectralPropagator", Drifting)
        code = main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.05", "--n-max1", "4", "--n-max2", "4",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 4
        assert capsys.readouterr().err.startswith("internal error: level populations sum to")
        assert not (tmp_path / "o").exists()

    def test_seed_flag_rejected(self, tmp_path):
        # only design draws random numbers, so only design takes --seed
        with pytest.raises(SystemExit) as exit_info:
            main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                  "--g", "0.05", "--seed", "3", "--out", str(tmp_path)])
        assert exit_info.value.code == 2


class TestOpticsCycleCommand:
    def test_reference_run(self, tmp_path):
        code = main(["optics-cycle", "--beta1", "0.5", "--beta2", "1",
                     "--omega1", "2", "--out", str(tmp_path), "--no-color"])
        assert code == 0
        report = load_report(tmp_path)
        assert report["checks"]["final_state_formula"]["passed"]
        assert abs(report["results"]["omega0"] - 1.0) <= 1e-12

    def test_equal_temperatures_rejected_at_load(self, tmp_path):
        code = main(["optics-cycle", "--beta1", "1", "--beta2", "1",
                     "--omega1", "2", "--out", str(tmp_path)])
        assert code == 2

    def test_derived_omega2_runs_where_a_given_one_missed_the_resonance(self, tmp_path):
        code = main(["optics-cycle", "--beta1", "4", "--beta2", "35", "--omega1", "2242",
                     "--n-max1", "2", "--n-max2", "2", "--out", str(tmp_path), "--no-color"])
        assert code != 2
        used = load_report(tmp_path)["results"]["config_used"]
        assert used["omega2"] == 4 * 2242 / 35
        assert used["omega0"] == used["omega1"] - used["omega2"]

    def test_missing_required_keys_named(self, tmp_path, capsys):
        code = main(["optics-cycle", "--omega1", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing required keys ['beta1', 'beta2']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCycleCheckWitnesses:
    """Broken inputs and the exact set of cycle checks each one fails.

    The half-speed generator still passes cycle_duration, max_power and
    clausius, which restate the config: ROADMAP item 1 is expected to grow
    the first two sets when those checks come to measure the evolution."""

    @staticmethod
    def failed_checks(argv, out) -> set[str]:
        assert main([*argv, "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--out", str(out), "--no-color"]) == 1
        return {name for name, c in load_report(out)["checks"].items() if not c["passed"]}

    @pytest.fixture
    def half_speed(self, monkeypatch):
        pair_generator = engine.pair_generator
        monkeypatch.setattr(engine, "pair_generator", lambda g: pair_generator(g / 2))

    def test_half_speed_abstract_cycle(self, tmp_path, half_speed):
        assert self.failed_checks(["abstract-cycle", "--g", "0.1"], tmp_path) == {
            "amplitudes", "carnot_efficiency"}

    def test_half_speed_optics_cycle(self, tmp_path, half_speed):
        assert self.failed_checks(["optics-cycle"], tmp_path) == {
            "amplitudes", "carnot_efficiency", "final_state_formula"}

    def test_optics_cycle_at_small_cutoffs_misses_the_final_state(self, tmp_path):
        # the Gibbs mass cut off above n = 2 moves the final state by 0.033, not 1e-6
        argv = ["optics-cycle", "--n-max1", "2", "--n-max2", "2"]
        assert self.failed_checks(argv, tmp_path) == {"final_state_formula"}

    @pytest.mark.parametrize("argv", [
        ["abstract-cycle", "--g", "0.05", "--n-max1", "4", "--n-max2", "4"],
        ["optics-cycle"],
    ], ids=["abstract-cycle", "optics-cycle"])
    def test_non_conserving_pairing_fails_both_commutator_checks(self, tmp_path, monkeypatch,
                                                                 argv):
        pairing = engine._sector_members

        def cold_ladder_left_out(cfg, n, m):
            # |n, m, 0> <-> |n-1, m, 1>: the cold ladder gains no quantum
            members = pairing(cfg, n, m)
            members[members[:, 1, 0] >= 0, 1, 1] -= 1
            return members

        monkeypatch.setattr(engine, "_sector_members", cold_ladder_left_out)
        assert self.failed_checks(argv, tmp_path) == {"commutator_energy",
                                                      "commutator_weighted"}
        checks = load_report(tmp_path)["checks"]
        # the gaps are omega2 = 1 and beta1 * omega1 = 1, at full transfer
        assert checks["commutator_energy"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert checks["commutator_weighted"]["value"] == pytest.approx(1.0, abs=1e-12)


class TestCouplingRange:
    """A coupling whose square g*g is not a finite normal float is refused
    before the cycle grid is built: no numpy warning, no report."""

    @pytest.mark.parametrize("argv", [
        ["abstract-cycle", "--g", "1e-320"],  # tau overflows
        ["abstract-cycle", "--g", "1e-170"],  # g*g goes subnormal
        ["abstract-cycle", "--g", "1e155"],  # g*g overflows
        ["abstract-cycle", "--g", "1e200"],
        # the effective coupling g1*g2/detuning is about 1e-170
        ["optics-cycle", "--g1", "1e-160", "--g2", "1e-160", "--detuning", "1e-150"],
    ])
    def test_out_of_range_coupling_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        code = main([*argv, "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--n-max1", "4", "--n-max2", "4", "--out", str(out), "--no-color"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # optics-cycle has no g flag: it names the flags that make g
        g = r"g1\*g2/detuning = \S+ = \S+" if argv[0] == "optics-cycle" else r"\S+"
        assert re.fullmatch(rf"error: coupling g = {g} is outside the cycle's range: "
                            r"g\*g must lie in \[2\.2250738585072014e-308, inf\)\n",
                            captured.err)
        assert not out.exists()


#: the flags each kind needs before a refusal case adds its own (a later flag wins)
REQUIRED_FLAGS = {
    "abstract-cycle": ["--beta1", "0.5", "--beta2", "1", "--omega1", "2", "--g", "0.1"],
    "optics-cycle": ["--beta1", "0.5", "--beta2", "1", "--omega1", "2"],
    "delta-sweep": [],
    "design": [],
}


class ConfigEntries(dict):
    """In a refusal case's argv: ``--config`` and a config file holding these entries."""


class TestRefusalsNameTheirInput:
    """One table of refusals: each exits 2, writes nothing and names on stderr
    every input behind the refused value, as its flag or config key, or as the
    design file and its entry.  A name led by "!" is an input that is not at
    fault and must not be named.  A dict in argv stands for ``--design-in`` and
    a design file whose schedule holds its entries; a ``ConfigEntries`` for
    ``--config`` and a config file, which is named too."""

    @pytest.mark.parametrize("kind, argv, names", [
        ("abstract-cycle", ["--g", "-1"], ["g"]),
        ("design", ["--iterations", "0"], ["iterations"]),
        ("delta-sweep", ["--ratios", "20,20"], ["ratios"]),
        # g = g1*g2/detuning is zero, or underflows to zero
        ("optics-cycle", ["--g1", "0"], ["g1", "g2", "detuning"]),
        ("optics-cycle", ["--g1", "1e-200", "--g2", "1e-200"], ["g1", "g2", "detuning"]),
        # the sweep's detunings are its ratios times max(g1, g2)
        ("delta-sweep", ["--g1", "0", "--g2", "0"], ["g1", "g2"]),
        # one zero coupling leaves no effective coupling g1*g2/delta, and no cycle
        ("delta-sweep", ["--g2", "0"], ["--g1", "--g2"]),
        ("delta-sweep", ["--g1", "0"], ["--g1", "--g2"]),
        ("delta-sweep", [ConfigEntries(g2=0.0)], ["--g1", "g2", "!--g2"]),
        # a ratio that is not finite and positive is the fault of the ratios alone
        ("delta-sweep", ["--ratios", "nan,20"], ["ratios", "!delta"]),
        ("delta-sweep", ["--ratios", "20,inf"], ["ratios", "!detuning"]),
        ("delta-sweep", ["--ratios=-20,40"], ["ratios", "!g1", "!g2"]),
        ("delta-sweep", ["--ratios", "20,1e308", "--g1", "10"], ["ratios", "g1", "g2"]),
        # g at ratio 1e308 is positive but pi/(2g) overflows: no cycle to sample
        ("delta-sweep", ["--ratios", "20,1e308"], ["ratio 1e+308"]),
        ("optics-cycle", ["--detuning", "nan"], ["detuning", "!delta"]),
        ("optics-cycle", ["--detuning", "inf"], ["detuning", "!delta"]),
        ("abstract-cycle", ["--tail-delta", "2"], ["tail_delta"]),
        ("optics-cycle", ["--tail-delta", "2"], ["tail_delta"]),
        ("abstract-cycle", ["--tail-delta", "5", "--n-max1", "3", "--n-max2", "3"],
         ["tail_delta"]),
        ("optics-cycle", ["--tail-delta", "5", "--n-max1", "3", "--n-max2", "3"],
         ["tail_delta"]),
        ("design", ["--temperature", "-1"], ["--temperature"]),
        ("design", ["--n-fit", "0"], ["--n-fit"]),
        ("design", ["--amplitude", "nan"], ["--amplitude"]),
        ("design", ["--amplitude", "nan", "--n-fit", "4"], ["--amplitude", "!--n-fit"]),
        ("design", ["--amplitude", "0.01", "--n-fit", "0"], ["--n-fit", "!--amplitude"]),
        ("design", [{}, "--amplitude", "0.02"], ["--amplitude"]),
        ("design", [{"seed": -1}], ["schedule.seed"]),
        ("design", [{"iterations": 0}], ["schedule.iterations"]),
        ("design", [{"mc_temperature": -1.0}], ["schedule.mc_temperature"]),
        # a --config entry is named by the file and its key, not by the flag
        ("design", [ConfigEntries(amplitude=math.nan)], ["amplitude", "!--amplitude"]),
        ("design", [ConfigEntries(n_fit=0), "--amplitude", "0.01"],
         ["n_fit", "!--n-fit", "!--amplitude"]),
        # the sweep's smallest detuning min(ratios)*max(g1, g2) overflows
        ("delta-sweep", ["--ratios", "20,40", "--g1", "1e308", "--g2", "1e-200"],
         ["ratios", "g1", "g2", "!delta"]),
        # a probe block outside the cutoffs, the default one or a given one
        ("delta-sweep", ["--n-max1", "1"], ["block", "n_max1 = 1", "n_max2 = 4"]),
        ("delta-sweep", ["--block", "9,9"], ["block", "n_max1 = 4", "n_max2 = 4"]),
    ])
    def test_refusal_names_its_input(self, tmp_path, capsys, kind, argv, names):
        design_path, config_path = tmp_path / "design.json", tmp_path / "cfg.json"
        targets = DesignTargets.inverse_intensity(0.0125, 6)
        for arg in argv:
            if isinstance(arg, ConfigEntries):
                config_path.write_text(json.dumps(arg))
                names = [*names, str(config_path)]
            elif isinstance(arg, dict):
                design_path.write_text(json.dumps({
                    "ansatz": {"v_coeffs": [0.0] * 4, "b_coeffs": [0.0] * 4},
                    "targets": {"f": targets.f_target.tolist(),
                                "theta": targets.theta_target.tolist()},
                    "schedule": arg,
                }))
                names = [*names, str(design_path)]
        files = {ConfigEntries: ["--config", str(config_path)],
                 dict: ["--design-in", str(design_path)]}
        argv = [x for arg in argv for x in files.get(type(arg), [arg])]
        out = tmp_path / "out"
        code = main([kind, *REQUIRED_FLAGS[kind], *argv, "--out", str(out), "--no-color"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        for name in names:
            named = re.search(rf"(?<![\w-]){re.escape(name.lstrip('!'))}(?![\w-])",
                              captured.err)
            assert bool(named) != name.startswith("!"), name
        assert not out.exists()


#: what the edge-value fuzz sets an input to: not finite, signed zeros, negative,
#: the top of the float range and subnormal
EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, 1e-320, 5e-324)

#: a small run of each kind, as --config entries; verify-slto's also name the
#: files of TestEdgeValues.slto_export
EDGE_BASE = {
    "abstract-cycle": {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                       "n_max1": 3, "n_max2": 3},
    "optics-cycle": {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "n_max1": 3, "n_max2": 3},
    "delta-sweep": {"ratios": [20.0, 40.0], "n_max1": 3, "n_max2": 3},
    "design": {"iterations": 50, "n_fit": 4},
    "verify-slto": {"beta1": 0.5, "beta2": 1.0},
}


def strict_json(text: str):
    """``json.loads`` that refuses the non-standard tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def names_input(text: str, key: str) -> bool:
    """Whether ``text`` names the input ``key``, as its key or as its flag."""
    spellings = "|".join(map(re.escape, (key, "--" + key.replace("_", "-"))))
    return re.search(rf"(?<![\w-])(?:{spellings})(?![\w-])", text) is not None


@st.composite
def edge_runs(draw):
    """A kind, and one or two of its numeric inputs, each with an edge value and
    whether it comes as a flag (else as a --config entry)."""
    kind = draw(st.sampled_from(sorted(EDGE_BASE)))
    numeric = sorted(key for key, parse in KINDS[kind].params.items() if parse is not str)
    keys = draw(st.permutations(numeric))[:draw(st.integers(1, 2))]
    return kind, {key: (draw(st.sampled_from(EDGE_VALUES)), draw(st.booleans()))
                  for key in keys}


class TestEdgeValues:
    """Any kind with one or two numeric flags or --config entries at an edge
    value ends as a report (exit 0 or 1) that is standard JSON, or a refusal
    (exit 2): no traceback, no warning, no output directory, and a stderr
    that names at least one of the edited inputs, by its key or its flag.
    An integer input takes the integer of an integral value, a list input the
    value as one entry.  verify-slto checks one small export, made once."""

    @pytest.fixture(scope="class")
    def slto_export(self, tmp_path_factory) -> dict:
        """The --config entries naming the files of a cutoff-2/2 engine export."""
        export = tmp_path_factory.mktemp("export")
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "2", "--n-max2", "2",
                     "--export-matrices", str(export), "--out", str(export / "cycle"),
                     "--no-color"]) == 0
        return {key: str(export / f"{name}.txt") for key, name in (
            ("unitary", "u_tau"), ("bath1", "h_bath1"), ("bath2", "h_bath2"),
            ("system", "h_system"))}

    @staticmethod
    def entry(parse, value: float):
        """The --config entry of ``value`` for an input of type ``parse``."""
        if parse in (int, _int_list) and math.isfinite(value) and value == int(value):
            value = int(value)
        return {_float_list: [20.0, value], _int_list: [value, 1]}.get(parse, value)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(edge_runs())
    def test_edge_value_ends_in_a_report_or_a_refusal(self, tmp_path_factory, slto_export,
                                                      run):
        kind, edits = run
        config, flags = dict(EDGE_BASE[kind]), []
        if kind == "verify-slto":
            config.update(slto_export)
        for key, (value, as_flag) in edits.items():
            entry = self.entry(KINDS[kind].params[key], value)
            if as_flag:
                text = ",".join(map(str, entry)) if isinstance(entry, list) else str(entry)
                flags.append(f"--{key.replace('_', '-')}={text}")
            else:
                config[key] = entry
        work = tmp_path_factory.mktemp("edge")
        (work / "cfg.json").write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            try:
                code = main([kind, "--config", str(work / "cfg.json"), *flags,
                             "--out", str(work / "out"), "--no-color"])
            except SystemExit as exit_:  # argparse refuses a flag it cannot parse
                code = exit_.code
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert [str(w.message) for w in caught] == []
        if code == 2:
            assert not (work / "out").exists()
            assert any(names_input(err.getvalue(), key) for key in edits), err.getvalue()
        else:
            strict_json((work / "out" / "report.json").read_text())


#: the corruptions of any file's bytes, and of a matrix file's rows, that the file fuzz applies
BYTE_FAULTS = ("0xff byte", "control byte", "truncate")
MATRIX_FAULTS = ("drop row", "duplicate row", "header dimension", "header layout", *BYTE_FAULTS)

#: each file input of the file fuzz, by its key, and the corruptions it takes.  A
#: "factor dimension" swaps in that factor file at another dimension and writes
#: the unitary without its layout
FILE_FAULTS = {
    "unitary": MATRIX_FAULTS,
    **{key: (*MATRIX_FAULTS, "factor dimension") for key in ("bath1", "bath2", "system")},
    "design_in": (*BYTE_FAULTS, "design list", "drop entry", "mistype entry"),
}

#: the design-file entries and sections the file fuzz drops or mistypes
DESIGN_ENTRIES = (("ansatz",), ("targets",), ("schedule",),
                  ("ansatz", "v_coeffs"), ("ansatz", "b_coeffs"),
                  ("targets", "f"), ("targets", "theta"),
                  *((section, entry) for section, entry, _, _ in cli.DESIGN_SCALARS))

#: values of the wrong type for any design-file entry
WRONG_TYPES = ("text", None, True, 2.5, [0.5], [[0.5]], {"x": 1.0})

#: matrix-file layouts the file fuzz writes into a header (one equal to the
#: header's own leaves the file as it is, and is skipped)
FUZZ_LAYOUTS = ((), (1,), (3,), (18,), (3, 3, 2), (2, 3, 3), (9, 2), (0, 3), (3, 1, 6))


@st.composite
def file_corruptions(draw):
    """An input file of verify-slto or design, one corruption of it, a byte offset
    or row it falls at and a pick among the corruption's variants."""
    key = draw(st.sampled_from(sorted(FILE_FAULTS)))
    fault = draw(st.sampled_from(FILE_FAULTS[key]))
    return key, fault, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))


class TestFileInputFuzz:
    """A verify-slto or design run whose input file carries one corruption
    (a row dropped or duplicated, a header dimension or layout changed, a 0xff
    or control byte put in, the file truncated, a factor file of another
    dimension with no layout to compare, or a design file that is a list, or
    that lacks or mistypes an entry) ends as a report (exit 0 or 1) that is
    standard JSON, or a refusal (exit 2) that names the corrupted file by its
    flag or path: no traceback, no warning, and no output directory on a
    refusal.  The files start from a valid cutoff-2/2 export and a valid
    20-iteration design file, made once.  400 examples take about 6 s."""

    @pytest.fixture(scope="class")
    def valid_files(self, tmp_path_factory) -> dict:
        """The bytes of each valid input file, by its key."""
        made = tmp_path_factory.mktemp("valid")
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "2", "--n-max2", "2",
                     "--export-matrices", str(made), "--out", str(made / "cycle"),
                     "--no-color"]) == 0
        assert main(["design", "--iterations", "20", "--n-fit", "4",
                     "--out", str(made / "design"), "--no-color"]) == 0
        names = {"unitary": "u_tau.txt", "bath1": "h_bath1.txt", "bath2": "h_bath2.txt",
                 "system": "h_system.txt", "design_in": "design/design.json"}
        return {key: (made / name).read_bytes() for key, name in names.items()}

    @staticmethod
    def corrupt_bytes(raw: bytes, fault: str, at: int, pick: int) -> bytes:
        at %= len(raw)
        if fault == "truncate":
            return raw[:at]
        return raw[:at] + (b"\xff" if fault == "0xff byte" else bytes([pick % 0x20])) + raw[at:]

    @staticmethod
    def corrupt_rows(raw: bytes, fault: str, at: int, pick: int) -> bytes:
        header, *rows = raw.decode().splitlines()
        dims = header.split()
        if fault == "drop row":
            del rows[at % len(rows)]
        elif fault == "duplicate row":
            rows.insert(at % len(rows), rows[at % len(rows)])
        elif fault == "header dimension":
            dims[0] = str(max(0, int(dims[0]) + (-2, -1, 1, 2)[pick % 4]))
        elif fault == "header layout":
            layout = FUZZ_LAYOUTS[pick % len(FUZZ_LAYOUTS)]
            assume(list(layout) != [int(d) for d in dims[1:]])
            dims[1:] = map(str, layout)
        return "\n".join([" ".join(dims), *rows, ""]).encode()

    @staticmethod
    def corrupt_design(raw: bytes, fault: str, pick: int) -> bytes:
        spec = json.loads(raw)
        if fault == "design list":
            return json.dumps(([spec], list(spec), [])[pick % 3]).encode()
        path = DESIGN_ENTRIES[pick % len(DESIGN_ENTRIES)]
        holder = spec if len(path) == 1 else spec[path[0]]
        if fault == "drop entry":
            holder.pop(path[-1], None)
        else:
            holder[path[-1]] = WRONG_TYPES[pick // len(DESIGN_ENTRIES) % len(WRONG_TYPES)]
        return json.dumps(spec).encode()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(file_corruptions())
    # ansatz.v_coeffs and targets.theta as a JSON object (WRONG_TYPES[6])
    @example(("design_in", "mistype entry", 0, 6 * len(DESIGN_ENTRIES) + 3))
    @example(("design_in", "mistype entry", 0, 6 * len(DESIGN_ENTRIES) + 6))
    # no layout, and a bath of dimension 4: (4, 3, 2) against 18
    @example(("bath1", "factor dimension", 0, 1))
    def test_corrupt_file_ends_in_a_report_or_a_refusal(self, tmp_path_factory, valid_files,
                                                        corruption):
        key, fault, at, pick = corruption
        work = tmp_path_factory.mktemp("fuzz")
        paths = {name: work / f"{name}.txt" for name in valid_files}
        contents = dict(valid_files)
        if fault in BYTE_FAULTS:
            contents[key] = self.corrupt_bytes(contents[key], fault, at, pick)
        elif fault == "factor dimension":
            # the unitary without its layout, and this factor at another dimension
            header, body = contents["unitary"].split(b"\n", 1)
            contents["unitary"] = header.split()[0] + b"\n" + body
            dim = int(contents[key].split()[0]) + (-1, 1, 2)[pick % 3]
            contents[key] = "".join(bytescan.matrix_lines(
                np.diag(np.arange(float(max(dim, 1)))).astype(complex))).encode()
        elif key == "design_in":
            contents[key] = self.corrupt_design(contents[key], fault, pick)
        else:
            contents[key] = self.corrupt_rows(contents[key], fault, at, pick)
        for name, raw in contents.items():
            paths[name].write_bytes(raw)
        if key == "design_in":
            argv = ["design", "--design-in", str(paths["design_in"])]
        else:
            argv = ["verify-slto", "--beta1", "0.5", "--beta2", "1",
                    *(x for name in ("unitary", "bath1", "bath2", "system")
                      for x in (f"--{name}", str(paths[name])))]
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(work / "out"), "--no-color"])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert [str(w.message) for w in caught] == []
        if code == 2:
            assert not (work / "out").exists()
            named = f"--{key.replace('_', '-')} ", str(paths[key])
            assert any(name in err.getvalue() for name in named), err.getvalue()
        else:
            strict_json((work / "out" / "report.json").read_text())


#: how a cycle's refusal names each quantity that overflows, as a regular expression
POWER = re.escape("power 2*g*(omega1 - omega2)/pi")
ENERGY = re.escape("largest level energy n_max1*omega1 + n_max2*omega2 + a1")
WEIGHTED_ENERGY = re.escape(
    "largest weighted level energy beta1*n_max1*omega1 + beta2*n_max2*omega2")


class TestCycleRange:
    """A cycle whose ladders leave no finite partition function, or whose level
    energies or power overflow, is refused before the cycle grid is built: one
    stderr line, no numpy warning, no report."""

    @pytest.mark.parametrize("kind", ["abstract-cycle", "optics-cycle"])
    def test_tiny_beta_omega_is_a_usage_error(self, tmp_path, capsys, kind):
        out = tmp_path / "o"
        code = main([kind, "--beta1", "1e-17", "--beta2", "1", "--omega1", "1",
                     *(["--g", "0.1"] if kind == "abstract-cycle" else []),
                     "--n-max1", "2", "--n-max2", "2", "--out", str(out), "--no-color"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beta1*omega1 = 1e-17 is too small for a finite cutoff\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["abstract-cycle", "--omega1", "1e160", "--g", "1e154"], POWER),
        (["abstract-cycle", "--omega1", "1e308", "--g", "0.1"], ENERGY),
        # beta1*omega1 is 1e308 and beta1*n*omega1 at n = 2 overflows
        (["abstract-cycle", "--beta1", "1e100", "--beta2", "1.5e100", "--omega1", "1e208",
          "--g", "0.1"], WEIGHTED_ENERGY),
        # the effective coupling g1*g2/detuning is 1.25e78
        (["optics-cycle", "--omega1", "1e240", "--g1", "1e80", "--g2", "1e80",
          "--detuning", "8e81"], POWER),
        (["optics-cycle", "--omega1", "1e308"], ENERGY),
    ], ids=["power", "energy", "weighted-energy", "optics-power", "optics-energy"])
    def test_overflowing_cycle_is_a_usage_error(self, tmp_path, capsys, argv, name):
        out = tmp_path / "o"
        code = main([argv[0], "--beta1", "0.5", "--beta2", "1", *argv[1:],
                     "--n-max1", "2", "--n-max2", "2", "--out", str(out), "--no-color"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: the cycle's {name} is inf; it must be finite\n",
                            captured.err)
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        # the sector cap
        ["abstract-cycle", "--beta1", "1e-9", "--beta2", "1", "--omega1", "1", "--g", "0.1"],
        # no temperature gradient
        ["optics-cycle", "--beta1", "1", "--beta2", "0.5", "--omega1", "2"],
    ])
    def test_no_output_directory_on_a_usage_error(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "o"), "--no-color"]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config {path}: [Errno 2] No such file or directory"),
        (b'{"g": \xff}', "cannot read config {path}: 'utf-8' codec can't decode byte 0xff "
                         "in position 6: invalid start byte"),
        (b"[0.5, 1.0]", "config {path} must hold a JSON object"),
        (b'{"kind": "design"}',
         "config {path}: kind 'design' does not match subcommand 'abstract-cycle'"),
    ])
    def test_unusable_config_file_named(self, tmp_path, capsys, content, message):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        code = main(["abstract-cycle", *REQUIRED_FLAGS["abstract-cycle"], "--config", str(path),
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_output_under_a_regular_file_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        code = main(["abstract-cycle", *REQUIRED_FLAGS["abstract-cycle"], "--series",
                     "--out", str(blocker / "o"), "--no-color"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and str(blocker) in captured.err
        assert blocker.read_text() == "kept"
        assert list(tmp_path.iterdir()) == [blocker]

    def test_json_report_echoes_the_report(self, tmp_path, capsys):
        assert main(["abstract-cycle", *REQUIRED_FLAGS["abstract-cycle"], "--json-report",
                     "--out", str(tmp_path), "--no-color"]) == 0
        report = tmp_path / "report.json"
        # the check lines, the report's path, then the report as report.json holds it
        echoed = capsys.readouterr().out.split(f"report: {report}\n", 1)[1]
        assert echoed == report.read_text()

    def test_delta_sweep_sector_cap_before_any_profile(self, tmp_path, capsys, monkeypatch):
        def unreachable(cfg):
            raise AssertionError("profile tables built before the sector cap")

        monkeypatch.setattr(cli, "uniform_exchange_profile", unreachable)
        code = main(["delta-sweep", "--n-max1", "2000000", "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cutoffs n_max1 = 2000000, n_max2 = 4 give more than the cap of "
            f"{engine.MAX_SECTORS} sectors\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, field", [
        (["optics-cycle", "--beta1", "nan", "--beta2", "1", "--omega1", "2"], "beta1"),
        (["optics-cycle", "--beta1", "nan", "--beta2", "1", "--omega1", "2",
          "--n-max1", "4", "--n-max2", "4"], "beta1"),
        (["optics-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
          "--detuning", "nan"], "detuning"),
        (["optics-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
          "--detuning", "inf"], "detuning"),
        (["delta-sweep", "--g1", "nan"], "g1"),
        # delta-sweep has no omega1 flag: argparse refuses it
        (["delta-sweep", "--omega1", "nan"], "omega1"),
        (["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "inf",
          "--g", "0.1"], "omega1"),
        (["optics-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "inf"], "omega1"),
    ])
    def test_non_finite_input_named(self, tmp_path, capsys, argv, field):
        argv = [*argv, "--out", str(tmp_path / "o"), "--no-color"]
        if field in KINDS[argv[0]].params:
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {field} must be finite, got ")
        else:
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            assert f"unrecognized arguments: --{field} nan" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDeltaSweepCommand:
    def test_default_sweep_passes_bands(self, tmp_path):
        code = main(["delta-sweep", "--out", str(tmp_path), "--series", "--no-color"])
        assert code == 0
        report = load_report(tmp_path)
        assert report["checks"]["deviation_monotone"]["passed"]
        assert report["checks"]["deviation_slope_band"]["passed"]
        assert report["checks"]["leak_slope_band"]["passed"]
        assert report["checks"]["sampling_density"]["passed"]
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "delta,ratio,population_deviation,leak_max"
        assert len(lines) == 5

    def test_populations_off_unit_sum_are_an_internal_error(self, tmp_path, monkeypatch,
                                                             capsys):
        def stretched(eigvals, eigvecs, *args):
            return group_populations(eigvals, eigvecs * (1 + 1e-8), *args)

        monkeypatch.setattr(optics, "group_populations", stretched)
        code = main(["delta-sweep", "--ratios", "20,40", "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 4
        assert re.fullmatch(r"internal error: level populations sum to \S+ at t = 0\.0 "
                            r"\(detuning 10\.0, block \(3, 1\), full model\), "
                            r"not 1 within 1e-10\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ratios, monotone", [("20,40", True), ("40,20", False)])
    def test_deviation_monotone_record(self, tmp_path, ratios, monotone):
        main(["delta-sweep", "--ratios", ratios, "--out", str(tmp_path), "--no-color"])
        assert load_report(tmp_path)["checks"]["deviation_monotone"] == {
            "value": float(not monotone), "threshold": 0.5, "passed": monotone}

    def test_capped_sampling_fails_density_check(self, tmp_path):
        code = main(["delta-sweep", "--ratios", "20,640", "--out", str(tmp_path),
                     "--no-color"])
        assert code == 1
        report = load_report(tmp_path)
        density = report["checks"]["sampling_density"]
        assert not density["passed"]
        assert density["value"] < density["threshold"] == 8.0
        assert [p["samples"] for p in report["results"]["points"]][1] == 200_000

    @pytest.mark.parametrize("argv, message", [
        # g1*g1 overflows in the f-table rule
        (["--g1", "1e160", "--g2", "1e160", "--ratios", "20,40"],
         "coupling g1 = 1e+160 is outside the model's range: g1*g1 must be finite"),
        # the cycle at ratio 1e200 spans an infinite number of periods
        (["--g1", "0.5", "--g2", "0.5", "--ratios", "20,1e200"],
         "ratios: detuning 5e+199 gives ratio 1e+200 with g1 = 0.5 and g2 = 0.5, whose window "
         "spans inf oscillation periods: a float cannot count them or its samples per period"),
        # with no effective coupling there is no cycle to sample
        (["--g1", "0", "--g2", "1e-320", "--ratios", "20,40"],
         "--g1 0.0, --g2 1e-320: the sweep needs an effective coupling g1*g2/delta > 0, "
         "got g1*g2 = 0.0"),
    ], ids=["coupling", "detuning", "window"])
    def test_overflowing_sweep_is_a_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        code = main(["delta-sweep", *argv, "--out", str(out), "--no-color"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["beta1", "beta2", "omega1"])
    def test_ladder_inputs_refused(self, tmp_path, capsys, key):
        """The sweep evolves one probe sector and takes no ladder temperature or
        frequency, as a flag or as a --config key."""
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_:
            main(["delta-sweep", f"--{key}", "0.7", "--out", str(out), "--no-color"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --{key} 0.7" in capsys.readouterr().err
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: 0.7}))
        assert main(["delta-sweep", "--config", str(config), "--out", str(out),
                     "--no-color"]) == 2
        assert capsys.readouterr().err == f"error: {config}: unknown keys ['{key}']\n"
        assert not out.exists()

    def test_non_finite_ratio_is_usage_error(self, tmp_path):
        code = main(["delta-sweep", "--ratios", "20,40,inf", "--out", str(tmp_path),
                     "--no-color"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("ratios", [[], None])
    def test_empty_ratios_in_config_are_not_replaced_by_the_defaults(self, tmp_path, capsys,
                                                                      ratios):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ratios": ratios}))
        code = main(["delta-sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert f"ratios: need at least two sweep points, got {ratios!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_ratio_rejected_before_any_sweep_is_built(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("built a sweep for a single ratio")

        for name in ("OpticsEngineConfig", "uniform_exchange_profile",
                     "adiabatic_elimination_error"):
            monkeypatch.setattr(cli, name, never)
        code = main(["delta-sweep", "--ratios", "40", "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert "ratios: need at least two sweep points, got [40.0]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source, ratios", [("flag", "20,20"), ("config", [20, 20.0]),
                                                ("config", [40.0, 40.0, 40.0])])
    def test_ratios_without_two_distinct_values_rejected_before_any_sweep_is_built(
            self, tmp_path, monkeypatch, capsys, source, ratios):
        # one distinct detuning has no slope; a fit through it read -0.928 and passed its band
        self.forbid_sweep(monkeypatch)
        if source == "flag":
            argv = ["--ratios", ratios]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"ratios": ratios}))
            argv = ["--config", str(config)]
        code = main(["delta-sweep", *argv, "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        shown = [float(r) for r in ratios.split(",")] if source == "flag" else ratios
        assert (capsys.readouterr().err
                == f"error: ratios: need at least two distinct values, got {shown!r}\n")
        assert not (tmp_path / "o").exists()

    def test_ratio_at_the_floor_runs(self, tmp_path, capsys):
        # 5*g/g rounds below 5 at this g; the floor is tested on 5*g itself
        code = main(["delta-sweep", "--ratios", "5,9", "--g1", "0.22468215560642968",
                     "--g2", "0.22468215560642968", "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code in (0, 1)
        assert capsys.readouterr().err == ""
        assert (tmp_path / "o" / "report.json").exists()

    def test_distinct_ratios_at_one_detuning_have_no_slope(self, tmp_path, capsys):
        # 30 and the next float above it give the same detuning 9.0 at g1 = g2 = 0.3
        code = main(["delta-sweep", "--ratios", "30,30.000000000000004", "--g1", "0.3",
                     "--g2", "0.3", "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert (capsys.readouterr().err
                == "error: need at least two distinct detunings to fit a slope\n")
        assert not (tmp_path / "o").exists()

    @staticmethod
    def forbid_sweep(monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built a sweep for a refused input")

        for name in ("OpticsEngineConfig", "uniform_exchange_profile",
                     "adiabatic_elimination_error"):
            monkeypatch.setattr(cli, name, never)

    @pytest.mark.parametrize("flag, block", [("3,1,2", [3, 1, 2]), ("3", [3])])
    def test_block_flag_of_other_than_two_integers_rejected(self, tmp_path, monkeypatch,
                                                            capsys, flag, block):
        self.forbid_sweep(monkeypatch)
        code = main(["delta-sweep", "--block", flag, "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert (capsys.readouterr().err
                == f"error: block: need two integers n,m, got {block!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("block", [[], [3], [3, 1, 2]])
    def test_block_in_config_of_other_than_two_integers_rejected(self, tmp_path, monkeypatch,
                                                                 capsys, block):
        self.forbid_sweep(monkeypatch)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"block": block}))
        code = main(["delta-sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert (capsys.readouterr().err
                == f"error: block: need two integers n,m, got {block!r}\n")
        assert not (tmp_path / "o").exists()

    def test_probe_without_leak_reports_null_slope(self, tmp_path):
        # the vacuum row never reaches the upper level, so its leak series is
        # all zero and has no log-log slope
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["delta-sweep", "--ratios", "20,40", "--block", "0,2",
                         "--out", str(tmp_path), "--no-color"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["results"]["leak_slope"] is None
        band = report["checks"]["leak_slope_band"]
        assert band["value"] is None and band["passed"] is False


class TestDesignCommand:
    @pytest.mark.parametrize("spoiled", [False, True])
    def test_running_min_record(self, tmp_path, monkeypatch, spoiled):
        walk, traces = cli.mc_optimize, []

        def recorded_walk(*args):
            best, trace = walk(*args)
            if spoiled:  # only a NaN makes a running minimum rise
                trace = trace.copy()
                trace[7] = math.nan
            traces.append(trace)
            return best, trace

        monkeypatch.setattr(cli, "mc_optimize", recorded_walk)
        main(["design", "--iterations", "50", "--out", str(tmp_path), "--no-color"])
        steps = np.diff(np.minimum.accumulate(traces[0]))
        expected = {"value": float(np.max(steps)), "threshold": 0.0,
                    "passed": bool(np.all(steps <= 0.0))}
        assert expected["passed"] is not spoiled
        record = load_report(tmp_path)["checks"]["trace_running_min_nonincreasing"]
        assert json.dumps(record, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("flags", [["--proposal-scale", "1e308"], ["--q", "1e308"]])
    def test_overflowing_proposals_score_without_a_warning(self, tmp_path, capsys, flags):
        assert main(["design", "--iterations", "50", *flags, "--out", str(tmp_path),
                     "--no-color"]) == 0
        assert capsys.readouterr().err == ""

    def test_deterministic_reports(self, tmp_path):
        args = ["design", "--iterations", "800", "--seed", "42", "--no-color"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        ra = load_report(tmp_path / "a")
        rb = load_report(tmp_path / "b")
        ra.pop("wall_clock_seconds")
        rb.pop("wall_clock_seconds")
        # design_path differs only through the out directory
        ra["results"].pop("design_path")
        rb["results"].pop("design_path")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_default_fit_at_seed_0_is_pinned(self, tmp_path):
        # a change of numpy's streams or of the walk's draw layout moves every
        # seeded fit; this names it (the numpy version is in the CI log)
        assert main(["design", "--iterations", "200", "--seed", "0",
                     "--out", str(tmp_path), "--no-color"]) == 0
        assert repr(load_report(tmp_path)["results"]["best_cost"]) == "0.4310670090557004"

    @pytest.mark.parametrize("source", ["flag", "design_in"])
    def test_negative_seed_refused_by_name(self, tmp_path, capsys, source):
        if source == "flag":
            flags = ["--seed", "-1"]
        else:
            targets = DesignTargets.inverse_intensity(0.0125, 6)
            design_path = tmp_path / "seeded.json"
            design_path.write_text(json.dumps({
                "ansatz": {"v_coeffs": [0.0] * 4, "b_coeffs": [0.0] * 4},
                "targets": {"f": targets.f_target.tolist(),
                            "theta": targets.theta_target.tolist()},
                "schedule": {"seed": -1},
            }))
            flags = ["--design-in", str(design_path)]
        out = tmp_path / "out"
        code = main(["design", "--iterations", "10", *flags, "--out", str(out), "--no-color"])
        assert code == 2
        name = "--seed -1" if source == "flag" else f"{design_path}: design file schedule.seed"
        assert capsys.readouterr().err == (
            f"error: {name}: seed must be a non-negative integer, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, section, entry", [
        ("--q", "6", "targets", "q"),
        ("--temperature", "0.01", "schedule", "mc_temperature"),
        ("--proposal-scale", "0.3", "schedule", "proposal_scale"),
        ("--seed", "5", "schedule", "seed"),
        ("--iterations", "40", "schedule", "iterations"),
    ])
    def test_flag_overrides_the_design_file_entry(self, tmp_path, flag, value, section, entry):
        first = tmp_path / "first"
        assert main(["design", "--iterations", "50", "--out", str(first), "--no-color"]) == 0
        design_in = json.loads((first / "design.json").read_text())
        assert design_in[section][entry] != float(value)
        out = tmp_path / "second"
        code = main(["design", "--design-in", str(first / "design.json"), "--iterations", "50",
                     flag, value, "--out", str(out), "--no-color"])
        assert code == 0
        # the fit ran on the flag's value, and its design file says so
        assert json.loads((out / "design.json").read_text())[section][entry] == float(value)
        if flag == "--q":
            targets = DesignTargets(np.array(design_in["targets"]["f"]),
                                    np.array(design_in["targets"]["theta"]), q=6.0)
            results = load_report(out)["results"]
            ansatz = PotentialAnsatz(np.array(results["v_coeffs"]), np.array(results["b_coeffs"]))
            assert results["best_cost"] == design_cost(ansatz, targets)

    def test_design_file_round_trip(self, tmp_path):
        out1 = tmp_path / "first"
        assert main(["design", "--iterations", "500", "--seed", "7",
                     "--out", str(out1), "--no-color"]) == 0
        design_path = load_report(out1)["results"]["design_path"]
        out2 = tmp_path / "second"
        assert main(["design", "--design-in", design_path, "--iterations", "200",
                     "--out", str(out2), "--no-color"]) == 0
        report = load_report(out2)
        # warm start must not be worse than the stored best by construction
        assert report["results"]["best_cost"] <= load_report(out1)["results"]["best_cost"] + 1e-12

    def test_design_file_is_the_document_of_its_own_contents(self, tmp_path):
        assert main(["design", "--iterations", "300", "--seed", "3",
                     "--out", str(tmp_path), "--no-color"]) == 0
        written = json.loads((tmp_path / "design.json").read_text())
        ansatz = PotentialAnsatz(np.array(written["ansatz"]["v_coeffs"]),
                                 np.array(written["ansatz"]["b_coeffs"]))
        targets = DesignTargets(np.array(written["targets"]["f"]),
                                np.array(written["targets"]["theta"]),
                                q=written["targets"]["q"], n_work=written["targets"]["n_work"])
        schedule = AnnealSchedule(iterations=300, seed=3)
        best_cost = design_cost(ansatz, targets)
        # the achieved tables and the best cost are recomputed from the stored ansatz
        assert cli.design_document(ansatz, targets, schedule,
                                   written["result"]["initial_cost"], best_cost) == written
        assert load_report(tmp_path)["results"]["best_cost"] == best_cost
        assert written["schedule"] == {"iterations": 300, "proposal_scale": 0.2,
                                       "mc_temperature": 0.0, "seed": 3}

    def test_design_file_keeps_its_fit_size(self, tmp_path):
        design_path = tmp_path / "fit8.json"
        assert main(["design", "--n-fit", "8", "--iterations", "50",
                     "--design-out", str(design_path), "--out", str(tmp_path / "first"),
                     "--no-color"]) == 0
        out = tmp_path / "second"
        assert main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(out), "--no-color"]) == 0
        results = load_report(out)["results"]
        written = json.loads((out / "design.json").read_text())["result"]
        for tables in (results, written):
            assert len(tables["f_achieved"]) == len(tables["theta_achieved"]) == 8
        assert len(results["f_target"]) == 8

    def test_design_file_disagreeing_fit_size_rejected(self, tmp_path, capsys):
        design_path = tmp_path / "fit8.json"
        assert main(["design", "--n-fit", "8", "--iterations", "50",
                     "--design-out", str(design_path), "--out", str(tmp_path / "first"),
                     "--no-color"]) == 0
        capsys.readouterr()
        out = tmp_path / "second"
        code = main(["design", "--design-in", str(design_path), "--n-fit", "6",
                     "--iterations", "50", "--out", str(out), "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_fit 6" in err and "8 target entries" in err
        assert not (out / "report.json").exists()

    def test_design_file_workspace_short_of_fit_range(self, tmp_path, capsys):
        targets = DesignTargets.inverse_intensity(0.0125, 6, n_work=10)
        ansatz = PotentialAnsatz.zeros()
        design_path = tmp_path / "short.json"
        design_path.write_text(json.dumps({
            "ansatz": {"v_coeffs": ansatz.v_coeffs.tolist(),
                       "b_coeffs": ansatz.b_coeffs.tolist()},
            "targets": {"f": targets.f_target.tolist(),
                        "theta": targets.theta_target.tolist(),
                        "q": targets.q, "n_work": targets.n_work},
        }))
        code = main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(tmp_path / "out"), "--no-color"])
        assert code == 2
        assert "cannot reach fit index 6" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("ansatz", "v_coeffs"), ("ansatz", "b_coeffs"), ("targets", "f"), ("targets", "theta"),
    ])
    def test_design_file_missing_entry_named(self, tmp_path, capsys, section, key):
        targets = DesignTargets.inverse_intensity(0.0125, 6)
        ansatz = PotentialAnsatz.zeros()
        spec = {
            "ansatz": {"v_coeffs": ansatz.v_coeffs.tolist(), "b_coeffs": ansatz.b_coeffs.tolist()},
            "targets": {"f": targets.f_target.tolist(), "theta": targets.theta_target.tolist()},
        }
        del spec[section][key]
        design_path = tmp_path / "partial.json"
        design_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(out), "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"lacks {section}.{key}" in err and str(design_path) in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("targets", "q", "4", "targets.q must be a number, got '4'"),
        ("targets", "n_work", "16", "targets.n_work must be an integer, got '16'"),
        ("targets", "q", None, "targets.q must be a number, got None"),
        ("schedule", "seed", [1], "schedule.seed must be an integer, got [1]"),
        ("schedule", "iterations", 50.5, "schedule.iterations must be an integer, got 50.5"),
        ("schedule", "proposal_scale", True, "schedule.proposal_scale must be a number, got True"),
        ("schedule", None, [], "schedule must be an object, got []"),
    ])
    def test_design_file_mistyped_entry_named(self, tmp_path, capsys, section, key, value,
                                              message):
        targets = DesignTargets.inverse_intensity(0.0125, 6)
        spec = {
            "ansatz": {"v_coeffs": [0.0] * 4, "b_coeffs": [0.0] * 4},
            "targets": {"f": targets.f_target.tolist(), "theta": targets.theta_target.tolist(),
                        "q": 4.0, "n_work": 16},
            "schedule": {"iterations": 50, "proposal_scale": 0.2, "mc_temperature": 0.0,
                         "seed": 0},
        }
        if key is None:
            spec[section] = value
        else:
            spec[section][key] = value
        design_path = tmp_path / "mistyped.json"
        design_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["design", "--design-in", str(design_path), "--out", str(out),
                     "--no-color"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {design_path}: design file {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"ansatz": ', "\udcff"], ids=["json", "utf-8"])
    def test_undecodable_design_file_named(self, tmp_path, capsys, text):
        design_path = tmp_path / "bad.json"
        design_path.write_text(text, errors="surrogateescape")
        code = main(["design", "--design-in", str(design_path), "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read design file {design_path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_design_file_of_other_than_an_object_named(self, tmp_path, capsys):
        design_path = tmp_path / "list.json"
        design_path.write_text("[[1]]")
        code = main(["design", "--design-in", str(design_path), "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {design_path}: design file must hold a JSON object\n")

    @pytest.mark.parametrize("flags", [
        ["--proposal-scale", "nan"],
        ["--proposal-scale", "inf"],
        ["--temperature", "nan"],
        ["--amplitude", "nan"],
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, flags):
        code = main(["design", "--iterations", "50", *flags, "--out", str(tmp_path),
                     "--no-color"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--iterations", "100000000000"],
         f"iterations must be in 1..{designer.MAX_ITERATIONS}, got 100000000000"),
        (["--amplitude", "1e200", "--iterations", "50"], "initial design cost is inf"),
    ])
    def test_refused_before_the_walk(self, tmp_path, capsys, flags, message):
        code = main(["design", *flags, "--out", str(tmp_path), "--no-color"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("source", ["n_fit", "design_in"])
    @pytest.mark.parametrize("n_work, refused", [(20, False), (21, True)])
    def test_workspace_cap_checked_before_any_row(self, tmp_path, monkeypatch, capsys,
                                                  source, n_work, refused):
        monkeypatch.setattr(designer, "MAX_N_WORK", 20)
        built = []
        position_operator = designer.position_operator
        monkeypatch.setattr(designer, "position_operator",
                            lambda dim: built.append(dim) or position_operator(dim))
        if source == "n_fit":
            flags = ["--n-fit", str(n_work - 10)]  # the default workspace is n_fit + 10
        else:
            targets = DesignTargets.inverse_intensity(0.0125, 6)
            design_path = tmp_path / "wide.json"
            design_path.write_text(json.dumps({
                "ansatz": {"v_coeffs": [0.0] * 4, "b_coeffs": [0.0] * 4},
                "targets": {"f": targets.f_target.tolist(),
                            "theta": targets.theta_target.tolist(), "n_work": n_work},
            }))
            flags = ["--design-in", str(design_path)]
        out = tmp_path / "out"
        code = main(["design", *flags, "--iterations", "20", "--out", str(out), "--no-color"])
        if refused:
            assert code == 2
            assert "workspace cutoff 21 above the cap 20" in capsys.readouterr().err
            assert not built
            assert not (out / "report.json").exists()
        else:
            assert code == 0
            assert built and max(built) == n_work + 1

    def test_design_file_with_infinite_coefficient_named(self, tmp_path, capsys):
        targets = DesignTargets.inverse_intensity(0.0125, 6)
        design_path = tmp_path / "inf.json"
        design_path.write_text(json.dumps({
            "ansatz": {"v_coeffs": [0.0, math.inf, 0.0, 0.0], "b_coeffs": [0.0] * 4},
            "targets": {"f": targets.f_target.tolist(), "theta": targets.theta_target.tolist()},
        }))
        assert "Infinity" in design_path.read_text()
        out = tmp_path / "out"
        code = main(["design", "--design-in", str(design_path), "--iterations", "50",
                     "--out", str(out), "--no-color"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(design_path) in err and "coefficients must be finite" in err
        assert not (out / "report.json").exists()

    def test_trace_series(self, tmp_path):
        assert main(["design", "--iterations", "300", "--seed", "1",
                     "--out", str(tmp_path), "--series", "--no-color"]) == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "iteration,cost"
        assert len(lines) == 302

    def test_returned_state_worse_than_the_best_fails(self, tmp_path, monkeypatch):
        walk = cli.mc_optimize

        def start_returned(ansatz0, targets, schedule, rows):
            _, trace = walk(ansatz0, targets, schedule, rows)
            return ansatz0, trace

        monkeypatch.setattr(cli, "mc_optimize", start_returned)
        assert main(["design", "--iterations", "300", "--seed", "1",
                     "--out", str(tmp_path), "--no-color"]) == 1
        checks = load_report(tmp_path)["checks"]
        assert {name for name, c in checks.items() if not c["passed"]} == {"cost_not_increased"}
        assert checks["cost_not_increased"]["value"] > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_best_cost_equals_trace_minimum(self, tmp_path, seed):
        # cost_not_increased has threshold 0.0: the best state scored alone
        # must get the bits its stacked score had in the walk's trace
        assert main(["design", "--iterations", "300", "--seed", str(seed),
                     "--out", str(tmp_path), "--no-color"]) == 0
        assert load_report(tmp_path)["checks"]["cost_not_increased"]["value"] == 0.0


class TestVerifySltoCommand:
    @pytest.fixture()
    def engine_matrices(self, tmp_path):
        cfg = CompactEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g=0.1, n_max1=4, n_max2=4)
        d = tmp_path / "mats"
        d.mkdir()
        layout = (cfg.n_max1 + 1, cfg.n_max2 + 1, 2)
        write_matrix_file(d / "u.txt", evolution_operator(cfg, cfg.tau).entries, layout)
        write_matrix_file(d / "h1.txt", np.diag(cfg.omega1 * np.arange(5)).astype(complex))
        write_matrix_file(d / "h2.txt", np.diag(cfg.omega2 * np.arange(5)).astype(complex))
        write_matrix_file(d / "hs.txt", np.diag([cfg.a0, cfg.a1]).astype(complex))
        return cfg, d

    def test_identity_unitary_passes(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "id.txt", np.eye(50, dtype=complex), (5, 5, 2))
        code = main(["verify-slto", "--unitary", str(d / "id.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0
        report = load_report(tmp_path / "o")
        for check in report["checks"].values():
            assert check["value"] <= 1e-12

    def test_engine_unitary_passes(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        code = main(["verify-slto", "--unitary", str(d / "u.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0

    def test_random_unitary_fails_with_large_residual(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        q, r = np.linalg.qr(a)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        write_matrix_file(d / "rand.txt", u, (5, 5, 2))
        code = main(["verify-slto", "--unitary", str(d / "rand.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 1  # physics failure, report still written
        report = load_report(tmp_path / "o")
        assert report["checks"]["commutator_weighted"]["value"] > 1e-3
        assert not report["all_checks_passed"]

    @staticmethod
    def full_params(d) -> dict:
        return {"unitary": str(d / "u.txt"), "bath1": str(d / "h1.txt"),
                "bath2": str(d / "h2.txt"), "system": str(d / "hs.txt"),
                "beta1": 0.5, "beta2": 1.0}

    def test_config_file_supplies_required_keys(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(self.full_params(d)))
        code = main(["verify-slto", "--config", str(config),
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 0
        assert load_report(tmp_path / "o")["all_checks_passed"]

    def test_config_missing_key_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        params = self.full_params(d)
        del params["beta2"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(params))
        code = main(["verify-slto", "--config", str(config),
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert "missing required keys ['beta2']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_parsed_unitary_is_handed_over_without_a_copy(self, tmp_path, monkeypatch):
        cfg = CompactEngineConfig(beta1=0.5, beta2=1.0, omega1=2.0, g=0.1, n_max1=9, n_max2=9)
        d = tmp_path / "mats"
        d.mkdir()
        write_matrix_file(d / "u.txt", evolution_operator(cfg, cfg.tau).entries, (10, 10, 2))
        for name, diag in (("h1", cfg.omega1 * np.arange(10)), ("h2", cfg.omega2 * np.arange(10)),
                           ("hs", [cfg.a0, cfg.a1])):
            write_matrix_file(d / f"{name}.txt", np.diag(diag).astype(complex))
        parsed, handed = [], []

        def read(path):
            entries, layout = read_matrix_file(path)
            parsed.append((entries, tracemalloc.get_traced_memory()[0]))
            return entries, layout

        def verify(u, *args, **kwargs):
            handed.append((u, tracemalloc.get_traced_memory()[0]))
            return verify_slto(u, *args, **kwargs)

        monkeypatch.setattr(cli, "read_matrix_file", read)
        monkeypatch.setattr(cli, "verify_slto", verify)
        tracemalloc.start()
        try:
            run_experiment("verify-slto", self.full_params(d), tmp_path / "o")
        finally:
            tracemalloc.stop()
        (entries, after_read), (u, at_call) = parsed[0], handed[0]
        assert u.entries is entries and not entries.flags.writeable
        # the three 10x10 / 2x2 factor files are all that was added; a copy is 640 kB
        assert at_call - after_read < entries.nbytes / 8
        assert load_report(tmp_path / "o")["all_checks_passed"]

    @pytest.mark.parametrize("flag, value", [("--beta1", "nan"), ("--beta2", "inf")])
    def test_non_finite_temperature_named(self, tmp_path, engine_matrices, capsys,
                                          flag, value):
        cfg, d = engine_matrices
        args = {"--beta1": "0.5", "--beta2": "1", flag: value}
        code = main(["verify-slto", "--unitary", str(d / "u.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), *[x for kv in args.items() for x in kv],
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert f"{flag[2:]} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("beta1, beta2, named", [
        ("1e308", "1", ["--beta1 1e+308"]),
        ("0.5", "1e308", ["--beta2 1e+308"]),
        ("-1e308", "1", ["--beta1 -1e+308"]),
        # bath energy scales 8 and 4: each term is finite, their sum is not
        ("1e307", "1e307", ["--beta1 1e+307", "--beta2 1e+307"]),
        ("0.5", "config", ["{config}: beta2 1e+308"]),
    ])
    def test_overflowing_weighted_energy_named(self, tmp_path, engine_matrices, capsys,
                                               beta1, beta2, named):
        """A temperature at which the weighted energy overflows is refused by
        name before any product is formed: no warning, no report."""
        cfg, d = engine_matrices
        args = self.verify_args(d, "u.txt", tmp_path / "o")
        at = args.index("--beta1")
        del args[at:at + 4]  # the flags and values of beta1 and beta2
        args.append(f"--beta1={beta1}")
        if beta2 == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({"beta2": 1e308}))
            args += ["--config", str(tmp_path / "cfg.json")]
        else:
            args.append(f"--beta2={beta2}")
        assert main(args) == 2
        err = capsys.readouterr().err
        named = " and ".join(named).format(config=tmp_path / "cfg.json")
        assert err.startswith(f"error: {named}: the weighted energy ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry, code", [(1e308, 2), (-1e200j, 2), (1e150, 1)])
    @pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
    def test_overflowing_unitary_entry_named(self, tmp_path, engine_matrices, capsys, entry,
                                             code, in_config):
        """A U with an entry whose square overflows is refused, named by --unitary
        or its --config key and by its file, before any product is formed: no
        warning, no report.  At 1e150 every product is finite and U is checked."""
        _, d = engine_matrices
        u = np.eye(50, dtype=complex)
        u[0, 1] = entry
        write_matrix_file(d / "big.txt", u, (5, 5, 2))
        args = self.verify_args(d, "big.txt", tmp_path / "o")
        named = f"--unitary {d / 'big.txt'}"
        if in_config:
            (tmp_path / "cfg.json").write_text(json.dumps({"unitary": str(d / "big.txt")}))
            at = args.index("--unitary")
            args[at:at + 2] = ["--config", str(tmp_path / "cfg.json")]
            named = f"{tmp_path / 'cfg.json'}: unitary {d / 'big.txt'}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith(f"error: {named}: products of its entries may overflow")
            assert not (tmp_path / "o").exists()
        else:
            assert err == ""
            strict_json((tmp_path / "o" / "report.json").read_text())

    def test_huge_system_level_is_not_blamed_on_the_unitary(self, tmp_path, engine_matrices):
        """A system level of 1e308 makes the energy scale 2 (r1 + r2 + r_S) infinite
        by itself; the exported unitary is still checked, without a warning."""
        _, d = engine_matrices
        write_matrix_file(d / "hs.txt", np.diag([0.0, 1e308]).astype(complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(self.verify_args(d, "u.txt", tmp_path / "o")) == 1
        assert [str(w.message) for w in caught] == []
        strict_json((tmp_path / "o" / "report.json").read_text())

    def test_non_finite_matrix_entry_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        h1 = np.diag(cfg.omega1 * np.arange(5)).astype(complex)
        h1[3, 3] = complex("nan+0j")
        write_matrix_file(d / "h1.txt", h1)
        code = main(["verify-slto", "--unitary", str(d / "u.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 2
        assert "h1.txt: non-finite entry in row 3" in capsys.readouterr().err

    def test_non_finite_temperature_rejected_by_api(self, engine_matrices):
        cfg, d = engine_matrices
        u, _ = read_matrix_file(d / "u.txt")
        h1, _ = read_matrix_file(d / "h1.txt")
        h2, _ = read_matrix_file(d / "h2.txt")
        hs, _ = read_matrix_file(d / "hs.txt")
        with pytest.raises(ConfigError, match="beta1 must be finite"):
            verify_slto(
                Operator(u), Operator(h1, hermitian_hint=True),
                Operator(h2, hermitian_hint=True), Operator(hs, hermitian_hint=True),
                math.nan, 1.0,
            )

    def test_weighted_system_dimension_mismatch_rejected_by_api(self, engine_matrices):
        cfg, d = engine_matrices
        u, _ = read_matrix_file(d / "u.txt")
        h1, _ = read_matrix_file(d / "h1.txt")
        h2, _ = read_matrix_file(d / "h2.txt")
        hs, _ = read_matrix_file(d / "hs.txt")
        with pytest.raises(ShapeError, match="weighted system term has dim 3, system has 2"):
            verify_slto(
                Operator(u), Operator(h1, hermitian_hint=True),
                Operator(h2, hermitian_hint=True), Operator(hs, hermitian_hint=True),
                0.5, 1.0, w_system=Operator(np.eye(3), hermitian_hint=True),
            )

    def test_layout_disagreement_rejected(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "bad.txt", np.eye(50, dtype=complex), (10, 5))
        code = main(["verify-slto", "--unitary", str(d / "bad.txt"),
                     "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                     "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("dim, layout, bath", [
        (20, None, 3),  # 3 x 3 x 2 = 18, and no layout to compare with
        (50, None, 2),  # 2 x 2 x 2 = 8
        (50, (5, 2, 5), 5),  # 5 x 5 x 2 = 50, in another order than the layout
    ])
    def test_factor_dimensions_checked_with_or_without_a_layout(self, tmp_path, capsys,
                                                                dim, layout, bath):
        d = tmp_path / "mats"
        d.mkdir()
        write_matrix_file(d / "u.txt", np.eye(dim, dtype=complex), layout)
        write_matrix_file(d / "h1.txt", np.diag(np.arange(float(bath))).astype(complex))
        write_matrix_file(d / "h2.txt", np.diag(np.arange(float(bath))).astype(complex))
        write_matrix_file(d / "hs.txt", np.diag([0.0, 1.0]).astype(complex))
        code = main(self.verify_args(d, "u.txt", tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --unitary {d / 'u.txt'} has dimension {dim}")
        for flag, name in (("--bath1", "h1.txt"), ("--bath2", "h2.txt"),
                           ("--system", "hs.txt")):
            assert f"{flag} {d / name}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_factor_product_refused_by_api(self):
        """The library refuses factors that do not multiply to U's dimension by itself."""
        with pytest.raises(ShapeError,
                           match=re.escape("factors (3, 3, 2) do not multiply to the "
                                           "unitary dim 20")):
            verify_slto(Operator(np.eye(20)), Operator(np.diag([0.0, 1.0, 2.0])),
                        Operator(np.diag([0.0, 1.0, 2.0])), Operator(np.diag([0.0, 1.0])),
                        0.5, 1.0)

    def test_non_positive_layout_factor_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        (d / "bad.txt").write_text("4 -2 -2\n" + "1+0j 0+0j 0+0j 0+0j\n" * 4)
        code = main(self.verify_args(d, "bad.txt", tmp_path / "o"))
        assert code == 2
        assert "bad.txt: bad header '4 -2 -2'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_block_structure_api(self, engine_matrices):
        cfg, d = engine_matrices
        u, _ = read_matrix_file(d / "u.txt")
        h1, _ = read_matrix_file(d / "h1.txt")
        h2, _ = read_matrix_file(d / "h2.txt")
        hs, _ = read_matrix_file(d / "hs.txt")
        check = verify_slto(
            Operator(u), Operator(h1, hermitian_hint=True),
            Operator(h2, hermitian_hint=True), Operator(hs, hermitian_hint=True),
            0.5, 1.0,
        )
        assert check.passed
        assert check.off_block_max <= 1e-12
        assert check.fixed_point_residual <= 1e-12

    @staticmethod
    def verify_args(d, unitary: str, out) -> list[str]:
        return ["verify-slto", "--unitary", str(d / unitary),
                "--bath1", str(d / "h1.txt"), "--bath2", str(d / "h2.txt"),
                "--system", str(d / "hs.txt"), "--beta1", "0.5", "--beta2", "1",
                "--out", str(out), "--no-color"]

    def test_non_unitary_input_fails_only_unitarity(self, tmp_path):
        export = tmp_path / "export"
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "11", "--n-max2", "11",
                     "--export-matrices", str(export), "--out", str(tmp_path / "cycle"),
                     "--no-color"]) == 0
        for name, short in (("h_bath1", "h1"), ("h_bath2", "h2"), ("h_system", "hs")):
            (export / f"{name}.txt").rename(export / f"{short}.txt")
        assert main(self.verify_args(export, "u_tau.txt", tmp_path / "genuine")) == 0
        genuine = load_report(tmp_path / "genuine")
        assert genuine["results"]["unitarity_residual"] <= 1e-12

        u, layout = read_matrix_file(export / "u_tau.txt")
        corner = np.ravel_multi_index((11, 11, 1), layout)  # |11, 11, 1>
        u[corner, corner] *= 1.001
        write_matrix_file(export / "scaled.txt", u, layout)
        assert main(self.verify_args(export, "scaled.txt", tmp_path / "scaled")) == 1
        checks = load_report(tmp_path / "scaled")["checks"]
        assert [name for name, c in checks.items() if not c["passed"]] == ["unitarity"]
        assert checks["unitarity"]["value"] == pytest.approx(2.0e-3, rel=1e-3)

    @pytest.mark.parametrize("beta1", ["-1000", "-1"])
    def test_negative_beta1_writes_a_report(self, tmp_path, engine_matrices, beta1):
        """A negative beta1 gives an inverted Gibbs state, computed without
        overflow; it is off resonance, so the weighted checks fail with exit 1."""
        cfg, d = engine_matrices
        args = self.verify_args(d, "u.txt", tmp_path / "o")
        args[args.index("--beta1") + 1] = beta1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(args)
        assert code == 1
        checks = load_report(tmp_path / "o")["checks"]
        assert [name for name, c in checks.items() if not c["passed"]] == [
            "commutator_weighted", "semi_gibbs_fixed_point"]

    def test_unitary_above_the_dense_cap_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        (d / "big.txt").write_text("9000 90 50 2\n" + "0+0j " * 9000 + "\n")
        code = main(self.verify_args(d, "big.txt", tmp_path / "o"))
        assert code == 2
        assert "big.txt: dimension 9000, above the cap 8192" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_off_resonance_beta2_fails_only_the_weighted_checks(self, tmp_path, monkeypatch):
        export = tmp_path / "export"
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "6", "--n-max2", "6",
                     "--export-matrices", str(export), "--out", str(tmp_path / "cycle"),
                     "--no-color"]) == 0
        diagonal_path = []
        diagonal_residuals = slto._diagonal_residuals
        monkeypatch.setattr(slto, "_diagonal_residuals",
                            lambda *a: diagonal_path.append(diagonal_residuals(*a))
                            or diagonal_path[-1])
        code = main(["verify-slto", "--unitary", str(export / "u_tau.txt"),
                     "--bath1", str(export / "h_bath1.txt"),
                     "--bath2", str(export / "h_bath2.txt"),
                     "--system", str(export / "h_system.txt"),
                     "--beta1", "0.5", "--beta2", "1.3",
                     "--out", str(tmp_path / "o"), "--no-color"])
        assert code == 1
        assert len(diagonal_path) == 1
        checks = load_report(tmp_path / "o")["checks"]
        assert [name for name, c in checks.items() if not c["passed"]] == [
            "commutator_weighted", "semi_gibbs_fixed_point"]

    def test_weighted_system_identity_shift_passes(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "ws.txt", 0.3 * np.eye(2, dtype=complex))
        code = main([*self.verify_args(d, "u.txt", tmp_path / "o"),
                     "--weighted-system", str(d / "ws.txt")])
        assert code == 0

    def test_weighted_system_gap_fails_weighted_commutator(self, tmp_path, engine_matrices):
        cfg, d = engine_matrices
        write_matrix_file(d / "ws.txt", np.diag([0.0, 1.0]).astype(complex))
        code = main([*self.verify_args(d, "u.txt", tmp_path / "o"),
                     "--weighted-system", str(d / "ws.txt")])
        assert code == 1
        checks = load_report(tmp_path / "o")["checks"]
        assert not checks["commutator_weighted"]["passed"]
        assert checks["commutator_energy"]["passed"]

    @pytest.mark.parametrize("key, dim", [("bath1", 5), ("bath2", 5), ("system", 2),
                                          ("weighted_system", 2)])
    def test_non_hermitian_factor_named(self, tmp_path, engine_matrices, capsys, key, dim):
        cfg, d = engine_matrices
        bad = np.eye(dim, dtype=complex)
        bad[0, 1] = 0.5
        write_matrix_file(d / "h_bad.txt", bad)
        flag = "--" + key.replace("_", "-")
        args = self.verify_args(d, "u.txt", tmp_path / "o")
        if key == "weighted_system":
            args += [flag, str(d / "h_bad.txt")]
        else:
            args[args.index(flag) + 1] = str(d / "h_bad.txt")
        assert main(args) == 2
        assert (f"{flag} {d / 'h_bad.txt'}: not Hermitian, max |A - A^†| = 5.000e-01"
                in capsys.readouterr().err)
        assert not (tmp_path / "o" / "report.json").exists()

    def test_weighted_system_dimension_mismatch_named(self, tmp_path, engine_matrices,
                                                      capsys):
        cfg, d = engine_matrices
        write_matrix_file(d / "ws.txt", np.eye(3, dtype=complex))
        code = main([*self.verify_args(d, "u.txt", tmp_path / "o"),
                     "--weighted-system", str(d / "ws.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ws.txt: weighted system term has dim 3" in err
        assert "hs.txt has dim 2" in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_unitary_that_is_not_utf8_named(self, tmp_path, engine_matrices, capsys):
        cfg, d = engine_matrices
        raw = bytearray((d / "u.txt").read_bytes())
        raw[17] = 0xFF  # in row 0, after the header "50 5 5 2"
        (d / "bad.txt").write_bytes(raw)
        code = main(self.verify_args(d, "bad.txt", tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {d / 'bad.txt'}: byte 17 (0xff) is not UTF-8\n"
        assert not (tmp_path / "o").exists()

    def test_rows_of_one_weighted_energy_rotated_fail_only_the_energy_checks(
            self, tmp_path, engine_matrices):
        """|2,1,0> and |1,2,0> have the same weighted energy and Gibbs weight, and total
        energies omega1 - omega2 apart: mixing them breaks only energy conservation."""
        cfg, d = engine_matrices
        u, layout = read_matrix_file(d / "u.txt")
        rows = [np.ravel_multi_index(state, layout) for state in ((2, 1, 0), (1, 2, 0))]
        c, s = math.cos(0.3), math.sin(0.3)
        u[rows] = np.array([[c, -s], [s, c]]) @ u[rows]
        write_matrix_file(d / "rotated.txt", u, layout)
        assert main(self.verify_args(d, "rotated.txt", tmp_path / "o")) == 1
        checks = load_report(tmp_path / "o")["checks"]
        failed = {name for name, check in checks.items() if not check["passed"]}
        assert failed == {"block_diagonality", "commutator_energy"}
        for name in failed:
            assert checks[name]["value"] == pytest.approx(math.sin(0.3), abs=1e-12)


class TestCliNamesReachTheLibrary:
    """The runners reach the matrix-file and verifier code through cli's own
    names, the names bench/tracing.py replaces to time that code."""

    def test_names_are_the_library_functions(self):
        assert cli.verify_slto is slto.verify_slto
        assert cli.read_matrix_file is bytescan.read_matrix_file
        assert cli.ConfigError is bytescan.ConfigError is slto.ConfigError

    def test_runners_call_through_cli(self, tmp_path, monkeypatch):
        calls = []
        for name in ("read_matrix_file", "verify_slto", "write_matrix_file"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, fn=getattr(cli, name), **k:
                                calls.append(name) or fn(*a, **k))
        export = tmp_path / "export"
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1", "--omega1", "2",
                     "--g", "0.1", "--n-max1", "4", "--n-max2", "4",
                     "--export-matrices", str(export), "--out", str(tmp_path / "cycle"),
                     "--no-color"]) == 0
        assert calls == ["write_matrix_file"] * 4
        calls.clear()
        assert main(["verify-slto", "--unitary", str(export / "u_tau.txt"),
                     "--bath1", str(export / "h_bath1.txt"),
                     "--bath2", str(export / "h_bath2.txt"),
                     "--system", str(export / "h_system.txt"), "--beta1", "0.5",
                     "--beta2", "1", "--out", str(tmp_path / "o"), "--no-color"]) == 0
        assert calls == ["read_matrix_file"] * 4 + ["verify_slto"]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def eigenspace_unitary(h1, h2, hs, rng: np.random.Generator) -> np.ndarray:
    """A Haar unitary on each eigenspace of the summed diagonal factors, 0 between them."""
    energy = (np.diag(h1).real[:, None, None] + np.diag(h2).real[None, :, None]
              + np.diag(hs).real[None, None, :]).ravel()
    u = np.zeros((energy.size, energy.size), dtype=complex)
    for level in np.unique(energy):
        idx = np.flatnonzero(energy == level)
        u[np.ix_(idx, idx)] = haar_unitary(idx.size, rng)
    return u


class TestVerifierAgainstDenseOracle:
    """The factored verifier against the dense embedding it replaced."""

    RESIDUALS = ("residual_energy", "residual_weighted", "off_block_max",
                 "fixed_point_residual", "unitarity_residual")

    def assert_matches_oracle(self, u, h1, h2, hs, beta1, beta2, w_system=None):
        check = verify_slto(
            Operator(u), Operator(h1, hermitian_hint=True), Operator(h2, hermitian_hint=True),
            Operator(hs, hermitian_hint=True), beta1, beta2,
            w_system=None if w_system is None else Operator(w_system, hermitian_hint=True),
        )
        oracle = dense_slto_residuals(u, h1, h2, hs, beta1, beta2, w_system)
        for name in self.RESIDUALS:
            value = getattr(check, name)
            assert abs(value - oracle[name]) <= 1e-12, name
            assert (value <= check.threshold) == (oracle[name] <= check.threshold), name
        assert check.passed == all(v <= check.threshold for v in oracle.values())
        return check

    @pytest.mark.parametrize("cutoff", [4, 8])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_exported_engine_unitary(self, tmp_path, cutoff, rotated):
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1",
                     "--omega1", "2", "--g", "0.3",
                     "--n-max1", str(cutoff), "--n-max2", str(cutoff),
                     "--export-matrices", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--no-color"]) == 0
        u, layout = read_matrix_file(tmp_path / "u_tau.txt")
        h1, h2, hs = (read_matrix_file(tmp_path / f"{name}.txt")[0]
                      for name in ("h_bath1", "h_bath2", "h_system"))
        if rotated:  # mix two states of different total energy, keeping U unitary
            i = np.ravel_multi_index((1, 0, 0), layout)
            j = np.ravel_multi_index((cutoff, 2, 1), layout)
            c, s = math.cos(1e-3), math.sin(1e-3)
            u[[i, j]] = c * u[i] - s * u[j], s * u[i] + c * u[j]
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        assert check.passed is not rotated

    @pytest.mark.parametrize("dims, seed", [((3, 4, 2), 0), ((4, 3, 3), 1), ((2, 2, 2), 2)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_haar_unitary_with_generic_factors(self, dims, seed, weighted):
        rng = np.random.default_rng(seed)
        u = haar_unitary(math.prod(dims), rng)
        h1, h2, hs = (random_hermitian(d, rng) for d in dims)
        w_system = random_hermitian(dims[2], rng) if weighted else None
        if weighted:
            assert np.max(np.abs(hs @ w_system - w_system @ hs)) > 1e-3
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.7, 1.3, w_system)
        assert not check.passed

    @pytest.fixture()
    def paths(self, monkeypatch) -> dict:
        """Calls of the diagonal-factor path, and the rows it bracketed in full: its dirty rows."""
        calls = {"_diagonal_residuals": 0, "dirty_rows": 0}
        diagonal_residuals = slto._diagonal_residuals
        commutator_residuals = slto._commutator_residuals

        def diagonal_spy(*args):
            calls["_diagonal_residuals"] += 1
            return diagonal_residuals(*args)

        def commutator_spy(brackets, *args):
            if calls["_diagonal_residuals"] and brackets[0].ndim == 2:  # a slab of rows
                calls["dirty_rows"] += brackets[0].shape[0]
            return commutator_residuals(brackets, *args)

        monkeypatch.setattr(slto, "_diagonal_residuals", diagonal_spy)
        monkeypatch.setattr(slto, "_commutator_residuals", commutator_spy)
        return calls

    @staticmethod
    def diagonals(*levels) -> list[np.ndarray]:
        return [np.diag(np.asarray(x, dtype=complex)) for x in levels]

    #: diagonal factor levels and the size of the largest total-energy eigenspace
    DEGENERATE = {
        "system_proportional_to_identity": (([0, 1, 2], [0, 1.5, 3], [0.7, 0.7]), 2),
        "repeated_bath_levels": (([0, 1, 1, 2], [0, 0, 2], [0, 1]), 7),
        "commensurate_frequencies": (([0, 2, 4], [0, 1, 2, 3], [0, 1]), 4),  # omega1 = 2 omega2
    }

    @pytest.mark.parametrize("case", list(DEGENERATE))
    @pytest.mark.parametrize("block_diagonal", [True, False])
    def test_degenerate_diagonal_factors(self, paths, case, block_diagonal):
        levels, largest = self.DEGENERATE[case]
        energy = np.add.outer(np.add.outer(*levels[:2]), levels[2]).ravel()
        assert np.unique(energy, return_counts=True)[1].max() == largest
        rng = np.random.default_rng(4)
        h1, h2, hs = self.diagonals(*levels)
        if block_diagonal:
            u = eigenspace_unitary(h1, h2, hs, rng)
        else:  # every row dirty
            u = haar_unitary(energy.size, rng)
        self.assert_matches_oracle(u, h1, h2, hs, 0.7, 1.3)
        dirty = 0 if block_diagonal else energy.size
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": dirty}

    @staticmethod
    def rotate_across_eigenspaces(u, energy, pairs: int, rng, first=None):
        """Rotate ``pairs`` disjoint pairs of rows of different energy into each other."""
        rows = list(rng.permutation(energy.size))
        if first is not None:
            rows.remove(first)
            rows.insert(0, first)
        for _ in range(pairs):
            i = rows.pop(0)
            j = next(k for k in rows if abs(energy[k] - energy[i]) > 1e-6)
            rows.remove(j)
            c, s = math.cos(0.3), math.sin(0.3)
            u[[i, j]] = c * u[i] - s * u[j], s * u[i] + c * u[j]

    @pytest.mark.parametrize("case", list(DEGENERATE))
    @pytest.mark.parametrize("pairs", [1, 2, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_rotated_across_eigenspaces(self, paths, case, pairs, weighted):
        levels, _ = self.DEGENERATE[case]
        energy = np.add.outer(np.add.outer(*levels[:2]), levels[2]).ravel()
        rng = np.random.default_rng(10 + pairs)
        h1, h2, hs = self.diagonals(*levels)
        u = eigenspace_unitary(h1, h2, hs, rng)
        self.rotate_across_eigenspaces(u, energy, pairs, rng)
        w_system = np.diag([0.2, 0.9]).astype(complex) if weighted else None
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.7, 1.3, w_system)
        assert check.off_block_max > 0.1 and check.unitarity_residual <= 1e-12
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 2 * pairs}

    def test_dirty_row_inside_the_largest_eigenspace(self, paths):
        levels, largest = self.DEGENERATE["repeated_bath_levels"]
        energy = np.add.outer(np.add.outer(*levels[:2]), levels[2]).ravel()
        level, count = max(zip(*np.unique(energy, return_counts=True)), key=lambda lc: lc[1])
        assert count == largest == 7
        rng = np.random.default_rng(11)
        h1, h2, hs = self.diagonals(*levels)
        u = eigenspace_unitary(h1, h2, hs, rng)
        first = np.flatnonzero(energy == level)[3]
        self.rotate_across_eigenspaces(u, energy, 1, rng, first=first)
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        assert not check.passed
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 2}

    def test_dirty_row_and_scaled_column_fail_only_their_checks(self, paths):
        layout = (3, 4, 2)
        h1, h2, hs = self.diagonals([0, 1, 2], [0, 0.5, 1, 1.5], [0, 0.5])
        # phases commute with every energy and keep gamma: an SLTO
        u = np.diag(np.exp(2j * np.pi * np.random.default_rng(12).random(24)))
        # |0,0,0> gets 1.2e-9 of |0,1,0> and of |0,0,1>, the eigenspace half an
        # energy unit up: a block of norm 1.7e-9, commutator entries of 6e-10
        i = np.ravel_multi_index((0, 0, 0), layout)
        for state in ((0, 1, 0), (0, 0, 1)):
            u[i, np.ravel_multi_index(state, layout)] = 1.2e-9
        # the column of least Gibbs weight, so that gamma barely moves
        u[:, np.ravel_multi_index((2, 3, 1), layout)] *= 1 + 1e-8
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        failing = {name for name, value in (("block_diagonality", check.off_block_max),
                                            ("commutator_energy", check.residual_energy),
                                            ("commutator_weighted", check.residual_weighted),
                                            ("semi_gibbs_fixed_point", check.fixed_point_residual),
                                            ("unitarity", check.unitarity_residual))
                   if value > check.threshold}
        assert failing == {"block_diagonality", "unitarity"}
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 1}

    def test_non_unitary_block(self, paths):
        levels, _ = self.DEGENERATE["commensurate_frequencies"]
        h1, h2, hs = self.diagonals(*levels)
        u = eigenspace_unitary(h1, h2, hs, np.random.default_rng(5))
        # |2, 0, 0>, the last of the energy-4 eigenspace |0,3,1>, |1,1,1>, |1,2,0>, |2,0,0>
        u[:, np.ravel_multi_index((2, 0, 0), (3, 4, 2))] *= 1.001
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        assert check.unitarity_residual == pytest.approx(2.001e-3)
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 0}

    def test_imaginary_part_of_a_diagonal(self, paths):
        h1, h2, hs = self.diagonals([0, 1, 2], [0, 0.5, 1, 1.5], [0, 0.5])
        h1 += np.diag([1e-13j, -1e-13j, 0.5e-13j])
        u = eigenspace_unitary(h1, h2, hs, np.random.default_rng(6))
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        assert check.residual_energy > 1e-14  # the 1e-13 imaginary parts, not rounding
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 0}

    @pytest.mark.parametrize("block_diagonal", [True, False])
    def test_diagonal_weighted_system(self, paths, block_diagonal):
        h1, h2, hs = self.diagonals([0, 1, 2], [0, 0.5, 1, 1.5], [0, 0.5])
        w_system = np.diag([0.2, 0.9]).astype(complex)
        rng = np.random.default_rng(8)
        u = eigenspace_unitary(h1, h2, hs, rng) if block_diagonal else haar_unitary(24, rng)
        self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0, w_system)
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 0 if block_diagonal else 24}

    def test_non_diagonal_weighted_system_takes_the_general_path(self, paths):
        h1, h2, hs = self.diagonals([0, 1, 2], [0, 0.5, 1, 1.5], [0, 0.5])
        rng = np.random.default_rng(9)
        w_system = random_hermitian(2, rng)
        self.assert_matches_oracle(eigenspace_unitary(h1, h2, hs, rng), h1, h2, hs,
                                   0.5, 1.0, w_system)
        assert paths == {"_diagonal_residuals": 0, "dirty_rows": 0}

    def test_tiny_off_block_entry_makes_a_dirty_row(self, tmp_path, paths):
        assert main(["abstract-cycle", "--beta1", "0.5", "--beta2", "1",
                     "--omega1", "2", "--g", "0.3", "--n-max1", "4", "--n-max2", "4",
                     "--export-matrices", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--no-color"]) == 0
        u, layout = read_matrix_file(tmp_path / "u_tau.txt")
        h1, h2, hs = (read_matrix_file(tmp_path / f"{name}.txt")[0]
                      for name in ("h_bath1", "h_bath2", "h_system"))
        i, j = (np.ravel_multi_index(state, layout) for state in ((1, 0, 0), (0, 0, 0)))
        assert u[i, j] == 0
        u[i, j] = 1e-300  # squares to 0, so only the entry itself shows it
        check = self.assert_matches_oracle(u, h1, h2, hs, 0.5, 1.0)
        assert check.passed and check.off_block_max == 0.0
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 1}

    #: traced peak of one call as a multiple of U's bytes: 4.30 when every row
    #: of U still took two dense d^3 products (measured on the input below)
    PEAK_BOUND = 4.3

    def test_peak_memory_on_a_haar_unitary(self, paths):
        # every row is dirty, so this is the most the diagonal path can hold
        rng = np.random.default_rng(13)
        u = Operator(haar_unitary(576, rng))
        h1, h2, hs = (Operator(h, hermitian_hint=True) for h in self.diagonals(
            np.arange(24.0), 0.7 * np.arange(12.0), [0.0, 0.3]))
        tracemalloc.start()
        try:
            check = verify_slto(u, h1, h2, hs, 0.5, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not check.passed
        assert peak <= self.PEAK_BOUND * u.entries.nbytes
        assert paths == {"_diagonal_residuals": 1, "dirty_rows": 576}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_degenerate_total_spectrum_with_rotated_factors(self, seed):
        # spectra {0,1,2}, {0,1,2}, {0,1}: the summed energies 0..5 are degenerate, so
        # the factor basis and the dense eigh basis differ inside each eigenspace
        rng = np.random.default_rng(seed)
        factors = []
        for spectrum in ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0]):
            q = haar_unitary(len(spectrum), rng)
            factors.append((q * spectrum) @ q.conj().T)
        check = self.assert_matches_oracle(haar_unitary(18, rng), *factors, 0.7, 1.3)
        assert check.off_block_max > 1.0


class TestRunExperimentApi:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment("nonsense", {}, tmp_path)

    def test_missing_required_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required keys"):
            run_experiment("verify-slto", {}, tmp_path)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind, key, value, what", [
        ("delta-sweep", "g1", "x", "a number"),
        ("optics-cycle", "beta1", True, "a number"),
        ("delta-sweep", "n_max1", 4.0, "an integer"),
        ("design", "seed", None, "an integer"),
        ("verify-slto", "unitary", 3, "a path string"),
        ("delta-sweep", "ratios", [20.0, "40"], "a list of numbers"),
        ("delta-sweep", "block", [3.0, 1.0], "a list of integers"),
        ("delta-sweep", "block", "3,1", "a list of integers"),
    ])
    def test_wrong_value_type_named_before_the_run(self, tmp_path, monkeypatch, kind, key,
                                                   value, what):
        def never(params, out_dir, sources):
            raise AssertionError("ran an experiment with a mistyped parameter")

        monkeypatch.setitem(KINDS, kind, dataclasses.replace(KINDS[kind], runner=never))
        with pytest.raises(ConfigError,
                           match=re.escape(f"{kind}: {key} must be {what}, got {value!r}")):
            run_experiment(kind, {key: value}, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_mistyped_config_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"g1": "x"}))
        code = main(["delta-sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--no-color"])
        assert code == 2
        assert capsys.readouterr().err == "error: delta-sweep: g1 must be a number, got 'x'\n"
        assert not (tmp_path / "o").exists()

    def test_null_cutoffs_are_still_derived(self, tmp_path):
        params = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1, "tail_delta": 1e-3}
        run_experiment("abstract-cycle", {**params, "n_max1": None, "n_max2": None},
                       tmp_path / "null")
        run_experiment("abstract-cycle", params, tmp_path / "absent")
        null, absent = (load_report(tmp_path / name) for name in ("null", "absent"))
        assert null["results"] == absent["results"]

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment("abstract-cycle", {"beta1": 0.5, "nope": 1}, tmp_path)

    @pytest.mark.parametrize("kind, params, numpy_params", [
        ("abstract-cycle",
         {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1, "n_max1": 3, "n_max2": 3},
         {"beta1": np.float64(0.5), "beta2": np.float64(1.0), "omega1": np.float64(2.0),
          "g": np.float64(0.1), "n_max1": np.int64(3), "n_max2": np.int64(3)}),
        ("delta-sweep",
         {"ratios": [20.0, 40.0], "block": [3, 1], "g1": 0.5},
         {"ratios": (np.float64(20.0), np.float64(40.0)),
          "block": (np.int64(3), np.int64(1)), "g1": np.float64(0.5)}),
    ])
    def test_numpy_params_write_the_python_typed_report(self, tmp_path, kind, params,
                                                        numpy_params):
        run_experiment(kind, params, tmp_path / "python")
        run_experiment(kind, numpy_params, tmp_path / "numpy")
        assert (strip_wall_clock((tmp_path / "numpy" / "report.json").read_bytes())
                == strip_wall_clock((tmp_path / "python" / "report.json").read_bytes()))

    def test_identical_reruns_are_byte_identical_modulo_wall_clock(self, tmp_path):
        params = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                  "n_max1": 3, "n_max2": 3}
        run_experiment("abstract-cycle", params, tmp_path, write_series=True)
        first_report = (tmp_path / "report.json").read_bytes()
        first_series = (tmp_path / "series.csv").read_bytes()
        run_experiment("abstract-cycle", params, tmp_path, write_series=True)
        second_report = (tmp_path / "report.json").read_bytes()
        assert strip_wall_clock(first_report) == strip_wall_clock(second_report)
        assert (tmp_path / "series.csv").read_bytes() == first_series

    def test_rerun_replaces_the_files_instead_of_rewriting_them(self, tmp_path):
        out = tmp_path / "out"
        params = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                  "n_max1": 3, "n_max2": 3}
        run_experiment("abstract-cycle", params, out, write_series=True)
        old = {}
        for name in ("report.json", "series.csv"):
            (tmp_path / name).hardlink_to(out / name)
            old[name] = (out / name).read_bytes()
        artifact = run_experiment("abstract-cycle", {**params, "g": 0.2}, out,
                                  write_series=True)
        for name in ("report.json", "series.csv"):
            assert (tmp_path / name).read_bytes() == old[name]
            assert not (out / name).samefile(tmp_path / name)
        assert load_report(out)["config"]["g"] == 0.2
        assert Path(artifact.series_path).read_bytes() != old["series.csv"]

    def test_symlinked_outputs_are_replaced_not_written_through(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "target.txt"
        target.write_text("kept\n")
        for name in ("report.json", "design.json"):
            (out / name).symlink_to(target)
        run_experiment("design", {"iterations": 20, "seed": 1}, out)
        assert target.read_text() == "kept\n"
        for name in ("report.json", "design.json"):
            assert not (out / name).is_symlink()
            json.loads((out / name).read_text())

    def test_fifo_design_out_is_written_through(self, tmp_path):
        fifo = tmp_path / "design.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["design", "--iterations", "20", "--design-out", str(fifo),
                         "--out", str(tmp_path / "out"), "--no-color"]) == 0
            assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert "result" in json.loads(written)

    def test_fifo_series_longer_than_a_pipe_buffer_arrives_whole(self, tmp_path):
        """A series.csv that is a FIFO is written through, to the last byte,
        however many times the pipe fills: the same bytes as a regular file."""
        params = {"iterations": 20_000, "seed": 4}
        expected = run_experiment("design", params, tmp_path / "file", write_series=True)
        whole = Path(expected.series_path).read_bytes()
        assert len(whole) > 1 << 16  # more than a Linux pipe holds
        out = tmp_path / "fifo"
        out.mkdir()
        os.mkfifo(out / "series.csv")
        received = []
        reader = threading.Thread(target=lambda: received.append(
            (out / "series.csv").read_bytes()), daemon=True)
        reader.start()
        try:
            run_experiment("design", params, out, write_series=True)
        finally:
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(out / "series.csv").st_mode)
        assert received == [whole]

    def test_partial_writes_are_finished(self, tmp_path, monkeypatch):
        """Each output arrives whole when every write takes only part of its bytes."""
        params = {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                  "n_max1": 3, "n_max2": 3, "export_matrices": str(tmp_path / "export")}
        names = ["out/report.json", "out/series.csv", "export/u_tau.txt", "export/h_bath1.txt",
                 "export/h_bath2.txt", "export/h_system.txt"]
        run_experiment("abstract-cycle", params, tmp_path / "out", write_series=True)
        whole = [strip_wall_clock((tmp_path / name).read_bytes()) for name in names]
        write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(len(data))
            return write(fd, data[:1000])

        monkeypatch.setattr(cli.os, "write", short_write)
        run_experiment("abstract-cycle", params, tmp_path / "out", write_series=True)
        monkeypatch.undo()
        assert max(sizes) > 1000
        assert [strip_wall_clock((tmp_path / name).read_bytes()) for name in names] == whole

    def test_new_files_get_the_mode_of_open(self, tmp_path, monkeypatch):
        """A new output is 0o666 under the umask and its descriptor is not
        inherited by child processes, as with ``open(path, "w")``."""
        opened, inheritable = [], []
        os_open, os_close = os.open, os.close

        def record_open(*args, **kwargs):
            opened.append(os_open(*args, **kwargs))
            return opened[-1]

        def record_close(fd):
            if fd in opened:
                inheritable.append(os.get_inheritable(fd))
            os_close(fd)

        monkeypatch.setattr(cli.os, "open", record_open)
        monkeypatch.setattr(cli.os, "close", record_close)
        umask = os.umask(0o027)
        try:
            run_experiment("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0,
                                              "g": 0.1, "n_max1": 3, "n_max2": 3},
                           tmp_path / "out")
            write_matrix_file(tmp_path / "m.txt", np.eye(2, dtype=complex))
        finally:
            os.umask(umask)
            monkeypatch.undo()
        for path in (tmp_path / "out" / "report.json", tmp_path / "m.txt"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert inheritable == [False, False]

    def test_chained_symlink_is_written_through(self, tmp_path):
        # like /dev/stdout -> /proc/self/fd/1 -> the file stdout goes to
        target = tmp_path / "target.json"
        target.write_text("old\n")
        (tmp_path / "hop").symlink_to(target)
        chain = tmp_path / "chain"
        chain.symlink_to(tmp_path / "hop")
        assert main(["design", "--iterations", "20", "--design-out", str(chain),
                     "--out", str(tmp_path / "out"), "--no-color"]) == 0
        assert chain.is_symlink() and (tmp_path / "hop").is_symlink()
        assert "result" in json.loads(target.read_text())

    def test_symlink_into_another_file_system_is_written_through(self, tmp_path, monkeypatch):
        # like /proc/self/fd/1 when stdout goes to a file
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link"
        link.symlink_to(target)
        lstat = os.lstat

        def other_device(path, *args, **kwargs):
            fields = list(lstat(path, *args, **kwargs))
            if Path(path) == link:
                fields[stat.ST_DEV] += 1
            return os.stat_result(fields)

        monkeypatch.setattr(cli.os, "lstat", other_device)
        assert main(["design", "--iterations", "20", "--design-out", str(link),
                     "--out", str(tmp_path / "out"), "--no-color"]) == 0
        assert link.is_symlink()
        assert "result" in json.loads(target.read_text())

    def test_file_that_cannot_be_removed_is_rewritten_in_place(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        argv = ["abstract-cycle", "--beta1", "0.5", "--beta2", "1.0", "--omega1", "2.0",
                "--n-max1", "3", "--n-max2", "3", "--out", str(out), "--no-color"]
        assert main([*argv, "--g", "0.1"]) == 0
        (tmp_path / "link.json").hardlink_to(out / "report.json")

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.os, "unlink", refuse)
        assert main([*argv, "--g", "0.2"]) == 0
        assert (out / "report.json").samefile(tmp_path / "link.json")
        assert load_report(out)["config"]["g"] == 0.2

    @pytest.mark.parametrize("kind, params", [
        ("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                            "n_max1": 3, "n_max2": 4}),
        ("delta-sweep", {"ratios": [20.0, 40.0]}),
        ("design", {"iterations": 40, "seed": 2}),
    ])
    def test_series_rows_keep_17_significant_digits(self, tmp_path, kind, params):
        _, _, series = KINDS[kind].runner(params, tmp_path / "direct", {})
        artifact = run_experiment(kind, params, tmp_path / "run", write_series=True)
        lines = Path(artifact.series_path).read_text().splitlines()
        # the design series is its cost trace, whose row number is the iteration
        rows = enumerate(series.tolist()) if series.ndim == 1 else series.tolist()
        expected = [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                    for row in rows]
        assert lines[1:] == expected

    @pytest.mark.parametrize("kind, params, build", [
        ("abstract-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
                            "n_max1": 3, "n_max2": 4}, "evolve_cycle"),
        ("optics-cycle", {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0}, "run_optics_cycle"),
    ])
    def test_cycle_series_columns_are_the_report_traces(self, tmp_path, monkeypatch, kind,
                                                        params, build):
        """Each series.csv column holds its CycleReport trace, read back exactly."""
        reports = []

        def recorded(cfg, run=getattr(cli, build)):
            reports.append(run(cfg))
            return reports[-1]

        monkeypatch.setattr(cli, build, recorded)
        artifact = run_experiment(kind, params, tmp_path, write_series=True)
        header, *lines = Path(artifact.series_path).read_text().splitlines()
        columns = dict(zip(header.split(","),
                           zip(*([float(text) for text in line.split(",")] for line in lines))))
        (report,) = reports
        pops = report.population_trace
        expected = {
            "t": report.times, "pop1": pops[:, 0], "pop2": pops[:, 1],
            "pop3": np.zeros(len(report.times)), "S_ent": report.entanglement_trace,
            "E_B1": report.bath1_energy_trace, "E_B2": report.bath2_energy_trace,
            "resid_energy": report.residual_energy_trace,
            "resid_weighted": report.residual_weighted_trace,
        }
        assert list(columns) == list(expected)
        for name, values in expected.items():
            assert columns[name] == tuple(values.tolist()), name

    @pytest.mark.parametrize("chunk", [1, 7, 41, 4096])  # 41 rows: partial, exact, one chunk
    def test_series_bytes_do_not_depend_on_the_chunk(self, tmp_path, monkeypatch, chunk):
        params = {"iterations": 40, "seed": 2}
        expected = run_experiment("design", params, tmp_path / "whole", write_series=True)
        monkeypatch.setattr(cli, "SERIES_CHUNK_ROWS", chunk)
        chunked = run_experiment("design", params, tmp_path / "chunked", write_series=True)
        assert (Path(chunked.series_path).read_bytes()
                == Path(expected.series_path).read_bytes())
        assert len(Path(chunked.series_path).read_text().splitlines()) == 42

    def test_design_runs_straddling_chunks_print_as_rows(self, tmp_path, monkeypatch):
        params = {"iterations": 120, "seed": 2}
        _, _, trace = KINDS["design"].runner(params, tmp_path / "direct", {})
        rows = list(enumerate(trace.tolist()))
        costs = [cost for _, cost in rows]
        # some run of equal costs crosses a 7-row chunk edge
        assert any(costs[k - 1] == costs[k] for k in range(7, len(costs), 7))
        monkeypatch.setattr(cli, "SERIES_CHUNK_ROWS", 7)
        artifact = run_experiment("design", params, tmp_path / "run", write_series=True)
        expected = "iteration,cost\n" + "".join("%.17g,%.17g\n" % (i, c) for i, c in rows)
        assert Path(artifact.series_path).read_text() == expected

    def test_trace_lines_do_not_share_a_text_across_signed_zeros(self):
        costs = np.array([1.5, 1.5, 0.0, -0.0, -0.0, 0.0, 0.0, math.nan, math.nan, 0.25])
        rows = np.column_stack([np.arange(len(costs)), costs])
        text = "".join(cli._row_lines(rows))
        assert "".join(cli._trace_lines(costs)) == text
        assert text.splitlines(keepends=True)[2:7] == ["2,0\n", "3,-0\n", "4,-0\n", "5,0\n",
                                                      "6,0\n"]

    def test_long_series_is_not_held_as_one_string(self, tmp_path, monkeypatch):
        n_rows = 200_000
        costs = np.arange(n_rows) * 0.1
        # the same rows as an (iteration, cost) table and as the design trace
        for writer, series in ((cli._row_lines, np.column_stack([np.arange(n_rows), costs])),
                               (cli._trace_lines, costs)):
            monkeypatch.setitem(KINDS, "design", dataclasses.replace(
                KINDS["design"], series_lines=writer,
                runner=lambda params, out_dir, sources, series=series: ({}, {}, series)))
            tracemalloc.start()
            try:
                artifact = run_experiment("design", {}, tmp_path, write_series=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = os.path.getsize(artifact.series_path)
            assert size > 4_000_000
            # the whole series as one string (plus its rows' strings) would take several
            # times this
            assert peak < size / 4, writer.__name__

    def test_artifact_paths(self, tmp_path):
        artifact = run_experiment(
            "abstract-cycle",
            {"beta1": 0.5, "beta2": 1.0, "omega1": 2.0, "g": 0.1,
             "n_max1": 3, "n_max2": 3},
            tmp_path, write_series=True,
        )
        assert artifact.all_checks_passed
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "series.csv").exists()
        assert artifact.tool_version == json.loads(
            (tmp_path / "report.json").read_text()
        )["tool_version"]

    def test_report_written_even_on_physics_failure(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q, r = np.linalg.qr(a)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        write_matrix_file(tmp_path / "u.txt", u, (2, 2, 2))
        write_matrix_file(tmp_path / "h1.txt", np.diag([0.0, 2.0]).astype(complex))
        write_matrix_file(tmp_path / "h2.txt", np.diag([0.0, 1.0]).astype(complex))
        write_matrix_file(tmp_path / "hs.txt", np.diag([0.0, 1.0]).astype(complex))
        artifact = run_experiment(
            "verify-slto",
            {"unitary": str(tmp_path / "u.txt"), "bath1": str(tmp_path / "h1.txt"),
             "bath2": str(tmp_path / "h2.txt"), "system": str(tmp_path / "hs.txt"),
             "beta1": 0.5, "beta2": 1.0},
            tmp_path / "out",
        )
        assert not artifact.all_checks_passed
        assert (tmp_path / "out" / "report.json").exists()
