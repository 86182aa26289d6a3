"""File formats, solution records, and the command-line surface."""

import json
import struct
import warnings

import numpy as np
import pytest

from momentcp import (
    ObservationSet,
    ParseError,
    SolutionRecord,
    data_norm_sq,
    read_observations,
    read_observations_binary,
    read_observations_csv,
    write_observations_binary,
    write_observations_csv,
)
from momentcp.cli import BenchScenario, fit, main, run_bench, run_gmm_sweep


class TestCsv:
    def test_rows_are_observations(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1,2\n3,4\n")
        obs = read_observations_csv(str(path))
        assert obs.n == 2 and obs.p == 2
        assert np.array_equal(obs.V[:, 0], [1.0, 2.0])
        assert np.array_equal(obs.V[:, 1], [3.0, 4.0])

    def test_optional_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        obs = read_observations_csv(str(path))
        assert obs.p == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_observations_csv(str(path))

    def test_malformed_row_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="row 2"):
            read_observations_csv(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="row 2"):
            read_observations_csv(str(path))

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_observations_csv(str(path))

    def test_blank_rows_and_header_skipped(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c\n1,2\n\n , \n3,4\n")
        obs = read_observations_csv(str(path))
        assert np.array_equal(obs.V, [[1.0, 3.0], [2.0, 4.0]])

    def test_read_memory_bounded(self, tmp_path):
        # parsed straight into the array: no per-value Python objects
        import tracemalloc

        rng = np.random.default_rng(71)
        n, p = 40, 2000
        obs = ObservationSet(rng.standard_normal((n, p)))
        path = tmp_path / "big.csv"
        write_observations_csv(str(path), obs)
        tracemalloc.start()
        try:
            back = read_observations_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.V, obs.V)
        assert back.V.flags.f_contiguous
        assert peak <= 3 * 8 * n * p

    @pytest.mark.parametrize("text, V", [
        ('"1","2"\n"3",4\n', [[1.0, 3.0], [2.0, 4.0]]),
        (" 1 , 2\n3,\t4 \n", [[1.0, 3.0], [2.0, 4.0]]),
        ("1,2\r\n3,4\r\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("1\n2\n3\n", [[1.0, 2.0, 3.0]]),
        ("1,2,3\n", [[1.0], [2.0], [3.0]]),
        ('x,"y"\n\n-1.5e-3,+2\n', [[-1.5e-3], [2.0]]),
    ], ids=["quoted", "spaces", "crlf", "one-column", "one-row", "header-quoted"])
    def test_accepted_layouts(self, tmp_path, text, V):
        path = tmp_path / "obs.csv"
        path.write_bytes(text.encode())
        obs = read_observations_csv(str(path))
        assert np.array_equal(obs.V, V)
        assert obs.V.flags.f_contiguous

    def test_header_only_on_line_one(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("\nx,y\n1,2\n")
        with pytest.raises(ParseError, match="row 2: non-numeric"):
            read_observations_csv(str(path))
        path.write_text("1,2\nx,y\n")
        with pytest.raises(ParseError, match="row 2: non-numeric"):
            read_observations_csv(str(path))

    def test_byte_order_mark_dropped(self, tmp_path):
        # a UTF-8 byte-order mark is not part of line 1: numbers after it are
        # an observation, a header after it stays a header, and a later bad
        # row keeps its line number
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        assert np.array_equal(read_observations(str(path)).V, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        path.write_bytes(b"\xef\xbb\xbfx,y\n3,4\n")
        assert np.array_equal(read_observations_csv(str(path)).V, [[3.0], [4.0]])
        path.write_bytes(b"\xef\xbb\xbf1,2\nz,4\n")
        with pytest.raises(ParseError, match="row 2: non-numeric"):
            read_observations_csv(str(path))

    @pytest.mark.parametrize("last, error, message", [
        ("5,6,7", ParseError, "row 6: expected 2 values, got 3"),
        ("5", ParseError, "row 6: expected 2 values, got 1"),
        ("5,x", ParseError, "row 6: non-numeric value"),
        ('5,"6', ParseError, "row 6: non-numeric value"),
        ("5,inf", ValueError, "non-finite value at row 6, column 2"),
        ("nan,6", ValueError, "non-finite value at row 6, column 1"),
    ])
    def test_errors_name_file_lines(self, tmp_path, last, error, message):
        # a header, blank rows and a row of separators come before the bad row
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n\n1,2\n , \n3,4\n{last}\n7,8\n")
        with pytest.raises(error, match=message):
            read_observations_csv(str(path))

    def test_bad_value_past_first_chunk(self, tmp_path):
        path = tmp_path / "long.csv"
        rows = [f"{k},{k}.5" for k in range(70_000)]
        rows[59_999] = "1,1e"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="row 60000: non-numeric value"):
            read_observations_csv(str(path))

    @pytest.mark.parametrize("text", ["\n\n", "a,b\n", "a,b\n , \n\n"],
                             ids=["blank", "header-only", "header-and-blank"])
    def test_no_observations(self, tmp_path, text):
        path = tmp_path / "none.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="no observations found"):
            read_observations_csv(str(path))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        obs = ObservationSet(rng.standard_normal((3, 5)))
        path = tmp_path / "rt.csv"
        write_observations_csv(str(path), obs)
        back = read_observations_csv(str(path))
        assert np.array_equal(back.V, obs.V)


class TestBinary:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(71)
        obs = ObservationSet(rng.standard_normal((4, 7)) * 1e-120)
        path = tmp_path / "rt.momv"
        write_observations_binary(str(path), obs)
        back = read_observations_binary(str(path))
        assert np.array_equal(back.V, obs.V)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.momv"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError, match="header"):
            read_observations_binary(str(path))

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(72)
        obs = ObservationSet(rng.standard_normal((3, 3)))
        path = tmp_path / "trunc.momv"
        write_observations_binary(str(path), obs)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ParseError, match="byte offset"):
            read_observations_binary(str(path))

    @pytest.mark.parametrize("n, p, values, offset", [
        (2**32, 2**31, 4, 56),  # n * p = 2**63 does not fit an int64 count
        (2**31, 2**31, 4, 56),  # far more than memory holds
        (2, 2, 6, 56),  # two values after the 2 x 2 payload
    ], ids=["overflow", "too-big", "trailing"])
    def test_header_disagrees_with_size(self, tmp_path, capsys, n, p, values, offset):
        path = tmp_path / "bad.momv"
        path.write_bytes(b"MOMV" + struct.pack("<IQQ", 1, n, p)
                         + np.arange(values, dtype="<f8").tobytes())
        with pytest.raises(ParseError, match=f"expected {n * p} values .* "
                           f"got {8 * values} bytes \\(byte offset {offset}\\)"):
            read_observations_binary(str(path))
        assert main([
            "decompose", "--input", str(path), "--order", "3", "--rank", "1",
            "--output", str(tmp_path / "sol.json"),
        ]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: expected")

    def test_unsupported_version(self, tmp_path, capsys):
        path = tmp_path / "v2.momv"
        path.write_bytes(b"MOMV" + struct.pack("<IQQ", 2, 2, 2) + np.zeros(4).tobytes())
        with pytest.raises(ParseError, match=r"unsupported version 2 \(byte offset 4\)"):
            read_observations_binary(str(path))
        assert main([
            "decompose", "--input", str(path), "--order", "3", "--rank", "1",
            "--output", str(tmp_path / "sol.json"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {path}: unsupported version 2 (byte offset 4)\n"

    def test_autodetect(self, tmp_path):
        rng = np.random.default_rng(73)
        obs = ObservationSet(rng.standard_normal((2, 3)))
        bpath = tmp_path / "a.momv"
        cpath = tmp_path / "a.csv"
        write_observations_binary(str(bpath), obs)
        write_observations_csv(str(cpath), obs)
        assert np.array_equal(read_observations(str(bpath)).V, obs.V)
        assert np.array_equal(read_observations(str(cpath)).V, obs.V)

    def test_read_maps_the_payload(self, tmp_path):
        rng = np.random.default_rng(74)
        obs = ObservationSet(rng.standard_normal((6, 11)))
        path = tmp_path / "mapped.momv"
        write_observations_binary(str(path), obs)
        V = read_observations_binary(str(path)).V
        assert V.flags.f_contiguous and not V.flags.writeable
        assert type(V) is np.ndarray
        assert V.tobytes(order="F") == path.read_bytes()[24:]
        with pytest.raises(ValueError, match="read-only"):
            V[0, 0] = 1.0

    def test_write_back_to_the_mapped_file(self, tmp_path):
        # the new bytes replace the file; the set keeps mapping the old one
        obs = ObservationSet(np.random.default_rng(75).standard_normal((100, 250)))
        path = tmp_path / "same.momv"
        write_observations_binary(str(path), obs)
        before = path.read_bytes()
        back = read_observations_binary(str(path))
        write_observations_binary(str(path), back)
        assert path.read_bytes() == before
        assert np.array_equal(back.V, obs.V)
        assert np.array_equal(read_observations_binary(str(path)).V, obs.V)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["same.momv"]

    def test_failed_write_leaves_the_file(self, tmp_path):
        class Payload:
            def ravel(self, order):
                raise RuntimeError("disk gone")

        path = tmp_path / "keep.momv"
        write_observations_binary(str(path), ObservationSet(np.ones((2, 3))))
        before = path.read_bytes()
        broken = type("Obs", (), {"n": 2, "p": 3, "V": Payload()})()
        with pytest.raises(RuntimeError, match="disk gone"):  # after the header
            write_observations_binary(str(path), broken)
        assert path.read_bytes() == before
        assert sorted(q.name for q in tmp_path.iterdir()) == ["keep.momv"]

    def test_write_keeps_mode_and_symlink(self, tmp_path):
        target, link = tmp_path / "data.momv", tmp_path / "link.momv"
        write_observations_binary(str(target), ObservationSet(np.ones((2, 3))))
        target.chmod(0o640)
        link.symlink_to(target)
        write_observations_binary(str(link), ObservationSet(np.zeros((2, 3))))
        assert link.is_symlink() and (target.stat().st_mode & 0o777) == 0o640
        assert np.array_equal(read_observations_binary(str(target)).V, np.zeros((2, 3)))

    def test_read_memory_bounded(self, tmp_path):
        # the payload is mapped, not copied, and scanned a block at a time
        import tracemalloc

        obs = ObservationSet(np.random.default_rng(75).standard_normal((100, 5000)))
        path = tmp_path / "big.momv"
        write_observations_binary(str(path), obs)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            back = read_observations_binary(str(path))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert back.V.nbytes >= 4e6
        assert np.array_equal(back.V, obs.V)
        assert peak < back.V.nbytes / 4

    def test_mapped_set_evaluates_like_a_copy(self, tmp_path):
        from momentcp.objective import pack, packed_fg_implicit

        rng = np.random.default_rng(76)
        path = tmp_path / "fg.momv"
        write_observations_binary(str(path), ObservationSet(rng.standard_normal((8, 300))))
        mapped = read_observations_binary(str(path))
        x = pack(np.full(3, 1.0 / 3.0), rng.standard_normal((8, 3)))
        f, g = packed_fg_implicit(mapped, 3, 3)(x)
        f_copy, g_copy = packed_fg_implicit(ObservationSet(np.array(mapped.V)), 3, 3)(x)
        assert np.float64(f).tobytes() == np.float64(f_copy).tobytes()
        assert g.tobytes() == g_copy.tobytes()

    @pytest.mark.parametrize("n, p", [(0, 5), (5, 0), (0, 0)])
    def test_empty_payload_rejected(self, tmp_path, n, p):
        path = tmp_path / "empty.momv"
        path.write_bytes(b"MOMV" + struct.pack("<IQQ", 1, n, p))
        with pytest.raises(ValueError, match="at least 1x1"):
            read_observations_binary(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload_rejected(self, tmp_path, bad):
        V = np.ones((4, 9))
        V[3, 8] = bad
        path = tmp_path / "bad.momv"
        with open(path, "wb") as fh:
            fh.write(b"MOMV" + struct.pack("<IQQ", 1, 4, 9))
            V.ravel(order="F").astype("<f8").tofile(fh)
        with pytest.raises(ValueError, match=f"{path}: non-finite value in payload"):
            read_observations_binary(str(path))


class TestSolutionRecord:
    def test_json_round_trip_lossless(self):
        rec = SolutionRecord(
            d=3, n=2, p=5, r_hat=2,
            lam=[0.1, -1.0 / 3.0],
            A_row_major=[1e-300, 2.5, -0.1, 1.0 / 7.0],
            final_f=-0.123456789123456789,
            alpha=0.0,
            grad_inf_norm=5e-5,
            iterations=123,
            wall_time_s=0.5,
            seed=7,
            tool_version="0.1.0",
        )
        back = SolutionRecord.from_json(rec.to_json())
        assert back == rec
        assert np.array_equal(back.factor_matrix(), rec.factor_matrix())

    def test_save_load(self, tmp_path):
        rec = SolutionRecord(
            d=3, n=1, p=1, r_hat=1, lam=[1.0], A_row_major=[1.0],
            final_f=0.0, alpha=1.0, grad_inf_norm=0.0, iterations=1,
            wall_time_s=0.0, seed=0, tool_version="0.1.0",
        )
        path = tmp_path / "sol.json"
        rec.save(str(path))
        assert SolutionRecord.load(str(path)) == rec


def _write_rank_one_csv(path, n=4, seed=80):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    obs = ObservationSet(v[:, None])
    write_observations_csv(str(path), obs)
    return obs


class TestDecomposeCommand:
    def test_exact_fit_exit_zero(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        out = tmp_path / "sol.json"
        _write_rank_one_csv(data)
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "1",
            "--starts", "2", "--alpha", "exact", "--pgtol", "1e-9",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        rec = SolutionRecord.load(str(out))
        assert rec.final_f <= 1e-8
        assert rec.r_hat == 1 and rec.n == 4

    def test_batch_with_lbfgs_is_usage_error(self, tmp_path):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        with pytest.raises(SystemExit) as exc:
            main([
                "decompose", "--input", str(data), "--order", "3", "--rank", "1",
                "--batch", "10", "--output", str(tmp_path / "o.json"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("pgtol", ["1e-2", "1e-12"])
    def test_pgtol_with_adam_is_usage_error(self, tmp_path, capsys, pgtol):
        # Adam has no gradient tolerance; as for --batch, the flag is
        # checked before any I/O, so the missing input file is never read
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "decompose", "--input", str(tmp_path / "nope.csv"), "--order", "3",
                "--rank", "1", "--method", "adam", "--pgtol", pgtol, "--output", str(out),
            ])
        assert exc.value.code == 2
        assert "--pgtol only applies to --method lbfgs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, flags", [
        ("lbfgs", ["--pgtol", "1e-12"]), ("adam", ["--batch", "20"]),
    ])
    def test_alpha_only_shifts_reported_f(self, tmp_path, method, flags):
        # the fit runs on the shifted objective whatever --alpha is: exact
        # and zero write the same lam and A bits, and exact adds the data
        # norm to final_f and to every trace row (on this input the
        # L-BFGS runs end in a rounding stall, where the constant used to
        # move the trajectory)
        from momentcp.gmm import correlated_means, sample_gmm

        rng = np.random.default_rng(3)
        data = tmp_path / "obs.csv"
        write_observations_csv(str(data), sample_gmm(correlated_means(6, 2, 0.5, rng), 1e-2, 300, rng))
        recs, traces = {}, {}
        for alpha in ("exact", "zero"):
            out, trace = tmp_path / f"{alpha}.json", tmp_path / f"{alpha}.csv"
            code = main([
                "decompose", "--input", str(data), "--order", "3", "--rank", "2",
                "--starts", "2", "--method", method, "--alpha", alpha, "--seed", "3",
                "--output", str(out), "--trace", str(trace), *flags,
            ])
            assert code == 0
            recs[alpha] = SolutionRecord.load(str(out))
            rows = trace.read_text().splitlines()[1:]
            traces[alpha] = [float(row.split(",")[2]) for row in rows]
        exact, zero = recs["exact"], recs["zero"]
        assert exact.alpha == data_norm_sq(read_observations(str(data)), 3) and zero.alpha == 0.0
        assert exact.lam == zero.lam and exact.A_row_major == zero.A_row_major
        assert exact.grad_inf_norm == zero.grad_inf_norm
        assert exact.final_f == exact.alpha + zero.final_f
        assert len(traces["exact"]) == len(traces["zero"]) > 1
        assert traces["exact"] == [exact.alpha + f for f in traces["zero"]]

    def test_rank_below_one_is_usage_error(self, tmp_path):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        with pytest.raises(SystemExit) as exc:
            main([
                "decompose", "--input", str(data), "--order", "3", "--rank", "0",
                "--output", str(tmp_path / "o.json"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("decompose", "--starts", "0"),
        ("decompose", "--batch", "0"),
        ("gmm", "--starts", "0"),
        ("gmm", "--n", "0"),
        ("gmm", "--r", "0"),
        ("gmm", "--rank-min", "0"),
        ("gmm", "--rank-max", "-1"),
        ("bench", "-n", "0"),
        ("bench", "-p", "0"),
        ("bench", "-r", "-3"),
        ("bench", "--runs", "0"),
    ])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, command, flag, value):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        out = tmp_path / ("o.json" if command == "decompose" else "o.csv")
        argv = {
            "decompose": ["decompose", "--input", str(data), "--order", "3", "--rank", "1",
                          "--method", "adam"],
            "gmm": ["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--order", "3",
                    "--rank-min", "1", "--rank-max", "1"],
            "bench": ["bench", "-d", "3", "-n", "4", "-p", "10", "-r", "1"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse names a flag with a short alias as, for example, --dim/-n
        assert "argument " in err and f"{flag}: must be >= 1, got {int(value)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "gmm"])
    def test_threads_flag_is_unrecognized(self, tmp_path, capsys, command):
        # the starts run in one thread; the flag is gone, not ignored
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        out = tmp_path / ("o.json" if command == "decompose" else "o.csv")
        argv = {
            "decompose": ["decompose", "--input", str(data), "--order", "3", "--rank", "1"],
            "gmm": ["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--order", "3",
                    "--rank-min", "1", "--rank-max", "1"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(out), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_max_below_rank_min_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--order", "3",
                  "--rank-min", "3", "--rank-max", "2", "--output", str(out)])
        assert exc.value.code == 2
        assert "--rank-max must be >= --rank-min" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "gmm", "bench"])
    @pytest.mark.parametrize("order", ["1", "0"])
    def test_order_below_two_is_usage_error(self, tmp_path, capsys, command, order):
        # the input file does not exist: reading it would exit 1, so exit 2
        # shows that the order is checked before any I/O
        argv = {
            "decompose": ["decompose", "--input", str(tmp_path / "nope.csv"), "--rank", "1",
                          "--output", str(tmp_path / "o.json")],
            "gmm": ["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--rank-min", "1",
                    "--rank-max", "1", "--output", str(tmp_path / "o.csv")],
            "bench": ["bench", "-n", "4", "-p", "10", "-r", "1", "--output", str(tmp_path / "o.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--order", order])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --order" in err and f"must be >= 2, got {order}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["decompose", "gmm", "bench"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        # as for --order: exit 2 with no input file shows the seed is checked before any I/O
        argv = {
            "decompose": ["decompose", "--input", str(tmp_path / "nope.csv"), "--order", "3",
                          "--rank", "1", "--alpha", "exact", "--output", str(tmp_path / "o.json")],
            "gmm": ["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--order", "3",
                    "--rank-min", "1", "--rank-max", "1", "--output", str(tmp_path / "o.csv")],
            "bench": ["bench", "-d", "3", "-n", "4", "-p", "10", "-r", "1",
                      "--output", str(tmp_path / "o.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-3"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["decompose", "gmm", "bench"])
    @pytest.mark.parametrize("pgtol", ["0", "-1e-4", "nan"])
    def test_pgtol_not_positive_is_usage_error(self, tmp_path, capsys, command, pgtol):
        # as for --order: the input file does not exist, so exit 2 shows
        # that the tolerance is checked before any I/O
        argv = {
            "decompose": ["decompose", "--input", str(tmp_path / "nope.csv"), "--order", "3",
                          "--rank", "1", "--alpha", "exact", "--output", str(tmp_path / "o.json")],
            "gmm": ["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--order", "3",
                    "--rank-min", "1", "--rank-max", "1", "--output", str(tmp_path / "o.csv")],
            "bench": ["bench", "-d", "3", "-n", "4", "-p", "10", "-r", "1",
                      "--output", str(tmp_path / "o.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--pgtol={pgtol}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --pgtol" in err and f"must be > 0, got {float(pgtol)}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["csv-nan", "csv-inf", "momv-nan"])
    def test_nonfinite_data_is_runtime_error(self, tmp_path, capsys, case):
        V = np.random.default_rng(85).standard_normal((3, 20))
        V[1, 7] = np.inf if case == "csv-inf" else np.nan
        if case == "momv-nan":
            data = tmp_path / "obs.momv"
            with open(data, "wb") as fh:
                fh.write(b"MOMV" + struct.pack("<IQQ", 1, 3, 20))
                V.ravel(order="F").astype("<f8").tofile(fh)
        else:
            data = tmp_path / "obs.csv"
            data.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in V.T))
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "1",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "o.json").exists()

    def test_same_seed_identical_output_modulo_timing(self, tmp_path):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "decompose", "--input", str(data), "--order", "3", "--rank", "1",
                "--starts", "2", "--seed", "11", "--output", str(out),
            ])
            assert code == 0
            payload = json.loads(out.read_text())
            payload.pop("wall_time_s")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_iterations_sum_over_starts(self, tmp_path, monkeypatch):
        import momentcp.cli as cli

        reports = []

        def kept_fit(*args, **kwargs):
            reports.append(fit(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "fit", kept_fit)
        rng = np.random.default_rng(83)
        data = tmp_path / "obs.csv"
        out = tmp_path / "sol.json"
        write_observations_csv(str(data), ObservationSet(rng.standard_normal((5, 30))))
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "2",
            "--starts", "3", "--seed", "6", "--output", str(out),
        ])
        assert code == 0
        best = reports[0]
        assert len(best.runs) == 3
        rec = SolutionRecord.load(str(out))
        assert rec.iterations == sum(rp.n_fg for rp in best.runs)
        assert rec.iterations > best.n_fg

    def test_memory_error_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)

        def out_of_memory(obs, d):
            raise MemoryError()

        monkeypatch.setattr("momentcp.cli.data_norm_sq", out_of_memory)
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "1",
            "--alpha", "exact", "--output", str(tmp_path / "o.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_data_norm_overflow_is_runtime_error(self, tmp_path, capsys, sign):
        # ||X||^2 overflows to inf, or to inf - inf = nan with signed values
        rng = np.random.default_rng(86)
        V = rng.random((5, 30)) if sign == "positive" else rng.standard_normal((5, 30))
        data = tmp_path / "obs.csv"
        write_observations_csv(str(data), ObservationSet(V * 1e100))
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "3",
            "--alpha", "exact", "--output", str(tmp_path / "o.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the data norm ||X||^2 of the order-3 moment is not finite")
        assert "at this data scale" in err
        assert not (tmp_path / "o.json").exists()

    def test_adam_overflow_is_an_error(self, tmp_path, capsys):
        # the squared gradients overflow Adam's second moments: the run must
        # fail naming the data scale, not warn and return its start
        V = np.random.default_rng(0).standard_normal((5, 30)) * 1e100
        data = tmp_path / "obs.csv"
        write_observations_csv(str(data), ObservationSet(V))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "decompose", "--input", str(data), "--order", "3", "--rank", "2",
                "--starts", "2", "--method", "adam", "--batch", "8",
                "--output", str(tmp_path / "o.json"),
            ])
        assert code == 1
        assert "at this data scale" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o.json").exists()

    def test_lbfgs_overflow_is_an_error(self, tmp_path, capsys):
        # the objective overflows at every L-BFGS start: the run must fail
        # naming the data scale, with no overflow warning on the way
        V = np.random.default_rng(0).standard_normal((5, 30)) * 1e100
        data = tmp_path / "obs.csv"
        write_observations_csv(str(data), ObservationSet(V))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "decompose", "--input", str(data), "--order", "3", "--rank", "2",
                "--starts", "2", "--output", str(tmp_path / "o.json"),
            ])
        assert code == 1
        err = capsys.readouterr().err
        assert "starting point" in err and "at this data scale" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("case", ["identical-variables", "rank-above-n"])
    def test_degenerate_input_finite_or_error(self, tmp_path, capsys, case):
        # a singular Gram matrix in the weight solve must not escape as a
        # LinAlgError traceback; at n=2, d=2 a rank of 4 exceeds the
        # dimension 3 of the symmetric matrices, so G is singular
        rng = np.random.default_rng(84)
        if case == "identical-variables":
            V, order, rank = rng.standard_normal((4, 60)), 3, 3
            V[1] = V[0]
        else:
            V, order, rank = rng.standard_normal((2, 60)), 2, 4
        data = tmp_path / "obs.csv"
        out = tmp_path / "sol.json"
        write_observations_csv(str(data), ObservationSet(V))
        code = main([
            "decompose", "--input", str(data), "--order", str(order), "--rank", str(rank),
            "--starts", "3", "--alpha", "exact", "--seed", "2", "--output", str(out),
        ])
        if code == 0:
            rec = SolutionRecord.load(str(out))
            assert np.isfinite(rec.lam + rec.A_row_major + [rec.final_f, rec.grad_inf_norm]).all()
        else:
            assert code == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_adam_path_runs(self, tmp_path):
        rng = np.random.default_rng(82)
        from momentcp.gmm import correlated_means, sample_gmm

        means = correlated_means(6, 2, 0.5, rng)
        obs = sample_gmm(means, 1e-2, 40, rng)
        data = tmp_path / "obs.csv"
        out = tmp_path / "sol.json"
        write_observations_csv(str(data), obs)
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "2",
            "--starts", "1", "--method", "adam", "--batch", "8",
            "--seed", "4", "--output", str(out), "--trace", str(tmp_path / "tr.csv"),
        ])
        assert code == 0
        trace_lines = (tmp_path / "tr.csv").read_text().splitlines()
        assert trace_lines[0] == "run,iteration,f,time_s"
        assert len(trace_lines) > 1

    def test_adam_writes_full_objective(self, tmp_path):
        # final_f and grad_inf_norm come from the full objective with alpha,
        # not from Adam's shifted estimate on its subset
        from momentcp import fg_implicit
        from momentcp.gmm import correlated_means, sample_gmm

        rng = np.random.default_rng(86)
        obs = sample_gmm(correlated_means(10, 3, 0.5, rng), 1e-2, 3000, rng)
        data = tmp_path / "obs.csv"
        out = tmp_path / "sol.json"
        write_observations_csv(str(data), obs)
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "3",
            "--starts", "2", "--method", "adam", "--alpha", "exact",
            "--seed", "5", "--output", str(out),
        ])
        assert code == 0
        rec = SolutionRecord.load(str(out))
        res = fg_implicit(read_observations(str(data)), np.array(rec.lam),
                          rec.factor_matrix(), 3, rec.alpha)
        assert rec.final_f == res.f
        assert rec.final_f >= -1e-12 * rec.alpha
        assert rec.grad_inf_norm == max(np.abs(res.g_lam).max(), np.abs(res.g_A).max())

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main([
            "decompose", "--input", str(tmp_path / "nope.csv"), "--order", "3",
            "--rank", "1", "--output", str(tmp_path / "o.json"),
        ])
        assert code == 1


class TestBenchCommand:
    def test_small_scenario_report(self, tmp_path):
        report = run_bench(BenchScenario(d=3, n=8, p=30, r=2, runs=2, pgtol=0.05, seed=1))
        assert report["max_paired_rel_fdiff"] <= 1e-10
        assert not report["explicit_skipped"]
        assert report["implicit_iters_mean"] > 0
        assert report["explicit_time_per_iter_s"] > 0

    def test_cap_skips_explicit(self, monkeypatch):
        monkeypatch.setenv("MOMENTCP_ELEMENT_CAP", "100")
        report = run_bench(BenchScenario(d=3, n=8, p=30, r=2, runs=1, seed=1))
        assert report["explicit_skipped"]
        assert np.isnan(report["explicit_time_per_iter_s"])
        assert report["implicit_iters_mean"] > 0

    def test_reference_scenario_paired_agreement(self):
        # roundoff forks the paired trajectories eventually, so the finals
        # only agree at same-basin resolution; the per-iterate check is the
        # sharp one and is enforced inside run_bench at 1e-10
        report = run_bench(BenchScenario(d=3, n=20, p=100, r=5, runs=3, pgtol=0.05, seed=0))
        assert report["max_paired_rel_fdiff"] <= 1e-10
        assert report["max_final_abs_fdiff"] <= 0.05
        assert report["explicit_time_per_iter_s"] > 0
        assert report["implicit_time_per_iter_s"] > 0

    def test_cli_notice_when_explicit_skipped(self, monkeypatch, capsys):
        monkeypatch.setenv("MOMENTCP_ELEMENT_CAP", "10")
        assert main(["bench", "-d", "3", "-n", "5", "-p", "40", "-r", "2", "--runs", "1"]) == 0
        assert capsys.readouterr().err == (
            "notice: n**d = 125 exceeds the element cap (10); explicit route skipped\n"
        )

    def test_cli_fails_on_route_mismatch(self, monkeypatch, capsys):
        # a dense route off by 1e-6 relative fails the paired check at 1e-10
        import momentcp.cli as cli

        dense = cli.ttsv_batch_dense
        monkeypatch.setattr(cli, "ttsv_batch_dense", lambda X, A: dense(X, A) * (1 + 1e-6))
        assert main(["bench", "-d", "3", "-n", "5", "-p", "40", "-r", "2", "--runs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: explicit/implicit objective mismatch at shared iterate: ")
        assert err.endswith("(rel 2.000e-06)\n")

    def test_cli_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "-d", "3", "-n", "8", "-p", "30", "-r", "2",
            "--runs", "2", "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert "implicit_time_per_iter_s" in header.split(",")
        assert len(row.split(",")) == len(header.split(","))


class TestGmmCommand:
    def test_noiseless_recovery(self, tmp_path):
        rows = run_gmm_sweep(
            n=20, r=2, sigma=0.0, d=3, rank_min=2, rank_max=2,
            starts=4, seed=2, pgtol=1e-7,
        )
        assert rows[0]["rel_err"] <= 1e-6
        assert rows[0]["score"] >= 0.999

    def test_sweep_row_per_rank(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "gmm", "--n", "12", "--r", "2", "--sigma", "0.01", "--order", "3",
            "--rank-min", "1", "--rank-max", "3", "--starts", "2",
            "--seed", "5", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + one row per candidate rank
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_rank_above_dim_is_error(self, capsys):
        code = main([
            "gmm", "--n", "3", "--r", "5", "--sigma", "0.1", "--order", "3",
            "--rank-min", "1", "--rank-max", "2", "--starts", "1", "--seed", "0",
        ])
        assert code == 1
        assert "r <= n" in capsys.readouterr().err

    def test_never_materializes_dense_tensor(self, monkeypatch):
        # a cap far below n**d proves the sweep stays matrix-free throughout
        monkeypatch.setenv("MOMENTCP_ELEMENT_CAP", "8")
        rows = run_gmm_sweep(
            n=12, r=2, sigma=0.01, d=3, rank_min=2, rank_max=2,
            starts=2, seed=3, pgtol=1e-5,
        )
        assert rows[0]["score"] >= 0.99


class TestFit:
    """``fit`` gives the bits of ``multistart`` over hand-built closures."""

    @staticmethod
    def _problem(p=300):
        from momentcp.gmm import correlated_means, sample_gmm

        rng = np.random.default_rng(87)
        return sample_gmm(correlated_means(6, 2, 0.5, rng), 1e-2, p, rng)

    @staticmethod
    def _by_hand(obs, cfg, seed, init, compressed=None):
        from dataclasses import replace

        from momentcp import (AdamConfig, SymKruskal, adam_minimize, gaussian_init,
                              kruskal_to_dense, lbfgs_minimize, multistart, pack,
                              packed_fg_implicit, rrf_init)
        from momentcp.cli import SAME_BASIN_TOL
        from momentcp.implicit import principal_basis
        from momentcp.objective import lift_direction, packed_fg_compressed

        full = packed_fg_implicit(obs, 3, 2)
        if isinstance(cfg, AdamConfig):
            space = obs

            def minimize(x0, rng):
                return adam_minimize(obs, 3, 2, x0, cfg, rng)
        else:
            # fitted on U'V, lifted to U B and polished on the full data
            U = principal_basis(obs, 4)
            space = ObservationSet(U.T @ obs.V, obs.nu)
            comp = (compressed or packed_fg_compressed)(space, 3, 2)
            polished = []  # (polished run, dense subspace model), in start order

            def minimize(x0, rng):
                sub = lbfgs_minimize(comp, x0, replace(cfg, max_total_iters=cfg.max_total_iters - 1),
                                     shape=(space.n, 2))
                # a start within SAME_BASIN_TOL of an earlier polished start's
                # model ends in a copy of that start's run
                M = kruskal_to_dense(SymKruskal(3, sub.lam, sub.A)).entries
                twin = next((run for run, Mj in polished if np.sum((M - Mj) ** 2)
                             <= SAME_BASIN_TOL * max(np.sum(M * M), np.sum(Mj * Mj))), None)
                if twin is not None:
                    return replace(sub, lam=twin.lam.copy(), A=twin.A.copy(), f=twin.f,
                                   grad_inf_norm=twin.grad_inf_norm,
                                   reason=f"grouped with run {twin.run_index}")
                rep = lbfgs_minimize(
                    full, pack(sub.lam, U @ sub.A),
                    replace(cfg, max_iters=cfg.max_iters - sub.n_steps,
                            max_total_iters=cfg.max_total_iters - sub.n_fg),
                    shape=(obs.n, 2),
                    first_direction=lambda x, g: lift_direction(x, g, (obs.n, 2), 3),
                )
                polished.append((rep, M))
                rep.n_fg += sub.n_fg
                rep.n_steps += sub.n_steps
                rep.trace = sub.trace + [(f, t + sub.wall_time) for f, t in rep.trace]
                return rep
        make_A = rrf_init if init == "rrf" else lambda o, r, rng: gaussian_init(o.n, r, rng)
        best = multistart(3, lambda rng: pack(np.full(2, 0.5), make_A(space, 2, rng)),
                          minimize, seed)
        if isinstance(cfg, AdamConfig):
            # Adam's own f is an estimate on a subset: fit reports the full objective
            best.f, g = full(pack(best.lam, best.A))
            best.grad_inf_norm = float(np.abs(g).max())
        return best

    @staticmethod
    def _assert_same_bits(got, want):
        assert np.array_equal(got.lam, want.lam) and np.array_equal(got.A, want.A)
        assert got.f == want.f and got.grad_inf_norm == want.grad_inf_norm
        assert (got.run_index, got.seed, got.reason) == (want.run_index, want.seed, want.reason)
        assert [rp.trace[-1][0] for rp in got.runs] == [rp.trace[-1][0] for rp in want.runs]
        assert [rp.n_fg for rp in got.runs] == [rp.n_fg for rp in want.runs]

    @pytest.mark.parametrize("seed", [
        lambda: 9, lambda: np.random.SeedSequence(9),
    ], ids=["int", "SeedSequence"])
    @pytest.mark.parametrize("solver, init", [
        ("lbfgs", "rrf"), ("lbfgs", "gaussian"), ("adam", "rrf"),
    ])
    def test_matches_multistart_bitwise(self, monkeypatch, seed, solver, init):
        import momentcp.optimize as optimize
        from momentcp import AdamConfig, OptConfig

        obs = self._problem()
        if solver == "adam":
            monkeypatch.setattr(optimize, "ADAM_EPOCH_LEN", 10)
            monkeypatch.setattr(optimize, "ADAM_ESTIMATE_SAMPLES", 100)
            monkeypatch.setattr(optimize, "ADAM_MAX_EPOCHS", 5)
            cfg = AdamConfig(batch=20)
        else:
            cfg = OptConfig(pgtol=1e-6)
        got = fit(obs, 3, 2, cfg, 3, seed(), init=init)
        self._assert_same_bits(got, self._by_hand(obs, cfg, seed(), init))

    def test_matches_matrix_free_multistart_bitwise(self):
        # at p = 15 < k^(d-1) = 16 the subspace stage is packed_fg_implicit on U'V
        from momentcp import OptConfig, packed_fg_implicit

        obs, cfg = self._problem(p=15), OptConfig(pgtol=1e-6)
        got = fit(obs, 3, 2, cfg, 3, 9)
        self._assert_same_bits(
            got, self._by_hand(obs, cfg, 9, "rrf", compressed=packed_fg_implicit))

    def test_runs_with_optconfig_patched_to_partial(self, tmp_path, monkeypatch):
        # the benchmark caps decompose's steps by replacing cli.OptConfig
        # with a functools.partial, which is not a class
        import functools

        import momentcp.cli as cli

        monkeypatch.setattr(cli, "OptConfig", functools.partial(cli.OptConfig, max_iters=2))
        obs = self._problem()
        best = fit(obs, 3, 2, cli.OptConfig(pgtol=1e-12), 2, 0)
        assert best.n_steps <= 2 and best.reason == "iteration cap"
        data, out = tmp_path / "obs.csv", tmp_path / "sol.json"
        write_observations_csv(str(data), obs)
        assert main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "2",
            "--starts", "2", "--pgtol", "1e-12", "--output", str(out),
        ]) == 0
        assert SolutionRecord.load(str(out)).iterations > 0
