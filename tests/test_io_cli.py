"""File formats, solution records, and the command-line surface."""

import json
import struct

import numpy as np
import pytest

from momentcp import (
    ObservationSet,
    ParseError,
    SolutionRecord,
    read_observations,
    read_observations_binary,
    read_observations_csv,
    write_observations_binary,
    write_observations_csv,
)
from momentcp.cli import BenchScenario, main, run_bench, run_gmm_sweep


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

    def test_autodetect(self, tmp_path):
        rng = np.random.default_rng(73)
        obs = ObservationSet(rng.standard_normal((2, 3)))
        bpath = tmp_path / "a.momv"
        cpath = tmp_path / "a.csv"
        write_observations_binary(str(bpath), obs)
        write_observations_csv(str(cpath), obs)
        assert np.array_equal(read_observations(str(bpath)).V, obs.V)
        assert np.array_equal(read_observations(str(cpath)).V, obs.V)


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
        ("decompose", "--threads", "0"),
        ("decompose", "--threads", "-2"),
        ("decompose", "--batch", "0"),
        ("gmm", "--starts", "0"),
        ("gmm", "--threads", "0"),
    ])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, command, flag, value):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        if command == "decompose":
            argv = ["decompose", "--input", str(data), "--order", "3", "--rank", "1",
                    "--method", "adam", "--output", str(tmp_path / "o.json")]
        else:
            argv = ["gmm", "--n", "4", "--r", "1", "--sigma", "0", "--order", "3",
                    "--rank-min", "1", "--rank-max", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

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

    def test_nan_pgtol_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        _write_rank_one_csv(data)
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "1",
            "--pgtol", "nan", "--output", str(tmp_path / "o.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
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

    def test_iterations_sum_over_starts(self, tmp_path):
        from momentcp import OptConfig, lbfgs_minimize, multistart, pack, rrf_init
        from momentcp.optimize import packed_fg_implicit

        rng = np.random.default_rng(83)
        data = tmp_path / "obs.csv"
        out = tmp_path / "sol.json"
        write_observations_csv(str(data), ObservationSet(rng.standard_normal((5, 30))))
        code = main([
            "decompose", "--input", str(data), "--order", "3", "--rank", "2",
            "--starts", "3", "--seed", "6", "--output", str(out),
        ])
        assert code == 0
        obs = read_observations(str(data))
        fg = packed_fg_implicit(obs, 3, 2)
        cfg = OptConfig(pgtol=1e-4, seed=6)
        best = multistart(
            3,
            lambda g: pack(np.full(2, 0.5), rrf_init(obs, 2, g)),
            lambda x0, g: lbfgs_minimize(fg, x0, cfg, shape=(5, 2)),
            6,
        )
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
