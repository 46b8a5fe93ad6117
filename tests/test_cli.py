"""Exit-code contract and data formats of the command-line interface."""

import struct
from pathlib import Path

import numpy as np
import pytest

import tlsq
from tlsq import selfcheck, solver, stats
from tlsq.cli import main


@pytest.fixture()
def problem_files(tmp_path):
    x = tlsq.gen_design("mn", 80, 4, 3, seed=1)
    y, _ = tlsq.gen_response(x, seed=2, sigma2=4.0)
    xp, yp = tmp_path / "x.tt", tmp_path / "y.tt"
    tlsq.write_tensor(x, xp)
    tlsq.write_tensor(y, yp)
    return x, y, str(xp), str(yp)


def write_config(tmp_path, **overrides):
    values = dict(n=100, p=4, l=3, design="t3", sigma2=4.0, replicates=8,
                  taus="12,24", methods="unif,lev", alpha=0.9, seed=3,
                  mode="conditional")
    values.update(overrides)
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return str(path)


class TestSolve:
    def test_ols_record_and_output_tensor(self, problem_files, tmp_path, capsys):
        x, y, xp, yp = problem_files
        out = tmp_path / "b.tt"
        assert main(["solve", "--design", xp, "--response", yp,
                     "--method", "ols", "--out", str(out)]) == 0
        record = capsys.readouterr().out.strip().split(",")
        assert record[0] == "ols" and record[1] == ""
        sol = tlsq.solve_ols(tlsq.TlsProblem(x, y))
        assert float(record[2]) == sol.objective
        assert np.array_equal(tlsq.read_tensor(out), sol.b)

    def test_subsampled_deterministic(self, problem_files, tmp_path, capsys):
        _, _, xp, yp = problem_files
        args = ["solve", "--design", xp, "--response", yp, "--method", "lev",
                "--tau", "20", "--seed", "5", "--out", str(tmp_path / "bw.tt")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        # identical apart from the wall-time field
        assert first.rsplit(",", 1)[0] == second.rsplit(",", 1)[0]

    def test_missing_seed_is_usage_error(self, problem_files, tmp_path, capsys):
        _, _, xp, yp = problem_files
        code = main(["solve", "--design", xp, "--response", yp, "--method", "lev",
                     "--tau", "20", "--out", str(tmp_path / "o.tt")])
        assert code == 1
        assert "required" in capsys.readouterr().err

    def test_dimension_mismatch_names_shapes(self, problem_files, tmp_path, capsys):
        x, _, xp, _ = problem_files
        bad = tmp_path / "bad.tt"
        tlsq.write_tensor(x[:, :, :2], bad)
        code = main(["solve", "--design", xp, "--response", str(bad),
                     "--method", "ols", "--out", str(tmp_path / "o.tt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "(80, 4, 2)" in err and "(80, 4, 3)" in err

    def test_bad_file_is_io_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.tt"
        junk.write_bytes(b"not a tensor")
        code = main(["solve", "--design", str(junk), "--response", str(junk),
                     "--method", "ols", "--out", str(tmp_path / "o.tt")])
        assert code == 3

    @pytest.mark.parametrize("shape", [(0, 4, 3), (80, 0, 3), (80, 4, 0)])
    def test_empty_axis_in_header_is_io_error(self, problem_files, tmp_path, capsys, shape):
        _, _, _, yp = problem_files
        empty = tmp_path / "empty.tt"
        empty.write_bytes(b"TTEN" + struct.pack("<IQQQ", 1, *shape))
        code = main(["solve", "--design", str(empty), "--response", yp,
                     "--method", "ols", "--out", str(tmp_path / "o.tt")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty axis" in captured.err and str(empty) in captured.err

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["solve", "--design", str(tmp_path / "absent.tt"),
                     "--response", str(tmp_path / "absent.tt"),
                     "--method", "ols", "--out", str(tmp_path / "o.tt")])
        assert code == 3


class TestTooLargeForMemory:
    # 10**17 draws or replicates ask numpy for 8e17 bytes, beyond a 48-bit
    # address space, so the allocation fails under any overcommit setting.
    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_exits_2_with_one_error_line(self, problem_files, tmp_path, capsys, command):
        _, _, xp, yp = problem_files
        huge = 10**17
        if command == "solve":
            argv = ["solve", "--design", xp, "--response", yp, "--method", "unif",
                    "--tau", str(huge), "--seed", "1", "--out", str(tmp_path / "b.tt")]
        else:
            cfg = write_config(tmp_path, replicates=huge, taus="12")
            argv = ["experiment", "--config", cfg, "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["selfcheck", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["probs"]) == 1

    def test_bad_method_choice(self, problem_files, capsys):
        _, _, xp, _ = problem_files
        assert main(["probs", "--design", xp, "--method", "fancy"]) == 1


class TestProbs:
    def test_csv_sums_to_one(self, problem_files, capsys):
        x, _, xp, _ = problem_files
        assert main(["probs", "--design", xp, "--method", "slev", "--alpha", "0.8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,prob"
        assert len(lines) == 81
        probs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert abs(probs.sum() - 1.0) <= 1e-12
        expected = tlsq.shrinked_leverage_probs(x, 0.8).probs
        assert np.array_equal(probs, expected)

    @pytest.mark.parametrize("method", ["unif", "lev", "slev", "opt"])
    def test_rank_deficient_slice_fails_as_solve_does(self, tmp_path, capsys, method):
        # constant tubes leave every DFT slice but the first empty
        x = np.repeat(np.random.default_rng(4).standard_normal((8, 2, 1)), 3, axis=2)
        y = np.random.default_rng(5).standard_normal((8, 1, 3))
        xp, yp = tmp_path / "x.tt", tmp_path / "y.tt"
        tlsq.write_tensor(x, xp)
        tlsq.write_tensor(y, yp)
        assert main(["solve", "--design", str(xp), "--response", str(yp),
                     "--method", "ols", "--out", str(tmp_path / "b.tt")]) == 2
        solve_err = capsys.readouterr().err
        assert main(["probs", "--design", str(xp), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == solve_err
        assert "DFT slice 2 of 3" in captured.err


class TestSingleFactorization:
    """Each command runs one tall factorization: the [X | y] QR made with its problem.

    It gives the rank check, the Gram factors and the exact fit, so neither
    solve --method ols nor the conditional variance factors the design again.
    Every QR of the library runs through solver._qr_r, so the tall calls are
    counted there; a tall np.linalg.qr or np.linalg.svd call is counted too.
    """

    @pytest.mark.parametrize(
        "command, tall_calls",
        [
            (["solve", "--method", "opt", "--tau", "20", "--seed", "3"], 1),
            (["variance", "--method", "lev", "--tau", "20", "--sigma2", "4.0"], 1),
            (["solve", "--method", "ols"], 1),
            (["probs", "--method", "opt"], 1),
            (["variance", "--method", "opt", "--tau", "20", "--sigma2", "4.0"], 1),
        ],
    )
    def test_tall_factorizations(self, problem_files, tmp_path, monkeypatch, capsys,
                                 command, tall_calls):
        x, _, xp, yp = problem_files
        n = x.shape[0]
        tall = []
        for module, name in ((solver, "_qr_r"), (np.linalg, "qr"), (np.linalg, "svd")):
            def counting(a, *args, _original=getattr(module, name), **kwargs):
                if np.shape(a)[-2] == n:
                    tall.append(_original.__name__)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        assert main(command_argv(command, xp, yp, tmp_path)) == 0
        assert tall == ["_qr_r"] * tall_calls


def command_argv(command, xp, yp, tmp_path):
    """`command` on the design xp and, unless it is probs, the response yp."""
    argv = command + ["--design", str(xp)]
    if command[0] != "probs":
        argv += ["--response", str(yp)]
    if command[0] == "solve":
        argv += ["--out", str(tmp_path / "b.tt")]
    return argv


def poisoned_copy(src, dst, value):
    """Copy a .tt file with its 8th stored value replaced by `value`."""
    raw = bytearray(Path(src).read_bytes())
    raw[32 + 8 * 7 : 32 + 8 * 8] = np.float64(value).tobytes()
    Path(dst).write_bytes(bytes(raw))
    return str(dst)


COMMANDS = [
    ["solve", "--method", "ols"],
    ["solve", "--method", "opt", "--tau", "20", "--seed", "3"],
    ["probs", "--method", "opt"],
    ["variance", "--method", "lev", "--tau", "20", "--sigma2", "4.0"],
]


class TestOneScan:
    """Each input file is scanned for non-finite values once, by the reader.

    A non-finite value is a file error (exit 3) with the reader's message on
    stderr; an array from memory is still scanned by the library.
    """

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_input_scanned_once(self, problem_files, tmp_path, monkeypatch, capsys,
                                     command):
        x, y, xp, yp = problem_files
        scanned = []

        def counting(a, *args, _original=np.isfinite, **kwargs):
            if np.shape(a) in (x.shape, y.shape):
                scanned.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        assert main(command_argv(command, xp, yp, tmp_path)) == 0
        assert sorted(scanned) == sorted([x.shape] + [y.shape] * (command[0] != "probs"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("command, poisoned", [
        (COMMANDS[0], "response"), (COMMANDS[1], "response"), (COMMANDS[3], "response"),
        (COMMANDS[2], "design"), (COMMANDS[3], "design"),
    ])
    def test_non_finite_file_is_io_error(self, problem_files, tmp_path, capsys,
                                         command, poisoned, value):
        _, _, xp, yp = problem_files
        if poisoned == "design":
            xp = poisoned_copy(xp, tmp_path / "bad.tt", value)
        else:
            yp = poisoned_copy(yp, tmp_path / "bad.tt", value)
        with pytest.raises(tlsq.FileFormatError, match="non-finite") as info:
            tlsq.read_tensor(tmp_path / "bad.tt")
        assert main(command_argv(command, xp, yp, tmp_path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {info.value}\n"

    @pytest.mark.parametrize("poisoned", ["design", "response"])
    def test_non_finite_array_from_memory_is_rejected(self, problem_files, poisoned):
        x, y, _, _ = problem_files
        x, y = x.copy(), y.copy()
        (x if poisoned == "design" else y)[5, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            tlsq.TlsProblem(x, y)


class TestFlagRanges:
    """An out-of-range flag value is a usage error (exit 1) that names the flag."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["solve", "--method", "lev", "--tau", "3", "--seed", "5"], "--tau"),  # tau < p = 4
            (["solve", "--method", "unif", "--tau", "0", "--seed", "5"], "--tau"),
            (["solve", "--method", "lev", "--tau", "20", "--seed", "-1"], "--seed"),
            (["solve", "--method", "slev", "--alpha", "1.5", "--tau", "20", "--seed", "5"],
             "--alpha"),
            (["probs", "--method", "slev", "--alpha", "0"], "--alpha"),
            (["variance", "--method", "lev", "--tau", "0", "--sigma2", "4.0"], "--tau"),
            (["variance", "--method", "lev", "--tau", "20", "--sigma2", "0"], "--sigma2"),
            (["variance", "--method", "lev", "--tau", "20", "--sigma2", "-1"], "--sigma2"),
            (["variance", "--method", "slev", "--alpha", "-0.1", "--tau", "20",
              "--sigma2", "4.0"], "--alpha"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, problem_files, tmp_path, capsys,
                                              command, flag):
        _, _, xp, yp = problem_files
        assert main(command_argv(command, xp, yp, tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert not (tmp_path / "b.tt").exists()


class TestVariance:
    def test_traces_match_library(self, problem_files, capsys):
        x, y, xp, yp = problem_files
        assert main(["variance", "--design", xp, "--response", yp, "--method", "unif",
                     "--tau", "30", "--sigma2", "4.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,tau,trace_conditional_fo,trace_unconditional_fo"
        rec = lines[1].split(",")
        report = tlsq.variance_report(
            tlsq.TlsProblem(x, y), tlsq.uniform_probs(80), 30, 4.0
        )
        assert float(rec[2]) == report.trace_conditional
        assert float(rec[3]) == report.trace_unconditional

    @pytest.mark.parametrize("method", ["unif", "lev", "opt"])
    def test_u_formed_once(self, tmp_path, monkeypatch, capsys, method):
        """One variance command forms U = X F once, in the design's one pass over its
        2048-row blocks (3 blocks at n = 5000), and forms no sandwich: its traces come from
        the per-row terms of that pass."""
        x = tlsq.gen_design("mn", 5000, 4, 3, seed=1)
        y, _ = tlsq.gen_response(x, seed=2, sigma2=4.0)
        xp, yp = tmp_path / "x.tt", tmp_path / "y.tt"
        tlsq.write_tensor(x, xp)
        tlsq.write_tensor(y, yp)
        blocks, sandwiches = [], []

        def counting(design, rows, read, _original=solver._Design.orthonormal_blocks):
            return _original(design, rows, lambda start, u: blocks.append(rows) or read(start, u))

        monkeypatch.setattr(solver._Design, "orthonormal_blocks", counting)

        def sandwich(*args, _original=stats._sandwich):
            sandwiches.append(args)
            return _original(*args)

        monkeypatch.setattr(stats, "_sandwich", sandwich)
        assert main(["variance", "--design", str(xp), "--response", str(yp), "--method",
                     method, "--tau", "400", "--sigma2", "9.0"]) == 0
        assert blocks == [2048] * 3 and sandwiches == []
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestExperiment:
    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus="1")
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1

    def test_config_with_byte_order_mark_runs_as_plain(self, tmp_path):
        plain = Path(write_config(tmp_path))
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = tmp_path / "plain.csv", tmp_path / "bom.csv"
        for cfg, out in zip((plain, bom), outs):
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "r.csv"
        cfg.write_bytes(b"seed=1\nn=\xff\n")
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, override, fragment",
        # each of these messages names its key
        [("experiment", override, next(iter(override))) for override in (
            {"redraw_design": 5}, {"timing": 2}, {"p": 3}, {"n": 3},
            {"l": 0}, {"l": -2}, {"sigma2": "inf"}, {"sigma2": "nan"},
            {"methods": "unif,unif"}, {"taus": "20,20"}, {"methods": "lev,unif,lev"},
            {"seed": -1})]
        + [
            ("experiment", {"taus": ""}, "at least one tau is required"),
            ("experiment", {"methods": ""}, "at least one method is required"),
            # the newline ends the mode line and starts one with no '='
            ("experiment", {"mode": "conditional\nreplicates 8"}, "expected key=value"),
            ("compare-mls", {"methods": "slev,opt"}, "needs unif or lev among the methods"),
        ],
        ids=[f"override{i}" for i in range(12)]
        + ["empty-taus", "empty-methods", "line-without-equals", "compare-mls-slev-opt"],
    )
    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys, command, override,
                                                 fragment):
        cfg = write_config(tmp_path, **override)
        out = tmp_path / "r.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and fragment in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["two", "0", "-3"])
    def test_non_integer_thread_count_is_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("TLSQ_THREADS", threads)
        cfg = write_config(tmp_path, replicates=2, taus="12")
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
        assert "TLSQ_THREADS" in capsys.readouterr().err

    def test_compare_mls_labels(self, tmp_path):
        cfg = write_config(tmp_path, replicates=4, taus="16", methods="lev")
        out = tmp_path / "cmp.csv"
        assert main(["compare-mls", "--config", cfg, "--out", str(out)]) == 0
        rows = tlsq.read_report(out)
        assert {r.method for r in rows} == {"stls-lev", "smls-lev-tau", "smls-lev-ltau"}

    @pytest.mark.parametrize(
        "command, overrides",
        [("compare-mls", {}), ("experiment", {"smls": "same_tau"})],
    )
    def test_baseline_over_the_embedding_limit_runs(self, tmp_path, command, overrides):
        """A baseline whose bcirc(X) would pass the oracle's size limit runs and reports."""
        cfg = write_config(tmp_path, n=1000, p=10, l=21, taus="30", replicates=2, **overrides)
        assert 1000 * 21 * 10 * 21 > tlsq.tensor.BCIRC_MAX_ENTRIES
        out = tmp_path / "r.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        rows = tlsq.read_report(out)
        expected = {
            "compare-mls": {"stls-unif", "smls-unif-tau", "smls-unif-ltau",
                            "stls-lev", "smls-lev-tau", "smls-lev-ltau"},
            "experiment": {"unif", "lev", "smls-unif", "smls-lev"},
        }[command]
        assert {r.method for r in rows} == expected
        assert all(r.tau == 30 and r.replicates + r.failures == 2 for r in rows)

    def test_opt_at_n_equal_p_is_usage_error(self, tmp_path, capsys):
        # the default methods include opt, which no n = p design defines
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=4\np=4\nl=2\nreplicates=4\ntaus=4\nseed=1\n")
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: opt is undefined at n = p: every row has leverage one in every DFT slice\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, methods", [("experiment", "methods=unif,lev\n"),
                                                  ("compare-mls", "")])
    def test_n_equal_p_without_opt_runs(self, tmp_path, command, methods):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=4\np=4\nl=2\nreplicates=4\ntaus=4\nseed=1\n" + methods)
        out = tmp_path / "r.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        rows = tlsq.read_report(out)
        assert rows and all(r.tau == 4 and r.replicates + r.failures == 4 for r in rows)

    def test_starved_cell_is_reported_not_fatal(self, tmp_path, capsys):
        # tau = p on a 12-row design: most sketches lose rank in some slice
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=12\np=10\nl=2\ntaus=10\nreplicates=4\nseed=1\n")
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        rows = tlsq.read_report(out)
        assert {r.method for r in rows} == {"unif", "lev", "slev", "opt"}
        starved = [r for r in rows if r.replicates < 2]
        assert starved
        for r in rows:
            assert r.tau == 10 and r.replicates + r.failures == 4
        for r in starved:
            assert all(np.isnan(v) for v in (r.smrfv, r.smre, r.ssb, r.sv, r.smse))


SELFCHECK_LINES = [
    "t-product vs block-circulant: 20/20 passed",
    "transpose and Parseval: 20/20 passed",
    "thin tubal SVD: 10/10 passed",
    "pseudoinverse identities: 10/10 passed",
    "solver equivalence: 5/5 passed",
    "sampling distributions: 5/5 passed",
]


class TestSelfcheck:
    def test_passes_and_prints_counts(self, capsys):
        assert main(["selfcheck"]) == 0
        assert capsys.readouterr().out.splitlines() == SELFCHECK_LINES

    def test_failing_suite_exits_2_and_still_prints_every_line(self, capsys, monkeypatch):
        suites = list(selfcheck.SUITES)
        name, _, cases = suites[2]
        suites[2] = (name, lambda rng: False, cases)
        monkeypatch.setattr(selfcheck, "SUITES", tuple(suites))
        assert main(["selfcheck"]) == 2
        expected = list(SELFCHECK_LINES)
        expected[2] = f"{name}: 0/{cases} passed"
        assert capsys.readouterr().out.splitlines() == expected
