import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rmcover.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_oracle_then_classify_agree(self, tmp_path, capsys):
        sub = tmp_path / "b123.cls"
        code, out, _ = run(
            ["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys
        )
        assert code == 0 and "classes 4" in out

        oracle = tmp_path / "b234.cls"
        code, out, _ = run(
            ["oracle", "--s", "2", "--t", "3", "--m", "4", "--out", str(oracle)],
            capsys,
        )
        assert code == 0 and "classes 5" in out

        result = tmp_path / "b234.pipeline.cls"
        report = tmp_path / "b234.report"
        code, out, _ = run(
            [
                "classify", "run",
                "--s", "2", "--t", "3", "--m", "4",
                "--sub", str(sub),
                "--out", str(result),
                "--report", str(report),
                "--seed", "0",
            ],
            capsys,
        )
        assert code == 0
        assert "classes 5" in out
        text = report.read_text()
        assert "# seed 0" in text and "# config" in text
        counters = re.fullmatch(
            r"walk-gens (\d+) walk-back lower (\d+) cover (\d+)", text.splitlines()[-1]
        )
        # the V/T walks go by the sub file's stabilizer lists
        s_lines = [line for line in sub.read_text().splitlines() if line.startswith("S ")]
        assert counters and int(counters[1]) == sum(not line.endswith(" -") for line in s_lines)

        from rmcover.classify import load_classification

        assert load_classification(str(result)).n_classes == 5

    def test_classify_replay_is_byte_identical(self, tmp_path, capsys):
        sub = tmp_path / "sub.cls"
        run(["oracle", "--s", "1", "--t", "1", "--m", "2", "--out", str(sub)], capsys)
        args = [
            "classify", "run",
            "--s", "2", "--t", "2", "--m", "3",
            "--sub", str(sub),
            "--seed", "7",
        ]
        out1 = tmp_path / "r1.cls"
        rep1 = tmp_path / "rep1"
        out2 = tmp_path / "r2.cls"
        rep2 = tmp_path / "rep2"
        run(args + ["--out", str(out1), "--report", str(rep1)], capsys)
        run(args + ["--out", str(out2), "--report", str(rep2)], capsys)
        assert out1.read_bytes() == out2.read_bytes()
        # output paths are not part of the config digest
        assert rep1.read_text() == rep2.read_text()

    def test_nl_exact(self, tmp_path, capsys):
        fns = tmp_path / "fns.txt"
        fns.write_text("ab+cd\n# comment\nanf:abc\n")
        code, out, _ = run(
            ["nl", "exact", "--k", "1", "--m", "4", "--in", str(fns)], capsys
        )
        assert code == 0
        assert "fn 0 nl 6" in out
        assert "fn 1 nl 2" in out

    def test_nl_probe_report(self, tmp_path, capsys):
        fns = tmp_path / "fns.txt"
        fns.write_text("ab+cd\n")
        code, out, _ = run(
            [
                "nl", "probe",
                "--k", "1", "--m", "4",
                "--limit", "6", "--iter", "200", "--seed", "3",
                "--in", str(fns),
            ],
            capsys,
        )
        assert code == 0
        assert "fn 0 found true best 6" in out
        assert "# seed 3" in out

    def test_nl_probe_shares_one_walk(self, tmp_path, capsys):
        from rmcover.boolfun import parse_function
        from rmcover.nonlinearity import nl_probe

        # the pass of each first hit depends on the walk's seed (passes 22, 8,
        # 14, 8 under seed 14), so a line probed under another seed shows
        fns = tmp_path / "fns.txt"
        fns.write_text("abcd+ab+cd\nabce+bd\nabde+ce+a\nbcde+ab\n")
        code, out, _ = run(
            [
                "nl", "probe",
                "--k", "2", "--m", "5",
                "--limit", "2", "--iter", "64", "--seed", "14",
                "--in", str(fns),
            ],
            capsys,
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("fn ")]
        assert len(lines) == 4
        for i, (line, text) in enumerate(zip(lines, fns.read_text().split())):
            r = nl_probe(2, 5, parse_function(text, 5), 64, 2, 14)
            assert line == (
                f"fn {i} found {str(r.found).lower()} best {r.best_weight} "
                f"passes {r.passes_used} seed 14"
            )

    def test_nl_probe_report_does_not_depend_on_chunking(self, tmp_path, capsys, monkeypatch):
        from rmcover import nonlinearity

        # the pass of each first hit depends on the walk's seed
        fns = tmp_path / "fns.txt"
        fns.write_text("abcd+ab+cd\nabce+bd\nabde+ce+a\nbcde+ab\n")
        argv = [
            "nl", "probe",
            "--k", "2", "--m", "5",
            "--limit", "2", "--iter", "64", "--seed", "14",
            "--in", str(fns),
        ]
        whole = tmp_path / "whole.txt"
        single = tmp_path / "single.txt"
        assert run(argv + ["--out", str(whole)], capsys)[0] == 0
        # one function per chunk, each probed by its own batch
        sizes = []
        probe_batch = nonlinearity.probe_batch

        def counted(k, m, tts, *rest, **kw):
            sizes.append(len(tts))
            return probe_batch(k, m, tts, *rest, **kw)

        monkeypatch.setattr(nonlinearity, "_CHUNK_BITS", 1)
        monkeypatch.setattr(nonlinearity, "probe_batch", counted)
        assert run(argv + ["--out", str(single)], capsys)[0] == 0
        assert sizes == [1, 1, 1, 1]
        assert single.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_flag_exits_2(self, tmp_path, capsys, jobs):
        reps = tmp_path / "reps.cls"
        run(["oracle", "--s", "2", "--t", "3", "--m", "4", "--out", str(reps)], capsys)
        for argv in (
            ["nl", "scan", "--k", "1", "--limit", "2", "--reps", str(reps)],
            ["classify", "run", "--s", "3", "--t", "3", "--m", "4", "--sub", str(reps),
             "--out", str(tmp_path / "x.cls")],
        ):
            code, out, err = run(argv + ["--jobs", jobs], capsys)
            assert code == 2 and out == ""
            assert "--jobs" in err and "positive integer" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reps.cls"]

    @pytest.mark.parametrize("retries", ["0", "-5", "two"])
    def test_bad_budget_retries_exits_2(self, tmp_path, capsys, retries):
        sub = tmp_path / "b123.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        argv = ["classify", "run", "--s", "2", "--t", "3", "--m", "4", "--sub", str(sub),
                "--out", str(tmp_path / "x.cls"), "--report", str(tmp_path / "x.report")]
        code, out, err = run(argv + ["--budget-retries", retries], capsys)
        assert code == 2 and out == ""
        assert "--budget-retries" in err and "positive integer" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b123.cls"]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_iteration_counts_exit_2(self, tmp_path, capsys, value):
        sub = tmp_path / "b123.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        fns = tmp_path / "fns.txt"
        fns.write_text("ab+cd\n")
        out_args = ["--out", str(tmp_path / "x.out")]
        for option, argv in (
            ("--iter", ["nl", "probe", "--k", "1", "--m", "4", "--limit", "6",
                        "--in", str(fns)]),
            ("--iter", ["nl", "scan", "--k", "1", "--limit", "2", "--reps", str(sub)]),
            ("--iter", ["equiv", "--space", "2,3,4", "--sub", str(sub),
                        "--f", "abc", "--g", "abd+acd"]),
            ("--budget-iter", ["classify", "run", "--s", "2", "--t", "3", "--m", "4",
                               "--sub", str(sub), "--report", str(tmp_path / "x.report")]),
        ):
            code, out, err = run(argv + out_args + [option, value], capsys)
            assert code == 2 and out == ""
            assert option in err and "positive integer" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b123.cls", "fns.txt"]

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_limit_exits_2(self, tmp_path, capsys, value):
        reps = tmp_path / "b234.cls"
        run(["oracle", "--s", "2", "--t", "3", "--m", "4", "--out", str(reps)], capsys)
        fns = tmp_path / "fns.txt"
        fns.write_text("ab+cd\n")
        report = tmp_path / "x.report"
        for argv in (
            ["nl", "probe", "--k", "1", "--m", "4", "--in", str(fns), "--iter", "8"],
            ["nl", "scan", "--k", "1", "--reps", str(reps), "--iter", "8"],
        ):
            code, out, err = run(argv + ["--out", str(report), "--limit", value], capsys)
            assert code == 2 and out == ""
            assert "--limit" in err and "non-negative integer" in err
            assert not report.exists()
            code, out, _ = run(argv + ["--limit", "0"], capsys)
            assert code == 0 and "found false" in out

    def test_chain_stops_at_pipeline_file_without_stabilizers(self, tmp_path, capsys):
        # a pipeline file carries no S lines, so it cannot be the lower
        # window of the next classify run
        sub = tmp_path / "b123.cls"
        b234 = tmp_path / "b234.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        code, _, _ = run(["classify", "run", "--s", "2", "--t", "3", "--m", "4",
                          "--sub", str(sub), "--out", str(b234)], capsys)
        assert code == 0
        out_path, report = tmp_path / "b345.cls", tmp_path / "b345.report"
        code, out, err = run(["classify", "run", "--s", "3", "--t", "4", "--m", "5",
                              "--sub", str(b234), "--out", str(out_path),
                              "--report", str(report)], capsys)
        assert code == 2 and out == ""
        assert "stabilizer" in err
        assert not out_path.exists() and not report.exists()

    def test_oversized_window_exits_2(self, tmp_path, capsys):
        # SpaceTooLargeError: B(4,5,7) is past the oracle's BFS guard
        out_path = tmp_path / "b457.cls"
        code, out, err = run(
            ["oracle", "--s", "4", "--t", "5", "--m", "7", "--out", str(out_path)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: window has 2^56 elements")
        assert not out_path.exists()

    def test_infeasible_exact_nonlinearity_exits_2(self, tmp_path, capsys):
        # InfeasibleError: RM(3,8) is too large to enumerate
        fns = tmp_path / "fns.txt"
        fns.write_text("abcdefgh\n")
        code, out, err = run(
            ["nl", "exact", "--k", "3", "--m", "8", "--in", str(fns)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: RM(3,8) has 2^93 codewords")

    def test_commands_load_only_the_modules_they_run(self, tmp_path):
        # a fresh interpreter imports the CLI without numpy; the oracle and
        # classify run load neither the probe, the search nor the pool, the
        # scan loads no search, and a report written by nl exact (in an
        # interpreter of its own) loads no classification module
        script = """if True:
            import json, sys
            import rmcover.cli
            assert "numpy" not in sys.modules
            seen = []
            for argv in json.loads(sys.argv[1]):
                assert rmcover.cli.main(argv) == 0
                seen.append(sorted(m for m in sys.modules if m.startswith("rmcover.")))
            print(json.dumps(seen))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def loaded(*commands):
            done = subprocess.run(
                [sys.executable, "-c", script, json.dumps(commands)], cwd=tmp_path, env=env,
                capture_output=True, text=True, check=True,
            )
            return json.loads(done.stdout.splitlines()[-1])

        _, classify, scan = loaded(
            ["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", "b123.cls"],
            ["classify", "run", "--s", "2", "--t", "3", "--m", "4",
             "--sub", "b123.cls", "--out", "b234.cls", "--jobs", "1"],
            ["nl", "scan", "--k", "1", "--limit", "4", "--reps", "b234.cls",
             "--iter", "64", "--jobs", "1"],
        )
        assert "rmcover.classify" in classify
        for module in ("nonlinearity", "equivalence", "parallel"):
            assert f"rmcover.{module}" not in classify
        assert "rmcover.nonlinearity" in scan
        assert "rmcover.equivalence" not in scan

        (tmp_path / "fns.txt").write_text("ab+c\n")
        (exact,) = loaded(
            ["nl", "exact", "--k", "1", "--m", "3", "--in", "fns.txt", "--out", "exact.rep"]
        )
        assert (tmp_path / "exact.rep").exists()
        for module in ("classify", "quotient", "invariant"):
            assert f"rmcover.{module}" not in exact

    def test_bad_jobs_environment_exits_2(self, tmp_path, capsys, monkeypatch):
        reps = tmp_path / "reps.cls"
        run(["oracle", "--s", "2", "--t", "3", "--m", "4", "--out", str(reps)], capsys)
        monkeypatch.setenv("RMCOVER_JOBS", "two")
        code, out, _ = run(["--version"], capsys)
        assert code == 0 and out.strip()
        scan = ["nl", "scan", "--k", "1", "--limit", "2", "--reps", str(reps)]
        code, out, err = run(scan, capsys)
        assert code == 2 and out == ""
        assert "RMCOVER_JOBS" in err and "'two'" in err
        # a valid flag overrides the bad environment value
        code, out, _ = run(scan + ["--jobs", "1"], capsys)
        assert code == 0 and "rep 0" in out

    def test_nl_scan(self, tmp_path, capsys):
        reps = tmp_path / "reps.cls"
        run(["oracle", "--s", "2", "--t", "3", "--m", "4", "--out", str(reps)], capsys)
        code, out, _ = run(
            [
                "nl", "scan",
                "--k", "1", "--limit", "2", "--reps", str(reps),
                "--iter", "32", "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        assert "rep 0" in out and "found" in out

    def test_nl_scan_dirac(self, tmp_path, capsys):
        reps = tmp_path / "reps.cls"
        run(["oracle", "--s", "2", "--t", "3", "--m", "4", "--out", str(reps)], capsys)
        args = ["nl", "scan", "--k", "1", "--limit", "3", "--reps", str(reps),
                "--iter", "16", "--seed", "2", "--dirac"]
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"dirac{jobs}.report"
            code, _, _ = run(args + ["--jobs", jobs, "--out", str(out)], capsys)
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        entries = [line.split() for line in texts[0].splitlines() if line.startswith("rep ")]
        assert sorted((int(e[1]), int(e[3], 16)) for e in entries) == [
            (i, a) for i in range(5) for a in range(16)
        ]
        for e in entries:
            best = int(e[7])
            assert best % 2 == 1
            assert (e[5] == "true") == (best <= 3)
        assert {e[5] for e in entries} == {"true", "false"}

    def test_equiv_verdicts(self, tmp_path, capsys):
        sub = tmp_path / "sub.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        code, out, _ = run(
            [
                "equiv", "--space", "2,3,4", "--sub", str(sub),
                "--f", "abc", "--g", "abd+acd",
                "--iter", "2048", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0 and "verdict Equiv" in out and "witness" in out
        code, out, _ = run(
            [
                "equiv", "--space", "2,3,4", "--sub", str(sub),
                "--f", "abc", "--g", "ab+cd",
                "--iter", "2048", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0 and "verdict NotEquiv" in out

    def test_radius_bounds(self, tmp_path, capsys):
        table = tmp_path / "radii.txt"
        table.write_text(
            "# known values\n"
            "rho 1 7 56\nrho 2 7 40\nrho 3 7 20\nrho 4 7 8\n"
            "rho 5 7 2\nrho 6 7 1\nrho 7 7 0\n"
            "rho 6 8 2\n"
            "rho_rel 4 6 8 0 26\n"
        )
        code, out, _ = run(["radius", "bounds", "--table", str(table)], capsys)
        assert code == 0
        assert "rho 4 8 20 28 interval" in out

    def test_radius_inconsistency_exits_nonzero(self, tmp_path, capsys):
        table = tmp_path / "bad.txt"
        table.write_text("rho 1 4 6\nrho 1 5 10\n")
        code, _, err = run(["radius", "bounds", "--table", str(table)], capsys)
        assert code == 2 and "error" in err

    def test_invariant_report(self, tmp_path, capsys):
        sub = tmp_path / "sub.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        fns = tmp_path / "fns.txt"
        fns.write_text("abc\nabc+abd\n")
        code, out, _ = run(
            [
                "invariant", "--space", "2,3,4",
                "--sub", str(sub), "--in", str(fns),
            ],
            capsys,
        )
        assert code == 0
        assert out.count("J ") == 2 and out.count("Jhat ") == 2

    def test_function_outside_window_refused(self, tmp_path, capsys):
        # ab+c has a linear monomial, below the window's degrees 2..3
        sub = tmp_path / "sub.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        fns = tmp_path / "fns.txt"
        fns.write_text("abc\nab+c\n")
        code, out, err = run(
            ["invariant", "--space", "2,3,4", "--sub", str(sub), "--in", str(fns)],
            capsys,
        )
        assert code == 2 and "outside the window" in err and out == ""
        code, out, err = run(
            [
                "equiv", "--space", "2,3,4", "--sub", str(sub),
                "--f", "abc", "--g", "ab+c",
            ],
            capsys,
        )
        assert code == 2 and "outside the window" in err and out == ""

    def test_invariant_input_errors_name_the_line(self, tmp_path, capsys):
        sub = tmp_path / "sub.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(sub)], capsys)
        fns = tmp_path / "fns.txt"
        argv = ["invariant", "--space", "2,3,4", "--sub", str(sub), "--in", str(fns)]
        for bad in ("zz!", "ab+c"):  # a parse error, then a function outside the window
            fns.write_text(f"abc\n{bad}\n")
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {fns}:2: ")

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        _ = capsys.readouterr()
        assert code != 0

    def test_version_flag(self, capsys):
        import rmcover

        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0 and rmcover.__version__ in out

    def test_failed_report_write_keeps_previous_report(self, tmp_path, capsys, request):
        fns = tmp_path / "fns.txt"
        fns.write_text("ab+cd\n")
        report = tmp_path / "nl.report"
        report.write_text("previous report\n")
        request.getfixturevalue("fail_writes")
        code, _, err = run(
            ["nl", "exact", "--k", "1", "--m", "4", "--in", str(fns), "--out", str(report)],
            capsys,
        )
        assert code == 2 and "No space left" in err
        assert report.read_text() == "previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fns.txt", "nl.report"]

    def test_malformed_input_line_number(self, tmp_path, capsys):
        fns = tmp_path / "fns.txt"
        fns.write_text("ab+cd\nzz!\n")
        code, _, err = run(
            ["nl", "exact", "--k", "1", "--m", "4", "--in", str(fns)], capsys
        )
        assert code == 2
        assert "fns.txt:2" in err

    def test_second_space_header_exits_2(self, tmp_path, capsys):
        reps = tmp_path / "reps.cls"
        reps.write_text("#%space 1 2 3\nR 0 - ab\n#%space 2 3 4\nR 1 - abc\n")
        code, out, err = run(
            ["nl", "scan", "--k", "1", "--limit", "2", "--reps", str(reps)], capsys
        )
        assert code == 2 and "reps.cls:3: second space header" in err and out == ""

    def test_forged_digest_before_the_true_one_exits_2(self, tmp_path, capsys):
        reps = tmp_path / "reps.cls"
        run(["oracle", "--s", "1", "--t", "2", "--m", "3", "--out", str(reps)], capsys)
        lines = reps.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("#%digest"))
        lines.insert(at, "#%digest 0000000000000000")
        reps.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            ["nl", "scan", "--k", "1", "--limit", "2", "--reps", str(reps)], capsys
        )
        assert code == 2 and f"reps.cls:{at + 2}: second digest header" in err and out == ""

    def test_digest_mismatch_refused(self, tmp_path, capsys):
        sub = tmp_path / "sub.cls"
        run(["oracle", "--s", "1", "--t", "1", "--m", "2", "--out", str(sub)], capsys)
        tampered = sub.read_text().replace("R 1 3 a", "R 1 3 b")
        sub.write_text(tampered)
        code, _, err = run(
            [
                "classify", "run",
                "--s", "2", "--t", "2", "--m", "3",
                "--sub", str(sub), "--out", str(tmp_path / "x.cls"),
            ],
            capsys,
        )
        assert code == 2 and "digest" in err
