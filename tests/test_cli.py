"""Command line verbs, run in-process through ``main(argv)``.

Each verb gets a happy-path run against a tiny corpus plus its
distinctive failure or formatting behavior.  File outputs land in
``tmp_path``; stdout is inspected through capsys.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from matchboost.bench import CSV_COLUMNS, ExperimentConfig, RunReport, strip_wall_columns
from matchboost.cli import _finish_run, _parse_constants, _parse_epsilons, main
from matchboost.corpus import gen_update_stream
from matchboost.dynamic import parse_update_stream
from matchboost.errors import InternalConsistencyError, PreconditionError
from matchboost.graph import load_graph


class TestArgHelpers:
    def test_epsilon_forms(self):
        assert _parse_epsilons(["1/8"]) == (0.125,)
        assert _parse_epsilons(["0.25,0.5"]) == (0.25, 0.5)
        assert _parse_epsilons(["1/4", "0.125"]) == (0.25, 0.125)

    def test_constants_parse_and_coerce(self):
        got = _parse_constants("limit_coeff=2,scale_floor_coeff=1.5")
        assert got == (("limit_coeff", 2), ("scale_floor_coeff", 1.5))
        assert isinstance(got[0][1], int)
        assert _parse_constants(None) == ()
        assert _parse_constants("") == ()

    def test_constants_require_key_value(self):
        with pytest.raises(PreconditionError, match="bad constants"):
            _parse_constants("limit_coeff")

    def test_verb_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["boost", "--nope"])

    @pytest.mark.parametrize("verb", ["boost", "verify", "dynamic", "problem1"])
    def test_profile_is_a_dynamic_flag(self, verb):
        # no run verb takes a profile: the weak pipeline runs one parameter set
        with pytest.raises(SystemExit) as exc:
            main([verb, "--profile", "paper"])
        assert exc.value.code == 2


class TestBadInput:
    """Bad input is one ``error:`` line on stderr and exit 2, not a traceback."""

    def test_epsilon_out_of_range(self, capsys):
        rc = main(
            ["boost", "--kind", "mixed", "--trials", "3", "--n", "24",
             "--seed", "1", "--epsilon", "1/2"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: epsilon must be in (0, 1/4], got 0.5"]

    def test_unparsable_epsilon(self, capsys):
        assert main(["boost", "--epsilon", "1/0"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: bad epsilon '1/0'")

    @pytest.mark.parametrize(
        "argv",
        [
            ["boost", "--oracle", "nope"],
            ["boost", "--oracle", "adversarial:x"],
            ["verify", "--oracle", "adversarial:0"],
            ["dynamic", "--oracle", "greedy"],
            ["problem1", "--oracle", "weak-nope"],
        ],
    )
    def test_unknown_oracle(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert line.startswith("error: --oracle:")
        assert out == ""  # refused before any run

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("scale_floor_coeff=0", "constant scale_floor_coeff must be positive, got 0"),
            ("phase_coeff=0", "constant phase_coeff must be positive, got 0"),
            ("ell_coeff=-3", "constant ell_coeff must be a non-negative integer, got -3"),
            ("bundle_coeff=1.5", "constant bundle_coeff must be a non-negative integer, got 1.5"),
            ("limit_coeff=x", "bad constants entry 'limit_coeff=x', want k=v with a number v"),
            ("limit_coeff", "bad constants entry 'limit_coeff', want k=v with a number v"),
        ],
    )
    @pytest.mark.parametrize("verb", ["boost", "dynamic"])
    def test_bad_constants(self, verb, entry, message, capsys):
        oracle = "weak-exact" if verb == "dynamic" else "greedy"
        argv = [verb, "--trials", "1", "--n", "12", "--oracle", oracle, "--constants", entry]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"error: {message}"]
        assert out == ""  # refused before any run

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "0"], "--n must be at least 1, got 0"),
            (["--n", "-4"], "--n must be at least 1, got -4"),
            (["--n", "0", "--stream", "unread.txt"], "--n must be at least 1, got 0"),
            (["--updates", "-1"], "--updates must be non-negative, got -1"),
            (["--q-budget", "-1"], "--q-budget must be non-negative, got -1"),
        ],
    )
    def test_bad_problem1_sizes(self, argv, message, capsys):
        assert main(["problem1", *argv]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"error: {message}"]
        assert out == ""  # refused before any run

    def test_stream_file_is_not_generated(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("generated a stream although --stream was given")

        monkeypatch.setattr("matchboost.cli.gen_update_stream", refuse)
        path = tmp_path / "s.txt"
        path.write_text("+ 0 1\n")
        assert main(["problem1", "--n", "4", "--stream", str(path)]) == 0
        assert "1 chunks of 1 updates, 0 contract violation(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file or directory"),
            ("rows, not JSON", "not a JSON report: "),
            ("[1, 2]", '"rows" must be a list of objects'),
            ('{"rows": 5}', '"rows" must be a list of objects'),
            ('{"rows": [5]}', '"rows" must be a list of objects'),
        ],
    )
    def test_unreadable_report(self, tmp_path, content, message, capsys):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert line.startswith(f"error: {path}: {message}")
        assert out == ""

    def test_missing_stream_file(self, tmp_path, capsys):
        path = tmp_path / "none.txt"
        assert main(["problem1", "--n", "4", "--stream", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"error: {path}: No such file or directory"]
        assert out == ""

    def test_stream_file_that_is_not_text(self, tmp_path, capsys):
        path = tmp_path / "s.bin"
        path.write_bytes(b"+ 0 1\n\xff\xfe 2\n")
        assert main(["problem1", "--n", "4", "--stream", str(path)]) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert line.startswith("error: line 2: bad update record")
        assert out == ""

    def test_gen_onto_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep me\n")
        assert main(["gen", "--trials", "1", "--n", "6", "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"error: {path}: File exists"]
        assert out == "" and path.read_text() == "keep me\n"

    @pytest.mark.parametrize("verb", ["boost", "problem1"])
    def test_out_into_a_missing_directory(self, verb, tmp_path, capsys):
        where = tmp_path / "no" / "such"
        argv = [verb, "--n", "8", "--out", str(where / "run")]
        assert main(argv + (["--trials", "1"] if verb == "boost" else [])) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"error: --out: no directory {where}"]
        assert out == ""  # refused before any run

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "-3"], "trials must be non-negative, got -3"),
            (["--kind", "er", "--p", "-1"], "p must be in [0, 1], got -1.0"),
            (["--p", "1.5"], "p must be in [0, 1], got 1.5"),
            (["--n-max", "3", "--n", "10"], "n_max 3 is below n 10"),
        ],
        ids=["negative-trials", "p-below-0", "p-above-1", "n-max-below-n"],
    )
    @pytest.mark.parametrize("verb", ["gen", "boost", "dynamic", "verify"])
    def test_bad_corpus_flags(self, verb, flags, message, tmp_path, capsys):
        argv = [verb, *flags]
        if verb == "gen":
            argv += ["--out", str(tmp_path / "corpus")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"error: {message}"]
        assert out == ""  # refused before any run
        assert not (tmp_path / "corpus").exists()

    def test_no_trials_is_no_error(self, capsys):
        assert main(["boost", "--trials", "0"]) == 0
        assert capsys.readouterr().err == ""

    def test_epsilon_too_small_for_the_scales(self, capsys):
        # eps^2 / 64 underflows to 0.0, so no scale list can reach it
        assert main(["boost", "--trials", "1", "--epsilon", "1e-300"]) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert line.startswith("error: epsilon ") and line.endswith("too small: eps^2 / 64 is 0.0")

    def test_internal_errors_still_raise(self, monkeypatch):
        def broken(config):
            raise InternalConsistencyError("broken invariant")

        monkeypatch.setattr("matchboost.cli.run_experiment", broken)
        with pytest.raises(InternalConsistencyError):
            main(["boost", "--trials", "1"])


class TestGen:
    def test_writes_corpus_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main(
            ["gen", "--kind", "er", "--n", "10", "--p", "0.3",
             "--trials", "3", "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        assert "wrote 3 graphs" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["graphs"]) == 3
        for entry in manifest["graphs"]:
            g = load_graph((out / entry["file"]).read_text())
            assert (g.n, g.m) == (entry["n"], entry["m"])
            assert 0 <= entry["mu_exact"] <= entry["n"] // 2


BOOST_ARGS = [
    "boost", "--kind", "mixed", "--trials", "4", "--n", "8",
    "--seed", "1", "--epsilon", "1/4", "--oracle", "greedy",
]


class TestBoostVerb:
    def test_happy_path_writes_report(self, tmp_path, capsys):
        base = tmp_path / "run"
        rc = main(BOOST_ARGS + ["--out", str(base)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epsilon=0.25: 4 trials, 0 failures" in out
        assert f"wrote {base}.csv and {base}.json" in out
        header = (tmp_path / "run.csv").read_text().splitlines()[0]
        assert header.split(",") == CSV_COLUMNS
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["failures"] == 0

    def test_fractional_epsilon_reaches_the_run(self, capsys):
        rc = main(
            ["boost", "--kind", "path", "--trials", "2", "--n", "8",
             "--epsilon", "1/8", "--oracle", "exact"]
        )
        assert rc == 0
        assert "epsilon=0.125:" in capsys.readouterr().out

    def test_normalized_epsilon_is_summarized(self, tmp_path, capsys):
        # 0.2 runs at 0.125, and the summary groups the rows by what they ran at
        base = tmp_path / "run"
        argv = ["boost", "--kind", "path", "--trials", "2", "--n", "12", "--epsilon", "0.2"]
        with pytest.warns(UserWarning, match="epsilon 0.2 rounded to 0.125"):
            assert main(argv + ["--out", str(base)]) == 0
        assert "epsilon=0.125: 2 trials, 0 failures" in capsys.readouterr().out
        doc = json.loads((tmp_path / "run.json").read_text())
        assert [(a["epsilon"], a["trials"]) for a in doc["aggregates"]] == [(0.125, 2)]

    def test_an_epsilon_whose_cube_underflows_reports(self, tmp_path, capsys):
        # 2**-360 cubed is 0.0 in floating point; the component cap is infinite
        base = tmp_path / "run"
        argv = ["boost", "--kind", "path", "--trials", "1", "--n", "8"]
        assert main(argv + ["--epsilon", repr(2.0**-360), "--out", str(base)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and f"epsilon={2.0**-360:g}: 1 trials, 0 failures" in out
        (row,) = json.loads((tmp_path / "run.json").read_text())["rows"]
        assert row["ok"] and row["cap_violations"] == 0

    def test_constants_override_accepted(self, capsys):
        rc = main(BOOST_ARGS + ["--constants", "limit_coeff=2"])
        assert rc == 0
        capsys.readouterr()

    def test_replay_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(BOOST_ARGS + ["--out", str(a)]) == 0
        assert main(BOOST_ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        stable = lambda p: strip_wall_columns((p.with_suffix(".csv")).read_text())
        assert stable(a) == stable(b)

    def test_verify_verb_reports_ok(self, capsys):
        rc = main(
            ["verify", "--kind", "cycle", "--trials", "2", "--n", "9",
             "--oracle", "greedy", "--seed", "2"]
        )
        assert rc == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_failing_report_exits_nonzero(self, capsys):
        # exercised directly: honest oracles never miss the bound, so a
        # doctored report stands in for a broken run
        rep = RunReport(config=ExperimentConfig(), failures=1)
        rep.rows.append(
            {"epsilon": 0.25, "ratio": 0.5, "ok": False,
             "oracle_calls": 3, "weak_calls": 0}
        )
        assert _finish_run(rep, None) == 1
        captured = capsys.readouterr()
        assert "FAIL: 1 trial(s)" in captured.err
        assert "worst ratio 0.5" in captured.out


class TestDynamicVerb:
    def test_weak_oracle_pipeline_runs(self, capsys):
        rc = main(
            ["dynamic", "--kind", "planted", "--trials", "2", "--n", "16",
             "--seed", "5", "--epsilon", "0.25", "--oracle", "weak-exact"]
        )
        assert rc == 0
        assert "epsilon=0.25: 2 trials, 0 failures" in capsys.readouterr().out


class TestProblem1Verb:
    def test_tiny_epsilon_chunks_one_update_at_a_time(self, capsys):
        # eps^2 * n rounds to 0 here, yet a chunk holds at least one update
        assert main(["problem1", "--n", "4", "--updates", "3", "--epsilon", "1e-300"]) == 0
        assert "3 chunks of 1 updates, 0 contract violation(s)" in capsys.readouterr().out

    def test_chunked_run_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "p1.json"
        rc = main(
            ["problem1", "--n", "32", "--updates", "16", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        assert "contract violation(s)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["total_violations"] == 0
        assert len(doc["chunks"]) == math.ceil(16 / doc["chunk_size"])
        assert sum(c["updates"] for c in doc["chunks"]) == 16

    def test_emit_stream_round_trips(self, capsys):
        rc = main(
            ["problem1", "--n", "32", "--updates", "16", "--seed", "3",
             "--emit-stream"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        parsed = parse_update_stream("\n".join(lines[:-1]))
        assert parsed == gen_update_stream(32, 16, 3)

    def test_stream_file_input(self, tmp_path, capsys):
        from matchboost.corpus import format_update_stream

        path = tmp_path / "updates.txt"
        path.write_text(format_update_stream(gen_update_stream(24, 8, 1)))
        rc = main(["problem1", "--n", "24", "--stream", str(path)])
        assert rc == 0
        assert "chunks of" in capsys.readouterr().out

    def test_contract_error_is_one_line_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "updates.txt"
        path.write_text("+ 0 1\n+ 2 30\n")  # vertex 30 is not in [0, 24)
        rc = main(["problem1", "--n", "24", "--stream", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "outside vertex range" in err

    def test_budget_overrun_is_flagged_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "p1.json"
        rc = main(
            ["problem1", "--n", "32", "--updates", "8", "--seed", "3",
             "--q-budget", "0", "--out", str(out)]
        )
        assert rc == 0  # budget overruns are reported, only contract breaks fail
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert any(c["over_budget"] for c in doc["chunks"])


def _row(trial: int, epsilon: float, calls: int, violations: int = 0) -> dict:
    """A report row carrying the columns ``report`` reads; rounds differ per model."""
    return {
        "trial": trial, "graph": f"g{trial}", "epsilon": epsilon,
        "oracle_calls": calls, "mpc_rounds": calls + 2,
        "congest_rounds": calls + 10, "cap_violations": violations,
    }


class TestReportVerb:
    def write_rows(self, tmp_path, rows=None) -> str:
        path = tmp_path / "rep.json"
        rows = rows if rows is not None else [_row(0, 0.25, 5), _row(1, 0.25, 7)]
        path.write_text(json.dumps({"rows": rows}))
        return str(path)

    def test_accounting_over_saved_rows(self, tmp_path, capsys):
        rc = main(["report", self.write_rows(tmp_path), "--model", "mpc"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "mpc"
        assert doc["rounds"] == 16
        assert doc["oracle_calls"] == 12
        assert doc["violations"] == []

    def test_epsilon_controls_the_cap(self, tmp_path, capsys):
        # each row carries its own epsilon, and with it its cap
        path = self.write_rows(tmp_path, [_row(0, 0.25, 5, 1), _row(1, 0.5, 7, 2)])
        rc = main(["report", path, "--model", "congest"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert [v["component_cap"] for v in doc["violations"]] == [64.0, 8.0]

    def test_row_with_violations_exits_nonzero(self, tmp_path, capsys):
        path = self.write_rows(tmp_path, [_row(0, 0.25, 5), _row(1, 0.25, 7, 3)])
        rc = main(["report", path])
        captured = capsys.readouterr()
        assert rc == 1
        doc = json.loads(captured.out)
        assert doc["violations"] == [
            {"trial": 1, "graph": "g1", "epsilon": 0.25,
             "component_cap": 64.0, "violations": 3}
        ]
        assert "FAIL: 1 row(s) exceed the component cap" in captured.err

    def test_rows_without_stored_columns_rejected(self, tmp_path, capsys):
        path = self.write_rows(tmp_path, [{"oracle_calls": 5}])
        assert main(["report", path]) == 2
        assert "row 0 lacks" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["mpc", "congest"])
    def test_agrees_with_a_real_run(self, tmp_path, capsys, model):
        base = tmp_path / "run"
        rc = main(
            ["boost", "--kind", "mixed", "--trials", "3", "--n", "24", "--seed", "1",
             "--oracle", "greedy", "--out", str(base)]
        )
        assert rc == 0
        capsys.readouterr()
        rows = json.loads((tmp_path / "run.json").read_text())["rows"]
        with open(tmp_path / "run.csv") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(rows) == len(csv_rows) == 3
        rc = main(["report", str(tmp_path / "run.json"), "--model", model])
        doc = json.loads(capsys.readouterr().out)
        assert doc["rounds"] == sum(int(r[f"{model}_rounds"]) for r in csv_rows)
        assert doc["oracle_calls"] == sum(int(r["oracle_calls"]) for r in csv_rows)
        assert doc["rows"] == 3
        assert rc == (1 if any(r["cap_violations"] for r in rows) else 0)

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", self.write_rows(tmp_path), "--model", "pram"])

    def test_epsilon_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", self.write_rows(tmp_path), "--epsilon", "1/2"])
