"""Experiment runner and reporting layer.

Round accounting is checked against hand-computed totals; the runner
itself is exercised end to end on small corpora in both modes, and the
replay guarantee (byte-identical CSV modulo wall time) is asserted by
running the same config twice.
"""

from __future__ import annotations

import json
import math

import pytest

from matchboost import bench
from matchboost.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    round_accounting_report,
    run_experiment,
    strip_wall_columns,
    write_report,
)
from matchboost.corpus import CorpusSpec
from matchboost.errors import PreconditionError
from matchboost.oracles import OracleStats, make_oracle
from matchboost.params import Constants, scale_sequence


class TestRoundAccounting:
    def test_mpc_counts_steps_once(self):
        st = OracleStats(calls=3, processing_steps=[1, 5, 2])
        rep = round_accounting_report(st, "mpc", 0.25)
        assert rep["rounds"] == 3 * 1 + 3
        assert rep["oracle_calls"] == 3
        assert rep["processing_steps"] == 3
        assert rep["violations"] == []

    def test_congest_charges_component_sizes(self):
        st = OracleStats(calls=3, processing_steps=[1, 5, 2])
        rep = round_accounting_report(st, "congest", 0.25)
        assert rep["rounds"] == 3 * 1 + (1 + 5 + 2)

    def test_component_cap_is_inverse_cubed(self):
        st = OracleStats()
        assert round_accounting_report(st, "mpc", 0.25)["component_cap"] == 64.0
        assert round_accounting_report(st, "mpc", 0.5)["component_cap"] == 8.0

    def test_oversized_component_is_reported_not_raised(self):
        st = OracleStats(calls=1, processing_steps=[1, 5, 70])
        rep = round_accounting_report(st, "congest", 0.25)
        assert rep["violations"] == [{"step": 2, "component": 70, "cap": 64.0}]
        # sizes at the cap are fine, the check is strict
        st2 = OracleStats(calls=1, processing_steps=[64])
        assert round_accounting_report(st2, "congest", 0.25)["violations"] == []

    def test_t_unit_scales_call_cost_only(self):
        st = OracleStats(calls=3, processing_steps=[1, 5, 2])
        assert round_accounting_report(st, "mpc", 0.25, t_unit=10)["rounds"] == 33
        assert round_accounting_report(st, "congest", 0.25, t_unit=10)["rounds"] == 38

    def test_unknown_model_rejected(self):
        with pytest.raises(PreconditionError, match="round model"):
            round_accounting_report(OracleStats(), "pram", 0.25)


class TestExperimentConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(PreconditionError, match="mode"):
            ExperimentConfig(mode="stream")

    def test_json_round_trip_includes_corpus(self):
        cfg = ExperimentConfig(
            mode="boost",
            epsilons=(0.25, 0.125),
            oracle="adversarial:2",
            seed=9,
            corpus=CorpusSpec(kind="er", trials=3, n=10, p=0.3, seed=4),
        )
        d = json.loads(cfg.to_json())
        assert d["mode"] == "boost"
        assert d["epsilons"] == [0.25, 0.125]
        assert d["corpus"]["kind"] == "er"
        assert d["corpus"]["trials"] == 3


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        mode="boost",
        epsilons=(0.25,),
        oracle="greedy",
        seed=3,
        corpus=CorpusSpec(kind="mixed", trials=6, n=8, n_max=12, seed=7),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_boost_mode_rows_and_aggregates(self):
        rep = run_experiment(small_config(epsilons=(0.25, 0.125)))
        assert len(rep.rows) == 12
        assert rep.failures == 0
        for row in rep.rows:
            assert set(CSV_COLUMNS) <= set(row)
            assert row["ok"]
            if row["mu_exact"]:
                assert row["matched"] >= math.ceil(
                    row["mu_exact"] / (1 + row["epsilon"])
                )
            assert row["mpc_rounds"] <= row["congest_rounds"]
        aggs = rep.aggregates()
        assert [a["epsilon"] for a in aggs] == [0.25, 0.125]
        for a in aggs:
            assert a["trials"] == 6
            assert a["failures"] == 0
            assert a["worst_ratio"] >= 1 / (1 + a["epsilon"])

    def test_per_scale_traces_recorded(self):
        rep = run_experiment(small_config())
        assert len(rep.per_scale) == len(rep.rows)
        for entry in rep.per_scale:
            assert set(entry) == {"trial", "epsilon", "scales"}
            assert isinstance(entry["scales"], list)

    def test_boost_rows_report_replayed_scales(self):
        rep = run_experiment(small_config())
        doc = json.loads(rep.to_json())
        seed_calls = 2 * math.ceil(make_oracle("greedy").c)
        skipped = 0
        for row, entry in zip(doc["rows"], doc["per_scale"]):
            scales = entry["scales"]
            for sc in scales:
                if sc["skipped"]:
                    skipped += 1
                    assert sc["phases_run"] == sc["paths_found"] == sc["oracle_calls"] == 0
            assert sum(sc["oracle_calls"] for sc in scales) + seed_calls == row["oracle_calls"]
        assert skipped > 0

    def test_boost_rows_report_resumed_calls(self):
        # each of these sparse graphs holds a structure without a path at
        # some scale, with several free vertices that have an edge left;
        # the next scale resumes each such phase instead of replaying it
        corpus = CorpusSpec(kind="er", trials=2, n=50, p=0.06, seed=7)
        doc = json.loads(run_experiment(small_config(corpus=corpus)).to_json())
        for entry in doc["per_scale"]:
            resumed = [sc["resumed_calls"] for sc in entry["scales"]]
            assert resumed[0] == 0 and sum(resumed) > 0

    def test_verify_off_leaves_optimum_blank(self):
        rep = run_experiment(small_config(verify=False))
        assert rep.failures == 0
        for row in rep.rows:
            assert row["mu_exact"] is None
            assert row["ratio"] is None
            assert row["ok"]
        assert rep.aggregates()[0]["worst_ratio"] is None

    def test_dynamic_mode_with_weak_oracle(self):
        cfg = ExperimentConfig(
            mode="dynamic",
            epsilons=(0.25,),
            oracle="weak-exact",
            seed=11,
            corpus=CorpusSpec(
                kind="planted", trials=2, n=16, coverage=0.9, extra=0.3, seed=5
            ),
        )
        rep = run_experiment(cfg)
        assert rep.failures == 0
        for row in rep.rows:
            assert row["ok"]
            assert row["weak_calls"] > 0
            assert row["oracle"] == "weak-exact"

    def test_dynamic_mode_refuses_a_matching_oracle(self):
        # greedy is no weak backend; it used to run as weak-exact unsaid
        cfg = small_config(mode="dynamic", oracle="greedy")
        with pytest.raises(PreconditionError, match="unknown weak backend 'greedy'"):
            run_experiment(cfg)

    def test_dynamic_mode_runs_the_named_backend(self, monkeypatch):
        cfg = ExperimentConfig(
            mode="dynamic",
            oracle="weak-greedy",
            seed=11,
            corpus=CorpusSpec(
                kind="planted", trials=2, n=16, coverage=0.9, extra=0.3, seed=5
            ),
        )
        calls = []
        real = bench.static_from_weak

        def spy(g, eps, backend, **kw):
            calls.append(backend)
            return real(g, eps, backend, **kw)

        monkeypatch.setattr(bench, "static_from_weak", spy)
        run_experiment(cfg)
        assert calls == ["weak-greedy", "weak-greedy"]


    def test_dynamic_mode_runs_with_the_constants(self):
        # scale_floor_coeff=1 leaves the scales 1/2 down to eps^2 = 1/16
        over = (("scale_floor_coeff", 1),)
        cfg = ExperimentConfig(
            mode="dynamic",
            oracle="weak-exact",
            seed=11,
            corpus=CorpusSpec(
                kind="planted", trials=2, n=16, coverage=0.9, extra=0.3, seed=5
            ),
            constants=over,
        )
        want = scale_sequence(0.25, Constants().with_overrides(dict(over)))
        assert want == [0.5, 0.25, 0.125, 0.0625]
        for entry in run_experiment(cfg).per_scale:
            assert [sc["h"] for sc in entry["scales"]] == want


class TestReplay:
    def test_same_config_gives_identical_stable_csv(self):
        cfg = small_config(corpus=CorpusSpec(kind="mixed", trials=4, n=8, seed=2))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.stable_csv() == b.stable_csv()
        assert a.aggregates() == b.aggregates()

    def test_stable_csv_drops_only_wall_time(self):
        rep = run_experiment(small_config(corpus=CorpusSpec(kind="path", trials=2, n=6)))
        head = rep.stable_csv().splitlines()[0].split(",")
        assert head == [c for c in CSV_COLUMNS if c != "wall_ms"]


class TestOutputFiles:
    def test_write_report_creates_csv_and_json(self, tmp_path):
        rep = run_experiment(small_config(corpus=CorpusSpec(kind="cycle", trials=2, n=7)))
        csv_path, json_path = write_report(rep, str(tmp_path / "out"))
        assert csv_path.endswith(".csv") and json_path.endswith(".json")
        with open(csv_path) as fh:
            header = fh.readline().rstrip("\n").split(",")
        assert header == CSV_COLUMNS
        with open(json_path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"config", "rows", "per_scale", "aggregates", "failures"}
        assert doc["failures"] == 0
        assert len(doc["rows"]) == 2

    def test_strip_wall_columns_frozen(self):
        assert strip_wall_columns("a,wall_ms,b\n1,2,3\n") == "a,b\n1,3\n"
        # idempotent, and a no-op when nothing matches
        assert strip_wall_columns("a,b\n1,3\n") == "a,b\n1,3\n"
