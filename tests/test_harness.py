"""Tests for the experiment harness and the command-line interface."""

import json
import os
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gbsopt import (
    ExperimentPlan,
    GbsOptError,
    TrainConfig,
    load_instance,
    run_experiment,
    verify_report,
)
from gbsopt.cli import main
from gbsopt.harness import (
    _derive_seed,
    build_report,
    canonical_record_bytes,
    resolve_workers,
    size_to_flights_gates,
)
from gbsopt.problems import dump_instance


TINY_PLAN = {
    "sizes": [[3, 2]],
    "instances_per_size": 2,
    "restarts": 2,
    "alphas": [1.0],
    "thresholds": [0.1],
    "base_seed": 505,
    "train": {"adam_steps": 80},
}


def canonical_without_metadata(path):
    return canonical_record_bytes(json.loads(Path(path).read_text()))


def sweep_then_train(tmp_path, train):
    """A one-run sweep with ``train`` overrides, then ``gbsopt train`` on the
    sweep's instance and record config.  Returns the report, both records
    and the instance file."""
    plan = ExperimentPlan.from_dict(
        {**TINY_PLAN, "instances_per_size": 1, "restarts": 1, "alphas": [0.5],
         "thresholds": [0.1, 1e-9], "train": train}
    )
    report = run_experiment(plan, tmp_path / "sweep", workers=1)
    swept = json.loads(next((tmp_path / "sweep" / "runs").glob("*.json")).read_text())
    instance = tmp_path / "sweep" / "instances" / swept["run"]["instance_file"]
    config = tmp_path / "train.json"
    config.write_text(json.dumps(swept["config"]))
    rec = tmp_path / "rec.json"
    assert main(["train", str(instance), "--config", str(config), "--out", str(rec)]) == 0
    return report, swept, json.loads(rec.read_text()), instance


def assert_same_blocks(a, b):
    for block in ("run", "config", "result", "config_sha256"):
        assert json.dumps(a[block], sort_keys=True) == json.dumps(b[block], sort_keys=True)


class TestPlan:
    def test_defaults_cover_paper_sizes(self):
        plan = ExperimentPlan()
        assert plan.sizes == ((2, 3), (2, 4), (2, 5), (3, 4), (2, 7), (4, 4))
        assert plan.instances_per_size == 50
        assert plan.alphas == (0.01, 0.1, 0.25, 1.0)
        assert plan.thresholds == (0.1, 0.01)

    def test_mode_counts_factor_with_max_flights(self):
        assert size_to_flights_gates(6) == (2, 3)
        assert size_to_flights_gates(8) == (2, 4)
        assert size_to_flights_gates(12) == (3, 4)
        assert size_to_flights_gates(16) == (4, 4)
        assert size_to_flights_gates(7) == (1, 7)

    def test_plan_accepts_bare_mode_counts(self):
        plan = ExperimentPlan(sizes=[6, (2, 4)])
        assert plan.sizes == ((2, 3), (2, 4))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown plan field"):
            ExperimentPlan.from_dict({"sizes": [6], "typo": 1})
        with pytest.raises(ValueError, match="unknown train override"):
            ExperimentPlan(train={"typo": 1})

    def test_rejects_values_of_the_wrong_type(self):
        with pytest.raises(ValueError, match="shots_k = '5'"):
            ExperimentPlan(train={"shots_k": "5"})
        with pytest.raises(ValueError, match="restarts = '2'"):
            ExperimentPlan(restarts="2")
        with pytest.raises(ValueError, match="malformed"):
            ExperimentPlan(alphas=[None])
        with pytest.raises(ValueError, match="adam"):
            ExperimentPlan(alphas=[0.5], train={"optimizer": "adam"})
        with pytest.raises(ValueError, match="alpha = '0.1'"):
            TrainConfig(seed=1, alpha="0.1")
        with pytest.raises(ValueError, match="seed = True"):
            TrainConfig(seed=True)

    def test_rejects_values_that_collide_in_names(self):
        # record files carry a{alpha:g}, report columns success_{t:g}
        for plan, named in (
            ({"alphas": [0.1, 0.1]}, "alphas .*: \\[0.1\\]"),
            ({"alphas": [0.1, 0.1000000001]}, "alphas .*: \\[0.1, 0.1000000001\\]"),
            ({"thresholds": [0.01, 0.0100000001]}, "thresholds .*: \\[0.01, 0.0100000001\\]"),
            ({"sizes": [6, [2, 3]]}, "sizes .*: \\[\\(2, 3\\)\\]"),
        ):
            with pytest.raises(ValueError, match=named):
                ExperimentPlan.from_dict(plan)

    def test_rejects_sizes_and_seeds_below_range(self):
        for plan, named in (
            ({"sizes": [[0, 3]]}, "sizes: 0x3"),
            ({"sizes": [[2, -3]]}, "sizes: 2x-3"),
            ({"sizes": [-4]}, "sizes: mode count -4"),
            ({"sizes": [0]}, "sizes: mode count 0"),
            ({"base_seed": -1}, "base_seed = -1"),
        ):
            with pytest.raises(ValueError, match=named):
                ExperimentPlan.from_dict(plan)
        with pytest.raises(ValueError, match="seed = -1"):
            TrainConfig(seed=-1)

    def test_round_trips_through_dict(self):
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        again = ExperimentPlan.from_dict(plan.to_dict())
        assert plan == again


class TestRunExperiment:
    def test_tiny_sweep_counts_fractions(self, tmp_path):
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        report = run_experiment(plan, tmp_path, workers=1)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["n_modes"] == 6
        assert row["n_instances"] == 2
        assert row["success_fraction"] in (0.0, 0.5, 1.0)
        assert report.n_errors == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "instances.csv").exists()
        assert len(list((tmp_path / "runs").glob("*.json"))) == 4

    def test_records_are_deterministic_and_resumable(self, tmp_path):
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        run_experiment(plan, tmp_path / "a", workers=1)
        run_experiment(plan, tmp_path / "b", workers=1)
        recs_a = sorted((tmp_path / "a" / "runs").glob("*.json"))
        recs_b = sorted((tmp_path / "b" / "runs").glob("*.json"))
        for ra, rb in zip(recs_a, recs_b):
            assert ra.name == rb.name
            assert canonical_without_metadata(ra) == canonical_without_metadata(rb)

        # interrupting a sweep: drop one record and the report, then re-run
        report_before = (tmp_path / "a" / "report.csv").read_bytes()
        removed = recs_a[1]
        removed.unlink()
        (tmp_path / "a" / "report.csv").unlink()
        run_experiment(plan, tmp_path / "a", workers=1)
        assert (tmp_path / "a" / "report.csv").read_bytes() == report_before
        assert canonical_without_metadata(removed) == canonical_without_metadata(
            tmp_path / "b" / "runs" / removed.name
        )

    def test_resume_leaves_instance_files_untouched(self, tmp_path):
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        run_experiment(plan, tmp_path, workers=1)
        files = sorted((tmp_path / "instances").glob("*.json"))
        assert len(files) == 2
        # an old stamp, so a rewrite shows even within one clock tick
        stamp = 10**18
        for f in files:
            os.utime(f, ns=(stamp, stamp))
        run_experiment(plan, tmp_path, workers=1)
        assert [f.stat().st_mtime_ns for f in files] == [stamp, stamp]

    def test_verify_detects_tampering(self, tmp_path):
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        report = run_experiment(plan, tmp_path, workers=1)
        assert verify_report(tmp_path) == 1
        assert report.rows[0]["success_fraction"] > 0.0
        # force every run to unsuccessful so the aggregate must change
        for record_path in (tmp_path / "runs").glob("*.json"):
            record = json.loads(record_path.read_text())
            record["result"]["success"]["0.1"] = False
            record["result"]["final_fidelity"] = 0.0
            record_path.write_text(json.dumps(record))
        with pytest.raises(GbsOptError, match="mismatch"):
            verify_report(tmp_path)

    def test_verify_checks_the_record_set(self, tmp_path):
        run_experiment(ExperimentPlan.from_dict(TINY_PLAN), tmp_path, workers=1)
        runs = tmp_path / "runs"
        paths = sorted(runs.glob("*.json"))
        stray = runs / "6_1_a1_r9.json"
        shutil.copy(paths[0], stray)
        with pytest.raises(GbsOptError, match="unexpected \\['6_1_a1_r9.json'\\]"):
            verify_report(tmp_path)
        stray.unlink()
        # drop the weaker restart of the first instance: the report is unchanged
        first = [json.loads(p.read_text()) for p in paths[:2]]
        assert first[0]["run"]["instance_id"] == first[1]["run"]["instance_id"]
        weaker = min((0, 1), key=lambda k: first[k]["result"]["success"]["0.1"])
        paths[weaker].unlink()
        with pytest.raises(GbsOptError, match=f"missing \\['{paths[weaker].name}'\\]"):
            verify_report(tmp_path)

    def test_timed_out_run_keeps_its_theta(self, tmp_path):
        report, swept, trained, _ = sweep_then_train(tmp_path, {"max_seconds": 1e-9})
        result = swept["result"]
        assert result["timed_out"] is True and result["error"] == "timeout"
        assert result["n_evals"] == 1
        assert np.array(result["best_theta"]).shape == (6, 6)
        assert result["success"]["1e-09"]  # a fact of the run, which the report ignores
        assert_same_blocks(trained, swept)
        assert report.n_errors == 1
        fractions = (tmp_path / "sweep" / "report.csv").read_text().splitlines()[1:]
        assert fractions == ["6,0.5,0.1,0.0,1", "6,0.5,1e-09,0.0,1"]
        assert verify_report(tmp_path / "sweep") == 2

    def test_failed_runs_are_recorded_not_raised(self, tmp_path, monkeypatch):
        import gbsopt.harness as harness

        real_train = harness.train
        calls = {"n": 0}

        def flaky_train(qubo, cfg, thresholds):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real_train(qubo, cfg, thresholds)

        monkeypatch.setattr(harness, "train", flaky_train)
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        report = run_experiment(plan, tmp_path, workers=1)
        assert report.n_errors == 1
        errored = [r for r in report.run_rows if r["error"]]
        assert len(errored) == 1
        assert "synthetic failure" in errored[0]["error"]
        assert errored[0]["final_fidelity"] == 0.0

    def test_worker_resolution(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(np.int64(2)) == 2
        assert resolve_workers() >= 1
        for bad in (0, -5, 2.7, 2.0, True):
            with pytest.raises(ValueError, match=f"workers = {bad!r} must be an integer >= 1"):
                resolve_workers(bad)


class TestCli:
    def test_generate_is_deterministic(self, tmp_path):
        out = tmp_path / "inst"
        assert main(["generate", "--sizes", "2x2", "--instances", "2",
                     "--base-seed", "3", "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 2
        before = [f.read_bytes() for f in files]
        assert main(["generate", "--sizes", "2x2", "--instances", "2",
                     "--base-seed", "3", "--out", str(out)]) == 0
        assert [f.read_bytes() for f in files] == before
        # round trip through the parser is exact
        for f in files:
            assert dump_instance(load_instance(f.read_text())) == f.read_text()

    def test_generate_capacity_exit_code(self, tmp_path):
        assert main(["generate", "--sizes", "5x5", "--instances", "1",
                     "--out", str(tmp_path)]) == 3

    def test_solve_writes_ground_truth(self, tmp_path):
        out = tmp_path / "inst"
        main(["generate", "--sizes", "1x2", "--instances", "1",
              "--base-seed", "1", "--out", str(out)])
        instance = next(out.glob("*.json"))
        assert main(["solve", str(instance)]) == 0
        solution = json.loads(instance.with_suffix(".solution.json").read_text())
        assert solution["min_value"] == pytest.approx(0.0)
        assert sorted(solution["minimizers"]) == [[0, 1], [1, 0]]

    def test_solve_invalid_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        assert main(["solve", str(tmp_path / "missing.json")]) == 2

    def test_train_round_trip_and_determinism(self, tmp_path):
        out = tmp_path / "inst"
        main(["generate", "--sizes", "2x2", "--instances", "1",
              "--base-seed", "8", "--out", str(out)])
        instance = next(out.glob("*.json"))
        rec_a = tmp_path / "a.json"
        rec_b = tmp_path / "b.json"
        args = [str(instance), "--alpha", "0.1", "--seed", "12"]
        assert main(["train", *args, "--out", str(rec_a)]) == 0
        assert main(["train", *args, "--out", str(rec_b)]) == 0
        assert canonical_without_metadata(rec_a) == canonical_without_metadata(rec_b)
        record = json.loads(rec_a.read_text())
        assert record["result"]["error"] is None
        assert record["result"]["n_evals"] <= 50 * 4
        # the stored fidelity must be recomputable from the stored matrix
        from gbsopt import ThetaMatrix, assemble_qubo, brute_force_solve
        from gbsopt.optim import state_fidelity

        theta = ThetaMatrix(np.array(record["result"]["best_theta"]))
        truth = brute_force_solve(assemble_qubo(load_instance(instance.read_text())))
        assert state_fidelity(theta, truth) == pytest.approx(
            record["result"]["final_fidelity"], abs=1e-10
        )

    def test_train_record_matches_sweep_record(self, tmp_path):
        assert set(ExperimentPlan().train) == (
            {f.name for f in fields(TrainConfig)} - {"seed", "alpha"}
        )
        _, swept, trained, instance = sweep_then_train(tmp_path, {"max_evals": 40})
        assert swept["config"]["seed"] == _derive_seed(
            load_instance(instance.read_text()).seed, 0
        )
        assert_same_blocks(trained, swept)
        assert trained["metadata"]["wall_time_s"] > 0.0

    def test_train_trivial_instance_record(self, tmp_path):
        # zero transfer and zero penalties make every pattern optimal:
        # the cost trace is constant and the trained state has fidelity 1
        from gbsopt import FgaInstance

        instance = FgaInstance(
            n_flights=1, n_gates=2, transfer=np.zeros((2, 2)),
            forbidden_pairs=(), lambda_one=0.0, lambda_not=0.0, seed=0,
        )
        path = tmp_path / "trivial.json"
        path.write_text(dump_instance(instance))
        rec = tmp_path / "rec.json"
        assert main(["train", str(path), "--alpha", "0.1", "--seed", "1",
                     "--out", str(rec)]) == 0
        record = json.loads(rec.read_text())
        costs = {c for _, c in record["result"]["cost_trace"]}
        assert costs == {0.0}
        assert record["result"]["final_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_train_honors_config_file_precedence(self, tmp_path):
        out = tmp_path / "inst"
        main(["generate", "--sizes", "1x2", "--instances", "1",
              "--base-seed", "2", "--out", str(out)])
        instance = next(out.glob("*.json"))
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"alpha": 0.25, "seed": 4, "max_evals": 30}))
        rec = tmp_path / "rec.json"
        assert main(["train", str(instance), "--config", str(config),
                     "--alpha", "0.5", "--out", str(rec)]) == 0
        record = json.loads(rec.read_text())
        assert record["config"]["alpha"] == 0.5  # flag beats file
        assert record["config"]["max_evals"] == 30  # file beats default
        assert record["config"]["seed"] == 4

    def test_config_files_reject_unknown_keys(self, tmp_path, capsys):
        config = tmp_path / "generate.json"
        config.write_text(json.dumps({"instancez": 3}))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "i")]) == 2
        assert "instancez" in capsys.readouterr().err
        assert not (tmp_path / "i").exists()

        main(["generate", "--sizes", "1x2", "--instances", "1", "--out", str(tmp_path / "j")])
        instance = next((tmp_path / "j").glob("*.json"))
        for key in ("init_scal", "init_scale", "mask_size", "adam_lr", "mask_rule"):
            config = tmp_path / "train.json"
            config.write_text(json.dumps({key: 0.2}))
            assert main(["train", str(instance), "--config", str(config)]) == 2
            assert repr(key) in capsys.readouterr().err

    def test_removed_train_knobs_fail_loudly(self, tmp_path, capsys):
        main(["generate", "--sizes", "1x2", "--instances", "1", "--out", str(tmp_path / "i")])
        instance = next((tmp_path / "i").glob("*.json"))
        with pytest.raises(SystemExit) as excinfo:
            main(["train", str(instance), "--init-scale", "0.2"])
        assert excinfo.value.code == 2
        assert "--init-scale" in capsys.readouterr().err

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({**TINY_PLAN, "train": {"mask_size": 4}}))
        assert main(["experiment", "--plan", str(plan_file), "--out", str(tmp_path / "x"),
                     "--workers", "1"]) == 2
        assert "mask_size" in capsys.readouterr().err

        # a report written before the knobs became constants names them
        out = tmp_path / "exp"
        run_experiment(ExperimentPlan.from_dict({**TINY_PLAN, "restarts": 1,
                                                 "instances_per_size": 1}), out, workers=1)
        payload = json.loads((out / "report.json").read_text())
        payload["plan"]["train"]["init_scale"] = 0.1
        (out / "report.json").write_text(json.dumps(payload))
        assert main(["verify", str(out)]) == 2
        assert "init_scale" in capsys.readouterr().err

    def test_experiment_and_verify(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(TINY_PLAN))
        out = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan_file), "--out", str(out),
                     "--workers", "1"]) == 0
        assert main(["verify", str(out)]) == 0
        # tamper -> verify fails with invalid-input exit code
        for record_path in (out / "runs").glob("*.json"):
            record = json.loads(record_path.read_text())
            record["result"]["success"]["0.1"] = False
            record["result"]["final_fidelity"] = 0.0
            record_path.write_text(json.dumps(record))
        assert main(["verify", str(out)]) == 2

    def test_bad_plan_values_exit_2_before_any_file(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        out = tmp_path / "exp"
        for values, named in (
            ({"train": {"shots_k": "5"}}, "shots_k"), ({"train": {"max_evals": 0}}, "max_evals"),
            ({"sizes": [[0, 3]]}, "sizes: 0x3"), ({"sizes": [[2, -3]]}, "sizes: 2x-3"),
            ({"sizes": [-4]}, "sizes: mode count -4"), ({"base_seed": -1}, "base_seed = -1"),
            ({"train": {"max_seconds": float("nan")}}, "max_seconds = nan"),
            ({"train": {"max_seconds": -1}}, "max_seconds = -1"),
        ):
            plan_file.write_text(json.dumps({**TINY_PLAN, **values}))
            assert main(["experiment", "--plan", str(plan_file), "--out", str(out),
                         "--workers", "1"]) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()
        plan_file.write_text(json.dumps(TINY_PLAN))
        for flags, named in (
            (["--workers", "0"], "workers = 0"), (["--workers", "-5"], "workers = -5"),
            (["--max-seconds", "inf", "--workers", "1"], "max_seconds = inf"),
            (["--max-seconds", "0", "--workers", "1"], "max_seconds = 0.0"),
        ):
            assert main(["experiment", "--plan", str(plan_file), "--out", str(out),
                         *flags]) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()
        for flags, named in (
            (["--sizes", "0x3"], "sizes: 0x3"), (["--sizes", "2x-3"], "sizes: 2x-3"),
            (["--sizes", "-4"], "sizes: mode count -4"), (["--base-seed", "-1"], "base_seed = -1"),
        ):
            assert main(["generate", *flags, "--out", str(out)]) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()

        main(["generate", "--sizes", "1x2", "--instances", "1", "--out", str(tmp_path / "i")])
        instance = next((tmp_path / "i").glob("*.json"))
        config = tmp_path / "train.json"
        for values, named in (
            ({"alpha": "0.1"}, "alpha = '0.1'"), ({"thresholds": 0.1}, "thresholds"),
            ({"seed": -1}, "seed = -1"),
        ):
            config.write_text(json.dumps(values))
            assert main(["train", str(instance), "--config", str(config)]) == 2
            assert named in capsys.readouterr().err
        for budget in ("nan", "inf", "0", "-1"):
            assert main(["train", str(instance), "--alpha", "0.1",
                         "--max-seconds", budget]) == 2
            assert f"max_seconds = {float(budget)!r}" in capsys.readouterr().err
        assert not instance.with_suffix(".record.json").exists()

    def test_experiment_flags_override_plan(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(TINY_PLAN))
        out = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan_file), "--instances", "1",
                     "--restarts", "1", "--out", str(out), "--workers", "1"]) == 0
        assert len(list((out / "runs").glob("*.json"))) == 1

    def test_experiment_partial_failure_exit_code(self, tmp_path, monkeypatch):
        import gbsopt.harness as harness

        real_train = harness.train
        calls = {"n": 0}

        def flaky_train(qubo, cfg, thresholds):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real_train(qubo, cfg, thresholds)

        monkeypatch.setattr(harness, "train", flaky_train)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(TINY_PLAN))
        out = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan_file), "--out", str(out),
                     "--workers", "1"]) == 5

    def test_train_failure_exit_code(self, tmp_path, monkeypatch):
        from gbsopt import TrainingFailedError
        import gbsopt.cli as cli

        out = tmp_path / "inst"
        main(["generate", "--sizes", "1x2", "--instances", "1",
              "--base-seed", "6", "--out", str(out)])
        instance = next(out.glob("*.json"))

        def diverging_train(qubo, cfg, thresholds):
            raise TrainingFailedError("diverged", trace=[(1, float("inf"))])

        monkeypatch.setattr(cli, "train", diverging_train)
        assert main(["train", str(instance), "--seed", "1",
                     "--out", str(tmp_path / "rec.json")]) == 4


class TestShippedPlans:
    def test_bundled_plan_files_are_valid(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        desk = ExperimentPlan.from_dict(json.loads((root / "desk_plan.json").read_text()))
        assert desk.sizes == ((2, 3), (2, 4))
        assert desk.instances_per_size == 10
        assert desk.alphas == (0.1, 1.0)
        paper = ExperimentPlan.from_dict(
            json.loads((root / "paper_plan.json").read_text())
        )
        assert {f * g for f, g in paper.sizes} == {6, 8, 10, 12, 14, 16}
        assert paper.instances_per_size == 50
        assert paper.alphas == (0.01, 0.1, 0.25, 1.0)


class TestAggregation:
    def test_success_needs_any_restart(self):
        plan = ExperimentPlan(
            sizes=[(1, 2)], instances_per_size=1, restarts=2,
            alphas=[0.5], thresholds=[0.1],
        )
        summaries = []
        for restart, fidelity in ((0, 0.05), (1, 0.4)):
            summaries.append(
                {
                    "n_modes": 2, "n_flights": 1, "n_gates": 2,
                    "instance_id": "2_7", "alpha": 0.5, "restart": restart,
                    "final_fidelity": fidelity,
                    "success": {"0.1": fidelity > 0.1},
                    "n_evals": 10, "wall_time_s": 0.1, "error": None,
                }
            )
        report = build_report(plan, summaries)
        assert report.fraction(2, 0.5, 0.1) == 1.0
        assert report.instance_rows[0]["best_fidelity"] == 0.4
