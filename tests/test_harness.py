"""Tests for the experiment harness and the command-line interface."""

import csv
import io
import json
import os
import re
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
    _atomic_write,
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
            ({"sizes": [True]}, "sizes: True is not"),
            ({"sizes": [[2.7, 3]]}, "sizes: \\[2.7, 3\\] is not"),
            ({"sizes": [[2, True]]}, "sizes: \\[2, True\\] is not"),
            ({"sizes": [6.0]}, "sizes: 6.0 is not"),
            ({"base_seed": -1}, "base_seed = -1"),
            ({"thresholds": [-0.2]}, "threshold -0.2 must be finite"),
            ({"thresholds": [float("nan"), 0.1]}, "threshold nan must be finite"),
            ({"thresholds": [1.0]}, "threshold 1.0 must be finite"),
            ({"thresholds": [float("inf")]}, "threshold inf must be finite"),
            ({"thresholds": []}, "at least one threshold is required"),
            ({"alphas": []}, "at least one size and one alpha"),
            ({"sizes": []}, "at least one size and one alpha"),
            ({"sizes": "2x3"}, "sizes = '2x3' must be a list"),
            ({"alphas": "1"}, "alphas = '1' must be a list"),
            ({"alphas": ["x"]}, "malformed alphas"),
            ({"thresholds": "0"}, "thresholds = '0' must be a list"),
            ({"thresholds": ["x"]}, "malformed thresholds"),
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

        # a record that does not parse, or lacks a block, is retrained
        damaged = {recs_a[0]: "{not json", recs_a[2]: json.dumps(
            {k: v for k, v in json.loads(recs_a[2].read_text()).items() if k != "result"})}
        for path, text in damaged.items():
            path.write_text(text)
        run_experiment(plan, tmp_path / "a", workers=1)
        assert (tmp_path / "a" / "report.csv").read_bytes() == report_before
        for path in damaged:
            assert canonical_without_metadata(path) == canonical_without_metadata(
                tmp_path / "b" / "runs" / path.name
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

        # a damaged report or record names its file
        report_json = tmp_path / "report.json"
        payload = json.loads(report_json.read_text())
        report_json.write_text(json.dumps({k: v for k, v in payload.items() if k != "plan"}))
        with pytest.raises(GbsOptError, match="report.json: KeyError: 'plan'"):
            verify_report(tmp_path)
        report_json.write_text(json.dumps(payload))
        record_path = sorted((tmp_path / "runs").glob("*.json"))[0]
        record_path.write_text(json.dumps({k: v for k, v in record.items() if k != "result"}))
        with pytest.raises(GbsOptError, match=f"{record_path.name}: KeyError: 'result'"):
            verify_report(tmp_path)

    @pytest.mark.parametrize("name, column", [
        ("runs.csv", "n_evals"),
        ("instances.csv", "best_fidelity"),
        ("report.json", "success_fraction"),
    ])
    def test_verify_checks_every_report_file(self, tmp_path, name, column):
        run_experiment(ExperimentPlan.from_dict(TINY_PLAN), tmp_path, workers=1)
        path = tmp_path / name
        if name == "report.json":
            payload = json.loads(path.read_text())
            payload["rows"][0][column] = 0.25
            path.write_text(json.dumps(payload, indent=1) + "\n")
        else:
            rows = list(csv.reader(io.StringIO(path.read_text())))
            rows[1][rows[0].index(column)] = "0.25"
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            path.write_text(buf.getvalue())
        with pytest.raises(GbsOptError, match=f"{re.escape(name)} mismatch at line"):
            verify_report(tmp_path)

    def test_verify_takes_report_metadata_as_stored(self, tmp_path):
        # metadata is not derived from the records, so any metadata verifies
        run_experiment(ExperimentPlan.from_dict(TINY_PLAN), tmp_path, workers=1)
        path = tmp_path / "report.json"
        payload = json.loads(path.read_text())
        payload["metadata"] = {"timestamp": "1970-01-01T00:00:00+00:00", "note": "moved"}
        path.write_text(json.dumps(payload, indent=1) + "\n")
        assert verify_report(tmp_path) == 1
        # a missing report file is an OSError naming it, which the CLI maps to exit 2
        (tmp_path / "runs.csv").unlink()
        with pytest.raises(FileNotFoundError, match="runs.csv"):
            verify_report(tmp_path)
        assert main(["verify", str(tmp_path)]) == 2

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

        def flaky_train(qubo, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real_train(qubo, cfg)

        monkeypatch.setattr(harness, "train", flaky_train)
        plan = ExperimentPlan.from_dict(TINY_PLAN)
        report = run_experiment(plan, tmp_path, workers=1)
        assert report.n_errors == 1
        errored = [r for r in report.run_rows if r["error"]]
        assert len(errored) == 1
        assert "synthetic failure" in errored[0]["error"]
        assert errored[0]["final_fidelity"] == 0.0
        squeezings = [json.loads(f.read_text())["metadata"]["max_squeezing"]
                      for f in sorted((tmp_path / "runs").glob("*.json"))]
        assert squeezings.count(None) == 1

    def test_failed_atomic_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _atomic_write(path, "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert path.read_text() == "old\n"

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

    def test_solve_writes_its_solution_atomically(self, tmp_path, monkeypatch):
        out = tmp_path / "inst"
        main(["generate", "--sizes", "1x2", "--instances", "1",
              "--base-seed", "1", "--out", str(out)])
        instance = next(out.glob("*.json"))
        solution = instance.with_suffix(".solution.json")
        assert main(["solve", str(instance)]) == 0
        written = solution.read_text()
        assert json.loads(written)["kind"] == "ground_truth"
        assert sorted(p.name for p in out.iterdir()) == sorted([instance.name, solution.name])

        # a solve that dies before its rename leaves the previous file whole
        def refused(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refused)
        assert main(["solve", str(instance)]) == 2
        assert solution.read_text() == written

    def test_solve_invalid_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        assert main(["solve", str(tmp_path / "missing.json")]) == 2
        main(["generate", "--sizes", "1x2", "--instances", "1", "--out", str(tmp_path / "i")])
        good = json.loads(next((tmp_path / "i").glob("*.json")).read_text())
        capsys.readouterr()
        # each damaged file exits 2 naming the file and the fault
        for text, named in (
            ("{not json", "Expecting property name"),
            ('{"format_version": 1}', "instance lacks key(s) ['n_flights', 'n_gates'"),
            ("[1, 2]", "an instance must be a JSON object, not list"),
            (json.dumps({**good, "lambda_one": float("nan")}), "lambda_one = nan must be finite"),
            (json.dumps({**good, "lambda_not": float("inf")}), "lambda_not = inf must be"),
            (json.dumps({**good, "transfer_matrix": [[float("nan"), 0], [0, 0]]}),
             "transfer matrix entries must be finite"),
            (json.dumps({**good, "transfer_matrix": [[0, "7.5"], ["7.5", 0]]}),
             "transfer_matrix is not a list of rows of numbers"),
            (json.dumps({**good, "seed": None}), "malformed instance"),
            (json.dumps({**good, "n_flights": 2.7}), "n_flights = 2.7 is not an integer"),
            (json.dumps({**good, "n_gates": True}), "n_gates = True is not an integer"),
            (json.dumps({**good, "n_flights": -1, "n_gates": -2}),
             "n_flights = -1 must be at least 1"),
            (json.dumps({**good, "n_gates": 0}), "n_gates = 0 must be at least 1"),
            (json.dumps({**good, "seed": 5.9}), "seed = 5.9 is not an integer"),
            (json.dumps({**good, "forbidden_pairs": [[0.5, 1]]}),
             "forbidden_pairs = [[0.5, 1]] is not a list of integer pairs"),
        ):
            bad.write_text(text)
            assert main(["solve", str(bad)]) == 2
            err = capsys.readouterr().err
            assert f"error: {bad}: " in err and named in err
        assert main(["train", str(bad)]) == 2
        assert f"error: {bad}: malformed instance" in capsys.readouterr().err

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

    def test_record_metadata_names_max_squeezing(self, tmp_path):
        # the commands of acceptance criterion 9
        out = tmp_path / "inst"
        assert main(["generate", "--sizes", "2x3", "--instances", "2",
                     "--base-seed", "99", "--out", str(out)]) == 0
        instance = sorted(out.glob("*.json"))[0]
        records = []
        for name in ("a.json", "b.json"):
            assert main(["train", str(instance), "--alpha", "0.1", "--seed", "17",
                         "--out", str(tmp_path / name)]) == 0
            records.append(json.loads((tmp_path / name).read_text()))
        theta = np.array(records[0]["result"]["best_theta"])
        assert records[0]["metadata"]["max_squeezing"] == pytest.approx(
            np.abs(np.linalg.eigvalsh(theta)).max(), rel=1e-12)
        assert records[1]["metadata"]["max_squeezing"] == records[0]["metadata"]["max_squeezing"]
        # it lives outside the canonical bytes, so criterion 9 reads the same record
        bare = dict(records[0], metadata={k: v for k, v in records[0]["metadata"].items()
                                          if k != "max_squeezing"})
        assert canonical_record_bytes(bare) == canonical_record_bytes(records[0])
        assert canonical_record_bytes(records[0]) == canonical_record_bytes(records[1])
        assert b"max_squeezing" not in canonical_record_bytes(records[0])

    def test_train_record_matches_sweep_record(self, tmp_path):
        assert set(ExperimentPlan().train) == (
            {f.name for f in fields(TrainConfig)} - {"seed", "alpha", "thresholds"}
        )
        report, swept, trained, instance = sweep_then_train(tmp_path, {"max_evals": 40})
        seed = _derive_seed(load_instance(instance.read_text()).seed, 0)
        assert swept["config"]["seed"] == seed
        # a record's config block is its run's whole TrainConfig
        assert TrainConfig(**swept["config"]) == report.plan.train_config(0.5, seed).resolved(6)
        assert_same_blocks(trained, swept)
        assert trained["metadata"]["wall_time_s"] > 0.0

    def test_null_budget_replays_as_no_limit(self, tmp_path):
        # max_seconds: null is no time limit, in the sweep and in its replay
        report, swept, trained, _ = sweep_then_train(tmp_path, {"max_seconds": None})
        assert swept["config"]["max_seconds"] is None
        assert_same_blocks(trained, swept)

    def test_train_defaults_are_the_sweep_defaults(self, tmp_path):
        # with no config file, gbsopt train at a sweep run's alpha and seed
        # writes that run's record
        plan = ExperimentPlan.from_dict({"sizes": [[2, 3]], "instances_per_size": 1,
                                         "restarts": 1, "alphas": [0.1, 1.0]})
        run_experiment(plan, tmp_path / "sweep", workers=1)
        swept = [json.loads(p.read_text())
                 for p in sorted((tmp_path / "sweep" / "runs").glob("*.json"))]
        assert [r["config"]["optimizer"] for r in swept] == ["cobyla", "adam"]
        instance = tmp_path / "sweep" / "instances" / swept[0]["run"]["instance_file"]
        rec = tmp_path / "rec.json"
        for record in swept:
            assert main(["train", str(instance), "--alpha", repr(record["run"]["alpha"]),
                         "--seed", str(record["config"]["seed"]), "--out", str(rec)]) == 0
            assert_same_blocks(json.loads(rec.read_text()), record)
        assert main(["train", str(instance), "--seed", "17", "--out", str(rec)]) == 0
        config = json.loads(rec.read_text())["config"]
        assert (config["optimizer"], config["max_seconds"]) == ("adam", 600.0)
        assert TrainConfig(**config) == TrainConfig(seed=17).resolved(6)

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
            ({"sizes": [[2.7, 3]]}, "sizes: [2.7, 3] is not"),
            ({"sizes": [True]}, "sizes: True is not"),
            ({"thresholds": [-0.2]}, "threshold -0.2 must be finite"),
            ({"thresholds": []}, "at least one threshold"), ({"alphas": []}, "one alpha"),
            ({"alphas": "1"}, "alphas = '1' must be a list"),
            ({"thresholds": "0.1"}, "thresholds = '0.1' must be a list"),
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
            (["--thresholds", "nan,0.1", "--workers", "1"], "threshold nan must be finite"),
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
            ({"seed": -1}, "seed = -1"), ({"thresholds": [0.1, 1.5]}, "threshold 1.5 must be"),
            ({"thresholds": "0.1"}, "thresholds = '0.1' must be a list"),
        ):
            config.write_text(json.dumps(values))
            assert main(["train", str(instance), "--config", str(config)]) == 2
            assert named in capsys.readouterr().err
        for thresholds, named in (("nan,2", "threshold nan"), ("-0.2", "threshold -0.2"),
                                  ("0.1,inf", "threshold inf")):
            assert main(["train", str(instance), "--thresholds", thresholds]) == 2
            assert f"{named} must be finite" in capsys.readouterr().err
        for budget in ("nan", "inf", "0", "-1"):
            assert main(["train", str(instance), "--alpha", "0.1",
                         "--max-seconds", budget]) == 2
            assert f"max_seconds = {float(budget)!r}" in capsys.readouterr().err
        assert not instance.with_suffix(".record.json").exists()

    def test_nulls_and_non_object_train_in_files_exit_2_before_any_file(
            self, tmp_path, capsys, monkeypatch):
        # a null in a file is a value, not an unset key: none of these may
        # fall back to a default (the default plan is 6000 runs)
        import gbsopt.cli as cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
        plan_file = tmp_path / "plan.json"
        out = tmp_path / "exp"
        for values, named in (
            ({"sizes": None}, "malformed sizes"), ({"alphas": None}, "malformed alphas"),
            ({"thresholds": None}, "malformed thresholds"),
            ({"restarts": None}, "restarts = None is not of type int"),
            ({"train": None}, "train = None must be an object"),
            ({"train": 5}, "train = 5 must be an object"),
            ({"train": ["shots_k"]}, "train = ['shots_k'] must be an object"),
        ):
            plan_file.write_text(json.dumps({**TINY_PLAN, **values}))
            for flags in ([], ["--shots", "0"]):
                assert main(["experiment", "--plan", str(plan_file), "--out", str(out),
                             "--workers", "1", *flags]) == 2
                assert named in capsys.readouterr().err
                assert not out.exists()
        config = tmp_path / "generate.json"
        for values, named in (({"sizes": None}, "malformed sizes"),
                              ({"instances": None}, "instances_per_size = None")):
            config.write_text(json.dumps(values))
            assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()

    def test_sizes_are_lists_in_files_and_text_in_flags(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sizes": "1x2", "instances": 2}))
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({**TINY_PLAN, "sizes": "1x2", "restarts": 1}))
        for args, out, instances in (
            (["generate", "--config", str(config)], tmp_path / "gen", ""),
            (["experiment", "--plan", str(plan_file), "--workers", "1"], tmp_path / "exp",
             "instances"),
        ):
            assert main([*args, "--out", str(out)]) == 2
            assert "sizes = '1x2' must be a list" in capsys.readouterr().err
            assert not out.exists()
            assert main([*args, "--sizes", "1x2,1x3", "--out", str(out)]) == 0
            modes = sorted(p.name.split("_")[0] for p in (out / instances).glob("*.json"))
            assert modes == ["2", "2", "3", "3"]

    def test_plan_over_capacity_exits_3_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", "--sizes", "3x7", "--instances", "1", "--restarts", "1",
                     "--alphas", "0.1", "--workers", "1", "--out", str(out)]) == 3
        assert "size 3x7 exceeds the 20-mode solver cap" in capsys.readouterr().err
        assert not out.exists()
        # every cost, exact CVaR included, fits every size up to the mode cap
        ExperimentPlan(sizes=[(3, 6)], alphas=[1.0, 0.1], train={"shots_k": 10})
        ExperimentPlan(sizes=[(4, 5)], alphas=[1.0])
        ExperimentPlan(sizes=[(4, 5)], alphas=[0.1])
        # the refused plan left no file, so generate writes its 18-mode instance
        assert main(["generate", "--sizes", "3x6", "--instances", "1", "--out", str(out)]) == 0
        assert len(list(out.glob("18_*.json"))) == 1

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

        def flaky_train(qubo, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real_train(qubo, cfg)

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

        def diverging_train(qubo, cfg):
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
                    "final_fidelity": fidelity, "success_0.1": fidelity > 0.1,
                    "n_evals": 10, "wall_time_s": 0.1, "error": None,
                }
            )
        report = build_report(plan, summaries)
        assert report.fraction(2, 0.5, 0.1) == 1.0
        assert report.instance_rows[0]["best_fidelity"] == 0.4
