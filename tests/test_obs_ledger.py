"""Tests for repro.obs.ledger: schema, round trips, reporting, diffing."""

import json
from pathlib import Path

import pytest

from repro.errors import ResultSchemaError
from repro.obs import ledger as obs_ledger
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    build_ledger,
    diff_ledgers,
    format_ledger,
    ledger_path_for,
    read_ledger,
    validate_ledger,
    write_ledger,
)


def make_ledger(**overrides):
    base = dict(
        name="unit",
        created="2026-08-07T00:00:00Z",
        wall_seconds=1.25,
        params={"policies": ["lru"]},
        seed=0,
        jobs=2,
        kernel=True,
        git={"sha": "abc123", "dirty": False},
        env={"python": "3.11.7"},
        counters={"oracle.measurements": 10, "kernel.calls": 3},
        artifacts=[{"path": "x.txt", "sha256": "00", "bytes": 1}],
    )
    base.update(overrides)
    return RunLedger(**base)


class TestPaths:
    def test_metrics_sidecar_maps_to_ledger(self):
        assert ledger_path_for("out/e3.metrics.json").name == "e3.ledger.json"

    def test_other_artifacts_get_suffix_appended(self):
        assert ledger_path_for("out/e3.txt").name == "e3.txt.ledger.json"


class TestSchema:
    def test_round_trip(self):
        ledger = make_ledger()
        back = RunLedger.from_json(ledger.to_json())
        assert back == ledger

    def test_validate_accepts_a_built_ledger(self):
        assert validate_ledger(make_ledger().to_dict())

    @pytest.mark.parametrize("field", [
        "ledger_schema_version", "name", "created", "wall_seconds",
        "params", "seed", "jobs", "kernel", "git", "env", "counters",
        "artifacts",
    ])
    def test_missing_field_rejected(self, field):
        payload = make_ledger().to_dict()
        del payload[field]
        with pytest.raises(ResultSchemaError, match=field):
            validate_ledger(payload)

    def test_wrong_version_rejected(self):
        payload = make_ledger().to_dict()
        payload["ledger_schema_version"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(ResultSchemaError, match="ledger_schema_version"):
            validate_ledger(payload)

    def test_non_json_rejected(self):
        with pytest.raises(ResultSchemaError, match="JSON"):
            RunLedger.from_json("{nope")

    def test_bad_artifact_record_rejected(self):
        payload = make_ledger().to_dict()
        payload["artifacts"] = [{"path": "x"}]
        with pytest.raises(ResultSchemaError, match="artifact"):
            validate_ledger(payload)


class TestBuild:
    def test_build_digests_existing_artifacts(self, tmp_path):
        artifact = tmp_path / "table.txt"
        artifact.write_text("hello\n")
        ledger = build_ledger(
            name="built",
            params={"seed": 3},
            wall_seconds=0.5,
            seed=3,
            jobs=0,
            kernel=True,
            counters={"oracle.measurements": 1},
            artifacts=[artifact, tmp_path / "missing.txt"],
        )
        assert [a["path"] for a in ledger.artifacts] == ["table.txt"]
        assert ledger.artifacts[0]["bytes"] == 6
        assert len(ledger.artifacts[0]["sha256"]) == 64
        validate_ledger(ledger.to_dict())

    def test_build_stringifies_unjsonable_params(self):
        ledger = build_ledger(name="p", params={"path": object()})
        assert isinstance(ledger.params["path"], str)

    def test_git_revision_in_a_repo(self):
        info = obs_ledger.git_revision(cwd=".")
        # The test suite runs inside the repository checkout.
        if info is not None:
            assert set(info) == {"sha", "dirty"}
            assert len(info["sha"]) == 40

    def test_git_revision_outside_a_repo(self, tmp_path):
        assert obs_ledger.git_revision(cwd=tmp_path) is None

    def test_write_and_read(self, tmp_path):
        path = write_ledger(make_ledger(), tmp_path / "run.ledger.json")
        assert read_ledger(path) == make_ledger()


class TestReporting:
    def test_format_ledger_mentions_key_facts(self):
        text = format_ledger(make_ledger())
        assert "unit" in text
        assert "abc123" in text[:400] or "abc123" in text
        assert "oracle.measurements" in text

    def test_diff_shows_deltas_and_ratios(self):
        a = make_ledger(counters={"oracle.measurements": 100}, wall_seconds=2.0)
        b = make_ledger(counters={"oracle.measurements": 150}, wall_seconds=1.0)
        text = diff_ledgers(a, b)
        assert "wall_seconds" in text
        assert "oracle.measurements" in text
        assert "+50" in text
        assert "1.50x" in text

    def test_diff_handles_counters_only_on_one_side(self):
        a = make_ledger(counters={})
        b = make_ledger(counters={"kernel.calls": 5})
        text = diff_ledgers(a, b)
        assert "kernel.calls" in text


class TestEdgeCases:
    def test_unknown_future_schema_version_rejected(self):
        payload = make_ledger().to_dict()
        payload["ledger_schema_version"] = LEDGER_SCHEMA_VERSION + 7
        with pytest.raises(ResultSchemaError, match="unsupported"):
            validate_ledger(payload)

    def test_missing_key_counters_render_gracefully(self):
        # A ledger with none of the KEY_COUNTERS must still format and
        # diff — those counters are surfaced when present, never required.
        bare = make_ledger(counters={})
        assert "wall_seconds" in format_ledger(bare)
        text = diff_ledgers(bare, bare)
        assert "wall_seconds" in text
        assert "oracle.measurements" not in text

    def test_truncated_json_rejected_with_schema_error(self):
        with pytest.raises(ResultSchemaError, match="not valid JSON"):
            RunLedger.from_json('{"name": "half')


class TestVerifyArtifacts:
    def _written(self, tmp_path):
        artifact = tmp_path / "table.txt"
        artifact.write_text("rows\n")
        ledger = build_ledger(name="v", artifacts=[artifact])
        return artifact, ledger

    def test_intact_artifacts_verify_clean(self, tmp_path):
        _, ledger = self._written(tmp_path)
        assert obs_ledger.verify_artifacts(ledger, tmp_path) == []

    def test_digest_mismatch_detected(self, tmp_path):
        artifact, ledger = self._written(tmp_path)
        artifact.write_text("rows\ntampered\n")
        problems = obs_ledger.verify_artifacts(ledger, tmp_path)
        assert len(problems) == 1
        assert problems[0][0] == "table.txt"
        assert "digest mismatch" in problems[0][1]

    def test_missing_artifact_flagged(self, tmp_path):
        artifact, ledger = self._written(tmp_path)
        artifact.unlink()
        assert obs_ledger.verify_artifacts(ledger, tmp_path) == [
            ("table.txt", "missing")
        ]


COMMITTED_LEDGERS = sorted(
    (Path(__file__).parent.parent / "benchmarks" / "results").glob("*.ledger.json")
)


@pytest.mark.parametrize("path", COMMITTED_LEDGERS, ids=lambda path: path.name)
def test_committed_ledgers_verify(path):
    """Every committed ledger's artifacts exist beside it, digests intact."""
    ledger = obs_ledger.read_ledger(path)
    assert obs_ledger.verify_artifacts(ledger, path.parent) == []


class TestValidatorCli:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = write_ledger(make_ledger(), tmp_path / "ok.ledger.json")
        assert obs_ledger.main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ledger.json"
        path.write_text(json.dumps({"name": "x"}))
        assert obs_ledger.main([str(path)]) == 1

    def test_no_arguments_exits_two(self, capsys):
        assert obs_ledger.main([]) == 2

    def test_verify_flag_catches_tampered_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "table.txt"
        artifact.write_text("rows\n")
        ledger = build_ledger(name="v", artifacts=[artifact])
        path = write_ledger(ledger, tmp_path / "v.ledger.json")
        assert obs_ledger.main(["--verify", str(path)]) == 0
        artifact.write_text("tampered\n")
        assert obs_ledger.main(["--verify", str(path)]) == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_module_round_trip(self, tmp_path):
        # A ledger written by the library validates through the module
        # entry point exactly as CI invokes it.
        import os
        import subprocess
        import sys

        import repro

        path = write_ledger(make_ledger(), tmp_path / "run.ledger.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.ledger", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    @pytest.mark.parametrize("module", ["repro.obs.ledger", "repro.obs.result"])
    def test_module_entry_points_run_clean(self, tmp_path, module):
        # The package must not import the module before runpy runs it
        # (that double import is a RuntimeWarning, fatal under -W error).
        import os
        import subprocess
        import sys

        import repro
        from repro.obs.result import ExperimentResult

        if module == "repro.obs.ledger":
            path = write_ledger(make_ledger(), tmp_path / "run.ledger.json")
        else:
            path = tmp_path / "run.metrics.json"
            path.write_text(ExperimentResult(name="run", params={}, data={}).to_json())
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
