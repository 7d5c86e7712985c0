"""Tests for the ``python -m repro run`` scenario-pricing subcommand."""

import json

import pytest

from repro.__main__ import main
from repro.api import MulticastSession, ScenarioSpec, result_from_dict


@pytest.fixture
def wired(tmp_path):
    spec = ScenarioSpec.from_random(n=6, dim=2, alpha=2.0, seed=5, side=5.0)
    (tmp_path / "spec.json").write_text(spec.to_json())
    profiles = [{str(i): 4.0 + i for i in spec.agents()},
                {str(i): 0.1 for i in spec.agents()}]
    (tmp_path / "profiles.json").write_text(json.dumps(profiles))
    return tmp_path, spec, profiles


class TestRunSubcommand:
    def test_json_round_trip(self, wired, capsys):
        tmp_path, spec, profiles = wired
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "jv",
                     "--profiles", str(tmp_path / "profiles.json"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(payload["scenario"]) == spec
        assert payload["mechanism"] == {"name": "jv", "params": {}}
        assert len(payload["results"]) == 2

        # The wire results re-hydrate to the session's own outcomes.
        session = MulticastSession(spec)
        for raw, profile in zip(payload["results"], profiles):
            wire = result_from_dict(raw)
            local = session.run("jv", {int(a): v for a, v in profile.items()})
            assert wire.receivers == local.receivers
            assert wire.shares == local.shares
            assert wire.cost == local.cost

    def test_out_file_and_table(self, wired, capsys):
        tmp_path, spec, _ = wired
        out = tmp_path / "result.json"
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "tree-shapley",
                     "--profiles", str(tmp_path / "profiles.json"),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "tree-shapley" in printed and "charged" in printed  # table mode
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1 and len(payload["results"]) == 2

    def test_single_profile_object_accepted(self, wired, capsys):
        tmp_path, spec, _ = wired
        (tmp_path / "one.json").write_text(json.dumps({"1": 9.0, "2": 9.0, "3": 9.0,
                                                       "4": 9.0, "5": 9.0}))
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "wireless",
                     "--profiles", str(tmp_path / "one.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 1

    def test_params_file(self, wired, capsys):
        tmp_path, spec, _ = wired
        (tmp_path / "params.json").write_text(json.dumps({"tree": "mst"}))
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "tree-shapley",
                     "--profiles", str(tmp_path / "profiles.json"),
                     "--params", str(tmp_path / "params.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism"]["params"] == {"tree": "mst"}

    def test_jv_profile_attributes_closure_and_tree_stages(self, wired, capsys):
        tmp_path, _, _ = wired
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "jv",
                     "--profiles", str(tmp_path / "profiles.json"),
                     "--profile", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"]  # stdout stays payload-only
        stages = {}
        for line in captured.err.splitlines():
            fields = line.split()
            if len(fields) == 5 and fields[3] == "calls":
                stages[fields[0]] = fields[4]
        # The session's one closure pass (distances + parent rows) and the
        # KMB build on it are both attributed.
        assert stages["closure"] in ("metric_closure", "metric_closure_arrays",
                                     "batched_dijkstra")
        assert stages["tree"] == "kmb_steiner_from_closure"

    def test_tree_mc_profile_attributes_the_efficient_set_dp(self, wired, capsys):
        tmp_path, _, _ = wired
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "tree-mc",
                     "--profiles", str(tmp_path / "profiles.json"),
                     "--profile", "--json"]) == 0
        stages = {}
        for line in capsys.readouterr().err.splitlines():
            fields = line.split()
            if len(fields) == 5 and fields[3] == "calls":
                stages[fields[0]] = fields[4]
        # The marginal-cost solver is the xi stage of a tree-mc run.
        assert stages["xi"] == "efficient_set_leave_one_out"
        assert stages["tree"] == "universal_tree"

    def test_unknown_mechanism_exits_2(self, wired, capsys):
        # Regression: an unknown name must never escape as a traceback —
        # exit 2 with the full available_mechanisms() catalogue on stderr.
        from repro.api import available_mechanisms

        tmp_path, _, _ = wired
        assert main(["run", "--scenario", str(tmp_path / "spec.json"),
                     "--mechanism", "nope",
                     "--profiles", str(tmp_path / "profiles.json")]) == 2
        captured = capsys.readouterr()
        assert "unknown mechanism" in captured.err  # stdout stays payload-only
        for name in available_mechanisms():
            assert name in captured.err
        assert captured.out == ""

    def test_bad_inputs_exit_2_without_traceback(self, wired, capsys, tmp_path):
        base, _, _ = wired
        # Missing scenario file.
        assert main(["run", "--scenario", str(tmp_path / "absent.json"),
                     "--mechanism", "jv",
                     "--profiles", str(base / "profiles.json")]) == 2
        # Profile naming the source station (stray agent).
        (base / "bad.json").write_text(json.dumps(
            {str(i): 1.0 for i in range(6)}))
        assert main(["run", "--scenario", str(base / "spec.json"),
                     "--mechanism", "jv",
                     "--profiles", str(base / "bad.json")]) == 2
        # Malformed JSON.
        (base / "broken.json").write_text("{not json")
        assert main(["run", "--scenario", str(base / "broken.json"),
                     "--mechanism", "jv",
                     "--profiles", str(base / "profiles.json")]) == 2
        # Profiles that parse but are not objects (list of scalars).
        (base / "scalars.json").write_text("[1, 2, 3]")
        assert main(["run", "--scenario", str(base / "spec.json"),
                     "--mechanism", "jv",
                     "--profiles", str(base / "scalars.json")]) == 2
        # Unwritable output path.
        assert main(["run", "--scenario", str(base / "spec.json"),
                     "--mechanism", "jv",
                     "--profiles", str(base / "profiles.json"),
                     "--out", str(tmp_path / "absent-dir" / "out.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 5

    def test_experiment_mode_still_works(self, capsys):
        assert main(["A3"]) == 0
        assert "EXP-A3" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [{"01": 0.0}, {"1": "50"}, {"1": True}],
                         ids=["non-canonical-key", "string-utility",
                              "bool-utility"])
def test_lax_profiles_exit_2(wired, capsys, extra):
    base, spec, _ = wired
    profile = {str(a): 50.0 for a in spec.agents()}
    profile.update(extra)
    (base / "lax.json").write_text(json.dumps(profile))
    assert main(["run", "--scenario", str(base / "spec.json"),
                 "--mechanism", "jv",
                 "--profiles", str(base / "lax.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_overflowing_bids_exit_2(wired, capsys):
    base, spec, _ = wired
    (base / "huge.json").write_text(
        json.dumps({str(a): 1e308 for a in spec.agents()}))
    assert main(["run", "--scenario", str(base / "spec.json"),
                 "--mechanism", "tree-mc",
                 "--profiles", str(base / "huge.json")]) == 2
    assert "finite total" in capsys.readouterr().err

