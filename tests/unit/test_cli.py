"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, VERBS, _as_tables, _run_ids, build_parser, main
from repro.evalx.tables import Table


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_defaults_to_all(self):
        args = build_parser().parse_args(["experiments"])
        assert args.ids == ["all"]

    def test_report_output_flag(self):
        args = build_parser().parse_args(["report", "-o", "out.md"])
        assert args.output == "out.md"


class TestHelpers:
    def test_as_tables_single(self):
        table = Table("t", ["a"])
        assert _as_tables(table) == [table]

    def test_as_tables_tuple(self):
        tables = (Table("t1", ["a"]), Table("t2", ["b"]))
        assert _as_tables(tables) == list(tables)

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            _run_ids(["E99"])

    def test_unknown_experiment_message_lists_choices(self):
        with pytest.raises(SystemExit, match="E1.*E14.*'all'"):
            main(["experiments", "E99"])

    def test_registry_covers_e1_to_e14(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 15)}


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "correct: True" in out

    def test_experiments_e1(self, capsys):
        assert main(["experiments", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "1000" in out

    def test_experiment_id_case_insensitive(self, capsys):
        assert main(["experiments", "e1"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        # Restrict the registry so the test stays fast.
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"E1": cli.EXPERIMENTS["E1"]}
        )
        target = tmp_path / "tables.md"
        assert main(["report", "-o", str(target)]) == 0
        content = target.read_text()
        assert "| time | k |" in content or "| time" in content
        assert "Figure 2" in content


class TestObsCommand:
    ARGS = ["obs", "--users", "40", "--queries", "4"]

    def test_json_round_trips(self, capsys):
        import json

        assert main([*self.ARGS, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["server"]["queries_private_range"] == 4
        assert "query.private_range" in snapshot["stages"]
        stage = snapshot["stages"]["query.private_range"]
        assert stage["p50_ms"] <= stage["p95_ms"] <= stage["p99_ms"]
        assert snapshot["indexes"]["server.public"]["nn_queries"] >= 4

    def test_dashboard_default(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "pipeline stages" in out
        assert "anonymizer.cloak" in out

    def test_prometheus_format(self, capsys):
        assert main([*self.ARGS, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_queries_total counter" in out

    def test_json_and_prometheus_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--json", "--prometheus"])

    def test_format_flags_all_mutually_exclusive(self):
        for pair in (["--json", "--jsonl"], ["--jsonl", "--prometheus"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["obs", *pair])

    def test_unknown_flag_exits_with_code_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--no-such-flag"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_jsonl_passthrough_parses_as_events(self, capsys):
        from repro.obs.events import read_jsonl

        assert main([*self.ARGS, "--jsonl"]) == 0
        events = read_jsonl(capsys.readouterr().out.splitlines())
        assert events
        kinds = {e.kind for e in events}
        assert "cloak.result" in kinds
        assert "query.completed" in kinds

    def test_empty_telemetry_exits_nonzero(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro import PrivacySystem, PyramidCloaker, Telemetry
        from repro.geometry import Rect

        bounds = Rect(0, 0, 10, 10)

        def dark_quickstart(**_):
            return PrivacySystem(
                bounds, PyramidCloaker(bounds, height=3),
                telemetry=Telemetry(enabled=False),
            )

        monkeypatch.setattr(cli, "_observed_quickstart", dark_quickstart)
        assert main(["obs"]) == 1
        assert main(["obs", "--jsonl"]) == 1
        assert "no " in capsys.readouterr().err


class TestExplainCommand:
    def test_default_reproduces_figure_6a(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        for probability in ("probability=1", "probability=0.75", "probability=0.5",
                            "probability=0.2", "probability=0.25"):
            assert probability in out
        assert "expected=2.7" in out

    def test_json_plan_parses(self, capsys):
        import json

        assert main(["explain", "-q", "batch", "--json", "--users", "40"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["op"] == "batch"
        assert any(c["op"] == "snapshot" for c in plan["children"])

    def test_every_query_choice_renders(self, capsys):
        for query in ("public_range", "private_nn"):
            assert main(["explain", "-q", query, "--users", "40"]) == 0
            assert "index." in capsys.readouterr().out


class TestAuditCommand:
    ARGS = ["audit", "--users", "40", "--queries", "4"]

    def test_json_report_structure(self, capsys):
        import json

        assert main([*self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.obs.audit/1"
        assert report["totals"]["cloaks"] > 0
        assert report["totals"]["undeclared_violations"] == 0

    def test_text_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "privacy attainment audit" in out
        assert "profile k=8" in out

    def test_from_jsonl_round_trip(self, tmp_path, capsys):
        assert main(["obs", "--users", "40", "--queries", "4", "--jsonl"]) == 0
        trail = tmp_path / "trail.jsonl"
        trail.write_text(capsys.readouterr().out)
        assert main(["audit", "--from-jsonl", str(trail), "--json"]) == 0

    def test_empty_trail_exits_nonzero(self, tmp_path, capsys):
        trail = tmp_path / "empty.jsonl"
        trail.write_text("")
        assert main(["audit", "--from-jsonl", str(trail)]) == 1
        assert "no cloak events" in capsys.readouterr().err


class TestHealthCommand:
    ARGS = ["health", "--users", "40", "--queries", "4"]

    def test_healthy_workload_exits_0(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "== SLO health ==" in out
        assert "HEALTHY" in out
        assert "attainment" in out

    def test_json_report_structure(self, capsys):
        import json

        assert main([*self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.obs.slo/1"
        assert report["healthy"] is True
        assert report["total"] == report["ok"] == 9
        names = {result["spec"]["name"] for result in report["results"]}
        assert "answer_accuracy" in names and "plan_accuracy" not in names

    def test_custom_specs_can_fail_with_exit_4(self, tmp_path, capsys):
        import json

        specs = tmp_path / "slos.json"
        specs.write_text(
            json.dumps(
                [{"name": "impossible", "kind": "attainment_rate", "target": 1.1}]
            )
        )
        assert main([*self.ARGS, "--specs", str(specs)]) == 4
        out = capsys.readouterr().out
        assert "UNHEALTHY" in out
        assert "FAIL impossible" in out

    def test_watch_mode_bounded_iterations(self, capsys):
        # ``top`` is the one live view; every frame carries the verdict.
        assert main(["top", "--users", "40", "--queries", "4",
                     "--iterations", "2", "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("== SLO health ==") == 2
        assert "top tick 2" in out

    def test_invalid_sizes_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["health", "--users", "0"])
        assert excinfo.value.code == 2
        assert "--users" in capsys.readouterr().err


class TestEveryPaperTableHasAGenerator:
    def test_experiments_md_headings_match_the_cli_table(self):
        import re
        from pathlib import Path

        text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
        headings = set(re.findall(r"^## (E\d+)\b", text, flags=re.MULTILINE))
        assert headings == set(EXPERIMENTS)
        assert headings == {f"E{n}" for n in range(1, 15)}


class TestCheckpointRecoverCommands:
    def _run_checkpoint(self, tmp_path, capsys, users=20, queries=4):
        import json

        directory = str(tmp_path / "state")
        code = main(
            [
                "checkpoint",
                "--dir",
                directory,
                "--users",
                str(users),
                "--queries",
                str(queries),
            ]
        )
        assert code == 0
        return directory, json.loads(capsys.readouterr().out)

    def test_checkpoint_leaves_recoverable_directory(self, tmp_path, capsys):
        import json
        import os

        directory, summary = self._run_checkpoint(tmp_path, capsys)
        assert summary["users"] == 20
        assert summary["checkpoint"] in summary["checkpoints"]
        assert os.path.exists(os.path.join(directory, "wal.jsonl"))
        assert os.path.exists(os.path.join(directory, "wal-meta.json"))
        assert os.path.exists(os.path.join(directory, summary["checkpoint"]))

        assert main(["recover", "--dir", directory, "--json", "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["users"] == 20
        assert report["queries_served"] == summary["queries_served"]
        assert report["checkpoint"] == summary["checkpoint"]
        assert report["final_seq"] == summary["wal_seq"]
        assert "totals" not in report["audit"]  # already the totals dict
        assert report["audit"]["cloaks"] > 0
        assert report["audit"]["undeclared_violations"] == 0

    def test_recover_text_output(self, tmp_path, capsys):
        directory, _ = self._run_checkpoint(tmp_path, capsys)
        assert main(["recover", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert f"recovered from {directory}" in out
        assert "events replayed" in out

    def test_recover_empty_directory_exits_5(self, tmp_path, capsys):
        assert main(["recover", "--dir", str(tmp_path)]) == 5
        assert "repro recover: error:" in capsys.readouterr().err

    def test_checkpoint_rejects_tiny_population(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["checkpoint", "--dir", str(tmp_path / "s"), "--users", "1"])
        assert excinfo.value.code == 2
        assert "--users: must be at least 2" in capsys.readouterr().err


def _flags_of(verb):
    return {names[0] for names, _ in (*verb.flags, *verb.one_of)}


BAD_WORKLOAD_ARGS = [
    (verb.name, flag, value)
    for verb in VERBS
    for flag, value in (("--users", "0"), ("--queries", "-1"), ("--batch", "0"))
    if flag in _flags_of(verb)
]

#: ``(verb, file flag, file content)``: a file a verb cannot use (``None``:
#: the file does not exist).
BAD_FILES = [
    ("health", "--specs", None),
    ("health", "--specs", '{"name": "x"}'),
    ("health", "--specs", '[{"kind": "attainment_rate", "target": 0.5}]'),
    ("health", "--specs", '[{"name": "a", "kind": "attainment_rate", "target": "high"}]'),
    ("audit", "--from-jsonl", None),
]


class TestVerbTable:
    """Every row of the verb table, driven through ``main``."""

    TINY = ["--users", "40", "--queries", "4"]
    RUNS = {
        "demo": [],
        "experiments": ["E1"],
        "report": ["-o", "{tmp}/tables.md"],
        "obs": TINY,
        "explain": ["-q", "private_nn", "--users", "40"],
        "plan": ["--users", "40"],
        "audit": TINY,
        "health": TINY,
        "serve-metrics": [*TINY, "--smoke"],
        "top": [*TINY, "--iterations", "2", "--interval", "0.01"],
        "checkpoint": ["--dir", "{tmp}/state", *TINY],
        "recover": ["--dir", "{tmp}/state"],
    }

    @pytest.mark.parametrize("verb", [verb.name for verb in VERBS])
    def test_every_verb_runs_on_a_tiny_workload(
        self, verb, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        monkeypatch.setattr(cli, "EXPERIMENTS", {"E1": cli.EXPERIMENTS["E1"]})
        argv = [arg.format(tmp=tmp_path) for arg in self.RUNS[verb]]
        if verb == "recover":
            assert main(["checkpoint", "--dir", f"{tmp_path}/state", *self.TINY]) == 0
        assert main([verb, *argv]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "verb,flag,value",
        BAD_WORKLOAD_ARGS,
        ids=["_".join(case) for case in BAD_WORKLOAD_ARGS],
    )
    def test_out_of_range_workload_args_exit_2(self, verb, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "verb,flag,content",
        BAD_FILES,
        ids=["missing_specs", "non_list", "no_name", "text_target", "missing_trail"],
    )
    def test_unusable_input_file_exits_2(self, verb, flag, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        assert main([verb, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {verb}: error:")
        assert str(path) in err
        assert "Traceback" not in err
