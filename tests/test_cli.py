import subprocess
import sys

import pytest

import helpers
import oracle
from deladas import cli, ddd, model

RES = str(helpers.SAMPLES / "resources.deladas")
CONS = str(helpers.SAMPLES / "constraints.deladas")
PINS = str(helpers.SAMPLES / "example-deployment.xml")


@pytest.fixture
def three_host_resources(tmp_path):
    text = "\n".join(helpers.RESOURCES_TEXT.splitlines()[:11]) + "\n"
    path = tmp_path / "res3.deladas"
    path.write_text(text)
    return str(path)


class TestParseCommand:
    def test_ok(self, capsys):
        assert cli.main(["parse", RES]) == 0
        out = capsys.readouterr().out
        assert "components: 2" in out
        assert "hosts: 6" in out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.deladas"
        bad.write_text("component (")
        assert cli.main(["parse", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_one(self):
        assert cli.main(["parse", "/no/such/file.deladas"]) == 1


class TestSatisfyCommand:
    def test_writes_solutions(self, tmp_path, capsys):
        out_dir = tmp_path / "solutions"
        code = cli.main(["satisfy", "-r", RES, "-c", CONS,
                         "--limit", "2", "-o", str(out_dir)])
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["solution-0.xml", "solution-1.xml"]
        summary = capsys.readouterr().out
        assert "placement" in summary and "wiring" in summary
        assert "bound cuts" in summary and "evaluations" in summary
        doc = helpers.merged_doc()
        for name in files:
            config = ddd.from_xml((out_dir / name).read_bytes(), doc)
            assert oracle.check(config, doc.constraintset("randc"),
                                doc).satisfied

    def test_no_solutions_exits_two(self, tmp_path):
        impossible = tmp_path / "imp.deladas"
        impossible.write_text(
            "constraintset goal = constraintset {\n"
            "forall host h in deployment ("
            " card(instancesof Router in h) = 1"
            " card(instancesof Router in h) = 0 )\n}\n")
        code = cli.main(["satisfy", "-r", RES, "-c", str(impossible),
                         "-o", str(tmp_path / "out")])
        assert code == 2

    def test_pins_reproduce_example(self, tmp_path):
        out_dir = tmp_path / "pinned"
        code = cli.main(["satisfy", "-r", RES, "-c", CONS,
                         "--pins", PINS, "-o", str(out_dir)])
        assert code == 0
        data = (out_dir / "solution-0.xml").read_bytes()
        assert data == helpers.SAMPLES.joinpath("example-deployment.xml").read_bytes()

    def test_single_combined_file(self, tmp_path):
        combined = tmp_path / "all.deladas"
        combined.write_text(helpers.RESOURCES_TEXT + helpers.CONSTRAINTS_TEXT)
        code = cli.main(["satisfy", "-r", str(combined), "-c", str(combined),
                        "-o", str(tmp_path / "out")])
        assert code == 0


class TestCheckCommand:
    def test_valid_deployment(self, capsys):
        assert cli.main(["check", "-d", PINS, "-r", RES, "-c", CONS]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violations_exit_two(self, tmp_path, capsys):
        doc = helpers.merged_doc()
        cfg = helpers.example_configuration()
        channels = [ch for ch in cfg.channels
                    if "Client@h6#0" not in (str(ch.src.instance),
                                             str(ch.dst.instance))]
        channels += helpers.client_router_pair("Client@h6#0", "Router@h3#0", 2)
        crowded = model.Configuration.build(cfg.hosts, cfg.instances, channels)
        path = tmp_path / "crowded.xml"
        path.write_bytes(ddd.to_xml(crowded, doc, "randc"))
        assert cli.main(["check", "-d", str(path), "-r", RES, "-c", CONS]) == 2
        out = capsys.readouterr().out
        assert out.splitlines() == ["constraint 2 violated (r=Router@h3#0)"]

    def test_structurally_broken_exits_one(self, tmp_path):
        data = helpers.SAMPLES.joinpath("example-deployment.xml").read_text()
        data = data.replace("Client@h1#0:in", "Client@h1#0:in[0]")
        path = tmp_path / "broken.xml"
        path.write_text(data)
        assert cli.main(["check", "-d", str(path), "-r", RES, "-c", CONS]) == 1


class TestDiffCommand:
    def test_identity_prints_nothing(self, capsys):
        assert cli.main(["diff", PINS, PINS]) == 0
        assert capsys.readouterr().out == ""

    def test_plan_lines_in_phase_order(self, tmp_path, capsys):
        doc = helpers.merged_doc()
        empty = tmp_path / "empty.xml"
        empty.write_bytes(ddd.to_xml(model.empty_on(doc.hosts), doc, "randc"))
        assert cli.main(["diff", str(empty), PINS]) == 0
        lines = capsys.readouterr().out.splitlines()
        kinds = [line.split()[0] for line in lines]
        assert kinds == sorted(kinds, key=["unwire", "terminate", "install",
                                           "instantiate", "wire"].index)
        assert kinds.count("install") == 6
        assert kinds.count("instantiate") == 6
        assert kinds.count("wire") == 10


class TestRunCommand:
    def test_process_failure_scenario(self, tmp_path):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("at 10 crash-process Router@h3#0\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert "10 amp-report h3 Router@h3#0" in lines
        assert "10 decision-restart Router@h3#0" in lines

    def test_host_failure_scenario(self, tmp_path):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("at 20 crash-host h3\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert "23 host-failure-suspected h3" in lines
        resolves = [l for l in lines if " decision-resolve " in l and "23" == l.split()[0]]
        assert resolves == ["23 decision-resolve removed=Client@h1x1"]

    def test_process_and_host_crash_in_one_tick(self, tmp_path):
        """The AMP report of a process whose host goes down in the same tick
        is left to the host's suspicion; the run ends in the goal."""
        scenario = tmp_path / "s.scenario"
        scenario.write_text("at 10 crash-process Client@h1#0\n"
                            "at 10 crash-host h3\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert "10 decision-restart Client@h1#0" in lines
        assert not any(" decision-constraint-error " in l for l in lines)
        assert any(l.startswith("13 decision-resolve ") for l in lines)

    def test_constraint_error_exits_three(self, tmp_path, three_host_resources):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("at 20 crash-host h2\nat 30 crash-host h3\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", three_host_resources, "-c", CONS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 3
        lines = trace.read_text().splitlines()
        error_at = next(i for i, l in enumerate(lines)
                        if " decision-constraint-error " in l)
        effects = [l for l in lines[error_at + 1:]
                   if l.split()[1] in ("install", "instantiate", "terminate",
                                       "wire", "unwire")]
        assert effects == []

    def test_run_is_deterministic(self, tmp_path):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("at 10 crash-process Router@h3#0\n"
                            "at 20 crash-host h3\n")
        traces = []
        for i in range(2):
            trace = tmp_path / f"trace-{i}.txt"
            code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                             "--scenario", str(scenario), "--trace", str(trace)])
            assert code == 0
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]

    def test_add_host_then_failure_uses_new_host(self, tmp_path):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("at 5 add-host h7 ipaddress=192.168.0.7\n"
                            "at 20 crash-host h3\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        # The spare host absorbs the router; no surviving pin is dropped.
        assert "23 decision-resolve removed=-" in lines
        assert any(l.startswith("23 instantiate Router@h7#0") for l in lines)

    def test_revise_removing_a_live_host_terminates_its_machines(self, tmp_path):
        smaller = tmp_path / "five.deladas"
        smaller.write_text("\n".join(
            l for l in helpers.RESOURCES_TEXT.splitlines() if "h6" not in l) + "\n")
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            f"at 30 revise constraints={CONS} resources={smaller}\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert "30 terminate Client@h6#0" in lines

    def test_revise_scenario(self, tmp_path):
        # Revising to a goal without router pairs terminates the routers.
        new_goal = tmp_path / "relaxed.deladas"
        new_goal.write_text(
            "constraintset relaxed = constraintset {\n"
            "forall host h in deployment ("
            " card(instancesof Client in h) <= 1 )\n}\n")
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            f"at 30 revise constraints={new_goal} resources={RES}\n")
        trace = tmp_path / "trace.txt"
        code = cli.main(["run", "-r", RES, "-c", CONS, "--pins", PINS,
                         "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert any(l.startswith("30 revise ") for l in lines)
        assert "30 decision-resolve removed=-" in lines


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deladas", "parse", RES],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "components: 2" in proc.stdout

    def test_import_loads_no_dataclasses_inspect_or_socket(self):
        # Each costs start-up time on every command; only serve and its
        # client need socket, and they import it when called.
        heavy = ("dataclasses", "inspect", "socket")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; before = set(sys.modules); import deladas.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules and m not in before])"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unknown_subcommand_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deladas", "explode"],
            capture_output=True, text=True)
        assert proc.returncode == 1

    def test_unknown_flag_exits_one(self):
        assert cli.main(["parse", "--bogus", RES]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "satisfy" in capsys.readouterr().out

    def test_ambiguous_constraintset_needs_set_flag(self, tmp_path):
        doubled = tmp_path / "two.deladas"
        doubled.write_text(helpers.CONSTRAINTS_TEXT
                           + helpers.CONSTRAINTS_TEXT.replace("randc", "other"))
        code = cli.main(["satisfy", "-r", RES, "-c", str(doubled),
                         "-o", str(tmp_path / "out")])
        assert code == 1
        code = cli.main(["satisfy", "-r", RES, "-c", str(doubled),
                         "--set", "other", "-o", str(tmp_path / "out")])
        assert code == 0
