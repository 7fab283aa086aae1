"""CLI smoke tests (each command exercised end to end, small scale)."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_named(self):
        from repro import experiments
        assert set(EXPERIMENTS) == set(experiments.EXPERIMENT_MODULES)
        for cli_name in EXPERIMENTS:
            module = experiments.EXPERIMENT_MODULES[cli_name]
            assert hasattr(module, "run"), cli_name
            assert hasattr(module, "units"), cli_name
            assert hasattr(module, "CAMPAIGN"), cli_name

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_after_subcommand(self):
        args = build_parser().parse_args(["info", "--scale", "0.5"])
        assert args.scale == 0.5

    @pytest.mark.parametrize("argv, message", [
        (["campaign", "table2", "--scale", "0"], "positive"),
        (["campaign", "table2", "--scale", "-1"], "positive"),
        (["info", "--scale", "nan"], "positive"),
        (["info", "--scale", "big"], "not a number"),
        (["fetch", "idea", "--loss", "1.5"], "[0, 1]"),
        (["campaign", "--loss", "-0.1"], "[0, 1]"),
    ])
    def test_bad_numbers_exit_2_with_a_message(self, argv, message,
                                               capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "PBW corpus" in out
        assert "airtel" in out and "mtnl" in out

    def test_experiment_tcpip(self, capsys):
        assert main(["experiment", "tcpip", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "TCP/IP filtering test" in out
        assert "none (as in paper)" in out

    def test_experiment_dns_mechanism(self, capsys):
        assert main(["experiment", "dns-mechanism", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "poisoning" in out
        assert "injection" in out

    def test_fetch_censored_default_domain(self, capsys):
        # Idea has near-total coverage: a censored site always exists.
        assert main(["fetch", "idea", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "BLOCK PAGE" in out or "no response" in out
        assert "manual verification: censored=True" in out

    def test_fetch_clean_domain(self, capsys):
        assert main(["fetch", "nkn", "--scale", "0.12"]) in (0, 1)

    def test_evade(self, capsys):
        assert main(["evade", "idea", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "host-value-whitespace" in out
        assert "[OK ]" in out

    def test_trace(self, capsys):
        assert main(["trace", "idea", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "middlebox at hop" in out

    def test_fuzz_small_campaign(self, capsys, tmp_path):
        run_dir = str(tmp_path / "fuzz")
        assert main(["fuzz", "--seed", "7", "--iterations", "15",
                     "--run-dir", run_dir]) == 0
        out = capsys.readouterr().out
        assert "total findings: 0" in out
        assert "fuzz-journal.jsonl" in out

    def test_fuzz_single_target_and_resume(self, capsys, tmp_path):
        run_dir = str(tmp_path / "fuzz")
        assert main(["fuzz", "--seed", "7", "--iterations", "10",
                     "--target", "http", "--run-dir", run_dir]) == 0
        # Resuming a finished campaign re-runs nothing and stays green.
        assert main(["fuzz", "--seed", "7", "--iterations", "10",
                     "--target", "http", "--run-dir", run_dir,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed at 10" in out

    def test_fuzz_journal_echo(self, capsys, tmp_path):
        run_dir = str(tmp_path / "fuzz")
        assert main(["fuzz", "--seed", "3", "--iterations", "5",
                     "--target", "dns", "--run-dir", run_dir,
                     "--journal"]) == 0
        out = capsys.readouterr().out
        assert '"type":"meta"' in out
        assert '"type":"end"' in out


class TestCampaignCli:
    """The campaign CLI's resume ergonomics: every hint it prints must
    work verbatim when pasted back."""

    def _run(self, run_dir):
        return main(["campaign", "tcpip", "--scale", "0.05",
                     "--seed", "7", "--run-dir", run_dir])

    def test_existing_run_dir_hint_matches_cli(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FRACTION", "1.0")
        run_dir = str(tmp_path / "run")
        assert self._run(run_dir) == 0
        with pytest.raises(SystemExit) as exc:
            self._run(run_dir)
        message = str(exc.value)
        assert (f"continue it with repro campaign --resume {run_dir}"
                in message)
        assert "or choose a fresh run directory" in message

    def test_bare_resume_adopts_journal_settings(self, capsys,
                                                 tmp_path,
                                                 monkeypatch):
        """The printed hint is flagless — resume must adopt seed,
        scale, experiments, … from the journal meta."""
        monkeypatch.setenv("REPRO_BENCH_FRACTION", "1.0")
        run_dir = str(tmp_path / "run")
        assert self._run(run_dir) == 0
        capsys.readouterr()
        assert main(["campaign", "--resume", run_dir]) == 0

    def test_explicit_conflicting_flag_still_rejected(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        """Adoption covers omitted flags only: typing a conflicting
        value must still fail the meta check."""
        monkeypatch.setenv("REPRO_BENCH_FRACTION", "1.0")
        run_dir = str(tmp_path / "run")
        assert self._run(run_dir) == 0
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--resume", run_dir, "--seed", "8"])
        assert "seed" in str(exc.value)


class TestServeParser:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--host", "127.0.0.1", "--port", "0",
             "--spool", "s", "--workers", "3",
             "--tenant", "alice:2:2:4", "--tenant", "bob",
             "--default-workers", "2", "--cold-worlds"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.tenant == ["alice:2:2:4", "bob"]
        assert args.cold_worlds is True

    def test_bad_tenant_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--tenant", "bad:spec:zero:0"])

    def test_bad_workers_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--workers", "0"])
