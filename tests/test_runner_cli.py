"""Tests for the experiment runner CLI."""

import pytest

from repro.experiments import runner


class TestRunnerCli:
    def test_all_known_experiments_registered(self):
        expected = {
            "fig02", "fig03", "fig05", "fig06", "fig08", "fig09", "fig11",
            "fig14", "fig15", "fig16", "fig18", "fig19", "fig20",
        }
        assert set(runner.FIGURES) == expected

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["fig99"])

    def test_fig20_quick_runs(self, capsys):
        assert runner.main(["fig20", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 20" in out
        assert "Figure 21" in out

    def test_fig05_quick_runs(self, capsys):
        assert runner.main(["fig05", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "rate x1.0" in out

    def test_fig05_plot_renders_chart(self, capsys):
        assert runner.main(["fig05", "--quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5: loss-event fraction" in out
        assert "y=x" in out
        # Chart frame characters present.
        assert "|" in out and "---" in out

    def test_fig20_plot_renders_chart(self, capsys):
        assert runner.main(["fig20", "--quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Fig 21: response to persistent congestion" in out

    def test_executor_flag_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(["fig20", "--quick", "--executor", "queue"])
        with pytest.raises(SystemExit):
            runner.main(["fig20", "--quick", "--queue-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            runner.main(["fig20", "--quick", "--parallel", "0"])
        with pytest.raises(SystemExit):
            runner.main(["fig20", "--quick", "--executor", "ring"])

    @pytest.mark.parametrize(
        "under", [False, True], ids=["file", "under-file"]
    )
    @pytest.mark.parametrize("flag", ["--cache", "--queue-dir"])
    def test_file_where_a_directory_goes_exits_2(
        self, tmp_path, capsys, flag, under
    ):
        """A file (or a path under one) given as a directory used to die
        in a FileExistsError / NotADirectoryError traceback."""
        afile = tmp_path / "afile"
        afile.write_text("")
        path = str(afile / "sub" if under else afile)
        argv = ["fig20", "--quick", flag, path]
        if flag == "--queue-dir":
            argv += ["--executor", "queue", "--parallel", "0"]
        with pytest.raises(SystemExit) as excinfo:
            runner.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {path!r}" in err
        assert "is not a directory" in err and "Traceback" not in err

    def test_fig05_explicit_serial_executor(self, capsys):
        assert runner.main(["fig05", "--quick", "--executor", "serial"]) == 0
        assert "rate x1.0" in capsys.readouterr().out

    def test_queue_robustness_flag_validation(self, tmp_path):
        base = [
            "fig20", "--quick",
            "--executor", "queue", "--queue-dir", str(tmp_path),
        ]
        with pytest.raises(SystemExit):
            runner.main(base + ["--lease-timeout", "0"])
        with pytest.raises(SystemExit):
            runner.main(base + ["--max-attempts", "0"])
        with pytest.raises(SystemExit):
            runner.main(base + ["--on-poison", "explode"])

    def test_queue_robustness_flags_reach_the_executor(self, tmp_path, capsys):
        assert (
            runner.main([
                "fig20", "--quick",
                "--executor", "queue",
                "--queue-dir", str(tmp_path / "queue"),
                "--parallel", "1",
                "--cache", str(tmp_path / "cache"),
                "--lease-timeout", "45",
                "--max-attempts", "5",
                "--on-poison", "quarantine",
            ])
            == 0
        )
        assert "RTTs to halve" in capsys.readouterr().out

    def test_fig20_queue_executor_matches_serial(self, tmp_path, capsys):
        assert runner.main(["fig20", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            runner.main([
                "fig20", "--quick",
                "--executor", "queue",
                "--queue-dir", str(tmp_path / "queue"),
                "--parallel", "1",
                "--cache", str(tmp_path / "cache"),
            ])
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "[sweep" in captured.err  # progress lines per finished cell
