"""``tfrc-experiment`` without ``--parallel`` uses the CPUs it is given.

The CLI resolves a missing ``--parallel`` to ``available_cpus()`` and always
forwards it, so a cold figure runs its cells side by side; ``SweepRunner``
keeps ``parallel=1`` for library callers.  The default may change speed and
nothing else: same stdout, same cache bytes, same stderr, and no process is
forked where there is one CPU or the user typed ``--parallel 1``.

CI runs this file a second time under ``taskset -c 0``, which is what
:func:`test_bare_cli_on_the_real_cpu_count` is for.
"""

import os

import pytest

from repro.experiments import runner
from repro.scenarios import ScenarioSpec, SweepRunner, available_cpus, executors


class _Received(Exception):
    """Raised in place of ``SweepRunner.__init__``; carries its options."""


class _PoolStarted(Exception):
    """Raised in place of constructing a ``ProcessPoolExecutor``."""


def _give_cpus(monkeypatch, count):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def _received_options(monkeypatch, argv):
    """What the first ``SweepRunner`` of ``main(argv)`` is built with."""

    def capture(self, *args, **sweep):
        raise _Received(sweep)

    monkeypatch.setattr(SweepRunner, "__init__", capture)
    with pytest.raises(_Received) as caught:
        runner.main(argv)
    return caught.value.args[0]


def _forbid_the_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise _PoolStarted

    monkeypatch.setattr(executors, "ProcessPoolExecutor", refuse)


def _cache_files(cache_dir):
    return {path.name: path.read_bytes() for path in sorted(cache_dir.iterdir())}


# ------------------------------------------------- (a) what SweepRunner gets


def test_default_is_the_affinity_count(monkeypatch):
    _give_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # affinity wins
    assert _received_options(monkeypatch, ["fig19"])["parallel"] == 3


@pytest.mark.parametrize("cpu_count, expected", [(5, 5), (None, 1)])
def test_default_without_sched_getaffinity_is_cpu_count(
    monkeypatch, cpu_count, expected
):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert available_cpus() == expected
    assert _received_options(monkeypatch, ["fig19"])["parallel"] == expected


def test_an_explicit_parallel_means_what_it_meant(monkeypatch):
    _give_cpus(monkeypatch, 3)
    assert _received_options(
        monkeypatch, ["fig19", "--parallel", "7"]
    )["parallel"] == 7


def test_queue_executor_defaults_to_one_local_worker_per_cpu(
    monkeypatch, tmp_path
):
    _give_cpus(monkeypatch, 3)
    queue = ["fig19", "--executor", "queue", "--queue-dir", str(tmp_path)]
    assert _received_options(monkeypatch, queue)["executor"].local_workers == 3
    # 0 still means "externally started workers only".
    assert _received_options(
        monkeypatch, queue + ["--parallel", "0"]
    )["executor"].local_workers == 0


def test_the_library_default_is_unchanged(monkeypatch):
    _give_cpus(monkeypatch, 8)
    assert SweepRunner(ScenarioSpec("fig20_halving")).parallel == 1


# ------------------------------------------------------ (b) nothing is forked


@pytest.mark.parametrize(
    "cpus, argv",
    [(1, ["fig20", "--quick"]), (4, ["fig20", "--quick", "--parallel", "1"])],
    ids=["one-cpu", "explicit-parallel-1"],
)
def test_in_process_paths_never_construct_a_pool(monkeypatch, capsys, cpus, argv):
    _give_cpus(monkeypatch, cpus)
    _forbid_the_pool(monkeypatch)
    assert runner.main(argv) == 0
    assert "Figure 21" in capsys.readouterr().out


def test_two_cpus_and_two_cells_do_construct_it(monkeypatch):
    """The control for the test above: the patch sits where the pool starts."""
    _give_cpus(monkeypatch, 2)
    _forbid_the_pool(monkeypatch)
    with pytest.raises(_PoolStarted):
        runner.main(["fig20", "--quick"])


def test_bare_cli_on_the_real_cpu_count(monkeypatch, capsys):
    """No patched CPU count: under ``taskset -c 0`` nothing may fork."""
    if hasattr(os, "sched_getaffinity"):
        assert available_cpus() == len(os.sched_getaffinity(0))
    _forbid_the_pool(monkeypatch)
    if available_cpus() == 1:
        assert runner.main(["fig20", "--quick"]) == 0
    else:
        with pytest.raises(_PoolStarted):
            runner.main(["fig20", "--quick"])


# ------------------------------------------- (c) same stdout, same cache bytes


@pytest.mark.parametrize("figure", ["fig03", "fig20"])
def test_default_changes_no_byte(monkeypatch, capsys, tmp_path, figure):
    _give_cpus(monkeypatch, 2)
    runs = {}
    for label, flags in [
        ("parallel-1", ["--parallel", "1"]),
        ("default", []),
        ("parallel-2", ["--parallel", "2"]),
    ]:
        cache_dir = tmp_path / label
        argv = [figure, "--quick", "--cache", str(cache_dir)] + flags
        assert runner.main(argv) == 0
        captured = capsys.readouterr()
        runs[label] = (captured.out, _cache_files(cache_dir))
        pooled = " on pool x2 " in captured.err
        assert pooled == (label != "parallel-1"), captured.err
    stdout, files = runs["parallel-1"]
    assert stdout.strip() and files
    assert runs["default"] == (stdout, files)
    assert runs["parallel-2"] == (stdout, files)


# ------------------------------------------------------ (d), (e) the CLI edge


def test_parallel_zero_is_still_only_for_the_queue_executor(capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner.main(["fig20", "--quick", "--parallel", "0"])
    assert exit_info.value.code == 2
    assert "--parallel must be >= 1" in capsys.readouterr().err


def test_progress_lines_follow_what_the_user_typed(monkeypatch, capsys, tmp_path):
    _give_cpus(monkeypatch, 2)
    assert runner.main(["fig20", "--quick"]) == 0
    bare = capsys.readouterr()
    assert bare.err == ""
    assert runner.main(["fig20", "--quick", "--cache", str(tmp_path)]) == 0
    cached = capsys.readouterr()
    assert cached.out == bare.out
    assert "[sweep 1/1]" in cached.err and "[sweep 2/2]" in cached.err
    assert "[sweep] 2 cells: 0 cached, 2 run on pool x2 in " in cached.err
