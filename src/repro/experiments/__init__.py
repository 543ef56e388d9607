"""Experiment harness: one module per figure of the paper's evaluation.

Every ``figNN_*`` module exposes ``run(...) -> <FigureResult dataclass>``
whose scale keywords (duration, flow counts, ...) have no defaults: each
figure's ``--quick`` and full sets are one row of
``repro.experiments.runner.FIGURES``, the CLI's table (``tfrc-experiment
fig09``).  Any further keyword of an entry point that builds a sweep
(``**sweep``) is an option of :class:`~repro.scenarios.sweep.SweepRunner`
-- ``parallel``, ``cache_dir``, ``progress``, ``executor``, ``queue_dir`` --
declared and validated there, forwarded verbatim here.
"""
