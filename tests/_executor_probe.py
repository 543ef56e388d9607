"""Importable toy scenario for executor tests.

Lives in its own module (not the test file) so sweep workers -- pool
children and ``tfrc-sweep-worker`` subprocesses alike -- can import it by
name to populate the scenario registry.  The scenario is deterministic in
the spec, supports an execution side-channel (``extra.touch_dir``: one
uniquely named file is created per actual execution, letting tests count
how many times a cell really ran), and can be made to fail on a chosen
grid value (``extra.boom == extra.x``), while a file exists
(``extra.boom_file``) or exactly once (``extra.boom_once``: the execution
that finds the file deletes it and fails).
"""

import os
import uuid

from repro.scenarios import register_scenario


@register_scenario("executor_probe")
def executor_probe(spec):
    extra = spec.extra
    x = extra["x"]
    touch_dir = extra.get("touch_dir")
    if touch_dir:
        os.makedirs(touch_dir, exist_ok=True)
        marker = os.path.join(touch_dir, f"x{x}-{uuid.uuid4().hex}")
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
    if extra.get("boom") == x:
        raise RuntimeError(f"probe exploded on x={x}")
    boom_file = extra.get("boom_file")
    if boom_file and os.path.exists(boom_file):
        raise RuntimeError(f"probe exploded on boom_file for x={x}")
    boom_once = extra.get("boom_once")
    if boom_once and os.path.exists(boom_once):
        os.unlink(boom_once)
        raise RuntimeError(f"probe exploded once on x={x}")
    if extra.get("interrupt") == x:
        raise KeyboardInterrupt(f"probe interrupted on x={x}")
    sleep_for = extra.get("sleep")
    if sleep_for:
        import time

        time.sleep(float(sleep_for))
    return {
        "x": x,
        "seed": spec.seed,
        "product": spec.seed * x,
        "duration": spec.duration,
    }
