"""Scalar/vector twins: the registry, and bit identity of every pair.

A vector twin evaluates, per element, exactly the float64 arithmetic of its
scalar reference, in the same order, so the two agree bit for bit.  This
file is where that contract is kept:

* ``FUZZERS`` is the twin registry: each vector function's dotted name
  maps to its scalar reference and a seeded fuzz that compares the pair
  bit for bit over inputs that span every zone and hit every threshold
  exactly.  ``KNOWN_RUNTIME_PAIRS`` names the one pair whose bit identity
  is checked through the whole batch kernel instead
  (tests/test_vector_kernel.py): the kernel itself.
* ``TestLiveTwinRegistry`` walks ``src/repro`` with ``ast``: every
  ``*_vec`` / ``*_vector`` function (and each name in
  ``UNSUFFIXED_TWINS``) must be registered, and every registered name must
  exist, so a pair someone forgets to fuzz fails the build.
* ``TestPlantedDrift`` execs a copy of a twin's module with one mutation
  planted in the vector body and requires the pair's fuzz to fail on it.
"""

import ast
import importlib
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SEED = 20260808

#: name suffixes that mark a function as a vector twin.
TWIN_SUFFIXES = ("_vec", "_vector")

#: vector twins whose names carry no suffix.
UNSUFFIXED_TWINS = {"repro.sim.vector_kernel._WaliLanes._fold_average"}

#: vector -> scalar pairs checked only through the batch kernel's
#: grid-equivalence fuzz in tests/test_vector_kernel.py: the kernel is a
#: whole simulation loop.
KNOWN_RUNTIME_PAIRS = {
    "repro.sim.vector_kernel.run_cells_vector": (
        "repro.sim.vector_kernel.run_cell_scalar"
    ),
}


def _split_dotted(dotted: str):
    """``(module name, attribute path)`` of an importable dotted name."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        return ".".join(parts[:split]), parts[split:]
    raise ImportError(f"cannot import {dotted}")


def _lookup(namespace, attrs):
    obj = namespace
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _import_dotted(dotted: str):
    module, attrs = _split_dotted(dotted)
    return _lookup(importlib.import_module(module), attrs)


def _assert_bits_equal(scalar_value, vector_value, context: str) -> None:
    a = np.float64(scalar_value)
    b = np.float64(vector_value)
    assert a.tobytes() == b.tobytes(), (
        f"{context}: scalar {a!r} != vector {b!r} (bitwise)"
    )


# --------------------------------------------------------------- fuzz cases


def _fuzz_red_drop_probability(scalar, vector):
    from repro.net.redmath import RedParams

    rng = np.random.default_rng(SEED)
    cases = [
        RedParams(min_thresh=5.0, max_thresh=15.0),
        RedParams(min_thresh=5.0, max_thresh=15.0, gentle=False),
        RedParams(min_thresh=2.0, max_thresh=7.0, max_p=0.07, weight=0.01),
    ]
    for params in cases:
        # span every zone: below min, linear, gentle, forced, plus the
        # exact thresholds; and an all-below-max batch for the fast path.
        avg = np.concatenate([
            rng.uniform(0.0, 2.5 * params.max_thresh, size=256),
            np.array([
                params.min_thresh, params.max_thresh,
                params.two_max_thresh, 0.0,
            ]),
        ])
        out = vector(params, avg)
        for i in range(avg.size):
            _assert_bits_equal(
                scalar(params, float(avg[i])), out[i],
                f"red_drop_probability(avg={avg[i]!r})",
            )
        fast = rng.uniform(0.0, params.max_thresh * 0.999, size=64)
        fast_out = vector(params, fast)
        for i in range(fast.size):
            _assert_bits_equal(
                scalar(params, float(fast[i])), fast_out[i],
                f"red_drop_probability fast path (avg={fast[i]!r})",
            )
        # a batch with no forced drop but some averages past maxthresh:
        # the fast-path guard must not admit it.
        gentle = rng.uniform(0.0, params.two_max_thresh * 0.999, size=64)
        gentle[0] = params.max_thresh
        gentle_out = vector(params, gentle)
        for i in range(gentle.size):
            _assert_bits_equal(
                scalar(params, float(gentle[i])), gentle_out[i],
                f"red_drop_probability below 2*maxthresh (avg={gentle[i]!r})",
            )


def _fuzz_red_uniformized(scalar, vector):
    rng = np.random.default_rng(SEED + 1)
    p_b = rng.uniform(0.0, 0.3, size=256)
    count = rng.integers(-1, 60, size=256).astype(np.float64)
    # force some denominators to and past zero
    p_b[:16] = 0.5
    count[:16] = np.arange(16, dtype=np.float64)
    out = vector(p_b, count)
    for i in range(p_b.size):
        _assert_bits_equal(
            scalar(float(p_b[i]), float(count[i])), out[i],
            f"red_uniformized(p_b={p_b[i]!r}, count={count[i]!r})",
        )


def _fuzz_red_ewma(scalar, vector):
    rng = np.random.default_rng(SEED + 2)
    for weight in (0.002, 0.25, 1.0):
        avg = rng.uniform(0.0, 40.0, size=256)
        qlen = rng.uniform(0.0, 60.0, size=256)
        out = vector(weight, avg, qlen)
        for i in range(avg.size):
            _assert_bits_equal(
                scalar(weight, float(avg[i]), float(qlen[i])), out[i],
                f"red_ewma(w={weight}, avg={avg[i]!r})",
            )


def _fuzz_tcp_response_rate(scalar, vector):
    rng = np.random.default_rng(SEED + 3)
    rtt = rng.uniform(0.01, 0.5, size=256)
    p = 10.0 ** rng.uniform(-9.0, 0.0, size=256)  # spans below P_MIN too
    t_rto = 4.0 * rtt
    for packet_size in (500, 1460):
        out = vector(float(packet_size), rtt, p, t_rto)
        for i in range(rtt.size):
            _assert_bits_equal(
                scalar(packet_size, float(rtt[i]), float(p[i]),
                       float(t_rto[i])),
                out[i],
                f"tcp_response_rate(rtt={rtt[i]!r}, p={p[i]!r})",
            )


def _fuzz_wali_fold_average(scalar, vector):
    rng = np.random.default_rng(SEED + 4)
    weighted = rng.uniform(0.0, 1.0, size=(64, 8))
    values = rng.uniform(1.0, 500.0, size=(64, 8))
    weighted[:8, 4:] = 0.0  # partially filled histories
    weighted[8:12, :] = 0.0  # weightless lanes take the 0.0 branch
    with np.errstate(invalid="ignore", divide="ignore"):
        out = vector(weighted, values)
    for i in range(weighted.shape[0]):
        _assert_bits_equal(
            scalar(list(weighted[i]), list(values[i])), out[i],
            f"wali_fold_average(row={i})",
        )


def _fuzz_invert_response(scalar, vector):
    """Hypothesis-drawn lanes of one batch: each lane's target sits at or
    past the rate at ``P_MIN`` (early exit to ``P_MIN``), at or below the
    rate at ``p = 1`` (early exit to 1.0), or geometrically between them,
    so exiting lanes are masked beside lanes still bisecting."""
    from hypothesis import given, settings, strategies as st

    from repro.core.equations import P_MIN, tcp_response_rate

    lanes = st.lists(
        st.tuples(
            st.floats(0.001, 2.0),  # rtt
            st.sampled_from(("p_min", "one", "between")),
            st.floats(0.0, 1.0),  # where in the zone
        ),
        min_size=1, max_size=12,
    )

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from((500, 1000, 1460)), lanes)
    def check(packet_size, drawn):
        rtt = np.array([lane[0] for lane in drawn])
        t_rto = 4.0 * rtt
        target = np.empty_like(rtt)
        for i, (r, zone, u) in enumerate(drawn):
            top = tcp_response_rate(packet_size, r, P_MIN, 4.0 * r)
            bottom = tcp_response_rate(packet_size, r, 1.0, 4.0 * r)
            target[i] = {
                "p_min": top * (1.0 + u),
                "one": bottom * (1.0 - 0.999 * u),
                "between": bottom * (top / bottom) ** u,
            }[zone]
        out = vector(float(packet_size), rtt, target, t_rto)
        for i in range(rtt.size):
            _assert_bits_equal(
                scalar(packet_size, float(rtt[i]), float(target[i]),
                       float(t_rto[i])),
                out[i],
                f"invert_response(rtt={rtt[i]!r}, target={target[i]!r})",
            )

    check()


#: the twin registry: vector dotted name -> (scalar dotted name, fuzz).
FUZZERS = {
    "repro.net.redmath.red_drop_probability_vec": (
        "repro.net.redmath.red_drop_probability",
        _fuzz_red_drop_probability,
    ),
    "repro.net.redmath.red_uniformized_vec": (
        "repro.net.redmath.red_uniformized", _fuzz_red_uniformized,
    ),
    "repro.net.redmath.red_ewma_vec": (
        "repro.net.redmath.red_ewma", _fuzz_red_ewma,
    ),
    "repro.core.equations.tcp_response_rate_vec": (
        "repro.core.equations.tcp_response_rate", _fuzz_tcp_response_rate,
    ),
    "repro.sim.vector_kernel._WaliLanes._fold_average": (
        "repro.core.loss_intervals.wali_fold_average",
        _fuzz_wali_fold_average,
    ),
    "repro.core.equations.invert_response_vec": (
        "repro.core.equations.invert_response", _fuzz_invert_response,
    ),
}


# ------------------------------------------------------------ the registry


def _qualnames(body, prefix=""):
    """Qualified names of every function defined in ``body``, nested ones
    and methods included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
            yield from _qualnames(node.body, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _qualnames(node.body, prefix + node.name + ".")


def _vector_functions(src_root: Path) -> set:
    """Dotted names of the vector twins defined under ``src_root/repro``."""
    found = set()
    for path in sorted((src_root / "repro").rglob("*.py")):
        parts = path.relative_to(src_root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qual in _qualnames(tree.body):
            dotted = f"{module}.{qual}"
            if qual.endswith(TWIN_SUFFIXES) or dotted in UNSUFFIXED_TWINS:
                found.add(dotted)
    return found


def _registry_drift(src_root: Path):
    """``(unregistered, stale)``: vector twins missing from the registry,
    and registry entries naming no function in the tree."""
    found = _vector_functions(src_root)
    registered = set(FUZZERS) | set(KNOWN_RUNTIME_PAIRS)
    return sorted(found - registered), sorted(registered - found)


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src" / "repro", src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return src


class TestLiveTwinRegistry:
    def test_every_vector_function_is_registered(self):
        unregistered, stale = _registry_drift(REPO_ROOT / "src")
        assert unregistered == [], (
            "vector twins without a registry entry; add each to FUZZERS "
            "with its scalar reference and a bit-equality fuzz"
        )
        assert stale == [], "registry entries name functions that are gone"

    def test_registered_names_resolve(self):
        assert not set(FUZZERS) & set(KNOWN_RUNTIME_PAIRS)
        pairs = [(v, s) for v, (s, _) in FUZZERS.items()]
        pairs += list(KNOWN_RUNTIME_PAIRS.items())
        for vector, scalar in pairs:
            assert callable(_import_dotted(vector)), vector
            assert callable(_import_dotted(scalar)), scalar

    def test_unregistered_vector_function_fails(self, tmp_path):
        src = _copy_src(tmp_path)
        (src / "repro/net/extra.py").write_text(
            '"""Mentions def ghost_vec(x) only in prose."""\n\n\n'
            "class Lanes:\n"
            "    def step_vector(self, x):\n"
            "        return x\n\n\n"
            "def helper_vec(x):\n"
            "    return x\n",
            encoding="utf-8",
        )
        assert _registry_drift(src) == (
            ["repro.net.extra.Lanes.step_vector", "repro.net.extra.helper_vec"],
            [],
        )

    def test_stale_registry_entry_fails(self, tmp_path):
        src = _copy_src(tmp_path)
        kernel = src / "repro/sim/vector_kernel.py"
        text = kernel.read_text(encoding="utf-8")
        kernel.write_text(
            text.replace("def _fold_average(", "def _fold_mean("),
            encoding="utf-8",
        )
        redmath = src / "repro/net/redmath.py"
        text = redmath.read_text(encoding="utf-8")
        redmath.write_text(
            text.replace("def red_ewma_vec(", "def red_ewma_lanes_vec("),
            encoding="utf-8",
        )
        assert _registry_drift(src) == (
            ["repro.net.redmath.red_ewma_lanes_vec"],
            [
                "repro.net.redmath.red_ewma_vec",
                "repro.sim.vector_kernel._WaliLanes._fold_average",
            ],
        )


class TestLiveTwinCongruence:
    @pytest.mark.parametrize("vector_dotted", sorted(FUZZERS))
    def test_congruence_clean_pair_is_bit_identical(self, vector_dotted):
        scalar_dotted, fuzz = FUZZERS[vector_dotted]
        fuzz(_import_dotted(scalar_dotted), _import_dotted(vector_dotted))


# ------------------------------------------------------------ planted drift

#: (id, vector twin, text in its body, replacement).  Each text occurs once
#: in the module, inside the vector body, so the scalar stays as it is.
PLANTED = [
    (
        "red_drop-operand-reorder",
        "repro.net.redmath.red_drop_probability_vec",
        "    mid = (avg - params.min_thresh) / params.thresh_range"
        " * params.max_p",
        "    mid = (avg - params.min_thresh) * params.max_p"
        " / params.thresh_range",
    ),
    (
        "red_drop-reciprocal-multiply",
        "repro.net.redmath.red_drop_probability_vec",
        "        gentle_zone = (\n"
        "            params.max_p\n"
        "            + (avg - params.max_thresh) / params.max_thresh",
        "        gentle_zone = (\n"
        "            params.max_p\n"
        "            + (avg - params.max_thresh) * (1.0 / params.max_thresh)",
    ),
    (
        "red_drop-fast-path-guard",
        "repro.net.redmath.red_drop_probability_vec",
        "    if below_max.all():",
        "    if (avg < params.two_max_thresh).all():",
    ),
    (
        "red_uniformized-reciprocal-form",
        "repro.net.redmath.red_uniformized_vec",
        "        ratio = p_b / denom",
        "        ratio = 1.0 / (1.0 / p_b - count)",
    ),
    (
        "red_uniformized-clamp-dropped",
        "repro.net.redmath.red_uniformized_vec",
        "np.where(denom <= 0.0, 1.0, np.minimum(1.0, ratio))",
        "np.where(denom <= 0.0, 1.0, ratio)",
    ),
    (
        "red_ewma-lerp-form",
        "repro.net.redmath.red_ewma_vec",
        "occupancies.\"\"\"\n    return avg + weight * (qlen - avg)",
        "occupancies.\"\"\"\n    return (1.0 - weight) * avg + weight * qlen",
    ),
    (
        "red_ewma-float32",
        "repro.net.redmath.red_ewma_vec",
        "occupancies.\"\"\"\n    return avg + weight * (qlen - avg)",
        "occupancies.\"\"\"\n"
        "    return (avg + weight * (qlen - avg)).astype(np.float32)",
    ),
    (
        "tcp_response_rate-reassociated",
        "repro.core.equations.tcp_response_rate_vec",
        "    term_rto = t_rto * (3.0 * np.sqrt(3.0 * p / 8.0))",
        "    term_rto = t_rto * 3.0 * np.sqrt(3.0 * p / 8.0)",
    ),
    (
        "tcp_response_rate-exp-log-sqrt",
        "repro.core.equations.tcp_response_rate_vec",
        "    term_rtt = rtt * np.sqrt(2.0 * p / 3.0)",
        "    term_rtt = rtt * np.exp(0.5 * np.log(2.0 * p / 3.0))",
    ),
    (
        "tcp_response_rate-p_min-clamp-dropped",
        "repro.core.equations.tcp_response_rate_vec",
        "    p = np.maximum(p, P_MIN)\n    term_rtt",
        "    term_rtt",
    ),
    (
        "invert_response-stopping-rule-unscaled",
        "repro.core.equations.invert_response_vec",
        "INVERT_TOLERANCE * np.maximum(1.0, hi)",
        "INVERT_TOLERANCE * hi",
    ),
    (
        "wali_fold-np-sum",
        "repro.sim.vector_kernel._WaliLanes._fold_average",
        "        total = terms[:, 0] + terms[:, 1]\n"
        "        total_weight = weighted[:, 0] + weighted[:, 1]\n"
        "        for j in range(2, WALI_N):\n"
        "            total += terms[:, j]\n"
        "            total_weight += weighted[:, j]\n",
        "        total = np.sum(terms, axis=1)\n"
        "        total_weight = np.sum(weighted, axis=1)\n",
    ),
    (
        "wali_fold-right-fold",
        "repro.sim.vector_kernel._WaliLanes._fold_average",
        "        for j in range(2, WALI_N):\n            total += terms[:, j]",
        "        for j in range(WALI_N - 1, 1, -1):\n"
        "            total += terms[:, j]",
    ),
]


def _planted_twin(monkeypatch, vector_dotted: str, old: str, new: str):
    """The vector twin from a copy of its module with ``old`` (which must
    occur exactly once) replaced by ``new``."""
    module_name, attrs = _split_dotted(vector_dotted)
    path = Path(importlib.import_module(module_name).__file__)
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"planting failed: {text.count(old)} matches"
    planted = types.ModuleType(f"planted_{path.stem}")
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, planted.__name__, planted)
    exec(compile(text.replace(old, new), str(path), "exec"), planted.__dict__)
    return _lookup(planted, attrs)


class TestPlantedDrift:
    @pytest.mark.parametrize(
        "vector_dotted, old, new",
        [row[1:] for row in PLANTED],
        ids=[row[0] for row in PLANTED],
    )
    def test_fuzz_catches_planted_drift(self, monkeypatch, vector_dotted,
                                        old, new):
        scalar_dotted, fuzz = FUZZERS[vector_dotted]
        vector = _planted_twin(monkeypatch, vector_dotted, old, new)
        with pytest.raises(AssertionError, match="bitwise"):
            with np.errstate(all="ignore"):
                fuzz(_import_dotted(scalar_dotted), vector)

    @pytest.mark.parametrize("vector_dotted", [
        "repro.net.redmath.red_drop_probability_vec",
        "repro.core.equations.tcp_response_rate_vec",
        "repro.sim.vector_kernel._WaliLanes._fold_average",
    ])
    def test_unmutated_copy_passes(self, monkeypatch, vector_dotted):
        """The exec'd copy itself is faithful: only the planted text fails."""
        scalar_dotted, fuzz = FUZZERS[vector_dotted]
        name = vector_dotted.rsplit(".", 1)[1]
        vector = _planted_twin(
            monkeypatch, vector_dotted, f"def {name}(", f"def {name}("
        )
        fuzz(_import_dotted(scalar_dotted), vector)
