"""The allowed rate changes in exactly one place, a TCP window in one set of
transitions, and flows are wired in one.

``PacedSender._set_rate`` is the only function under ``core/`` and
``baselines/`` that assigns ``self.rate`` after construction, touches ``rate_history``, emits the tracer ``"rate"`` record
or applies the ``packet_size / T_MBI`` floor (which only the
``PacedSender.min_rate`` property computes); ``net.flow.Flow`` is the only
class that connects ports and defines ``start(at)``.  A second site for any
of these means a sender or a ``*Flow`` has grown its own copy of the
mechanism again -- and that a rate decision can escape the choke point the
protocol event stream (ROADMAP 2b) hangs on.  Likewise the rate *rule*:
no method calls ``tcp_response_rate``; TFRC and TFRCP take every rate from
``core/sender.py``'s pure ``rate_step``.

Under ``tcp/`` the same holds for windows: ``TCPSender._set_cwnd`` is the
only ``self.cwnd`` write after construction, ``snd_nxt`` moves only in
``_send_new`` and ``_go_back_n``, and recovery is entered only in
``_enter_recovery``.
"""

import ast
from pathlib import Path

REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
SENDER_PACKAGES = ("core", "baselines")
FLOW_PACKAGES = SENDER_PACKAGES + ("tcp", "net")


def _functions(packages, root=REPRO):
    """``(label, FunctionDef, enclosing class name)`` for every method."""
    for package in packages:
        modules = sorted((root / package).glob("*.py"))
        assert modules, f"nothing to scan under {root / package}"
        for path in modules:
            tree = ast.parse(path.read_text(), str(path))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        yield f"{package}/{path.name}:{node.name}", node, cls.name


def _sites(predicate, packages=SENDER_PACKAGES, root=REPRO):
    """The methods under ``packages``, constructors aside, with a matching
    node (once per match)."""
    return [
        label
        for label, function, _ in _functions(packages, root)
        if function.name != "__init__"
        for node in ast.walk(function)
        if predicate(node)
    ]


def _is_self_attr(expr, attr):
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == attr
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _assignment_targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _assigns(attr):
    return lambda node: any(
        _is_self_attr(target, attr) for target in _assignment_targets(node)
    )


def _calls(method):
    return lambda node: (
        isinstance(node, ast.Call) and getattr(node.func, "attr", "") == method
    )


def _calls_function(name):
    """A call of ``name`` bare or through a module (``equations.name``)."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", ""), getattr(node.func, "attr", ""),
    )


def _enters_recovery(node):
    return (
        _assigns("in_recovery")(node)
        and isinstance(node.value, ast.Constant)
        and node.value.value is True
    )


def _traces_rate(node):
    return (
        _calls("record")(node)
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "rate"
    )


#: ``Packet(flow_id, seq, size, ptype, ...)``: where a positional ptype sits.
PTYPE_POSITION = 3


def _builds_data_packet(node):
    """A ``Packet(...)`` call whose ptype, by keyword, by position or by
    default, is ``PacketType.DATA``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Packet"):
        return False
    ptype = next((kw.value for kw in node.keywords if kw.arg == "ptype"), None)
    if ptype is None and len(node.args) > PTYPE_POSITION:
        ptype = node.args[PTYPE_POSITION]
    return ptype is None or getattr(ptype, "attr", "") == "DATA"


def _divides_by_64(node):
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 64
    )


def test_one_function_sets_floors_records_and_traces_the_rate():
    set_rate = ["core/paced.py:_set_rate"]
    assert _sites(_assigns("rate")) == set_rate
    assert _sites(lambda node: _is_self_attr(node, "rate_history")) == set_rate
    # rate_history is read nowhere else, so its one append is one of these:
    assert [s for s in _sites(_calls("append")) if s in set_rate] == set_rate
    assert _sites(_traces_rate) == set_rate
    # The floor is computed once; TFRC's balance check only reads it.
    assert _sites(lambda n: isinstance(n, ast.Name) and n.id == "T_MBI") == [
        "core/paced.py:min_rate"
    ]
    assert _sites(lambda n: _is_self_attr(n, "min_rate")) == [
        "core/paced.py:_set_rate", "core/sender.py:on_feedback",
    ]
    assert _sites(_divides_by_64) == []


def test_one_rate_rule():
    """The equation is evaluated in ``rate_step`` alone, and both rate
    policies take every rate they set from it."""
    assert _sites(_calls_function("tcp_response_rate")) == []
    assert _sites(_calls_function("rate_step")) == [
        "core/sender.py:on_feedback", "core/sender.py:_no_feedback_expired",
        "baselines/tfrcp.py:_update_rate",
    ]


def test_the_rate_rule_guard_finds_a_planted_equation_call(tmp_path):
    planted = {
        "core": "class S:\n    def _update_rate(self):\n"
                "        self._set_rate(tcp_response_rate(1000, 0.1, 0.01, 0.4))\n",
        "baselines": "class B:\n    def _interval(self):\n"
                     "        return equations.tcp_response_rate(s, r, p, 4 * r)\n",
    }
    for package, source in planted.items():
        (tmp_path / package).mkdir()
        (tmp_path / package / "planted.py").write_text(source)
    assert _sites(_calls_function("tcp_response_rate"), root=tmp_path) == [
        "core/planted.py:_update_rate", "baselines/planted.py:_interval",
    ]


def test_one_srtt_ewma_and_two_pacing_bodies():
    assert _sites(_assigns("srtt")) == ["core/paced.py:_sample_rtt"] * 2
    # The base's pacing step, and TFRC's, which carries the RTT estimate.
    assert _sites(_builds_data_packet) == [
        "core/paced.py:_send_next", "core/sender.py:_send_next",
    ]


def test_the_data_packet_guard_reads_keyword_positional_and_default_ptype():
    def builds(source):
        return _builds_data_packet(ast.parse(source, mode="eval").body)

    assert builds("Packet(f, 0, 1000, ptype=PacketType.DATA)")
    assert builds("Packet(f, 0, 1000, PacketType.DATA, now, info)")
    assert builds("Packet(f, 0, 1000)")  # the constructor's default
    assert not builds("Packet(f, 0, 40, PacketType.FEEDBACK, now, report)")
    assert not builds("Packet(f, 0, 40, ptype=PacketType.ACK)")
    assert not builds("Packet(f, 0, 40, ptype=packet.ptype)")  # a copy
    assert not builds("Other(f, 0, 1000, PacketType.DATA)")


def test_one_tcp_window_state_machine():
    tcp = ("tcp",)
    assert _sites(_assigns("cwnd"), tcp) == ["tcp/sender.py:_set_cwnd"]
    assert _sites(_assigns("snd_nxt"), tcp) == [
        "tcp/sender.py:_go_back_n", "tcp/sender.py:_send_new",
    ]
    assert _sites(_enters_recovery, tcp) == ["tcp/sender.py:_enter_recovery"]
    assert _sites(_calls("halve_window"), tcp) == [
        "tcp/sender.py:_enter_recovery", "tcp/sender.py:_go_back_n",
    ]
    # Unreachable, since the sender enters recovery at the threshold; it
    # must not come back as a second inflation path.
    excess = "on_excess_dupack"
    assert _sites(lambda node: getattr(node, "attr", "") == excess, tcp) == []
    assert excess not in [function.name for _, function, _ in _functions(tcp)]


def test_one_class_wires_ports_and_starts_flows():
    connects, starts, flows = set(), [], []
    for label, function, cls in _functions(FLOW_PACKAGES):
        if cls.endswith("Flow"):
            flows.append(cls)
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    if getattr(node.func, "attr", "") == "connect":
                        connects.add(cls)
        if function.name == "start" and "at" in [a.arg for a in function.args.args]:
            starts.append(label)
    assert {"TfrcFlow", "TcpFlow", "TfrcpFlow"} < set(flows)
    assert connects == {"Flow"}
    assert starts == ["net/flow.py:start"]


def test_no_send_wrapper_lambda_and_no_receive_monkey_patch():
    offenders = []
    for path in sorted(REPRO.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Lambda) and isinstance(node.body, ast.BoolOp):
                last = node.body.values[-1]
                if isinstance(last, ast.Constant) and last.value is None:
                    # ``lambda p: port.send(p) and None``
                    offenders.append(f"{path.name}:{node.lineno} lambda")
            for target in _assignment_targets(node):
                if isinstance(target, ast.Attribute) and target.attr == "receive":
                    offenders.append(f"{path.name}:{node.lineno} receive =")
    assert offenders == []
