"""Outside-in layer trace of the program, from the benchmark's own files.

``Tracer.installed()`` replaces each layer's public function with a
wrapper at the place where its caller looks it up (``TARGETS``), and
puts the originals back on exit; no file of the program changes. Every
wrapped call becomes a span (name, start, end, parent span, operation
id) kept in memory; ``layer_metrics`` turns the spans of a run into
per-operation numbers, and ``write`` saves them as JSON lines.

A span's self time is its duration minus the durations of its direct
children. Spans are only recorded on the thread that created the
tracer: ``run_exchange`` sends TCP frames from a writer thread, whose
work shows up as waiting in ``exchange.run_exchange`` self time.
"""

import contextlib
import functools
import importlib
import json
import socket
import threading
import time
from collections import Counter

# (span name, module where the caller looks the function up, attribute)
TARGETS = (
    ("cli.main", "cubicrypt.cli", "main"),
    ("exchange.run_exchange", "cubicrypt.exchange", "run_exchange"),
    ("keygen.key_matrix_for", "cubicrypt.exchange", "key_matrix_for"),
    ("keygen.key_matrix_for", "cubicrypt.cli", "key_matrix_for"),
    ("keygen.generate_keystream", "cubicrypt.keygen", "generate_keystream"),
    ("keygen.build_key_matrix", "cubicrypt.keygen", "build_key_matrix"),
    ("maps.iterate_orbit", "cubicrypt.keygen", "iterate_orbit"),
    ("maps.iterate_orbit", "cubicrypt.maps", "iterate_orbit"),
    ("maps.run_orbit", "cubicrypt._backend", "run_orbit"),
    ("keygen.normalize_block", "cubicrypt._backend", "normalize_block"),
    ("cipher.xor_apply", "cubicrypt.exchange", "xor_apply"),
    ("cipher.xor_apply", "cubicrypt.cli", "xor_apply"),
    ("exchange.encode_frame", "cubicrypt.exchange", "encode_frame"),
    ("exchange.decode_frame", "cubicrypt.exchange", "decode_frame"),
    ("metrics.histogram", "cubicrypt.exchange", "histogram"),
    ("metrics.shannon_entropy", "cubicrypt.exchange", "shannon_entropy"),
    ("pgmio.read_pgm", "cubicrypt.cli", "read_pgm"),
    ("pgmio.write_pgm", "cubicrypt.cli", "write_pgm"),
    ("analysis.lower_bound_error", "cubicrypt.analysis", "lower_bound_error"),
    ("analysis.lyapunov_from_lbe", "cubicrypt.analysis", "lyapunov_from_lbe"),
    ("analysis.first_reaching", "cubicrypt.analysis.LbeSeries", "first_reaching"),
)

OP_SPAN = "bench.op"

# Span names as reported; P5 and P2 reads are split because their costs
# differ by three orders of magnitude.
LAYERS = sorted(
    {name for name, _, _ in TARGETS if name != "pgmio.read_pgm"}
    | {"pgmio.read_pgm.p5", "pgmio.read_pgm.p2"}
)


def _owner(path: str):
    """Module (or class inside a module) named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.thread = threading.get_ident()
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, op
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._active: Counter = Counter()
        self.op_id = -1
        self.orbit_iters = 0
        self.keygen_iters = 0
        self.normalized_bytes = 0
        self.frame_bytes = 0
        self.connections = 0
        self.keystream_bytes = 0
        self.keystream_requests = 0
        self.keystream_repeats = 0
        self._longest: dict = {}

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.op_id))
        self._child_ns.append(0)
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _exit(self, index: int) -> None:
        end = time.perf_counter_ns()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        self._stack.pop()
        self._active[name] -= 1
        if parent >= 0:
            self._child_ns[parent] += end - start

    def begin_pass(self) -> None:
        """Count keystream repeats within a pass, so repeat_frac is the same for every pass."""
        self._longest.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span around one timed operation."""
        self.op_id = op_id
        index = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(index)

    # ------------------------------------------------------------ counters

    def _count(self, name: str, args, result) -> None:
        if name == "maps.run_orbit":
            n = int(args[4])
            self.orbit_iters += n
            if self._active["keygen.generate_keystream"]:
                self.keygen_iters += n
        elif name == "keygen.normalize_block":
            self.normalized_bytes += len(args[0])
        elif name == "exchange.encode_frame":
            self.frame_bytes += len(result)
        elif name == "keygen.generate_keystream":
            config, count = args[0], int(args[1])
            self.keystream_requests += 1
            self.keystream_bytes += count
            if self._longest.get(config, -1) >= count:
                self.keystream_repeats += 1
            self._longest[config] = max(self._longest.get(config, -1), count)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            span_name = name
            if name == "pgmio.read_pgm":
                span_name = "pgmio.read_pgm.p2" if bytes(args[0][:2]) == b"P2" else "pgmio.read_pgm.p5"
            index = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            tracer._count(name, args, result)
            return result

        return traced

    def _count_connection(self, fn):
        def counted(*args, **kwargs):
            self.connections += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; restore the originals on exit.

        A target that no longer exists raises, so that a renamed or moved
        layer fails the traced run instead of reporting zero.
        """
        saved = []
        try:
            for name, path, attr in TARGETS:
                owner = _owner(path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            saved.append((socket, "create_connection", socket.create_connection))
            socket.create_connection = self._count_connection(socket.create_connection)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def _self_times(self) -> list[int]:
        return [end - start - child for (_, start, end, _, _), child in zip(self.spans, self._child_ns)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation layer metrics over every recorded operation."""
        self_ns = self._self_times()
        ops = sum(1 for span in self.spans if span[0] == OP_SPAN)
        op_ns = sum(end - start for name, start, end, _, _ in self.spans if name == OP_SPAN)
        calls, busy = Counter(), Counter()
        for (name, _, _, _, _), own in zip(self.spans, self_ns):
            calls[name] += 1
            busy[name] += own
        per_op = max(ops, 1)
        metrics = {}
        for layer in LAYERS + [OP_SPAN]:
            if layer != OP_SPAN:
                metrics[f"{layer}.calls"] = calls[layer] / per_op
            metrics[f"{layer}.self_ms"] = busy[layer] / 1e6 / per_op
            metrics[f"{layer}.self_frac"] = _ratio(busy[layer], op_ns)
        metrics["maps.run_orbit.iters"] = self.orbit_iters / per_op
        metrics["maps.run_orbit.ns_per_iter"] = _ratio(busy["maps.run_orbit"], self.orbit_iters)
        metrics["keygen.normalize_block.bytes"] = self.normalized_bytes / per_op
        metrics["keygen.normalize_block.ns_per_byte"] = _ratio(busy["keygen.normalize_block"], self.normalized_bytes)
        metrics["keygen.useful_frac"] = _ratio(self.keystream_bytes, self.keygen_iters)
        metrics["keygen.repeat_frac"] = _ratio(self.keystream_repeats, self.keystream_requests)
        metrics["exchange.frame_bytes"] = self.frame_bytes / per_op
        metrics["exchange.connections_per_op"] = self.connections / per_op
        metrics["trace.spans_per_op"] = len(self.spans) / per_op
        return metrics

    def write(self, path) -> None:
        """One JSON array per span: name, start ns, end ns, self ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as out:
            for (name, start, end, parent, op), own in zip(self.spans, self._self_times()):
                out.write(json.dumps([name, start, end, own, parent, op]) + "\n")
