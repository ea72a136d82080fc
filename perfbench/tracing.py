"""Outside-in tracing: wrap the package's public functions and record spans.

Each wrapper replaces a function by ``setattr`` on every package module (and
class) that holds it, records a span when the call returns, and restores the
original afterwards. A span has a name, start, end, parent and the index of
the operation it belongs to. A span's self time is its duration minus the time
its child spans cover.

Calls such as ``PartialState.fix_edge`` run millions of times in one run, so
per-name totals (calls, time, self time, counters) are kept as spans close,
and only the first SPAN_LOG_LIMIT spans are kept whole for the results file.
Only spans opened inside a timed operation count towards the per-operation
totals; calls made while the benchmark checks a verdict are kept apart.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from hamdecomp import bcef, bsp, cli, instances, multigraph, oracle, result, state, verify
from hamdecomp.state import CLOSES_NON_HAM_CYCLE, CONFLICT, PartialState

SPAN_LOG_LIMIT = 50_000

# The package's modules that do work; result and errors only define types.
_MODULES = (bcef, bsp, cli, instances, multigraph, oracle, state, verify)

_clock = time.perf_counter_ns


class Tracer:
    """Span stack plus per-name totals, for one traced run in one thread."""

    def __init__(self):
        self.stack = []              # open spans: [span id, child ns]
        self.inside = defaultdict(lambda: [0, 0, 0])   # name -> calls, ns, self ns
        self.outside = defaultdict(lambda: [0, 0, 0])
        self.counters = defaultdict(int)               # inside operations only
        self.spans = []
        self.dropped = 0
        self.next_id = 1
        self.op = None               # index of the open operation, if any
        self.op_ns = 0               # summed duration of operations
        self.op_self_ns = 0          # operations' own time outside any layer
        self.ops = 0

    def begin_op(self, index):
        self.op = index
        self.stack.append([0, 0])
        return _clock()

    def end_op(self, start):
        end = _clock()
        _, child = self.stack.pop()
        self.op = None
        self.ops += 1
        self.op_ns += end - start
        self.op_self_ns += end - start - child

    def close(self, name, span, start, end):
        """Account a finished span whose entry was already popped."""
        dur = end - start
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        totals = (self.inside if self.op is not None else self.outside)[name]
        totals[0] += 1
        totals[1] += dur
        totals[2] += dur - span[1]
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((self.op, span[0], parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def count(self, key, amount=1):
        if self.op is not None:
            self.counters[key] += amount


def _wrap(tracer, name, fn, before=None, after=None):
    """A stand-in for fn that records a span; before/after gather counters."""
    stack = tracer.stack

    def traced(*args, **kwargs):
        span = [tracer.next_id, 0]
        tracer.next_id += 1
        token = before(tracer, args) if before is not None else None
        stack.append(span)
        start = _clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            tracer.close(name, span, start, end)
        if after is not None:
            after(tracer, args, out, token)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


# -- counters gathered at the layer boundaries ------------------------------

def _edges_before(tracer, args):
    return args[0].edges_fixed


def _after_chain_fix(tracer, args, out, before):
    tracer.count("bcef.chain_fix.edges", args[0].edges_fixed - before)
    if out is CONFLICT or out is CLOSES_NON_HAM_CYCLE:
        tracer.count("bcef.chain_fix.fails")


def _after_fix_edge(tracer, args, out, _):
    if out is CONFLICT or out is CLOSES_NON_HAM_CYCLE:
        tracer.count("state.fix_edge.fails")


def _trail_before(tracer, args):
    return len(args[0].trail) - args[1]


def _after_undo(tracer, args, out, undone):
    tracer.count("state.undo_to.edges", undone)


def _after_select(tracer, args, out, _):
    if out is not None:
        tracer.count("bcef.select_branch_edge.cands", len(out[1]))


def _solve_counter(prefix):
    def after(tracer, args, out, _):
        st = out.stats
        tracer.count(prefix + ".solves")
        tracer.count(prefix + ".nodes", st.nodes)
        tracer.count(prefix + ".edges_fixed", st.edges_fixed)
        tracer.count(prefix + ".max_depth", st.max_depth)
        if out.status is result.SolveStatus.TIMED_OUT:
            tracer.count(prefix + ".timeouts")
    return after


def _fix_calls_before(tracer, args):
    return tracer.inside["state.fix_edge"][0]


def _after_enumerate(tracer, args, out, before):
    tracer.count("oracle.enumerate_decompositions.fix_edge_calls",
                 tracer.inside["state.fix_edge"][0] - before)


# (owner, attribute, span name, before, after). Functions are replaced in every
# package module that imported them; methods on their class.
TARGETS = (
    (bcef, "chain_fix", "bcef.chain_fix", _edges_before, _after_chain_fix),
    (bcef, "select_branch_edge", "bcef.select_branch_edge", None, _after_select),
    (bcef, "preprocess_parallel", "bcef.preprocess_parallel", None, None),
    (bcef, "solve_bcef", "bcef.solve_bcef", None, _solve_counter("bcef.search")),
    (bsp, "solve_bsp", "bsp.solve_bsp", None, _solve_counter("bsp.search")),
    (PartialState, "_fix_undirected", "state.fix_edge", None, _after_fix_edge),
    (PartialState, "_fix_directed", "state.fix_edge", None, _after_fix_edge),
    (PartialState, "undo_to", "state.undo_to", _trail_before, _after_undo),
    (PartialState, "differs_from_inputs", "state.differs_from_inputs", None, None),
    (PartialState, "extract_decomposition", "state.extract_decomposition", None, None),
    (multigraph, "build_union", "multigraph.build_union", None, None),
    (multigraph, "parallel_edge_pairs", "multigraph.parallel_edge_pairs", None, None),
    (multigraph, "cycle_edge_multiset", "multigraph.cycle_edge_multiset", None, None),
    (instances, "gen_instance", "instances.gen_instance", None, None),
    (instances, "parse_instance", "instances.parse_instance", None, None),
    (instances, "write_certificate", "instances.write_certificate", None, None),
    (oracle, "enumerate_decompositions", "oracle.enumerate_decompositions",
     _fix_calls_before, _after_enumerate),
    (verify, "decomposition_problems", "verify.decomposition_problems", None, None),
    (cli, "main", "cli.main", None, None),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name, _, _ in TARGETS))

# Layers called only outside timed operations: at set-up, or by the check.
CHECK_LAYERS = ("instances.gen_instance", "verify.decomposition_problems")


@contextlib.contextmanager
def installed(tracer):
    """The tracer's wrappers are in place while this context is open."""
    undo = []
    try:
        for owner, attr, name, before, after in TARGETS:
            fn = getattr(owner, attr)
            wrapper = _wrap(tracer, name, fn, before, after)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in _MODULES if getattr(m, attr, None) is fn]
            for holder in holders:
                undo.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
            # the CLI keeps its solvers in a table built at import time
            for key, solver in list(cli._SOLVERS.items()):
                if solver is fn:
                    undo.append((cli._SOLVERS, key, fn))
                    cli._SOLVERS[key] = wrapper
        yield tracer
    finally:
        for holder, attr, fn in reversed(undo):
            if isinstance(holder, dict):
                holder[attr] = fn
            else:
                setattr(holder, attr, fn)
