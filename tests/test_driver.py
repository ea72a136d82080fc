"""The search driver's contract, pinned with scripted moves on a stub state.

``backtrack`` reads a state only through ``trail``, ``undo_to``,
``is_complete``, ``differs_from_cycles`` and ``extract_decomposition``. The
stub records each move on its trail, "+e" for ``take(e)`` and "-e" for
``refute(e)``, so a case scripts the search tree and every move's outcome by
trail, and the log shows the state each move saw.
"""

import pytest

from hamdecomp.result import SolveStats
from hamdecomp.state import (
    CLOSES_NON_HAM_CYCLE,
    COMPLETES_COMPONENT,
    CONFLICT,
    OK,
    BudgetClock,
    SolveLimits,
    backtrack,
)


class ScriptedSearch:
    """A stub state with its moves. ``tree`` maps a trail, as a tuple, to the
    candidates ``expand`` returns there, and a trail it lacks is a leaf.
    ``takes`` and ``refutes`` map a candidate to its move's outcome, OK when
    absent. ``complete`` and ``accepted`` hold the complete trails and the
    ones ``differs_from_cycles`` accepts."""

    def __init__(self, tree, takes=(), refutes=(), complete=(), accepted=()):
        self.tree = tree
        self.takes = dict(takes)
        self.refutes = dict(refutes)
        self.complete = set(complete)
        self.accepted = set(accepted)
        self.trail = []
        self.log = []

    def undo_to(self, mark):
        del self.trail[mark:]

    def is_complete(self):
        return tuple(self.trail) in self.complete

    def differs_from_cycles(self):
        return tuple(self.trail) in self.accepted

    def extract_decomposition(self):
        return tuple(self.trail)

    def start(self):
        return OK

    def expand(self):
        return self.tree.get(tuple(self.trail))

    def take(self, e):
        self.log.append(("take", e, tuple(self.trail)))
        self.trail.append(f"+{e}")
        return self.takes.get(e, OK)

    def refute(self, e):
        self.log.append(("refute", e, tuple(self.trail)))
        self.trail.append(f"-{e}")
        return self.refutes.get(e, OK)

    def run(self):
        """The witness, or None, and the nodes and maximum depth charged."""
        clock = BudgetClock(SolveLimits())
        stats = SolveStats()
        found = backtrack(self, clock, stats, self.start, self.expand, self.take, self.refute)
        return found, clock.nodes, stats.max_depth


def test_noop_refute_moves_to_the_next_candidate():
    # take(1) fails at once; take(2) opens a leaf that is not complete
    s = ScriptedSearch({(): [1, 2]}, takes={1: CONFLICT})
    assert s.run() == (None, 3, 1)
    assert s.log == [
        ("take", 1, ()), ("refute", 1, ()),
        ("take", 2, ("-1",)), ("refute", 2, ("-1",)),
    ]


@pytest.mark.parametrize("failure", [CONFLICT, CLOSES_NON_HAM_CYCLE])
def test_failing_refute_closes_the_node(failure):
    # the child of take(1) never tries 4; the root then refutes 1 and goes on
    s = ScriptedSearch({(): [1, 2], ("+1",): [3, 4]}, takes={3: CONFLICT, 2: CONFLICT},
                       refutes={3: failure})
    assert s.run() == (None, 3, 2)
    assert s.log == [
        ("take", 1, ()),
        ("take", 3, ("+1",)), ("refute", 3, ("+1",)),
        ("refute", 1, ()),
        ("take", 2, ("-1",)), ("refute", 2, ("-1",)),
    ]


def test_completing_refute_on_an_incomplete_state_goes_on():
    s = ScriptedSearch({(): [1, 2]}, takes={1: CONFLICT, 2: CONFLICT},
                       refutes={1: COMPLETES_COMPONENT})
    assert s.run() == (None, 2, 1)
    assert s.log == [
        ("take", 1, ()), ("refute", 1, ()),
        ("take", 2, ("-1",)), ("refute", 2, ("-1",)),
    ]


def test_completing_refute_on_an_accepted_state_returns_it():
    s = ScriptedSearch({(): [1, 2]}, takes={1: CONFLICT}, refutes={1: COMPLETES_COMPONENT},
                       complete=[("-1",)], accepted=[("-1",)])
    assert s.run() == (("-1",), 2, 1)
    assert s.log == [("take", 1, ()), ("refute", 1, ())]


def test_completing_refute_on_a_rejected_state_closes_the_node():
    s = ScriptedSearch({(): [1], ("+1",): [2, 3]}, takes={2: CONFLICT},
                       refutes={2: COMPLETES_COMPONENT}, complete=[("+1", "-2")])
    assert s.run() == (None, 3, 2)
    assert s.log == [
        ("take", 1, ()),
        ("take", 2, ("+1",)), ("refute", 2, ("+1",)),
        ("refute", 1, ()),
    ]


def test_complete_states_from_take_and_leaf_are_judged():
    # take(1) completes a state that is not accepted, so it is refuted; the
    # leaf that take(2) opens is complete and accepted
    s = ScriptedSearch({(): [1, 2]}, takes={1: COMPLETES_COMPONENT},
                       complete=[("+1",), ("-1", "+2")], accepted=[("-1", "+2")])
    assert s.run() == (("-1", "+2"), 3, 1)
    assert s.log == [("take", 1, ()), ("refute", 1, ()), ("take", 2, ("-1",))]
