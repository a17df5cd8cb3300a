"""Online policy-gradient learner state of the whole network.

The rule is OLPOMDP (Baxter & Bartlett 2001). Per tick, the log-policy
gradients of the tick's routing decisions are folded into an
exponentially discounted eligibility trace (z <- beta*z + sum of
gradients), and the globally shared tick reward is then applied as
theta <- theta + gamma * r * z. Several decisions in one tick accumulate
additively into the trace. There is one update order: the reward of tick
t multiplies the trace *after* tick t's gradients were folded in, so a
penalty incurred in the same tick as the decision that caused it (e.g. a
drop) credits that decision.

Every logit row of the network has one flat row id, router * N + dest
for N nodes, and `rows` is a list of N * N entries indexed by that id:
the row's logit list, or None where there is no row (the diagonal, and
every id of a router without an out-link), as engine.make_tables builds
it. The trace's rows have the same layout; its marks (`active`) stay a
dict, kept only for the rows that received a gradient. A routing
decision reaches the learner as a (row, slot) pair. The router samples
from the row's weights as sampling_weights() computes and records them
for the tick, (exps, total, cum): the max-subtracted exponentials of the
row's logits, their sum and the running sums the engine draws from, the
last set to +inf. tick_update() reads them and forms the decision's
log-policy gradient, e_slot - exps / total. Weights never outlive their
tick, and a decision on a row without them raises. A negative id names
no row: sampling_weights and the readers refuse it, where the list would
read a row from its end.

A one-column row (a router with one out-link) is the exception. Its
Gibbs policy is fixed at probability 1, and the log-policy gradient of
every draw from it is exactly zero, so the OLPOMDP update can never move
its logits. The engine forwards through such a router without recording
weights, and tick_update only checks that such a decision names a
one-column row with slot 0 (raising ValueError naming the row
otherwise); it never touches the row, which stays at its initial [0.0].

The update is applied lazily (Carpenter 2008, "Lazy sparse stochastic
gradient descent", applied to traces), so a tick costs O(1) plus O(width)
per row that received a gradient, not O(active rows):

* the trace stores its rows scaled, z = scale * rows[y], and decays by
  multiplying the one scalar `scale` by beta;
* `acc` is the running sum of gamma * r * scale over the ticks, so the
  credit a row is owed since tick u is (acc_now - acc_u) * rows[y];
* `active[y]` is the value of acc when theta[y] was last brought up to
  date, for each row y that has received a gradient; every other row has
  a zero trace row and is owed nothing.

The clock (scale, acc) is one for the whole network. Every router is
credited with the same reward each tick, so a clock per router would run
the same recurrence from the same start, rescale on the same ticks and
make the same floats. A router still reads and writes only its own rows,
and the shared clock is a function of the global reward alone, so
sharing it adds no communication between routers.

theta[y] is therefore current only once the row is settled, that is,
once its owed credit is written into it and its mark moved to acc. Only
the learner settles, and only where the update itself needs it:
sampling_weights() settles a row before the router samples from it,
tick_update a row it credits, and a rescale every active row. A reader
outside the learner takes current_logits(), which applies the owed
credit to a copy and writes nothing, or current_probability(), one
slot's Gibbs probability read the same way, so reading a run never
changes how it rounds.

sampling_weights() is the cost of every fresh row a tick reads, so it is
one kernel of two passes over the row: the first settles each entry (only
when the row is owed credit) and tracks the max, the second appends each
exponential and its running sum. It calls no separate draw-table
builder: on the link-delay workloads most decisions read a fresh row,
and that call would take back more than half of what the fusion saves.
It makes every float, and every addition in its order, as
current_logits() and then a running sum would, so outputs are the same.

When scale falls below RESCALE_BELOW, every row is settled, the scale is
folded into the rows, and scale, acc and the marks restart from 1, 0 and
0. The threshold is set for accuracy, not only against underflow: the
rounding error of acc - mark grows as 1/scale. Over 20k ticks of sparse
decisions the lazy rule agrees with the dense one to better than 1e-12
relative at 1e-3, but only to ~5e-10 at 1e-6.

beta = 0 (a memoryless trace) runs through the same rule: the scale
would fall to 0, so each tick first forgets the trace (_forget) and runs
at scale 1, which credits every row in full in the tick that added it.
"""
from __future__ import annotations

import math
from math import exp, inf
from operator import add
from typing import Iterable, NamedTuple

from .network import _number_rule

# floors a reported probability (softmax_row, current_probability), so
# that a logit far below its row's max reads as this, never as 0.0
_PROB_FLOOR = 1e-300


class LearnerConfig(NamedTuple):
    beta: float = 0.99
    gamma: float = 1e-5

    def validate(self) -> list[str]:
        """The violations of the learner rules, as `learner.<key>: <problem>`."""
        return [
            *_number_rule("learner.beta", self.beta, lambda b: 0 <= b < 1, "must be in [0, 1)"),
            *_number_rule(
                "learner.gamma", self.gamma, lambda g: 0 < g < inf, "must be positive and finite"
            ),
        ]


# a table of rows by flat row id, None where there is no row (module doc)
Rows = list[list[float] | None]

# rescale the trace once its decay scale falls below this (see module doc)
RESCALE_BELOW = 1e-3


class EligibilityTrace:
    """Discounted gradient accumulator with a row for every logit row of
    `rows`, in the same list layout (None where `rows` has no row), stored
    scaled: the true trace row is scale * rows[y].

    `active` maps each row that received a gradient to its mark; rows
    outside it are exactly zero, so rescaling and settling may skip them.
    `acc` and the marks hold the credit not yet applied to theta (module
    doc). `weights` holds the sampling weights recorded this tick, by row.
    """

    __slots__ = ("rows", "active", "scale", "acc", "weights")

    def __init__(self, rows: Rows):
        self.rows: Rows = [None if row is None else [0.0] * len(row) for row in rows]
        self.active: dict[int, float] = {}
        self.scale = 1.0
        self.acc = 0.0
        self.weights: dict[int, tuple[list[float], float, list[float]]] = {}


def softmax_row(logits: list[float]) -> list[float]:
    """Max-subtracted softmax over one logit row, each probability floored
    at _PROB_FLOOR (a NaN stays NaN): the reference that
    current_probability is pinned to. The exponentials are totalled by a
    plain left-to-right loop, not the builtin sum, which compensates its
    rounding from CPython 3.12 on: the same row gives the same floats on
    every supported interpreter."""
    m = max(logits)
    exps = [exp(v - m) for v in logits]
    s = 0.0
    for e in exps:
        # operator.add, not +=: the sign of NaN + NaN may change once the
        # interpreter specialises +=, and this one C addition never does
        s = add(s, e)
    # max(p, _PROB_FLOOR) without the call: the floor only where it is larger
    return [_PROB_FLOOR if _PROB_FLOOR > (p := e / s) else p for e in exps]


def current_logits(rows: Rows, trace: EligibilityTrace, y: int) -> list[float]:
    """The current logits of row `y` in a new list: the row with the credit
    it is owed applied. Writes neither the row nor its mark."""
    if y < 0:
        raise ValueError(f"row {y}: no such row")
    row = rows[y]
    acc = trace.acc
    d = acc - trace.active.get(y, acc)
    if d == 0.0:
        return row[:]
    return [v + d * z for v, z in zip(row, trace.rows[y])]


def current_probability(rows: Rows, trace: EligibilityTrace, y: int, slot: int) -> float:
    """The current Gibbs probability of `slot` in row `y`: the same float
    as softmax_row(current_logits(rows, trace, y))[slot], floored
    alike, without building the row's other probabilities. It copies the
    row only when the row is owed credit, and writes neither the row nor
    its mark."""
    if y < 0:
        raise ValueError(f"row {y}: no such row")
    row = rows[y]
    acc = trace.acc
    if acc - trace.active.get(y, acc) != 0.0:
        row = current_logits(rows, trace, y)
    m = max(row)
    total = 0.0
    for v in row:  # left to right, as softmax_row totals
        total += exp(v - m)
    p = exp(row[slot] - m) / total
    return _PROB_FLOOR if _PROB_FLOOR > p else p


def sampling_weights(
    rows: Rows, trace: EligibilityTrace, y: int
) -> tuple[list[float], float, list[float]]:
    """Settle row `y`, record its Gibbs sampling weights in the trace for
    this tick's tick_update, and return them: (exps, total, cum), the
    max-subtracted exponentials of its logits, their sum and the running
    sums with the last set to +inf. One kernel, two passes over the row
    (module doc): the same floats as current_logits() and then a running
    sum over the exponentials."""
    if y < 0:
        raise ValueError(f"row {y}: no such row")
    row = rows[y]
    acc = trace.acc
    active = trace.active
    d = acc - active.get(y, acc)
    if d != 0.0:
        m = -inf
        for i, z in enumerate(trace.rows[y]):
            v = row[i] + d * z
            row[i] = v
            if v > m:
                m = v
        active[y] = acc
    else:
        m = row[0]
        for v in row:
            if v > m:
                m = v
    exps = []
    cum = []
    total = 0.0
    for v in row:
        e = exp(v - m)
        exps.append(e)
        total += e
        cum.append(total)
    cum[-1] = inf
    weights = trace.weights[y] = (exps, total, cum)
    return weights


def _rescale(rows: Rows, trace: EligibilityTrace) -> None:
    """Settle every active row and fold the scale into it, in one pass."""
    s = trace.scale
    acc = trace.acc
    active = trace.active
    for y, mark in active.items():
        zrow = trace.rows[y]
        trow = rows[y]
        d = acc - mark
        for i, z in enumerate(zrow):
            trow[i] += d * z
            zrow[i] = z * s
        active[y] = 0.0
    trace.scale = 1.0
    trace.acc = 0.0


def _forget(trace: EligibilityTrace) -> None:
    """beta = 0: zero the trace and restart its scale, acc and marks. Every
    row is settled, since each was credited in full in its own tick."""
    zrows = trace.rows
    for y in trace.active:
        row = zrows[y]
        for i in range(len(row)):
            row[i] = 0.0
    trace.active.clear()
    trace.scale = 1.0
    trace.acc = 0.0


def tick_update(
    rows: Rows,
    trace: EligibilityTrace,
    cfg: LearnerConfig,
    decisions: Iterable[tuple[int, int]],
    reward: float,
) -> None:
    """One full per-tick update of the whole network, applied lazily.

    decisions is a sequence of (row, slot) pairs, one per routing decision
    any router made in the tick: the row sampled from and the slot drawn,
    from the weights sampling_weights recorded for the row this tick, or
    slot 0 of a one-column row, which records none (module doc); a row id
    that is negative, past the table's end or a hole names no row. Only the
    decided rows are touched: each is settled, gets the sum of its
    gradients and is credited with this tick's reward in one pass; every
    other row is owed its credit through trace.acc until the learner next
    settles it.
    At beta = 0 the trace is forgotten first and the tick runs at scale 1.
    The simulation calls this once per tick.
    """
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    # the slots drawn per decided row, in decision order (the order its
    # gradients are summed in): an int for a row with one decision, else a
    # list; every decision is checked before theta or the trace is touched
    weights = trace.weights
    drawn: dict[int, int | list[int]] = {}
    for y, slot in decisions:
        w = weights.get(y)
        if w is None:
            row = rows[y] if 0 <= y < len(rows) else None
            if row is None:
                raise ValueError(f"decision row {y}: no such row")
            if len(row) != 1:
                raise ValueError(f"decision row {y}: no weights recorded this tick")
            if slot != 0:
                raise ValueError(f"decision row {y}: slot {slot} not in [0, 1)")
            continue
        if not 0 <= slot < len(w[0]):
            raise ValueError(f"decision row {y}: slot {slot} not in [0, {len(w[0])})")
        slots = drawn.get(y)
        if slots is None:
            drawn[y] = slot
        elif isinstance(slots, int):
            drawn[y] = [slots, slot]
        else:
            slots.append(slot)
    if cfg.beta == 0.0:
        _forget(trace)
        s = 1.0
    else:
        s = trace.scale * cfg.beta
    c = cfg.gamma * reward * s  # credit per unit of new (scaled) gradient
    acc = trace.acc + c
    if drawn:
        inv = 1.0 / s
        zrows = trace.rows
        active = trace.active
        for y, slots in drawn.items():
            exps, total, _ = weights[y]
            zrow = zrows[y]
            trow = rows[y]
            # settle the row as it stood before this tick's gradient (this
            # tick's credit included), add the gradient and credit it
            d = acc - active.get(y, acc)
            if isinstance(slots, int):
                slot = slots
                for i, e in enumerate(exps):
                    gi = -e / total
                    if i == slot:
                        gi += 1.0
                    gi *= inv
                    z = zrow[i]
                    zrow[i] = z + gi
                    trow[i] += d * z + c * gi
            else:
                for i, e in enumerate(exps):
                    ne = -e / total
                    gi = 0.0
                    for slot in slots:
                        gi += ne + 1.0 if i == slot else ne
                    gi *= inv
                    z = zrow[i]
                    zrow[i] = z + gi
                    trow[i] += d * z + c * gi
            active[y] = acc
    weights.clear()  # weights that no decision used are dropped too
    trace.scale = s
    trace.acc = acc
    if s < RESCALE_BELOW:
        _rescale(rows, trace)
