"""One SHA-256 digest over six double-blocked codes, for bit-identity checks.

Run it on two trees and compare the printed lines; each case's line also
gives its exact (average, max) error at full precision, so a digest change
can be read off directly:

    PYTHONPATH=src python tests/capture_blocked.py

The digest covers each code's codeword probabilities and states, every slot
element (history, label, dtype, shape and bytes), every feedback operator, the
exact (average, max) error and every cumulative-disturbance record.  Not a
test module: pytest does not collect it.
"""

import hashlib

import numpy as np

from qfeedback import (
    amplitude_damping_channel,
    build_double_blocked_code,
    cumulative_disturbance_report,
    depolarizing_channel,
    error_probability,
    random_feedback_code,
)

# (seed, channel, base block length n, copies l)
CASES = (
    (9, depolarizing_channel(0.1), 2, 2),
    (9, depolarizing_channel(0.1), 2, 3),
    (77, depolarizing_channel(0.3), 2, 2),
    (77, depolarizing_channel(0.3), 2, 3),
    (78, amplitude_damping_channel(0.4), 2, 2),
    (5, depolarizing_channel(0.2), 3, 2),
)
DELTA = 0.3


def feed(h, *parts):
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())


def capture(h, base, l):
    code = build_double_blocked_code(base, l, delta=DELTA)
    feed(h, code.probs, code.codebook.words)
    for state in code.states:
        feed(h, state.mat)
    slots = [slot if isinstance(slot, dict) else {(): slot} for slot in code.measurements]
    for q, slot in enumerate(slots, start=1):
        for history, povm in slot.items():
            for label, element in povm.elements:
                feed(h, q, history, label, element)
    # Slot q's feedback runs in update q + 1: each label's family once, in history, then label order.
    for q, slot in enumerate(slots, start=1):
        families = {}
        for povm in slot.values():
            for label in povm.labels:
                if label in povm.feedback:
                    families.setdefault(label, povm.feedback[label])
        for label, ops in families.items():
            feed(h, q + 1, label, *ops)
    errors = error_probability(code)
    feed(h, errors)
    for record in cumulative_disturbance_report(code, base):
        feed(h, record)
    return errors


def main():
    total = hashlib.sha256()
    for seed, channel, n, l in CASES:
        base = random_feedback_code(np.random.default_rng(seed), channel, n, num_words=2)
        one = hashlib.sha256()
        average, worst = capture(one, base, l)
        print(f"seed {seed} n={n} l={l}: {one.hexdigest()} errors ({average!r}, {worst!r})")
        total.update(one.digest())
    print(f"all: {total.hexdigest()}")


if __name__ == "__main__":
    main()
