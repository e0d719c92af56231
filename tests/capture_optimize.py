"""One SHA-256 digest over the feedback-rate optimizer's outputs, for bit-identity checks.

Run it on two trees and compare the printed lines; each case's line also
gives its rate and no-feedback rate at full precision, so a digest change can
be read off directly:

    PYTHONPATH=src python tests/capture_optimize.py

Each case is ``estimate_feedback_capacity`` with two starts and one sweep.
The digest covers the point x, value, convergence flag and sweep count that
every ascent stage returns (recorded where ``coordinate_ascent`` returns), the
reported rate, no-feedback rate, convergence flag and start values, and the
returned code's probabilities.  Not a test module: pytest does not collect it;
``tests/test_capacity.py`` asserts ``digest``'s value.
"""

import hashlib

from qfeedback import capacity
from qfeedback.capacity import OptimizerConfig, estimate_feedback_capacity
from qfeedback.quantum import amplitude_damping_channel, depolarizing_channel

CHANNELS = (depolarizing_channel(0.1), amplitude_damping_channel(0.3))
CONFIG = OptimizerConfig(starts=2, seed=0, max_sweeps=1)


def feed(h, *parts):
    for part in parts:
        h.update(repr(part).encode())


def capture(h, channel, n):
    stages = []
    ascent = capacity.coordinate_ascent

    def recorded(*args, **kwargs):
        stages.append(ascent(*args, **kwargs))
        return stages[-1]

    capacity.coordinate_ascent = recorded
    try:
        res = estimate_feedback_capacity(channel, n, CONFIG)
    finally:
        capacity.coordinate_ascent = ascent
    for stage in stages:
        feed(h, stage.x.tobytes(), stage.value, stage.converged, stage.sweeps)
    feed(h, res.rate, res.no_feedback_rate, res.converged, res.start_values, res.code.probs)
    return res


def digest(echo) -> str:
    """The hex digest over every case; each case's line goes to ``echo``."""
    total = hashlib.sha256()
    for channel in CHANNELS:
        for n in (1, 2, 3):
            one = hashlib.sha256()
            res = capture(one, channel, n)
            echo(f"{channel.label} n={n}: {one.hexdigest()} rates ({res.rate!r}, {res.no_feedback_rate!r})")
            total.update(one.digest())
    return total.hexdigest()


def main():
    print(f"all: {digest(print)}")


if __name__ == "__main__":
    main()
