"""Experiment configuration: strict JSON schema and code (de)serialization.

Complex numbers are stored as [re, im] pairs and matrices row-major, so every
config and report is plain JSON.  Unknown keys are rejected at every level to
keep configs honest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import identity, kron
from .protocol import Codebook, FeedbackCode, on_freshest, product_states, with_pgm_decoder
from .quantum import (
    DensityMatrix,
    Povm,
    QuantumChannel,
    ValidationError,
    amplitude_damping_channel,
    bloch_state,
    dephasing_channel,
    depolarizing_channel,
    euler_unitary,
    identity_channel,
    rotated_qubit_povm,
)


class ConfigError(Exception):
    """Malformed configuration or report file."""


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(rows, where: str) -> np.ndarray:
    try:
        out = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad matrix encoding ({exc})") from None
    if out.ndim != 2:
        raise ConfigError(f"{where}: matrix must be two-dimensional")
    return out


def channel_from_spec(spec: dict) -> QuantumChannel:
    _require_keys(spec, {"name", "p", "gamma", "dim", "kraus"}, set(), "channel")
    if "kraus" in spec:
        if "name" in spec:
            raise ConfigError("channel: give either a name or explicit kraus, not both")
        mats = [matrix_from_json(k, "channel.kraus") for k in spec["kraus"]]
        try:
            return QuantumChannel(tuple(mats), "explicit")
        except ValidationError as exc:
            raise ValidationError(f"channel 'explicit': {exc}") from None
    name = spec.get("name")
    try:
        if name == "identity":
            return identity_channel(int(spec.get("dim", 2)))
        if name == "depolarizing":
            return depolarizing_channel(float(spec["p"]))
        if name == "fully_depolarizing":
            return depolarizing_channel(1.0)
        if name == "amplitude_damping":
            return amplitude_damping_channel(float(spec["gamma"]))
        if name == "dephasing":
            return dephasing_channel(float(spec["p"]))
    except KeyError as exc:
        raise ConfigError(f"channel '{name}': missing parameter {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"channel '{name}': {exc}") from None
    raise ConfigError(f"channel: unknown name {name!r}")


def _parse_word(w, n: int, where: str) -> tuple[int, ...]:
    if isinstance(w, str):
        letters = tuple(int(ch) for ch in w)
    else:
        letters = tuple(int(x) for x in w)
    if len(letters) != n:
        raise ConfigError(f"{where}: word {w!r} does not have length {n}")
    return letters


_PROTOCOL_KEYS = {
    "n",
    "alphabet",
    "words",
    "probs",
    "letter_states",
    "states",
    "measurements",
    "measurements_explicit",
    "feedback",
    "final_measurement",
}


def _require_qubit(channel: QuantumChannel, where: str):
    if channel.in_dim != 2:
        raise ConfigError(f"{where}: qubit-only field, channel input dimension is {channel.in_dim}")


def code_from_spec(spec: dict, channel: QuantumChannel) -> FeedbackCode:
    """Build a FeedbackCode from the protocol section.

    States come either from per-letter Bloch angles ("letter_states") or
    explicit matrices ("states").  Intermediate measurements are rotated
    projective angles ("measurements", one [theta, phi] per round, default
    [0, 0]) or explicit operator lists; the final measurement defaults to
    the pretty-good measurement over the averaged pre-decode outputs.  Bloch
    angles, measurement angles and Euler-angle feedback describe qubits
    only, so they need a channel of input dimension 2.
    """
    _require_keys(spec, _PROTOCOL_KEYS, {"n", "words", "probs"}, "protocol")
    n = int(spec["n"])
    alphabet = int(spec.get("alphabet", 2))
    d = channel.in_dim
    words = tuple(_parse_word(w, n, "protocol.words") for w in spec["words"])
    try:
        book = Codebook(alphabet, n, words)
    except ValidationError as exc:
        raise ConfigError(f"protocol.words: {exc}") from None
    probs = tuple(float(p) for p in spec["probs"])
    if len(probs) != len(words):
        raise ConfigError("protocol.probs: arity does not match words")
    # Written "not >=" / "not <=" so that a NaN probability fails the check.
    if not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:
        raise ValidationError("protocol.probs: not a probability distribution")

    if ("letter_states" in spec) == ("states" in spec):
        raise ConfigError("protocol: give exactly one of letter_states or states")
    if "letter_states" in spec:
        _require_qubit(channel, "protocol.letter_states")
        angles = spec["letter_states"]
        if len(angles) != alphabet:
            raise ConfigError("protocol.letter_states: one [theta, phi] per letter")
        states = product_states([bloch_state(float(t), float(f)) for t, f in angles], words)
    else:
        states = []
        for i, rows in enumerate(spec["states"]):
            mat = matrix_from_json(rows, f"protocol.states[{i}]")
            try:
                states.append(DensityMatrix(mat, (d,) * n))
            except ValidationError as exc:
                raise ValidationError(f"protocol.states[{i}]: {exc}") from None

    measurements: list = []
    if "measurements_explicit" in spec:
        if "measurements" in spec:
            raise ConfigError("protocol: give angles or explicit measurements, not both")
        for j, entry in enumerate(spec["measurements_explicit"], start=1):
            els = []
            for lab, rows in entry:
                if isinstance(lab, str) and j == n and lab != "er":
                    label = _parse_word(lab, n, "measurement label")
                else:
                    label = lab
                els.append((label, matrix_from_json(rows, f"protocol.M{j}")))
            try:
                measurements.append(Povm(tuple(els)))
            except ValidationError as exc:
                raise ValidationError(f"protocol.M{j}: {exc}") from None
        if len(measurements) != n:
            raise ConfigError("protocol.measurements_explicit: need one POVM per round")
    else:
        angle_rows = spec.get("measurements", [[0.0, 0.0]] * (n - 1))
        if len(angle_rows) != n - 1:
            raise ConfigError("protocol.measurements: one [theta, phi] per round 1..n-1")
        if angle_rows:
            _require_qubit(channel, "protocol.measurements")
        for j, (theta, phi) in enumerate(angle_rows, start=1):
            measurements.append(on_freshest(rotated_qubit_povm(theta, phi), j))

    feedback: dict = {}
    fb_spec = spec.get("feedback", {})
    if fb_spec:
        for m_str, per in fb_spec.items():
            m = int(m_str)
            if not 2 <= m <= n - 1:
                raise ConfigError(f"protocol.feedback: round {m} has no registers to act on")
            feedback[m] = {}
            labels = {str(lab): lab for lab in measurements[m - 2].labels}  # keys as encode_code writes them
            for outcome_str, entry in per.items():
                if outcome_str not in labels:
                    raise ConfigError(f"protocol.feedback[{m}][{outcome_str}]: not an outcome of M_{m - 1}")
                outcome = labels[outcome_str]
                if isinstance(entry, list) and len(entry) == 3 and not isinstance(entry[0], list):
                    _require_qubit(channel, f"protocol.feedback[{m}][{outcome}]")
                    u = euler_unitary(*(float(x) for x in entry))
                    feedback[m][outcome] = (kron(u, identity(d ** (n - m - 1))),)
                else:
                    feedback[m][outcome] = tuple(
                        matrix_from_json(rows, f"protocol.feedback[{m}][{outcome}]")
                        for rows in entry
                    )

    if len(measurements) == n - 1:
        final = spec.get("final_measurement", "pgm")
        if final != "pgm":
            raise ConfigError("protocol.final_measurement: only 'pgm' or explicit POVMs")
        partial = FeedbackCode(book, channel, probs, states, tuple(measurements) + (None,), feedback)
        return with_pgm_decoder(partial, probs)
    return FeedbackCode(book, channel, probs, states, tuple(measurements), feedback)


@dataclass
class ExperimentConfig:
    channel: QuantumChannel
    code: FeedbackCode


def parse_config(data: dict) -> ExperimentConfig:
    _require_keys(data, {"channel", "protocol"}, {"channel", "protocol"}, "config")
    channel = channel_from_spec(data["channel"])
    return ExperimentConfig(channel, code_from_spec(data["protocol"], channel))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(data)


def encode_code(code: FeedbackCode) -> dict:
    """Serialize a code with explicit matrices (no adaptive schedules)."""
    meas = []
    for m in code.measurements:
        if isinstance(m, dict):
            raise ConfigError("adaptive measurement schedules are not serializable")
        meas.append(
            [
                [lab if isinstance(lab, int) else _label_to_json(lab), matrix_to_json(f)]
                for lab, f in m.elements
            ]
        )
    fb = {}
    for m, per in sorted(code.feedback.items()):
        fb[str(m)] = {
            str(outcome): [matrix_to_json(k) for k in kraus] for outcome, kraus in per.items()
        }
    return {
        "channel": {"kraus": [matrix_to_json(k) for k in code.channel.kraus]},
        "protocol": {
            "n": code.n,
            "alphabet": code.codebook.alphabet,
            "words": ["".join(str(x) for x in w) for w in code.codebook.words],
            "probs": list(code.probs),
            "states": [matrix_to_json(s.mat) for s in code.states],
            "measurements_explicit": meas,
            "feedback": fb,
        },
    }


def _label_to_json(lab):
    if isinstance(lab, tuple):
        return "".join(str(x) for x in lab)
    return str(lab)


def dump_report(report: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, round-trip floats."""
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))
