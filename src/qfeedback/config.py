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
    fully_depolarizing_channel,
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


def _number(kind, value, where: str):
    """``kind(value)``, or a ConfigError naming ``where`` when the field is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _shaped(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (list or dict), else a ConfigError naming ``where``, as ``_number`` for scalars."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: expected {'a list' if kind is list else 'an object'}, got {value!r}")
    return value


def _angle_pair(row, where: str) -> tuple[float, float]:
    """A ``[theta, phi]`` row as two floats, or a ConfigError naming ``where``."""
    if not (isinstance(row, list) and len(row) == 2):
        raise ConfigError(f"{where}: expected a [theta, phi] pair, got {row!r}")
    return _number(float, row[0], where), _number(float, row[1], where)


# name -> (constructor, type of each keyword parameter); identity's "dim" defaults to 2.
_CHANNELS = {
    "identity": (identity_channel, {"dim": int}),
    "depolarizing": (depolarizing_channel, {"p": float}),
    "fully_depolarizing": (fully_depolarizing_channel, {}),
    "amplitude_damping": (amplitude_damping_channel, {"gamma": float}),
    "dephasing": (dephasing_channel, {"p": float}),
}


def channel_from_spec(spec: dict) -> QuantumChannel:
    _require_keys(spec, {"name", "p", "gamma", "dim", "kraus"}, set(), "channel")
    if "kraus" in spec:
        _require_keys(spec, {"kraus"}, set(), "channel with explicit kraus")
        mats = [matrix_from_json(k, "channel.kraus") for k in spec["kraus"]]
        try:
            return QuantumChannel(tuple(mats), "explicit")
        except ValidationError as exc:
            raise ValidationError(f"channel 'explicit': {exc}") from None
    name = spec.get("name")
    if name not in _CHANNELS:
        raise ConfigError(f"channel: unknown name {name!r}")
    build, params = _CHANNELS[name]
    _require_keys(spec, {"name", *params}, set(params) - {"dim"}, f"channel '{name}'")
    kwargs = {key: _number(kind, spec[key], f"channel.{key}") for key, kind in params.items() if key in spec}
    try:
        return build(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"channel '{name}': {exc}") from None


def _parse_word(w, n: int, where: str) -> tuple[int, ...]:
    if not isinstance(w, (str, list)):
        raise ConfigError(f"{where}: word {w!r} is neither a string nor a list")
    letters = tuple(_number(int, x, where) for x in w)  # a string word is read digit by digit
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
    n = _number(int, spec["n"], "protocol.n")
    alphabet = _number(int, spec.get("alphabet", 2), "protocol.alphabet")
    d = channel.in_dim
    words = tuple(_parse_word(w, n, "protocol.words") for w in _shaped(spec["words"], list, "protocol.words"))
    try:
        book = Codebook(alphabet, n, words)
    except ValidationError as exc:
        raise ConfigError(f"protocol.words: {exc}") from None
    probs = tuple(_number(float, p, "protocol.probs") for p in _shaped(spec["probs"], list, "protocol.probs"))
    if len(probs) != len(words):
        raise ConfigError("protocol.probs: arity does not match words")
    # Written "not >=" / "not <=" so that a NaN probability fails the check.
    if not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:
        raise ValidationError("protocol.probs: not a probability distribution")

    if ("letter_states" in spec) == ("states" in spec):
        raise ConfigError("protocol: give exactly one of letter_states or states")
    if "letter_states" in spec:
        _require_qubit(channel, "protocol.letter_states")
        angles = _shaped(spec["letter_states"], list, "protocol.letter_states")
        if len(angles) != alphabet:
            raise ConfigError("protocol.letter_states: one [theta, phi] per letter")
        angles = [_angle_pair(pair, "protocol.letter_states") for pair in angles]
        states = product_states([bloch_state(t, f) for t, f in angles], words)
    else:
        states = []
        for i, rows in enumerate(_shaped(spec["states"], list, "protocol.states")):
            mat = matrix_from_json(rows, f"protocol.states[{i}]")
            try:
                states.append(DensityMatrix(mat, (d,) * n))
            except ValidationError as exc:
                raise ValidationError(f"protocol.states[{i}]: {exc}") from None

    measurements: list = []
    if "measurements_explicit" in spec:
        if "measurements" in spec:
            raise ConfigError("protocol: give angles or explicit measurements, not both")
        entries = _shaped(spec["measurements_explicit"], list, "protocol.measurements_explicit")
        for j, entry in enumerate(entries, start=1):
            els = []
            for item in _shaped(entry, list, f"protocol.M{j}"):
                if not (isinstance(item, list) and len(item) == 2):
                    raise ConfigError(f"protocol.M{j}: expected a [label, matrix] pair, got {item!r}")
                lab, rows = item
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
        angle_rows = _shaped(spec.get("measurements", [[0.0, 0.0]] * (n - 1)), list, "protocol.measurements")
        if len(angle_rows) != n - 1:
            raise ConfigError("protocol.measurements: one [theta, phi] per round 1..n-1")
        if angle_rows:
            _require_qubit(channel, "protocol.measurements")
        for j, row in enumerate(angle_rows, start=1):
            theta, phi = _angle_pair(row, "protocol.measurements")
            measurements.append(on_freshest(rotated_qubit_povm(theta, phi), j))

    feedback: dict = {}
    fb_spec = _shaped(spec.get("feedback", {}), dict, "protocol.feedback")
    if fb_spec:
        for m_str, per in fb_spec.items():
            m = _number(int, m_str, "protocol.feedback")
            if not 2 <= m <= n - 1:
                raise ConfigError(f"protocol.feedback: round {m} has no registers to act on")
            feedback[m] = {}
            labels = {str(lab): lab for lab in measurements[m - 2].labels}  # keys as encode_code writes them
            for outcome_str, entry in _shaped(per, dict, f"protocol.feedback[{m}]").items():
                if outcome_str not in labels:
                    raise ConfigError(f"protocol.feedback[{m}][{outcome_str}]: not an outcome of M_{m - 1}")
                outcome = labels[outcome_str]
                where = f"protocol.feedback[{m}][{outcome}]"
                if isinstance(entry, list) and len(entry) == 3 and not isinstance(entry[0], list):
                    _require_qubit(channel, where)
                    u = euler_unitary(*(_number(float, x, where) for x in entry))
                    feedback[m][outcome] = (kron(u, identity(d ** (n - m - 1))),)
                else:
                    feedback[m][outcome] = tuple(matrix_from_json(rows, where) for rows in _shaped(entry, list, where))

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
