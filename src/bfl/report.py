"""Verdicts, scan plans, and deterministic report emission."""

import functools
import json
import time

HOLDS = "holds"
FAILS = "fails"
INDETERMINATE = "indeterminate"
SKIPPED = "skipped"
_STATUSES = (HOLDS, FAILS, INDETERMINATE, SKIPPED)
# a sampled plan's draws and seed, unless the caller names its own
DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 0xBF


class ScanPlan:
    """How to range over a conjugate/element list: everything, or a seeded sample."""

    __slots__ = ("mode", "size", "seed")

    def __init__(self, mode="sample", size=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
        if mode not in ("exhaustive", "sample"):
            raise ValueError("mode must be exhaustive or sample")
        if mode == "sample" and size < 1:
            raise ValueError("sample size must be positive")
        self.mode = mode
        self.size = int(size)
        self.seed = int(seed)

    @classmethod
    def exhaustive(cls):
        return cls(mode="exhaustive")

    @classmethod
    def sample(cls, size=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
        return cls(mode="sample", size=size, seed=seed)

    def __repr__(self):
        if self.mode == "exhaustive":
            return "ScanPlan.exhaustive()"
        return "ScanPlan.sample(size=%d, seed=%#x)" % (self.size, self.seed)


class Verdict:
    """Outcome of one named check: status, witnesses, counters, wall-time.

    `seconds` is the wall time of the public call that returned it (`timed`).
    """

    __slots__ = ("scenario", "status", "witnesses", "counters", "seconds",
                 "sampled", "notes")

    def __init__(self, scenario, status, witnesses=(), counters=None,
                 seconds=0.0, sampled=False, notes=()):
        if status not in _STATUSES:
            raise ValueError("bad status %r" % (status,))
        if status == FAILS and not witnesses:
            raise ValueError("a fails verdict needs at least one witness")
        self.scenario = scenario
        self.status = status
        self.witnesses = list(witnesses)
        self.counters = dict(counters or {})
        self.seconds = float(seconds)
        self.sampled = bool(sampled)
        self.notes = list(notes)

    @property
    def display_status(self):
        if self.status == HOLDS and self.sampled:
            return "holds (sampled)"
        return self.status

    def to_json(self):
        return {
            "scenario": self.scenario,
            "status": self.status,
            "sampled": self.sampled,
            "witnesses": self.witnesses,
            "counters": self.counters,
            "seconds": round(self.seconds, 3),
            "notes": self.notes,
        }

    def __repr__(self):
        return "Verdict(%r, %r)" % (self.scenario, self.display_status)


def timed(check):
    """check, with the returned Verdict's `seconds` set to the call's wall
    time: the one clock of every check."""
    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        v = check(*args, **kwargs)
        v.seconds = time.perf_counter() - t0
        return v
    return wrapper


def exit_code(verdicts):
    """0 all hold/skip, 1 any fails, 2 indeterminate present without failure."""
    statuses = {v.status for v in verdicts}
    if FAILS in statuses:
        return 1
    if INDETERMINATE in statuses:
        return 2
    return 0


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(depth):
    """The compact, sorted-key C encoder, items parted by ",\\n" + indent."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + "  " * depth, True, False, True)


def _key(k):
    """A dict key as a JSON string, converted as json.dumps converts it."""
    if isinstance(k, (int, float)) or k is None:
        k = "".join(_encoder(0)(k, 0))
    return json.encoder.encode_basestring_ascii(k)


def _dumps(obj, depth):
    """obj as the stdlib writes it at depth with indent 2 and sorted keys:
    containers of containers item by item, containers of scalars whole."""
    if not obj or not isinstance(obj, _CONTAINERS):
        return "".join(_encoder(depth)(obj, 0))
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        if any(isinstance(v, _CONTAINERS) for v in obj.values()):
            return "{%s%s\n%s}" % (pad, ("," + pad).join(
                _key(k) + ": " + _dumps(v, depth + 1)
                for k, v in sorted(obj.items())), "  " * depth)
    elif any(isinstance(v, _CONTAINERS) for v in obj):
        return "[%s%s\n%s]" % (pad, ("," + pad).join(
            _dumps(v, depth + 1) for v in obj), "  " * depth)
    text = "".join(_encoder(depth + 1)(obj, 0))
    return text[0] + pad + text[1:-1] + "\n" + "  " * depth + text[-1]


def dumps(obj):
    """The stdlib's indent-2, sorted-key JSON text of obj plus a newline:
    the one JSON writer of reports and CLI bodies."""
    return _dumps(obj, 0) + "\n"


def emit_report(verdicts, format="human"):
    """Render verdicts to a string; identical input gives identical output."""
    if format == "json":
        return dumps({"verdicts": [v.to_json() for v in verdicts],
                      "exit_code": exit_code(verdicts)})
    if format != "human":
        raise ValueError("format must be human or json")
    lines = []
    for v in verdicts:
        counters = " ".join("%s=%s" % (k, v.counters[k])
                            for k in sorted(v.counters))
        head = "%-12s %s" % (v.display_status.upper(), v.scenario)
        if counters:
            head += "  [%s]" % counters
        head += "  (%.3fs)" % v.seconds
        lines.append(head)
        for note in v.notes:
            lines.append("    note: %s" % note)
        for w in v.witnesses:
            lines.append("    witness: %s" % json.dumps(w, sort_keys=True))
    return "".join(line + "\n" for line in lines)
