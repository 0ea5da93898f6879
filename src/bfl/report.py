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


def emit_report(verdicts, format="human"):
    """Render verdicts to a string; identical input gives identical output."""
    if format == "json":
        body = {"verdicts": [v.to_json() for v in verdicts],
                "exit_code": exit_code(verdicts)}
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
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
    if not verdicts:
        return ""
    return "\n".join(lines) + "\n"
