"""Span tracer that wraps ``hlaskit``'s public functions from outside.

The tracer replaces each listed function with a wrapper in every ``hlaskit``
module namespace that binds it, because ``cli`` and ``example`` import
functions by name and ``scoring`` calls ``hee_coverage`` through its own
binding.  Each wrapper records one span (name, start, end, parent, job) and
the work counts it can read from the call's arguments and result.  Spans are
kept in memory; ``write_spans`` stores them when the run ends.

Self time is a span's duration minus the time its child spans cover.  The
program is single-threaded, so child spans nest strictly inside their
parent and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _size(path) -> int:
    return os.stat(path).st_size


def _count_bands(args, kwargs, result):
    return {"rows": sum(len(b.samples) for b in result.values())}


def _count_capability(args, kwargs, result):
    return {"rows": len(result.samples)}


def _count_efficiency(args, kwargs, result):
    return {"rows": sum(len(points) for points in result.values())}


def _count_binding(args, kwargs, result):
    return {"bytes": sum(_size(p) for p in args[1])}


def _count_hee(args, kwargs, result):
    band = args[0]
    delta = args[2] if len(args) > 2 else kwargs.get("headroom_delta", 0.0)
    return {"samples": len(band.samples),
            "key": (band.task, band.joint, float(delta))}


def _count_report(args, kwargs, result):
    listed = json.loads(Path(result.manifest).read_text())["artifacts"]
    paths = [result.out_dir / a["path"] for a in listed] + [result.manifest]
    return {"files": len(paths), "bytes": sum(_size(p) for p in paths)}


def _count_sha(args, kwargs, result):
    return {"bytes": _size(args[0])}


def _count_write_log(args, kwargs, result):
    return {"rows": len(args[0].t), "bytes": _size(args[1])}


def _count_read_log(args, kwargs, result):
    return {"rows": len(result.t), "bytes": _size(args[0])}


def _count_samples(args, kwargs, result):
    return {"samples": len(result.t)}


# module -> function -> counter (None: calls and time only)
TRACED = {
    "cli": {"main": None},
    "config_io": {
        "load_preregistration": None,
        "read_bands": _count_bands,
        "read_capability_map": _count_capability,
        "read_efficiency_file": _count_efficiency,
        "verify_prereg_binding": _count_binding,
        "load_measurements": None,
        "build_pairs": None,
        "emit_report": _count_report,
        "sha256_file": _count_sha,
        "write_log": _count_write_log,
        "read_log": _count_read_log,
    },
    "bands": {"normalize_weights": None},
    "envelope": {"hee_coverage": _count_hee},
    "scoring": {"hlas": None, "compute_features": None},
    "signals": {
        "task_weighted_efficiency": None,
        "detect_plateau": None,
        "steady_trend": None,
        "fit_friction": None,
        "compute_frf": None,
        "find_crossover": None,
        "power_balance_check": None,
    },
    "synthetic": {
        "generate_thermal_duty_log": _count_samples,
        "generate_backdrive_log": _count_samples,
        "generate_sweep_log": _count_samples,
    },
    "example": {"run_example": None, "compare_to_golden": None},
}

ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, job, counts or None]
        self.spans: list[list] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, name: str, func, counter):
        qualname = f"{module}.{name}"
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1,
                    self.job, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                errors[module] += 1
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in each ``hlaskit`` module binding it."""
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "hlaskit"
                                        or n.startswith("hlaskit."))]
        for module, functions in TRACED.items():
            home = sys.modules[f"hlaskit.{module}"]
            for name, counter in functions.items():
                original = getattr(home, name)
                wrapper = self._wrap(module, name, original, counter)
                for mod in loaded:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def per_job(self) -> dict:
        """job -> name -> {"calls", "self_s", counts..., "keys": set}, plus
        the summed duration of each job's root ``cli.main`` spans under the
        name ``"root_s"``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        jobs: dict = defaultdict(lambda: defaultdict(
            lambda: defaultdict(float)))
        roots: dict = defaultdict(float)
        for i, (name, start, end, parent, job, counts) in enumerate(
                self.spans):
            entry = jobs[job][name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            for key, value in (counts or {}).items():
                if key == "key":
                    entry.setdefault("keys", set()).add(value)
                else:
                    entry[key] += value
            if parent < 0 and name == ROOT_SPAN:
                roots[job] += end - start
        return {"jobs": jobs, "root_s": roots}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, job, counts) in enumerate(
                    self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent if parent >= 0 else None,
                          "job": job}
                if counts:
                    record.update({k: (list(v) if k == "key" else v)
                                   for k, v in counts.items()})
                fh.write(json.dumps(record) + "\n")
