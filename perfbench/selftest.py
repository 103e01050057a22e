"""Self-test of the benchmark's output gate.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs one period of ``paper-sweep`` on the default seed three times: clean,
with faults injected, and with faults injected while traced.  The faults are
a request that raises, a result whose ``f`` is off, and a result whose
selection is out of range.  Each must count as failed, and the loop must
carry on to the end of the period.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import sys

import run
import spans
import workloads


class Faulty:
    """A workload whose second request raises and whose third and fourth
    results are corrupted."""

    def __init__(self, wl):
        self.wl = wl
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def call(self, dv, state, spec):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("injected failure")
        return self.wl.call(dv, state, spec)

    def result(self, state, spec, raw):
        res = self.wl.result(state, spec, raw)
        if self.calls == 3:
            res["f"] += 1e-3
        elif self.calls == 4:
            res["selected"] = res["selected"][:-1] + (10**6,)
        return res


def main() -> int:
    dv = run.load_divsel()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS["paper-sweep"]
    inputs = wl.generate(run.DEFAULT_SEED, run.OUT_DIR)
    specs = wl.specs(inputs)
    state = wl.build(dv, inputs)
    refs = wl.references(dv, inputs, specs)
    digest = run.load_digest(wl.name, run.DEFAULT_SEED, specs)
    period = wl.period(specs)

    tracer = spans.Tracer(run.MAX_SPANS)
    cases = [("clean", wl, None, 0), ("faulty", Faulty(wl), None, 3),
             ("faulty traced", Faulty(wl), tracer, 3)]
    errors = []
    for label, workload, case_tracer, expected in cases:
        if case_tracer is not None:
            case_tracer.install(dv)
        phase = run.run_phase(workload, dv, state, specs, refs, digest, 0.0, case_tracer)
        print(f"{label}: attempted={phase.attempted} failed={phase.failed}")
        for failure in phase.failures:
            print(f"  {failure}")
        if phase.attempted != period or phase.failed != expected:
            errors.append(f"{label}: expected {period} attempted and {expected} failed")
    if tracer.requests != period or tracer.stack:
        errors.append(f"tracer closed {tracer.requests} of {period} requests")
    for error in errors:
        print(f"FAIL {error}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
