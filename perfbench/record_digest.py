"""Record the digest that runs on the default seed are checked against.

Usage, from the root of a checkout::

    python3 perfbench/record_digest.py

For every workload it sends each request of the cycle once, on the default
seed, and writes ``selected``, ``winning_threshold`` and ``f``/``g``/``div`` to
``perfbench/digest.json``.  ``oracle_calls`` and timings are left out.
Run it only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    dv = run.load_divsel()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    doc = {"seed": run.DEFAULT_SEED, "source": run.source_identity(), "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.generate(run.DEFAULT_SEED, run.OUT_DIR)
        state = wl.build(dv, inputs)
        entries = []
        specs = wl.specs(inputs)
        for spec, ref in zip(specs, wl.references(dv, inputs, specs)):
            res = wl.result(state, spec, wl.call(dv, state, spec))
            problems = workloads.check(res, ref, None)
            if problems:
                raise SystemExit(f"{name} {spec.key}: {problems}")
            entries.append({"key": spec.key, "selected": list(res["selected"]),
                            "threshold": res["threshold"], "f": res["f"], "g": res["g"],
                            "div": res["div"]})
        doc["workloads"][name] = entries
        print(f"{name}: {len(entries)} requests recorded")
    # one request per line keeps the file readable and its diffs small
    lines = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
             for name, entries in doc["workloads"].items()]
    with open(run.DIGEST, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {doc["seed"]}, "source": {json.dumps(doc["source"])}, "workloads": {{\n')
        fh.write(",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
