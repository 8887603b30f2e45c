"""The fitter's reference set: fit it, record every result exactly, compare two records.

    python tools/refset.py --out ref.json [--subset benchmark]
    python tools/refset.py --compare before.json after.json

--out fits each data set with the default fit_ml and writes one JSON
object per fit: every FitResult field, floats as float.hex, and mu_pinned,
whether the fitted mu lies within the resolution floor of an observation
(where the fit holds mu and drops its score from the convergence test).
The esbiii fitted is the one in this checkout's src, so to compare two
versions run each checkout's copy of this file.

--compare prints, for two such files, how many fits are identical (every
field), higher or lower in loglik, or equal in loglik with another field
moved, split by converged (at both) or not and by mu pinned (at either)
or free.  Each change of convergence is listed, each group's largest
move down and up, relative to |loglik|, and each fit of equal loglik
with the fields that moved (params by name).

The full set (--subset all) is 198 fits, about 20 s: the nine benchmark
fits (three truths at n = 2000, seeds 1-3), the CLI chain's three fits,
test_10's seeds 4-20, a sweep of nine truths at n = 20, 50 and 200, seeds
1-5 (ROADMAP item 7's nine), and the one-off cases of _special.  Two
cases of the set as CHANGES.md first listed it, (1, 1, 0) n = 50 seed 4
and (0.8, 0.5, 0.2) n = 200 seed 2, are sweep fits, so they are fitted
once.  The benchmark subset is the first nine, about 1 s.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from esbiii import Dataset, Params, fit_ml, sample  # noqa: E402
from esbiii.fit import _data_resolution  # noqa: E402

BENCHMARK = {"bimodal": (2.0, 1.0, -0.3), "boundary": (5.0, 0.2, 0.4), "spiked": (5.0, 0.1, 0.2)}
SWEEP = (
    (2.0, 1.0, -0.3),
    (5.0, 0.2, 0.4),
    (5.0, 0.1, 0.2),
    (0.8, 0.5, 0.2),
    (1.5, 3.0, 0.0),
    (20.0, 0.2, 0.5),
    (3.0, 0.5, 0.3),
    (1.0, 1.0, 0.0),
    (4.0, 1.0, -0.3),
)


def _draw(shape, n, seed):
    return sample(Params(0.0, 1.0, *shape), n, seed=seed)


def _special():
    """The one-off cases: large samples, ties, offsets and reflections."""
    bimodal, boundary, spiked = BENCHMARK.values()
    yield "bimodal n=20000 seed=1", _draw(bimodal, 20000, 1)
    yield "boundary n=20000 seed=1", _draw(boundary, 20000, 1)
    yield "boundary n=8193 seed=1", _draw(boundary, 8193, 1)
    yield "(0.8, 0.5, 0.2) n=200 seed=11", _draw((0.8, 0.5, 0.2), 200, 11)
    yield "boundary n=2000 seed=11 rounded to 0.5", 0.5 * np.round(2.0 * _draw(boundary, 2000, 11))
    yield "bimodal n=2000 seed=11 + 1e12", _draw(bimodal, 2000, 11) + 1e12
    x = _draw(boundary, 2000, 42)
    yield "test_11 data", x
    yield "test_11 data negated", -x
    yield "test_11 data 2x + 3", 2.0 * x + 3.0
    yield "spiked n=200 seed=11", _draw(spiked, 200, 11)
    for name in ("bimodal", "spiked"):
        for seed in range(4, 16):
            yield f"{name} n=2000 seed={seed}", _draw(BENCHMARK[name], 2000, seed)


def datasets(subset):
    """(name, values) of each fit of the subset, in a fixed order."""
    for name, shape in BENCHMARK.items():
        for seed in (1, 2, 3):
            yield f"{name} n=2000 seed={seed}", _draw(shape, 2000, seed)
    if subset == "benchmark":
        return
    for seed in (1, 2, 3):
        yield f"chain (3, 0.5, 0.3) n=200 seed={seed}", _draw((3.0, 0.5, 0.3), 200, seed)
    for seed in range(4, 21):
        yield f"test_10 n=2000 seed={seed}", _draw(BENCHMARK["boundary"], 2000, seed)
    for shape in SWEEP:
        for n in (20, 50, 200):
            for seed in range(1, 6):
                yield f"{shape} n={n} seed={seed}", _draw(shape, n, seed)
    yield from _special()


def record(x):
    """fit_ml's result on x, every field exact, and whether mu is pinned."""
    r = fit_ml(Dataset(x))
    floor = _data_resolution(x)
    return {
        "params": {name: getattr(r.params, name).hex() for name in ("mu", "sigma", "c", "k", "eps")},
        "loglik": r.loglik.hex(),
        "aic": r.aic.hex(),
        "converged": r.converged,
        "cycles": r.cycles,
        "score_norm": r.score_norm.hex(),
        "free_params": r.free_params,
        "trace": [[i, v.hex()] for i, v in r.trace],
        "mu_pinned": bool(np.min(np.abs(x - r.params.mu)) <= floor * (1.0 + 1e-9)),
    }


def write(subset, path):
    t0, fits = time.perf_counter(), {}
    for name, x in datasets(subset):
        fits[name] = record(x)
    Path(path).write_text(json.dumps(fits, indent=1) + "\n", encoding="utf-8")
    print(f"{len(fits)} fits in {time.perf_counter() - t0:.1f} s -> {path}", file=sys.stderr)


def _moved(ra, rb):
    """The fields in which two records of one fit differ, params by name."""
    fields = []
    for key, value in ra.items():
        if key == "params":
            fields += [f"params.{p}" for p, v in value.items() if v != rb[key][p]]
        elif value != rb[key]:
            fields.append(key)
    return fields


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    only = sorted(a.keys() ^ b.keys())
    if only:
        print(f"{len(only)} fits are in one file only, among them {only[:3]}")
    groups = {}
    for name in a.keys() & b.keys():
        ra, rb = a[name], b[name]
        la, lb = float.fromhex(ra["loglik"]), float.fromhex(rb["loglik"])
        if ra["converged"] != rb["converged"]:
            print(f"convergence {ra['converged']} -> {rb['converged']}: {name}, loglik {la!r} -> {lb!r}")
            continue
        key = ("converged" if ra["converged"] else "unconverged",
               "mu pinned" if ra["mu_pinned"] or rb["mu_pinned"] else "mu free")
        if ra == rb:
            kind = "identical"
        elif lb == la:
            kind = "same loglik"
        else:
            kind = "higher" if lb > la else "lower"
        rel = (lb - la) / abs(la) if la else lb - la
        groups.setdefault(key, []).append((kind, rel, name, la, lb, _moved(ra, rb)))
    for key in sorted(groups):
        fits = groups[key]
        counts = {kind: sum(f[0] == kind for f in fits) for kind in ("identical", "same loglik", "higher", "lower")}
        print(f"{key[0]}, {key[1]}: {len(fits)} fits, " + ", ".join(f"{v} {k}" for k, v in counts.items()))
        for kind, pick in (("lower", min), ("higher", max)):
            moved = [f for f in fits if f[0] == kind]
            if moved:
                _, rel, name, la, lb, _ = pick(moved, key=lambda f: f[1])
                print(f"  most {kind}: {rel:+.2e} relative, {name}, loglik {la!r} -> {lb!r}")
        for kind, _, name, _, _, fields in sorted(fits, key=lambda f: f[2]):
            if kind == "same loglik":
                print(f"  same loglik: {name}, moved: {', '.join(fields)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--subset", choices=("all", "benchmark"), default="all")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="fit the subset and write its results here")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two such files")
    args = ap.parse_args(argv)
    if args.out:
        write(args.subset, args.out)
    else:
        compare(*args.compare)


if __name__ == "__main__":
    main()
