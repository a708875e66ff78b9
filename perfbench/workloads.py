"""The benchmark's workloads.

A workload builds its inputs from the run's seed, yields the operations of
one round as ``(name, thunk)`` pairs and checks the outputs of its rounds with
``checks``.  Every round of a workload runs the same operations on the same
inputs.  ``small=True`` builds the same workload at a size meant for warm-up.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

import checks
from symcone import cli, funceq, harness, rng, wishart
from symcone.algebra import Algebra, unit
from symcone.geometry import ConeElement

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA = SRC / "symcone" / "schemas" / "sample_batch.schema.json"

# Round sizes. Acceptance criteria 7 and 8 run n = 10000 draws and B = 500
# permutations on m = 1500 rows, 12 to 25 s per experiment here. The host's
# speed drifts by up to a quarter over minutes, which moves the mean of any
# window, so a run repeats rounds of about a second and reports the fastest
# (see README). Each round keeps the layer that dominates its workload.
FORWARD_N, FORWARD_M = 10000, 1500
NEGATIVE_N, NEGATIVE_M = 1000, 1000
PERMUTATIONS = 50
LEVEL = 0.05
SHAPE = 4.0
# criterion 7's seeds; none rejects at these sizes (seed 18 is closest, p = 0.059)
FORWARD_SEEDS = tuple(range(20))
# criterion 8's seeds; every one rejects on hermc:3 with scales e and 3e
NEGATIVE_SEEDS = tuple(range(20))

SAMPLE_DRAWS = 10000
SAMPLE_SHAPE = 4.0
SAMPLE_RUNS = (("hermc:3", "json"), ("symr:3", "csv"), ("lorentz:4", "json"))
# rows given to jsonschema; the item rule of the rest is checked by type
SCHEMA_ROWS = 1000

FUNCEQ_PAIRS = 40
FUNCEQ_TRIPLES = 20
DEFECT = 0.1


class _ByteCount:
    """Stdout stand-in that counts the bytes of the document printed."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text.encode())
        return len(text)

    def flush(self):
        pass


# ---------------------------------------------------------------------------
# independence experiments
# ---------------------------------------------------------------------------

class _Experiment:
    spec: str
    seeds: tuple[int, ...]
    op_names: tuple[str, ...]
    expect_reject: bool

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.algebra = Algebra.from_spec(self.spec)
        self.seed = self.seeds[seed % len(self.seeds)]
        self.n, self.permutations, self.m = (1000, 1, 100) if small else self.size

    def _scale(self, k: float) -> ConeElement:
        return ConeElement.certify(k * unit(self.algebra))

    def round(self):
        yield self.op_names[0], self.experiment

    def _regenerate(self, params1, params2):
        """The experiment's draws at its seed and streams, with the cone-margin
        resampling decided by numpy eigenvalues; returns (x, y, resampled)."""
        kind, r = checks.parse_spec(self.spec)
        x = np.array(wishart.sample(params1, self.n, self.seed, stream=0).coords)
        y = np.array(wishart.sample(params2, self.n, self.seed, stream=1).coords)
        resampled = 0
        for attempt in range(100):
            v = x + y
            bad = checks.eigvals(kind, r, v)[:, 0] < harness.DEFAULT_MARGIN * checks.traces(kind, r, v)
            n_bad = int(bad.sum())
            if n_bad == 0:
                return x, y, resampled
            resampled += n_bad
            for arr, params, stream in ((x, params1, 2 * attempt), (y, params2, 2 * attempt + 1)):
                arr[bad] = wishart.sample(
                    params, n_bad, self.seed, stream=stream, _purpose=rng.PURPOSE_RESAMPLE
                ).coords
        raise RuntimeError("regeneration did not clear the cone margin")

    def check(self, rounds: list[dict]) -> list[str]:
        name = self.op_names[0]
        reports = [r[name].to_json_dict() for r in rounds if name in r]
        if not reports:
            return []
        fails = [f"round {k} report differs from round 0" for k, rep in enumerate(reports)
                 if rep != reports[0]]
        x, y, resampled = self._regenerate(*self.params())
        return fails + checks.check_experiment(
            reports[0], x, y, self.m, resampled, self.mean_terms, self.expect_reject
        )


class ForwardSymr3(_Experiment):
    spec = "symr:3"
    seeds = FORWARD_SEEDS
    size = (FORWARD_N, PERMUTATIONS, FORWARD_M)
    op_names = ("forward",)
    expect_reject = False
    mean_terms = ((SHAPE, 1.0), (SHAPE, 1.0))

    def params(self):
        a = self._scale(1.0)
        return wishart.WishartParams(self.algebra, SHAPE, a), wishart.WishartParams(self.algebra, SHAPE, a)

    def experiment(self):
        return harness.forward_experiment(
            SHAPE, SHAPE, self._scale(1.0), self.n, self.seed, level=LEVEL,
            permutations=self.permutations, max_stat_samples=self.m,
        )


class NegativeHermc3(_Experiment):
    spec = "hermc:3"
    seeds = NEGATIVE_SEEDS
    size = (NEGATIVE_N, PERMUTATIONS, NEGATIVE_M)
    op_names = ("negative",)
    expect_reject = True
    mean_terms = ((SHAPE, 1.0), (SHAPE, 3.0))

    def params(self):
        return (
            wishart.WishartParams(self.algebra, SHAPE, self._scale(1.0)),
            wishart.WishartParams(self.algebra, SHAPE, self._scale(3.0)),
        )

    def experiment(self):
        return harness.negative_experiment(
            SHAPE, SHAPE, self._scale(1.0), self._scale(3.0), self.n, self.seed,
            level=LEVEL, permutations=self.permutations, max_stat_samples=self.m,
        )


# ---------------------------------------------------------------------------
# sampling through the CLI
# ---------------------------------------------------------------------------

class SampleN1e4:
    op_names = tuple(f"sample-{spec}-{fmt}" for spec, fmt in SAMPLE_RUNS)

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.n = 100 if small else SAMPLE_DRAWS
        self.out_dir = out_dir
        self.tag = "warmup" if small else "sample"

    def path(self, spec: str, fmt: str, workers: int = 1) -> Path:
        suffix = "" if workers == 1 else f"-workers{workers}"
        return self.out_dir / f"{self.tag}-{spec.replace(':', '')}{suffix}.{fmt}"

    def argv(self, spec: str, fmt: str, workers: int = 1) -> list[str]:
        return [
            "sample", "--algebra", spec, "--p", repr(SAMPLE_SHAPE), "--n", str(self.n),
            "--seed", str(self.seed), "--workers", str(workers), "--format", fmt,
            "--out", str(self.path(spec, fmt, workers)),
        ]

    def command(self, argv: list[str]) -> tuple[int, int]:
        """Run one CLI command in-process; returns (exit code, stdout bytes)."""
        sink = _ByteCount()
        with contextlib.redirect_stdout(sink):
            code = cli.run(cli.parse(argv))
        return code, sink.count

    def round(self):
        for (spec, fmt), name in zip(SAMPLE_RUNS, self.op_names):
            yield name, lambda spec=spec, fmt=fmt: self.command(self.argv(spec, fmt))

    @staticmethod
    def bytes_out(results: dict) -> int:
        return sum(bytes_out for _, bytes_out in results.values())

    def check(self, rounds: list[dict]) -> list[str]:
        import jsonschema

        schema = json.loads(SCHEMA.read_text())
        fails = [f"{name} exited {code}" for r in rounds for name, (code, _) in r.items() if code]
        if any(r != rounds[0] for r in rounds):
            fails.append("rounds printed different byte counts")
        for spec, fmt in SAMPLE_RUNS:
            text = self.path(spec, fmt).read_text()
            doc, reload_fails = (checks.json_reload if fmt == "json" else checks.csv_reload)(text)
            fails += reload_fails
            head = dict(doc, samples=doc["samples"][:SCHEMA_ROWS])
            errors = [e.message for e in jsonschema.Draft7Validator(schema).iter_errors(head)]
            if any(not isinstance(row, list) or not all(type(c) is float for c in row)
                   for row in doc["samples"]):
                errors.append("a sample row is not an array of numbers")
            fails += [f"{spec} {fmt} schema: {e}" for e in errors]
            fails += checks.check_sample_doc(doc, self.n, SAMPLE_SHAPE, 1.0)
        spec, fmt = SAMPLE_RUNS[2]
        code, _ = self.command(self.argv(spec, fmt, workers=2))
        if code or self.path(spec, fmt, 2).read_bytes() != self.path(spec, fmt).read_bytes():
            fails.append(f"{spec} output differs between --workers 1 and --workers 2")
        return fails


# ---------------------------------------------------------------------------
# functional-equation residual sweeps
# ---------------------------------------------------------------------------

SYM3 = Algebra.sym_real(3)
# two regular families (lam = l * e, c1, c2, kappa) of criterion 9
FAMILIES = {
    "ob-family-a": (-1.0, 1.0, 2.0, 0.0),
    "ob-family-b": (0.5, -0.6, 1.4, 3.0),
}


def _family(lam: float, c1: float, c2: float, kappa: float):
    return funceq.make_regular_solution(funceq.SolutionFamily(lam * unit(SYM3), c1, c2, kappa))


class FuncEqSymr3:
    op_names = (
        "ob-family-a", "ob-family-b", "ob-wishart", "ob-defect",
        "lq-logdet", "lq-trace", "cocycle",
    )

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.n_pairs, self.n_triples = (4, 2) if small else (FUNCEQ_PAIRS, FUNCEQ_TRIPLES)
        self.fields = {name: _family(*fam) for name, fam in FAMILIES.items()}
        self.dictionary = funceq.wishart_dictionary(3.0, 4.0, ConeElement.certify(unit(SYM3)))
        a, b, c, d = self.fields["ob-family-a"]
        self.defected = (a, b, c, funceq.with_injected_defect(d, DEFECT))
        self.cocycle = funceq.cauchy_difference(funceq.log_det_field())
        self.pairs = None

    def round(self):
        pairs = funceq.sample_cone_pairs(SYM3, self.n_pairs, self.seed)
        triples = funceq.sample_cone_triples(SYM3, self.n_triples, self.seed + 1)
        self.pairs = pairs
        ob = funceq.olkin_baker_residual
        yield "ob-family-a", lambda: ob(*self.fields["ob-family-a"], pairs)
        yield "ob-family-b", lambda: ob(*self.fields["ob-family-b"], pairs)
        yield "ob-wishart", lambda: ob(*self.dictionary, pairs)
        yield "ob-defect", lambda: ob(*self.defected, pairs)
        yield "lq-logdet", lambda: funceq.log_quadratic_residual(funceq.log_det_field(0.8), pairs)
        yield "lq-trace", lambda: funceq.log_quadratic_residual(funceq.trace_field(), pairs)
        yield "cocycle", lambda: funceq.cocycle_residual(self.cocycle, triples)

    @staticmethod
    def _reports(result) -> tuple:
        # log_quadratic_residual returns (product form, conjugation form)
        return result if isinstance(result, tuple) else (result,)

    def _max(self, result) -> float:
        return max(rep.max_residual for rep in self._reports(result))

    def check(self, rounds: list[dict]) -> list[str]:
        docs = [{name: [rep.to_json_dict() for rep in self._reports(res)] for name, res in r.items()}
                for r in rounds]
        fails = [f"round {k} reports differ from round 0" for k, d in enumerate(docs) if d != docs[0]]
        res = rounds[0]
        bounds = {
            "ob-family-a": dict(upper=checks.RESIDUAL_TOL),
            "ob-family-b": dict(upper=checks.RESIDUAL_TOL),
            "ob-wishart": dict(upper=checks.RESIDUAL_TOL),
            "ob-defect": dict(lower=checks.DEFECT_MIN),
            "lq-logdet": dict(upper=checks.LOG_QUADRATIC_TOL),
            "cocycle": dict(upper=checks.RESIDUAL_TOL),
        }
        for name, bound in bounds.items():
            if name in res:
                fails += checks.check_bound(name, self._max(res[name]), **bound)
        if "lq-trace" in res:
            fails += checks.check_bound("lq-trace", res["lq-trace"][0].max_residual,
                                        lower=checks.TRACE_CONTROL_MIN)
        if self.pairs is None:
            return fails
        x = np.stack([p[0].coords for p in self.pairs])
        y = np.stack([p[1].coords for p in self.pairs])
        e = checks.unit_coords("symr", 3)
        for name, defect in (("ob-family-a", 0.0), ("ob-defect", DEFECT)):
            if name in res:
                lam, c1, c2, kappa = FAMILIES["ob-family-a"]
                mine = checks.olkin_baker_residuals(x, y, lam * e, c1, c2, kappa, defect)
                fails += checks.check_recomputed(res[name].to_json_dict(), mine)
        return fails


# forward-symr3 runs by hand; BENCHMARK.json leaves it out (see README)
WORKLOADS = {
    "forward-symr3": ForwardSymr3,
    "negative-hermc3": NegativeHermc3,
    "sample-n1e4": SampleN1e4,
    "funceq-symr3": FuncEqSymr3,
}
