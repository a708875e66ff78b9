"""Command-line front end.

Every subcommand prints a JSON document on stdout (also valid for ``laplace``
and ``density``, which print a bare JSON number) and logs to stderr.  Exit
codes: 0 success / verification passed, 1 verification failed or runtime
error, 2 usage error.  All randomness is a pure function of --seed, so output
bytes are reproducible for a fixed argument vector at any worker count.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import funceq, harness, wishart
from .algebra import Algebra, Element, _log_det, trace, unit
from .errors import NotInCone, OutOfRegion, PoleError, SingularElement
from .geometry import ConeElement

SCHEMAS = {
    "sample": "sample_batch.schema.json",
    "density": "scalar_value.schema.json",
    "laplace": "scalar_value.schema.json",
    "split": "split_pair.schema.json",
    "verify-lukacs": "independence_report.schema.json",
    "verify-negative": "independence_report.schema.json",
    "check-funceq": "residual_report.schema.json",
    "algebra-info": "algebra_info.schema.json",
}


def schema_text(subcommand: str) -> str:
    """The published JSON schema for a subcommand's stdout document."""
    name = SCHEMAS[subcommand]
    return importlib.resources.files("symcone.schemas").joinpath(name).read_text()


@dataclass
class Command:
    subcommand: str
    options: argparse.Namespace


def _algebra_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algebra", required=True, metavar="KIND:SIZE",
        help="algebra spec, e.g. symr:3, hermc:2, lorentz:4",
    )


def _scale_args(parser, suffix=""):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        f"--scale{suffix}", type=float, default=None, metavar="K",
        help=f"scale element a{suffix} = K * e (default 1.0)",
    )
    group.add_argument(
        f"--scale{suffix}-file", default=None, metavar="PATH",
        help=f"JSON element file for the scale a{suffix}",
    )


def _experiment_args(parser):
    _algebra_arg(parser)
    parser.add_argument("--p1", type=float, default=4.0)
    parser.add_argument("--p2", type=float, default=4.0)
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--level", type=float, default=0.05)
    parser.add_argument("--permutations", type=int, default=harness.DEFAULT_PERMUTATIONS)
    parser.add_argument(
        "--max-stat-samples", type=int, default=harness.DEFAULT_MAX_STAT_SAMPLES
    )
    parser.add_argument("--workers", type=int, default=1)


def _out_args(parser):
    parser.add_argument("--out", default=None, metavar="PATH", help="also write stdout document to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Jordan-algebra cone toolkit: sampling, densities, and "
        "independence/functional-equation verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="draw Wishart samples on a cone")
    _algebra_arg(p)
    p.add_argument("--p", type=float, required=True, help="shape parameter")
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _scale_args(p)
    _out_args(p)

    p = sub.add_parser("density", help="evaluate the Wishart log density at a point")
    _algebra_arg(p)
    p.add_argument("--p", type=float, required=True)
    _scale_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", default=None, help="inline JSON list of coordinates")
    group.add_argument("--point-file", default=None, help="JSON element file")
    _out_args(p)

    p = sub.add_parser("laplace", help="evaluate the Laplace transform")
    _algebra_arg(p)
    p.add_argument("--p", type=float, required=True)
    _scale_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", default=None, metavar="K|zero",
                       help="argument t = K * e ('zero' for t = 0)")
    group.add_argument("--t-file", default=None, help="JSON element file for t")
    _out_args(p)

    p = sub.add_parser("split", help="sum/quotient split of two cone elements")
    _algebra_arg(p)
    p.add_argument("--x-file", required=True)
    p.add_argument("--y-file", required=True)
    _out_args(p)

    p = sub.add_parser("verify-lukacs", help="forward independence experiment")
    _experiment_args(p)
    _scale_args(p)
    _out_args(p)

    p = sub.add_parser("verify-negative", help="mismatched-scale power experiment")
    _experiment_args(p)
    _scale_args(p, suffix="1")
    _scale_args(p, suffix="2")
    _out_args(p)

    p = sub.add_parser("check-funceq", help="functional-equation residual sweeps")
    _algebra_arg(p)
    p.add_argument(
        "--equation", required=True,
        choices=["olkin-baker", "olkin-baker-wishart", "log-quadratic", "cocycle",
                 "homogeneity", "pexider"],
    )
    p.add_argument("--family", default="l=0,c1=1,c2=1,k=0",
                   help="solution family 'l=L,c1=A,c2=B,k=K' with lambda = L * e")
    p.add_argument("--field", choices=["logdet", "trace", "det-over-trace"],
                   default="logdet", help="candidate field for the single-field equations")
    p.add_argument("--p1", type=float, default=3.0)
    p.add_argument("--p2", type=float, default=3.0)
    _scale_args(p)
    p.add_argument("--n-pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    _out_args(p)

    p = sub.add_parser("algebra-info", help="rank, dimension and Peirce degree")
    _algebra_arg(p)
    _out_args(p)

    return parser


# (option, test, requirement) for every subcommand that has the option
_LIMITS = (
    ("p", math.isfinite, "finite"),
    ("p1", math.isfinite, "finite"),
    ("p2", math.isfinite, "finite"),
    ("n", lambda v: v >= 1, "positive"),
    ("seed", lambda v: v >= 0, "nonnegative"),
    ("level", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("tol", lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
    ("workers", lambda v: v >= 1, "at least 1"),
    ("n_pairs", lambda v: v >= 1, "at least 1"),
    ("permutations", lambda v: v >= 1, "at least 1"),
)


def parse(argv) -> Command:
    """Parse and validate an argument vector (exits with status 2 on usage
    errors, argparse style)."""
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        algebra = Algebra.from_spec(options.algebra)
    except ValueError as exc:
        parser.error(str(exc))
    threshold = wishart.shape_threshold(algebra)
    for attr in ("p", "p1", "p2"):
        value = getattr(options, attr, None)
        if value is not None and options.subcommand not in ("check-funceq",) and not value > threshold:
            parser.error(
                f"shape {attr}={value} out of range for {options.algebra}: "
                f"requires {attr} > {threshold} (= dim/r - 1)"
            )
    for attr, ok, requirement in _LIMITS:
        value = getattr(options, attr, None)
        if value is not None and not ok(value):
            parser.error(f"--{attr.replace('_', '-')} must be {requirement}, got {value!r}")
    if options.subcommand.startswith("verify-") and options.n < harness.MIN_EXPERIMENT_SAMPLES:
        parser.error(
            f"--n must be at least {harness.MIN_EXPERIMENT_SAMPLES} for experiments, "
            f"got {options.n!r}"
        )
    return Command(subcommand=options.subcommand, options=options)


def _load_element(path: str) -> Element:
    with open(path) as fh:
        try:
            return Element.from_json_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:  # a missing key raises KeyError
            raise ValueError(f"element file {path} is malformed: {exc!r}") from None


def _resolve_scale(ns, algebra: Algebra, suffix: str = "") -> ConeElement:
    multiple = getattr(ns, f"scale{suffix}")
    path = getattr(ns, f"scale{suffix}_file")
    if path is not None:
        element = _load_element(path)
        if element.algebra != algebra:
            raise ValueError(f"scale file {path} holds an element of another algebra")
        return ConeElement.certify(element)
    return ConeElement.certify((1.0 if multiple is None else multiple) * unit(algebra))


def _scalar_json(value: float) -> str:
    if value == float("-inf"):
        return '"-inf"'
    return json.dumps(value)


def _family_from_string(text: str, algebra: Algebra) -> funceq.SolutionFamily:
    fields = {}
    for token in text.split(","):
        key, _, value = token.partition("=")
        fields[key.strip()] = float(value)
    missing = {"l", "c1", "c2", "k"} - set(fields)
    if missing:
        raise ValueError(f"family string misses keys: {sorted(missing)}")
    return funceq.SolutionFamily(
        lam=fields["l"] * unit(algebra), c1=fields["c1"], c2=fields["c2"], kappa=fields["k"]
    )


def _run_sample(ns, algebra) -> tuple[int, str]:
    params = wishart.WishartParams(algebra, ns.p, _resolve_scale(ns, algebra))
    batch = wishart.sample(params, ns.n, ns.seed, stream=ns.stream, workers=ns.workers)
    if ns.format == "csv":
        import io

        buf = io.StringIO()
        batch.write_csv(buf)
        return 0, buf.getvalue().rstrip("\n")
    return 0, json.dumps(batch.to_json_dict())


def _run_density(ns, algebra) -> tuple[int, str]:
    params = wishart.WishartParams(algebra, ns.p, _resolve_scale(ns, algebra))
    if ns.point_file:
        point = _load_element(ns.point_file)
    else:
        point = Element(algebra, np.asarray(json.loads(ns.point), dtype=float))
    return 0, _scalar_json(wishart.log_density(params, point))


def _run_laplace(ns, algebra) -> tuple[int, str]:
    params = wishart.WishartParams(algebra, ns.p, _resolve_scale(ns, algebra))
    if ns.t_file:
        t = _load_element(ns.t_file)
    else:
        multiple = 0.0 if ns.t.strip() == "zero" else float(ns.t)
        t = multiple * unit(algebra)
    return 0, _scalar_json(wishart.laplace_transform(params, t))


def _run_split(ns, algebra) -> tuple[int, str]:
    x = _load_element(ns.x_file)
    y = _load_element(ns.y_file)
    if x.algebra != algebra or y.algebra != algebra:
        raise ValueError("input elements do not match --algebra")
    pair = harness.split(ConeElement.certify(x), ConeElement.certify(y))
    doc = {
        "v": pair.v.element.to_json_dict(),
        "u": pair.u.to_json_dict(),
        "v_min_eigenvalue": pair.v.min_eigenvalue,
    }
    return 0, json.dumps(doc)


def _run_verify_lukacs(ns, algebra) -> tuple[int, str]:
    report = harness.forward_experiment(
        ns.p1, ns.p2, _resolve_scale(ns, algebra), ns.n, ns.seed,
        level=ns.level, permutations=ns.permutations,
        max_stat_samples=ns.max_stat_samples, workers=ns.workers,
    )
    return (0 if report.decision == "non-reject" else 1), report.to_json()


def _run_verify_negative(ns, algebra) -> tuple[int, str]:
    report = harness.negative_experiment(
        ns.p1, ns.p2,
        _resolve_scale(ns, algebra, "1"), _resolve_scale(ns, algebra, "2"),
        ns.n, ns.seed, level=ns.level, permutations=ns.permutations,
        max_stat_samples=ns.max_stat_samples, workers=ns.workers,
    )
    # the expected outcome of the negative control is a rejection
    return (0 if report.decision == "reject" else 1), report.to_json()


def _run_check_funceq(ns, algebra) -> tuple[int, str]:
    def summary(max_residual: float, mean_residual: float) -> funceq.ResidualReport:
        return funceq.ResidualReport(
            ns.equation, algebra.spec_string(), ns.n_pairs, max_residual, mean_residual, ns.seed
        )

    if ns.equation == "olkin-baker":
        family = _family_from_string(ns.family, algebra)
        fields = funceq.make_regular_solution(family)
        pairs = funceq.sample_cone_pairs(algebra, ns.n_pairs, ns.seed)
        report = funceq.olkin_baker_residual(*fields, pairs, seed=ns.seed)
    elif ns.equation == "olkin-baker-wishart":
        a0 = _resolve_scale(ns, algebra)
        fields = funceq.wishart_dictionary(ns.p1, ns.p2, a0)
        pairs = funceq.sample_cone_pairs(algebra, ns.n_pairs, ns.seed)
        report = funceq.olkin_baker_residual(*fields, pairs, seed=ns.seed)
        report.equation = "olkin-baker-wishart"
    elif ns.equation == "log-quadratic":
        c = funceq.log_det_field() if ns.field == "logdet" else funceq.trace_field()
        pairs = funceq.sample_cone_pairs(algebra, ns.n_pairs, ns.seed)
        product_form, conjugation_form = funceq.log_quadratic_residual(c, pairs, seed=ns.seed)
        report = summary(
            max(product_form.max_residual, conjugation_form.max_residual),
            (product_form.mean_residual + conjugation_form.mean_residual) / 2.0,
        )
    elif ns.equation == "cocycle":
        c = funceq.log_det_field() if ns.field == "logdet" else funceq.trace_field()
        triples = funceq.sample_cone_triples(algebra, ns.n_pairs, ns.seed)
        report = funceq.cocycle_residual(funceq.cauchy_difference(c), triples, seed=ns.seed)
    elif ns.equation == "homogeneity":
        if ns.field == "det-over-trace":
            r = algebra.rank
            field = funceq.ScalarField(lambda x: _log_det(x) - r * math.log(trace(x)))
        elif ns.field == "trace":
            field = funceq.trace_field()
        else:
            field = funceq.log_det_field()
        points = funceq.sample_cone_points(algebra, ns.n_pairs, ns.seed)
        defect = funceq.homogeneity_defect(field, [0.5, 2.0, 3.7], points)
        report = summary(defect, defect)
    else:  # pexider
        family = _family_from_string(ns.family, algebra)
        samples = funceq.generate_pexider_samples(
            algebra, family.lam, family.c1, family.c2, ns.n_pairs, ns.seed
        )
        fit = funceq.pexider_fit(samples)
        lam_err = float(np.abs(fit.lam.coords - family.lam.coords).max())
        recovery = max(
            lam_err, abs(fit.b - family.c1), abs(fit.c - family.c2), fit.max_residual
        )
        report = summary(recovery, fit.max_residual)
    code = 0 if report.max_residual <= ns.tol else 1
    return code, report.to_json()


def _run_algebra_info(ns, algebra) -> tuple[int, str]:
    doc = {
        "algebra": algebra.spec_string(),
        "kind": algebra.kind.value,
        "r_or_n": algebra.param,
        "rank": algebra.rank,
        "dim": algebra.dim,
        "peirce_degree": algebra.peirce_degree,
        "density_shape_threshold": wishart.shape_threshold(algebra),
    }
    return 0, json.dumps(doc)


_RUNNERS = {
    "sample": _run_sample,
    "density": _run_density,
    "laplace": _run_laplace,
    "split": _run_split,
    "verify-lukacs": _run_verify_lukacs,
    "verify-negative": _run_verify_negative,
    "check-funceq": _run_check_funceq,
    "algebra-info": _run_algebra_info,
}


def run(cmd: Command) -> int:
    """Dispatch a parsed command; prints the report and returns the exit code."""
    ns = cmd.options
    algebra = Algebra.from_spec(ns.algebra)
    try:
        code, output = _RUNNERS[cmd.subcommand](ns, algebra)
    except (
        NotInCone, SingularElement, OutOfRegion, PoleError, ValueError, OSError,
        OverflowError, RuntimeError,
    ) as exc:
        print(f"symcone {cmd.subcommand}: {exc}", file=sys.stderr)
        return 1
    print(output)
    if getattr(ns, "out", None):
        with open(ns.out, "w") as fh:
            fh.write(output + "\n")
    return code


def main(argv=None) -> None:
    cmd = parse(sys.argv[1:] if argv is None else argv)
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
