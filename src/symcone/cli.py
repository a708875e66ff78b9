"""Command-line front end.

Every subcommand prints a strict JSON document on stdout (a bare number for
``laplace`` and ``density``; never NaN or an infinity) and logs to stderr.
Exit codes: 0 success / verification passed, 1 verification failed or runtime
error, 2 usage error.  All randomness is a pure function of --seed, so output
bytes are reproducible for a fixed argument vector at any worker count.
"""

from __future__ import annotations

import argparse
import importlib.resources
import io
import json
import math
import os
import sys

import numpy as np

from . import funceq, harness, rng, wishart
from .algebra import Algebra, Element, unit
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

# the --field candidates of the single-field equations
_FIELDS = {
    "logdet": funceq.log_det_field,
    "trace": funceq.trace_field,
    "det-over-trace": funceq.det_over_trace_field,
}


def schema_text(subcommand: str) -> str:
    """The published JSON schema for a subcommand's stdout document."""
    name = SCHEMAS[subcommand]
    return importlib.resources.files("symcone.schemas").joinpath(name).read_text()


def _checked(convert, ok, requirement: str):
    """An argparse ``type`` callable: ``convert`` the text, then require ``ok``
    of the value, quoting it; a malformed text keeps argparse's own message."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _algebra_spec(text: str) -> str:
    try:
        Algebra.from_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


_FINITE = _checked(float, math.isfinite, "finite")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")
_SEED = _checked(int, lambda v: 0 <= v < rng.SEED_LIMIT, f"in [0, {rng.SEED_LIMIT})")
_STREAM = _checked(int, lambda v: 0 <= v < rng.STREAM_LIMIT, f"in [0, {rng.STREAM_LIMIT})")


def _algebra_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algebra", required=True, type=_algebra_spec, metavar="KIND:SIZE",
        help="algebra spec, e.g. symr:3, hermc:2, lorentz:4",
    )


def _scale_args(parser, suffix=""):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        f"--scale{suffix}", type=_FINITE, default=None, metavar="K",
        help=f"scale element a{suffix} = K * e (default 1.0)",
    )
    group.add_argument(
        f"--scale{suffix}-file", default=None, metavar="PATH",
        help=f"JSON element file for the scale a{suffix}",
    )


def _experiment_args(parser):
    _algebra_arg(parser)
    parser.add_argument("--p1", type=_FINITE, default=4.0)
    parser.add_argument("--p2", type=_FINITE, default=4.0)
    parser.add_argument("--n", type=_AT_LEAST_1, default=10000)
    parser.add_argument("--seed", type=_SEED, default=0)
    parser.add_argument(
        "--level", type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"), default=0.05
    )
    parser.add_argument("--permutations", type=_AT_LEAST_1, default=harness.DEFAULT_PERMUTATIONS)
    parser.add_argument(
        "--max-stat-samples", type=_checked(int, lambda v: v >= 2, "at least 2"),
        default=harness.DEFAULT_MAX_STAT_SAMPLES,
    )
    parser.add_argument("--workers", type=_AT_LEAST_1, default=1)


def _t_multiple(text: str) -> float:
    try:
        value = 0.0 if text.strip() == "zero" else float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be 'zero' or a finite number, got {text!r}")
    return value


def _out_args(parser):
    parser.add_argument("--out", default=None, metavar="PATH", help="also write stdout document to PATH")


def _build() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subparsers by name."""
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Jordan-algebra cone toolkit: sampling, densities, and "
        "independence/functional-equation verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="draw Wishart samples on a cone")
    _algebra_arg(p)
    p.add_argument("--p", type=_FINITE, required=True, help="shape parameter")
    p.add_argument("--n", type=_AT_LEAST_1, required=True, help="number of draws")
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--stream", type=_STREAM, default=0)
    p.add_argument("--workers", type=_AT_LEAST_1, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _scale_args(p)
    _out_args(p)

    p = sub.add_parser("density", help="evaluate the Wishart log density at a point")
    _algebra_arg(p)
    p.add_argument("--p", type=_FINITE, required=True)
    _scale_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", default=None, help="inline JSON list of coordinates")
    group.add_argument("--point-file", default=None, help="JSON element file")
    _out_args(p)

    p = sub.add_parser("laplace", help="evaluate the Laplace transform")
    _algebra_arg(p)
    p.add_argument("--p", type=_FINITE, required=True)
    _scale_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_t_multiple, default=None, metavar="K|zero",
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
    p.add_argument("--field", choices=list(_FIELDS),
                   default="logdet", help="candidate field for the single-field equations")
    p.add_argument("--p1", type=_FINITE, default=3.0)
    p.add_argument("--p2", type=_FINITE, default=3.0)
    _scale_args(p)
    p.add_argument("--n-pairs", type=_AT_LEAST_1, default=1000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument(
        "--tol", type=_checked(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
        default=1e-10,
    )
    _out_args(p)

    p = sub.add_parser("algebra-info", help="rank, dimension and Peirce degree")
    _algebra_arg(p)
    _out_args(p)

    return parser, sub.choices


def parse(argv) -> argparse.Namespace:
    """Parse and validate an argument vector (exits with status 2 on usage
    errors, argparse style, with the subcommand's usage line)."""
    parser, subparsers = _build()
    options = parser.parse_args(argv)
    sub = subparsers[options.subcommand]
    threshold = wishart.shape_threshold(Algebra.from_spec(options.algebra))
    # of the check-funceq equations, only the Wishart dictionary reads --p1 and --p2
    if options.subcommand != "check-funceq" or options.equation == "olkin-baker-wishart":
        for attr in ("p", "p1", "p2"):
            value = getattr(options, attr, None)
            if value is not None and not value > threshold:
                sub.error(
                    f"shape {attr}={value} out of range for {options.algebra}: "
                    f"requires {attr} > {threshold} (= dim/r - 1)"
                )
    if options.subcommand.startswith("verify-") and options.n < harness.MIN_EXPERIMENT_SAMPLES:
        sub.error(
            f"--n must be at least {harness.MIN_EXPERIMENT_SAMPLES} for experiments, "
            f"got {options.n!r}"
        )
    return options


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


def _family_from_string(text: str, algebra: Algebra) -> funceq.SolutionFamily:
    fields = {}
    for token in text.split(","):
        key, _, value = token.partition("=")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"--family needs finite key=value numbers, got {token!r} in {text!r}")
        fields[key.strip()] = number
    missing = {"l", "c1", "c2", "k"} - set(fields)
    if missing:
        raise ValueError(f"--family misses keys: {sorted(missing)}")
    return funceq.SolutionFamily(
        lam=fields["l"] * unit(algebra), c1=fields["c1"], c2=fields["c2"], kappa=fields["k"]
    )


def _run_sample(ns, algebra) -> tuple[int, object]:
    params = wishart.WishartParams(algebra, ns.p, _resolve_scale(ns, algebra))
    batch = wishart.sample(params, ns.n, ns.seed, stream=ns.stream, workers=ns.workers)
    if ns.format == "csv":
        buf = io.StringIO()
        batch.write_csv(buf)
        return 0, buf
    return 0, batch.to_json_dict()


def _run_density(ns, algebra) -> tuple[int, object]:
    params = wishart.WishartParams(algebra, ns.p, _resolve_scale(ns, algebra))
    if ns.point_file:
        point = _load_element(ns.point_file)
    else:
        try:
            coords = json.loads(ns.point)
        except ValueError:
            coords = None
        if not isinstance(coords, list) or not all(isinstance(c, (int, float)) for c in coords):
            raise ValueError(f"--point must be a JSON list of numbers, got {ns.point!r}")
        point = Element(algebra, np.asarray(coords, dtype=float))
    value = wishart.log_density(params, point)
    return 0, ("-inf" if value == -math.inf else value)


def _run_laplace(ns, algebra) -> tuple[int, object]:
    params = wishart.WishartParams(algebra, ns.p, _resolve_scale(ns, algebra))
    t = _load_element(ns.t_file) if ns.t_file else ns.t * unit(algebra)
    return 0, wishart.laplace_transform(params, t)


def _run_split(ns, algebra) -> tuple[int, object]:
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
    return 0, doc


def _run_verify_lukacs(ns, algebra) -> tuple[int, object]:
    report = harness.forward_experiment(
        ns.p1, ns.p2, _resolve_scale(ns, algebra), ns.n, ns.seed,
        level=ns.level, permutations=ns.permutations,
        max_stat_samples=ns.max_stat_samples, workers=ns.workers,
    )
    return (0 if report.decision == "non-reject" else 1), report.to_json_dict()


def _run_verify_negative(ns, algebra) -> tuple[int, object]:
    report = harness.negative_experiment(
        ns.p1, ns.p2,
        _resolve_scale(ns, algebra, "1"), _resolve_scale(ns, algebra, "2"),
        ns.n, ns.seed, level=ns.level, permutations=ns.permutations,
        max_stat_samples=ns.max_stat_samples, workers=ns.workers,
    )
    # the expected outcome of the negative control is a rejection
    return (0 if report.decision == "reject" else 1), report.to_json_dict()


def _run_check_funceq(ns, algebra) -> tuple[int, object]:
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
        c = _FIELDS[ns.field]()
        pairs = funceq.sample_cone_pairs(algebra, ns.n_pairs, ns.seed)
        product_form, conjugation_form = funceq.log_quadratic_residual(c, pairs, seed=ns.seed)
        report = summary(
            max(product_form.max_residual, conjugation_form.max_residual),
            (product_form.mean_residual + conjugation_form.mean_residual) / 2.0,
        )
    elif ns.equation == "cocycle":
        c = _FIELDS[ns.field]()
        triples = funceq.sample_cone_triples(algebra, ns.n_pairs, ns.seed)
        report = funceq.cocycle_residual(funceq.cauchy_difference(c), triples, seed=ns.seed)
    elif ns.equation == "homogeneity":
        points = funceq.sample_cone_points(algebra, ns.n_pairs, ns.seed)
        defect = funceq.homogeneity_defect(_FIELDS[ns.field](), [0.5, 2.0, 3.7], points)
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
    return code, report.to_json_dict()


def _run_algebra_info(ns, algebra) -> tuple[int, object]:
    doc = {
        "algebra": algebra.spec_string(),
        "kind": algebra.kind.value,
        "r_or_n": algebra.param,
        "rank": algebra.rank,
        "dim": algebra.dim,
        "peirce_degree": algebra.peirce_degree,
        "density_shape_threshold": wishart.shape_threshold(algebra),
    }
    return 0, doc


def _strict_json(doc) -> str:
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError:
        raise ValueError("the result holds NaN or an infinity; no document printed") from None


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


def run(ns: argparse.Namespace) -> int:
    """Dispatch a parsed command; writes the report (a CSV buffer as it is,
    any other document as strict JSON) to --out, then stdout, and returns
    the exit code.

    Floating-point warnings are silenced: a non-finite result is refused by
    the strict JSON encoder or by the stage that computed it, with one line;
    so is an output that cannot be written (a bad --out, a closed pipe).
    """
    algebra = Algebra.from_spec(ns.algebra)
    try:
        with np.errstate(all="ignore"):
            code, doc = _RUNNERS[ns.subcommand](ns, algebra)
        output = doc.getvalue().rstrip("\n") if isinstance(doc, io.StringIO) else _strict_json(doc)
    except (
        NotInCone, SingularElement, OutOfRegion, PoleError, ValueError, OSError,
        OverflowError, RuntimeError,
    ) as exc:
        print(f"symcone {ns.subcommand}: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(ns, "out", None):
            with open(ns.out, "w") as fh:
                fh.write(output + "\n")
        print(output)
        sys.stdout.flush()
    except OSError as exc:
        print(f"symcone {ns.subcommand}: output: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: the exit-time flush of what is left goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main(argv=None) -> None:
    sys.exit(run(parse(sys.argv[1:] if argv is None else argv)))


if __name__ == "__main__":
    main()
