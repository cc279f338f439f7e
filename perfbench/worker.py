"""One round of a workload, in a fresh process.

Reads a job from standard input: {"ops": [...], "trace": bool,
"spans": path or null}.  Imports skewpoly.cli, then runs each
operation and times it alone.  An operation is either a CLI call,
{"cli": [argv...]}, made through skewpoly.cli.main with its output
captured, or a two-entry library query, {"rpp2": "shape"}, which
enumerates the shape's reverse plane partitions with entries 1 and 2
and round-trips each through its lattice path.  Checks that need the
program's objects run here, outside the timed region; all others run
in the parent on the outputs.  Writes one JSON line per operation to
standard output, then one summary line.

With "trace" set, the skewpoly modules are wrapped by the tracer
first, and the summary carries the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer

MODULES = ("shapes", "tableaux", "polynomials", "ribbons", "equivalence", "cli")

# Span key of each wrapped function, by module; public functions not
# named here share the key "<module>.other".  The fold_* walkers are
# the engine inside the s, g and G constructors, so they stay
# unwrapped and their time counts as the constructors' own.
SPAN_KEYS = {
    "shapes": {
        "parse_shape": "parse", "parse_partition": "parse",
        "parse_ribbon_text": "parse", "as_partition": "parse",
        "bottleneck_profile": "profile",
        "normalize": "transform", "rotate180": "transform",
        "transpose": "transform", "conjugate": "transform",
        "contains": "transform",
    },
    "tableaux": {
        "rpp_monomial_count": "count", "ssyt_monomial_count": "count",
        "svt_monomial_count": "count",
        "enumerate_rpp": "enumerate", "enumerate_ssyt": "enumerate",
        "enumerate_svt": "enumerate",
        "rpp12_to_path": "path", "path_to_rpp12": "path",
    },
    "polynomials": {
        "dual_grothendieck": "g", "grothendieck": "G", "schur": "s",
        "equal": "equal",
    },
    "ribbons": {
        "irreducible_factorization": "factor", "compose": "factor",
        "concat": "factor", "near_concat": "factor", "reverse": "factor",
        "is_trivial_split": "factor",
        "dominated_ribbons": "expand", "g_schur_coefficient": "expand",
    },
    "equivalence": {
        "enumerate_shapes": "enumerate", "fingerprint": "fingerprint",
        "search_coincidences_iter": "search", "search_coincidences": "search",
        "_resolve_bucket": "search",
        "brute_coefficient": "coeff", "coeff_reports": "coeff",
        "coeff_two_var": "coeff", "coeff_x1sq_x2n": "coeff",
        "coeff_x1cube_x2nm1": "coeff", "coeff_x1cube_x2n": "coeff",
        "two_var_vector": "coeff", "degree_slice_coeffs": "coeff",
        "filter_report": "filter", "necessary_filter": "filter",
    },
    "cli": {"main": "self", "build_parser": "parser"},
}


def install_tracer(tracer: Tracer, modules) -> dict:
    """Wrap the skewpoly modules; returns the counters the hooks fill."""
    c = {"bucket": 0, "buckets": 0, "bucket_max": 0, "singletons": 0,
         "shapes": 0, "builds": 0, "useful_builds": 0, "terms": 0,
         "fillings": 0, "expand_terms": 0}

    def bucket_open(args):
        size = len(args[0])
        c["bucket"] = size
        c["buckets"] += 1
        c["shapes"] += size
        c["bucket_max"] = max(c["bucket_max"], size)
        c["singletons"] += size == 1

    def bucket_close(_):
        c["bucket"] = 0

    def g_built(args):
        if c["bucket"]:
            c["builds"] += 1
            c["useful_builds"] += c["bucket"] > 1

    def add_terms(poly):
        c["terms"] += len(poly.coeffs)

    def counter(name):
        def bump(_):
            c[name] += 1
        return bump

    hooks = {
        ("equivalence", "_resolve_bucket"): {
            "on_call": bucket_open, "on_return": bucket_close},
        ("polynomials", "dual_grothendieck"): {
            "on_call": g_built, "on_return": add_terms},
        ("polynomials", "grothendieck"): {"on_return": add_terms},
        ("polynomials", "schur"): {"on_return": add_terms},
        ("ribbons", "dominated_ribbons"): {"on_item": counter("expand_terms")},
    }
    for name in ("enumerate_rpp", "enumerate_ssyt", "enumerate_svt"):
        hooks[("tableaux", name)] = {"on_item": counter("fillings")}

    def plan(module, name, fn):
        if name.startswith("fold_"):
            return None
        if name.startswith("_") and (module, name) not in hooks:
            return None
        key = f"{module}.{SPAN_KEYS[module].get(name, 'other')}"
        return {"key": key, **hooks.get((module, name), {})}

    tracer.install(modules, plan)
    return c


def layer_metrics(tracer: Tracer, c: dict, cli_records: int, cli_bytes: int) -> dict:
    s = tracer.self_s

    def calls(module, *names):
        return sum(tracer.calls[f"skewpoly.{module}.{n}"] for n in names)

    return {
        "polynomials.g_s": s["polynomials.g"],
        "polynomials.g_calls": calls("polynomials", "dual_grothendieck"),
        "polynomials.G_s": s["polynomials.G"],
        "polynomials.G_calls": calls("polynomials", "grothendieck"),
        "polynomials.s_s": s["polynomials.s"],
        "polynomials.s_calls": calls("polynomials", "schur"),
        "polynomials.equal_s": s["polynomials.equal"],
        "polynomials.equal_calls": calls("polynomials", "equal"),
        "polynomials.terms": c["terms"],
        "tableaux.count_s": s["tableaux.count"],
        "tableaux.count_calls": calls(
            "tableaux", "rpp_monomial_count", "ssyt_monomial_count",
            "svt_monomial_count"),
        "tableaux.enumerate_s": s["tableaux.enumerate"],
        "tableaux.fillings": c["fillings"],
        "tableaux.path_s": s["tableaux.path"],
        "equivalence.enumerate_s": s["equivalence.enumerate"],
        "equivalence.shapes": c["shapes"],
        "equivalence.fingerprint_s": s["equivalence.fingerprint"],
        "equivalence.buckets": c["buckets"],
        "equivalence.bucket_max": c["bucket_max"],
        "equivalence.singleton_buckets": c["singletons"],
        "equivalence.search_self_s": s["equivalence.search"],
        # With no g built during a search nothing is wasted: ratio 1.
        "equivalence.useful_build_ratio": (
            c["useful_builds"] / c["builds"] if c["builds"] else 1.0),
        "equivalence.coeff_self_s": s["equivalence.coeff"],
        "equivalence.coeff_calls": calls("equivalence", "brute_coefficient"),
        "equivalence.filter_s": s["equivalence.filter"],
        "ribbons.factor_s": s["ribbons.factor"],
        "ribbons.factor_calls": calls("ribbons", "irreducible_factorization"),
        "ribbons.expand_s": s["ribbons.expand"],
        "ribbons.expand_terms": c["expand_terms"],
        "shapes.parse_s": s["shapes.parse"],
        "shapes.profile_s": s["shapes.profile"],
        "shapes.transform_s": s["shapes.transform"],
        "cli.self_s": s["cli.self"],
        "cli.parser_s": s["cli.parser"],
        "cli.records": cli_records,
        "cli.bytes": cli_bytes,
    }


def run_cli(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation that raises has failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-200:]}"
    text = out.getvalue()
    records = []
    if error is None:
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except ValueError as exc:
            error = f"output is not JSON lines: {exc}"
    return {"s": elapsed, "error": error, "out": records,
            "lines": text.count("\n"), "bytes": len(text.encode())}


def run_rpp2(text: str) -> dict:
    from skewpoly.shapes import parse_shape
    from skewpoly.tableaux import enumerate_rpp, path_to_rpp12, rpp12_to_path

    start = time.perf_counter()
    try:
        shape = parse_shape(text)
        fillings = list(enumerate_rpp(shape, 2))
        paths = [rpp12_to_path(f) for f in fillings]
        back = [path_to_rpp12(p) for p in paths]
    except Exception as exc:  # an operation that raises has failed
        return {"s": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    bad_trip = sum(1 for f, b in zip(fillings, back) if b != f)
    bad_mixed = 0
    for f, p in zip(fillings, paths):
        columns: dict[int, set] = {}
        for (_, col), vals in f.cells.items():
            columns.setdefault(col, set()).update(vals)
        mixed = sum(1 for vals in columns.values() if len(vals) == 2)
        bad_mixed += mixed != len(p.interior_edges)
    return {"s": elapsed, "error": None, "fillings": len(fillings),
            "bad_roundtrips": bad_trip, "bad_mixed": bad_mixed}


def peak_rss_mb() -> float:
    """The peak resident memory of this process's own address space.

    getrusage's ru_maxrss is no use here: Linux carries the parent's
    peak over into the child across exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    job = json.load(sys.stdin)
    import skewpoly.cli as cli

    tracer = counters = None
    if job["trace"]:
        import importlib

        tracer = Tracer()
        counters = install_tracer(
            tracer, [importlib.import_module(f"skewpoly.{m}") for m in MODULES])
    wall_s = 0.0
    cli_records = cli_bytes = 0
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i + 1
        result = run_cli(cli, op["cli"]) if "cli" in op else run_rpp2(op["rpp2"])
        wall_s += result["s"]
        cli_records += result.pop("lines", 0)
        cli_bytes += result.pop("bytes", 0)
        # Each result leaves at once, so outputs do not pile up in the
        # memory this process reports.
        sys.stdout.write(json.dumps(result) + "\n")
    summary = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = layer_metrics(tracer, counters, cli_records, cli_bytes)
        summary["self_s"] = dict(tracer.self_s)
        summary["calls"] = dict(tracer.calls)
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    sys.stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
