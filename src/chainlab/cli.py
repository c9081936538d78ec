"""Command-line surface: JSON/CSV file I/O, run manifests, persisted reports.

Each command reads one input file, every field of it read through ``field``,
and returns its exit code, its manifest parameters and its reports.  ``main``
then writes the reports into the output directory, followed by a manifest
recording the command, arguments, input path, parameters, tool version and
timestamp.  Reports reference the manifest by name and contain no clock
data themselves, so identical inputs produce byte-identical reports.

Exit codes: 0 success, 2 malformed or unsupported input, 3 a bounded
enumeration or search gave up or a chain level's index exceeds the budget,
4 a certificate or audit definitively failed.  A run that exits 2 or 3
writes nothing; a failed certificate or audit still writes its report.
"""
from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import sys
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from .contexts import InfiniteOrderCertificate, context_for
from .coset import DEFAULT_BUDGET, farber_prefix_check, parse_chain_spec
from .errors import (
    BudgetExceededError,
    InputError,
    TruncationTooSmallError,
    UndecidableContextError,
    VerificationFailure,
)
from .homology import (
    chain_homology,
    check_primes,
    gradient_series,
    series_to_csv,
    series_to_json_dict,
)
from .intmat import IntMatrix
from .qnormal import (
    ChainReport,
    Connector,
    CosetGraph,
    DEFAULT_RADIUS,
    DEFAULT_SEARCH_BOUND,
    QNormalChainCertificate,
    QNormalReport,
    QNormalStatus,
    QNormalWitness,
    QNormalWitnessSet,
    blow_up,
    build_coset_graph,
    chain_to_dict,
    compare_blowup_with_direct,
    graph_to_dict,
    trim_cocompact,
    verify_chain,
    verify_qnormal,
)
from .raag import chain_commuting_report, exact_chain_contexts, is_inner_amenable_raag
from .rebuilding import (
    CWChainData,
    RebuildingData,
    minimal_kappa,
    quality_check,
    quality_report_to_dict,
    validate_rebuilding,
)
from .words import Presentation, RaagGraph, Word, default_names, format_word, word

MANIFEST_NAME = "manifest.json"


# ----------------------------------------------------------------- file I/O


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must contain a JSON object")
    return data


_REQUIRED = object()


def field(d: dict, key: str, parse: Callable, default=_REQUIRED):
    """parse(d[key]); the default when the key is absent and one is given.

    A parse checks the value and returns it (a list as a tuple); it never
    converts it with a constructor such as ``dict(...)``.  Its TypeError or
    ValueError, an InputError included, becomes an InputError naming the field.
    """
    if key not in d:
        if default is _REQUIRED:
            raise InputError(f"missing field {key!r}")
        return default
    try:
        return parse(d[key])
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {key!r}: {exc}") from None


def _instance_of(kind: type, what: str) -> Callable:
    def parse(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return parse


def list_of(parse: Callable) -> Callable:
    """The parse of a JSON list whose items each pass ``parse``; it returns a tuple."""
    return lambda value: tuple(map(parse, json_list(value)))


def integer(value) -> int:
    """A JSON integer; ``true`` and ``false`` are refused, though Python counts them as ints."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


json_object = _instance_of(dict, "a JSON object")
json_list = _instance_of(list, "a JSON list")
integers = list_of(integer)
strings = list_of(_instance_of(str, "a string"))


def json_word(value) -> Word:
    """A word written as a JSON list of integers."""
    return word(integers(value))


words = list_of(json_word)


def _edge(value) -> tuple[int, int]:
    i, j = json_list(value)
    return integer(i), integer(j)


def presentation_from_dict(value) -> Presentation:
    d = json_object(value)
    return Presentation(field(d, "generators", strings), field(d, "relators", words, ()))


def raag_from_dict(d: dict) -> tuple[RaagGraph, tuple[str, ...]]:
    n = field(d, "vertices", integer)
    g = RaagGraph(n, frozenset(field(d, "edges", list_of(_edge), ())))
    names = field(d, "names", strings, default_names(n))
    if len(names) != n:
        raise InputError("need exactly one name per vertex")
    return g, names


def connector(value) -> Connector:
    c = json_object(value)
    return Connector(
        outer_label=field(c, "outer_label", integer),
        g_f=field(c, "g_f", json_word),
        witness=field(c, "witness", json_word),
        witness_in_subgroup=field(c, "witness_in_subgroup", json_word),
        witness_in_conjugate=field(c, "witness_in_conjugate", json_word),
    )


def _witness(value) -> QNormalWitness:
    w = json_object(value)
    return QNormalWitness(*(field(w, key, json_word) for key in ("w", "expr_in_subgroup", "expr_in_conjugate")))


def witness_set(value) -> QNormalWitnessSet:
    d = json_object(value)
    return QNormalWitnessSet(field(d, "ambient", presentation_from_dict), field(d, "subgroup_words", words),
                             field(d, "generating_set", words), field(d, "witnesses", list_of(_witness)))


def chain_from_dict(d: dict) -> QNormalChainCertificate:
    return QNormalChainCertificate(field(d, "steps", list_of(witness_set)), field(d, "base", json_word))


def int_matrix(value) -> IntMatrix:
    """Rows stay lists: ``IntMatrix`` compares its data as lists of lists."""
    m = json_object(value)
    entries = field(m, "entries", list_of(lambda row: list(integers(row))))
    return IntMatrix(field(m, "rows", integer), field(m, "cols", integer), list(entries))


def chain_complex(value) -> CWChainData:
    c = json_object(value)
    return CWChainData(field(c, "alpha", integer), field(c, "cell_counts", integers),
                       field(c, "boundaries", list_of(int_matrix)))


def rebuilding_from_dict(d: dict) -> RebuildingData:
    big, small = (field(d, key, chain_complex) for key in ("big", "small"))
    g, h, rho = (field(d, key, list_of(int_matrix)) for key in ("g", "h", "rho"))
    return RebuildingData(big, small, g, h, rho)


def parse_element(token: str, names: Sequence[str]) -> Word:
    """Parse one group element: 'a', 'ab', "a'b" (' = inverse), or '1.2.-1'."""
    token = token.strip()
    if not token or token == "e":
        raise InputError("the identity element is not accepted here")
    if all(ch.isdigit() or ch in "-." for ch in token):
        try:
            return word(int(t) for t in token.split("."))
        except ValueError as exc:
            raise InputError(f"cannot parse element {token!r}: {exc}") from None
    ordered = sorted(range(len(names)), key=lambda i: -len(names[i]))
    out: list[int] = []
    rest = token
    while rest:
        for i in ordered:
            if rest.startswith(names[i]):
                rest = rest[len(names[i]):]
                if rest.startswith("'"):
                    out.append(-(i + 1))
                    rest = rest[1:]
                else:
                    out.append(i + 1)
                break
        else:
            raise InputError(f"cannot parse element {token!r}: no generator matches {rest!r}")
    return word(out)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return value


_encode_str = json.encoder.encode_basestring_ascii


def report_json(value) -> str:
    """The bytes of ``json.dumps(value, indent=2, sort_keys=True, default=_jsonable)``.

    json's indented encoder is pure Python and yields one scalar at a time.
    This writer joins a list of ints, and a list of int-valued dicts that
    share their keys (graph edges), in one ``str.join`` each; everything else
    follows the encoder's rules, including that floats never reach
    ``_jsonable`` (an infinite float is written as the bare ``Infinity``).
    """
    out: list[str] = []
    _encode(value, "\n", out)
    return "".join(out)


def _scalar(o) -> Optional[str]:
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (float("inf"), float("-inf")):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    return None


def _int_rows(items, keys: list) -> Optional[list]:
    """Per item, its values in key order; None unless every item is a dict
    with exactly these keys and int values."""
    if any(type(item) is not dict or len(item) != len(keys) for item in items):
        return None
    try:
        rows = list(map(itemgetter(*keys), items))
    except KeyError:
        return None
    if len(keys) == 1:
        rows = [(value,) for value in rows]
    if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
        return None
    return rows


def _encode(o, newline: str, out: list) -> None:
    text = _scalar(o)
    if text is not None:
        out.append(text)
        return
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        if all(type(x) is int for x in o):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + newline + "]")
            return
        first = o[0]
        if type(first) is dict and first and all(type(k) is str for k in first):
            keys = sorted(first)
            rows = _int_rows(o, keys)
            if rows is not None:
                field_line = inner + "  "
                row = "{" + field_line + ("," + field_line).join(
                    _encode_str(k).replace("%", "%%") + ": %d" for k in keys
                ) + inner + "}"
                out.append("[" + inner + ("," + inner).join(row % r for r in rows) + newline + "]")
                return
        separator = inner
        out.append("[")
        for item in o:
            out.append(separator)
            separator = "," + inner
            _encode(item, inner, out)
        out.append(newline + "]")
        return
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        separator = inner
        out.append("{")
        for key, item in sorted(o.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = _scalar(key)
            out.append(separator + _encode_str(key) + ": ")
            separator = "," + inner
            _encode(item, inner, out)
        out.append(newline + "}")
        return
    replaced = _jsonable(o)
    if replaced is o:
        raise ValueError("Circular reference detected")
    _encode(replaced, newline, out)


# ------------------------------------------------------------- run manifests


def write_run(args: argparse.Namespace, argv: Sequence[str], parameters: dict, reports: dict) -> None:
    """Write each report into --out, then the manifest that names them.

    A report is a payload dict, written as JSON that references the manifest
    by file name, or CSV text.  The timestamp lives only in the manifest, so
    the reports stay byte-identical across reruns of the same inputs.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in reports.items():
        if isinstance(report, dict):
            report = report_json({"manifest": MANIFEST_NAME, **report}) + "\n"
        (out / name).write_text(report, encoding="utf-8")
    manifest = {
        "command": " ".join(filter(None, (args.command, getattr(args, "verb", None)))),
        "argv": list(argv),
        "inputs": [args.input],
        "parameters": parameters,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "outputs": sorted(reports),
    }
    (out / MANIFEST_NAME).write_text(report_json(manifest) + "\n", encoding="utf-8")


# --------------------------------------------------------- report serializers


def order_certificate_dict(c: InfiniteOrderCertificate) -> dict:
    return {"status": c.status.value, "method": c.method, "detail": c.detail}


def qnormal_report_dict(rep: QNormalReport) -> dict:
    return {
        "status": rep.status.value,
        "generating_set_spans_abelianization": rep.generating_set_spans_abelianization,
        "witnesses": [
            {
                "s": list(w.s),
                "w": list(w.w),
                "in_subgroup": w.in_subgroup.value,
                "in_conjugate": w.in_conjugate.value,
                "order": order_certificate_dict(w.order),
                "status": w.status.value,
            }
            for w in rep.witness_reports
        ],
    }


def chain_report_dict(rep: ChainReport) -> dict:
    return {
        "status": rep.status.value,
        "base_is_subgroup_generator": rep.base_is_subgroup_generator,
        "base_certificate": order_certificate_dict(rep.base_certificate),
        "failure_reasons": list(rep.failure_reasons),
        "steps": [
            {
                "composable_with_previous": sr.composable_with_previous,
                "report": qnormal_report_dict(sr.report),
            }
            for sr in rep.step_reports
        ],
    }


# ------------------------------------------------------------------ commands
#
# Each command returns (exit code, manifest parameters, {file name: report});
# main writes the reports and the manifest once the command has returned.


def cmd_homology(args: argparse.Namespace) -> tuple[int, dict, dict]:
    try:
        primes = [int(t) for t in args.primes.split(",") if t]
    except ValueError:
        raise InputError(f"--primes must be comma-separated integers, got {args.primes!r}") from None
    check_primes(primes)
    p = presentation_from_dict(load_json(args.input))
    chain = parse_chain_spec(args.chain, p, max_cosets=args.budget)
    summaries = chain_homology(chain, primes)
    reports: dict = {}
    for kind, prime in [("betti_q", None), *(("betti_fp", q) for q in primes), ("log_torsion", None)]:
        series = gradient_series(chain, kind=kind, prime=prime, summaries=summaries)
        stem = series.kind.replace("[", "_").replace("]", "")
        reports[f"{stem}.csv"] = series_to_csv(series)
        reports[f"{stem}.json"] = series_to_json_dict(series)
    return 0, {"chain": args.chain, "primes": primes, "budget": args.budget}, reports


def cmd_qnormal_verify(args: argparse.Namespace) -> tuple[int, dict, dict]:
    data = load_json(args.input)
    if "steps" in data:
        cert = chain_from_dict(data)
        report = verify_chain(cert, exact_chain_contexts(cert))
        payload = {"kind": "chain", **chain_report_dict(report)}
    elif "witnesses" in data:
        ws = witness_set(data)
        report = verify_qnormal(ws, context_for(ws.ambient))
        payload = {"kind": "witness-set", **qnormal_report_dict(report)}
    else:
        raise InputError("the certificate file has neither 'steps' nor 'witnesses'")
    code = 0
    if report.status is QNormalStatus.FAILED:
        print("certificate FAILED (see verify_report.json)", file=sys.stderr)
        code = 4
    return code, {}, {"verify_report.json": payload}


def _graph_from_job(job: dict, args: argparse.Namespace) -> CosetGraph:
    return build_coset_graph(
        field(job, "group", presentation_from_dict),
        field(job, "subgroup", words),
        field(job, "generating_set", words),
        budget=field(job, "budget", integer, args.budget),
        radius=field(job, "radius", integer, args.radius),
        witnesses=field(job, "witnesses", words, None),
    )


def cmd_qnormal_graph(args: argparse.Namespace) -> tuple[int, dict, dict]:
    graph = _graph_from_job(load_json(args.input), args)
    payload = graph_to_dict(graph)
    payload["is_connected"] = graph.is_connected()
    if graph.witnesses is not None:
        payload["stabilizer_witnesses_verified"] = list(graph.check_stabilizer_witnesses())
    return 0, {"budget": args.budget, "radius": args.radius}, {"graph.json": payload}


def cmd_qnormal_blowup(args: argparse.Namespace) -> tuple[int, dict, dict]:
    job = load_json(args.input)
    outer_job = field(job, "outer", json_object)
    inner_job = field(job, "inner", json_object)
    blown = blow_up(
        _graph_from_job(outer_job, args),
        _graph_from_job(inner_job, args),
        field(job, "connectors", list_of(connector), ()),
        field(job, "subgroup_words", words),
    )
    payload = {
        "vertices": [list(v) for v in blown.vertices],
        "vertex_words": [list(w) for w in blown.vertex_words],
        "canonical_words": [list(w) for w in blown.canonical_words],
        "edges": [{"u": u, "v": v, "kind": k, "label": label} for u, v, k, label in blown.edges],
        "dropped_edges": blown.dropped_edges,
        "vertex_count_identity": blown.vertex_count_identity(),
    }
    if "direct" in job:
        direct_job = {"group": outer_job["group"], **field(job, "direct", json_object)}
        direct = _graph_from_job(direct_job, args)
        comparison = compare_blowup_with_direct(blown, direct)
        payload["comparison"] = {
            "common_vertices": comparison.common_vertices,
            "matches": comparison.matches,
            "only_in_blowup": len(comparison.only_in_first),
            "only_in_direct": len(comparison.only_in_second),
        }
    return 0, {"budget": args.budget, "radius": args.radius}, {"blowup.json": payload}


def cmd_qnormal_trim(args: argparse.Namespace) -> tuple[int, dict, dict]:
    job = load_json(args.input)
    graph = _graph_from_job(job, args)
    generators = field(job, "generators", words)
    ctx = context_for(graph.presentation)
    if not ctx.decides_equality:
        raise UndecidableContextError(
            "trimming needs an exact word-problem context; this presentation only has a battery"
        )
    trimmed, kept = trim_cocompact(graph, generators, ctx, bound=args.bound)
    payload = {
        "kept_orbits": list(kept),
        "dropped_orbits": [o for o in graph.edge_orbits() if o not in kept],
        "graph": graph_to_dict(trimmed),
    }
    return 0, {"budget": args.budget, "radius": args.radius, "bound": args.bound}, {"trim.json": payload}


def cmd_raag(args: argparse.Namespace) -> tuple[int, dict, dict]:
    g, names = raag_from_dict(load_json(args.input))
    ia = is_inner_amenable_raag(g)
    cc = chain_commuting_report(g)
    reports = {}
    cert_path = None
    if cc.certificate is not None:
        cert_path = "chain_certificate.json"
        reports[cert_path] = chain_to_dict(cc.certificate)
    reports["raag_report.json"] = {
        "vertices": g.vertex_count,
        "names": list(names),
        "inner_amenable": ia.inner_amenable,
        "cone_vertex": names[ia.cone_vertices[0] - 1] if ia.cone_vertices else None,
        "cone_vertices": [names[v - 1] for v in ia.cone_vertices],
        "is_complete": ia.is_complete,
        "reason": ia.reason,
        "connected": cc.connected,
        "chain_commuting": cc.chain_commuting,
        "chain_status": cc.verification.status.value if cc.verification else None,
        "sequence": [format_word(e, names) for e in cc.sequence.elements] if cc.sequence else None,
        "chain_certificate_path": cert_path,
    }
    return 0, {}, reports


def cmd_farber(args: argparse.Namespace) -> tuple[int, dict, dict]:
    p = presentation_from_dict(load_json(args.input))
    chain = parse_chain_spec(args.chain, p, max_cosets=args.budget)
    gammas = [parse_element(tok, p.generator_names) for tok in args.gammas.split(",") if tok.strip()]
    if not gammas:
        raise InputError("no test elements given")
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse eps {args.eps!r}: {exc}") from None
    report = farber_prefix_check(chain, gammas, eps, context_for(p))
    lines = ["gamma,level,index,fx"]
    for gi, gamma in enumerate(report.gammas):
        for li, label in enumerate(chain.labels):
            lines.append(
                f"{format_word(gamma, p.generator_names)},{label},"
                f"{report.indices[li]},{report.values[gi][li]}"
            )
    payload = {
        "gammas": [format_word(g, p.generator_names) for g in report.gammas],
        "levels": list(chain.labels),
        "indices": list(report.indices),
        "values": [[str(v) for v in row] for row in report.values],
        "eps": str(report.eps),
        "passed": report.passed,
        "evidence": report.evidence,
    }
    parameters = {"chain": args.chain, "gammas": args.gammas, "eps": str(eps), "budget": args.budget}
    return 0, parameters, {"farber.csv": "\n".join(lines) + "\n", "farber.json": payload}


def cmd_rebuild(args: argparse.Namespace) -> tuple[int, dict, dict]:
    data = rebuilding_from_dict(load_json(args.input))
    if args.T < 1:
        raise InputError("T must be at least 1")
    parameters = {"T": args.T, "kappa": args.kappa}
    validation = validate_rebuilding(data)
    payload: dict = {
        "validation": {
            "all_pass": validation.all_pass,
            "checks": [{"name": c.name, "passed": c.passed} for c in validation.checks],
        }
    }
    if not validation.all_pass:
        print(
            "rebuilding data failed exact validation: " + ", ".join(validation.failures()),
            file=sys.stderr,
        )
        return 4, parameters, {"rebuild_report.json": payload}
    if args.kappa is not None:
        quality = quality_check(data, T=args.T, kappa=args.kappa)
        payload["quality"] = quality_report_to_dict(quality)
    else:
        payload["T"] = args.T
        payload["minimal_kappa"] = _jsonable(minimal_kappa(data, T=args.T))
    return 0, parameters, {"rebuild_report.json": payload}


# -------------------------------------------------------------------- parser

def finite_float(text: str) -> float:
    """An option's float; NaN and the infinities are refused (exit 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


_BUDGET = dict(type=int, default=DEFAULT_BUDGET,
               help="coset cap: cosets one enumeration may define, or the index of a chain level")
_RADIUS = dict(type=int, default=DEFAULT_RADIUS, help="ball radius for truncated graphs")


def _command(
    sub, name: str, func: Callable, summary: str, metavar: str, input_help: str
) -> argparse.ArgumentParser:
    """A subcommand that reads one input file and writes into --out."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("input", metavar=metavar, help=input_help)
    sp.add_argument("--out", default="chainlab_out", help="output directory (default: chainlab_out)")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlab",
        description="Exact experiments on subgroup chains: homology gradients, "
        "q-normality certificates, graph-group analyzers, fixed-point tables, "
        "and rebuilding audits.",
    )
    parser.add_argument("--version", action="version", version=f"chainlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _command(sub, "homology", cmd_homology, "gradient series along a subgroup chain",
                  "group", "group presentation JSON file")
    sp.add_argument("--chain", required=True, help="chain spec, e.g. 'abelian:n=1..5' or 'cyclic:n=2..8'")
    sp.add_argument("--primes", default="", help="comma-separated primes for mod-p Betti numbers")
    sp.add_argument("--budget", **_BUDGET)

    qsub = sub.add_parser("qnormal", help="q-normality certificates and coset graphs").add_subparsers(
        dest="verb", required=True)
    _command(qsub, "verify", cmd_qnormal_verify, "verify a chain certificate or witness set",
             "certificate", "certificate JSON file")
    for verb, func, summary, input_help in (
        ("graph", cmd_qnormal_graph, "build a coset graph from a job file",
         "job JSON: group, subgroup, generating_set[, witnesses]"),
        ("blowup", cmd_qnormal_blowup, "compose an outer and an inner coset graph",
         "job JSON: outer, inner, subgroup_words, connectors[, direct]"),
        ("trim", cmd_qnormal_trim, "keep only edge orbits needed for connectedness",
         "job JSON: group, subgroup, generating_set, generators"),
    ):
        sp = _command(qsub, verb, func, summary, "job", input_help)
        sp.add_argument("--budget", **_BUDGET)
        sp.add_argument("--radius", **_RADIUS)
        if verb == "trim":
            sp.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND, help="factorization search bound")

    rsub = sub.add_parser("raag", help="graph-group analyzers").add_subparsers(dest="verb", required=True)
    _command(rsub, "analyze", cmd_raag, "inner amenability and chain-commuting structure",
             "graph", "graph JSON: vertices, edges[, names]")

    sp = _command(sub, "farber", cmd_farber, "fixed-point ratio tables along a chain",
                  "group", "group presentation JSON file")
    sp.add_argument("--chain", required=True, help="chain spec, e.g. 'abelian:n=1..10'")
    sp.add_argument("--gammas", required=True, help="comma-separated elements, e.g. 'a,b,ab' or '1.2'")
    sp.add_argument("--eps", default="0", help="tolerance as an exact fraction (default 0)")
    sp.add_argument("--budget", **_BUDGET)

    bsub = sub.add_parser("rebuild", help="validate and audit chain-complex rebuildings").add_subparsers(
        dest="verb", required=True)
    sp = _command(bsub, "check", cmd_rebuild, "exact validation plus (T, kappa) quality bounds",
                  "data", "rebuilding data JSON file")
    sp.add_argument("--T", type=finite_float, required=True, help="rebuilding scale T >= 1")
    sp.add_argument("--kappa", type=finite_float, default=None,
                    help="audit at this kappa; omit to report the minimum")

    return parser


# Built once, at import: parsing leaves it unchanged, and building it (argparse
# makes a help formatter and gettext lookups per argument) costs 2-4 ms, many
# times a parse, which every in-process call of main would otherwise repeat.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _PARSER.parse_args(argv)
    try:
        code, parameters, reports = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except UndecidableContextError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except TruncationTooSmallError as exc:
        print(f"truncation too small: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    write_run(args, argv, parameters, reports)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
