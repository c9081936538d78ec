"""Command-line surface: JSON/CSV file I/O, run manifests, persisted reports.

Every run writes its reports into an output directory together with a
manifest recording the command, inputs, parameters, tool version, and
timestamp.  Reports reference the manifest by name and contain no clock
data themselves, so identical inputs produce byte-identical reports.

Exit codes: 0 success, 2 malformed or unsupported input, 3 a bounded
enumeration or search gave up or a chain level's index exceeds the budget,
4 a certificate or audit definitively failed.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index, itemgetter
from pathlib import Path
from typing import Optional, Sequence

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
from .qnormal import (
    ChainReport,
    Connector,
    CosetGraph,
    DEFAULT_RADIUS,
    DEFAULT_SEARCH_BOUND,
    QNormalReport,
    QNormalStatus,
    blow_up,
    build_coset_graph,
    chain_from_dict,
    chain_to_dict,
    compare_blowup_with_direct,
    graph_to_dict,
    infer_solver,
    trim_cocompact,
    verify_chain,
    verify_qnormal,
    witness_set_from_dict,
)
from .raag import chain_commuting_report, exact_chain_contexts, is_inner_amenable_raag
from .rebuilding import (
    minimal_kappa,
    quality_check,
    quality_report_to_dict,
    rebuilding_from_dict,
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


def presentation_from_dict(d: dict) -> Presentation:
    try:
        return Presentation(
            tuple(str(n) for n in d["generators"]),
            tuple(word(r) for r in d.get("relators", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed group data: {exc}") from None


def raag_from_dict(d: dict) -> tuple[RaagGraph, tuple[str, ...]]:
    try:
        n = index(d["vertices"])
        g = RaagGraph(n, frozenset((index(i), index(j)) for i, j in d.get("edges", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph data: {exc}") from None
    names = d.get("names", default_names(n))
    if not isinstance(names, (list, tuple)):
        raise InputError(f"field 'names' must be a list, got {names!r}")
    names = tuple(str(x) for x in names)
    if len(names) != n:
        raise InputError("need exactly one name per vertex")
    return g, names


def job_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {value!r}")
    return value


def integer_field(d: dict, key: str, default: Optional[int] = None) -> int:
    """d[key] as an int; the default when the key is absent and one is given."""
    if key not in d:
        if default is None:
            raise InputError(f"missing field {key!r}")
        return default
    try:
        return index(d[key])
    except TypeError:
        raise InputError(f"field {key!r} must be an integer, got {d[key]!r}") from None


def connector_from_dict(c) -> Connector:
    c = job_object(c, "a connector")
    try:
        return Connector(
            outer_label=integer_field(c, "outer_label"),
            g_f=word(c["g_f"]),
            witness=word(c["witness"]),
            witness_in_subgroup=word(c["witness_in_subgroup"]),
            witness_in_conjugate=word(c["witness_in_conjugate"]),
        )
    except KeyError as exc:
        raise InputError(f"a connector is missing field {exc}") from None


def words_field(d: dict, key: str, required: bool = True) -> Optional[tuple[Word, ...]]:
    if key not in d:
        if required:
            raise InputError(f"missing field {key!r}")
        return None
    try:
        return tuple(word(w) for w in d[key])
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed words in field {key!r}: {exc}") from None


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


@dataclass
class RunManifest:
    """What produced a batch of reports: command, inputs, parameters, version.

    The timestamp lives only here; reports reference the manifest by file
    name, keeping them byte-identical across reruns of the same inputs.
    """

    command: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    parameters: dict
    tool_version: str
    timestamp: str
    outputs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "inputs": list(self.inputs),
            "parameters": self.parameters,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "outputs": list(self.outputs),
        }


class Run:
    """One command invocation: an output directory plus its manifest."""

    def __init__(self, command: str, argv: Sequence[str], out: str, inputs: Sequence[str], parameters: dict):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest = RunManifest(
            command=command,
            argv=tuple(argv),
            inputs=tuple(inputs),
            parameters=parameters,
            tool_version=__version__,
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        )

    def write_json(self, name: str, payload: dict) -> Path:
        body = {"manifest": MANIFEST_NAME}
        body.update(payload)
        path = self.dir / name
        path.write_text(report_json(body) + "\n", encoding="utf-8")
        self.manifest.outputs.append(name)
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        self.manifest.outputs.append(name)
        return path

    def finish(self) -> None:
        self.manifest.outputs.sort()
        path = self.dir / MANIFEST_NAME
        path.write_text(
            json.dumps(self.manifest.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


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


def cmd_homology(args: argparse.Namespace, argv: Sequence[str]) -> int:
    try:
        primes = [int(t) for t in args.primes.split(",") if t]
    except ValueError:
        raise InputError(f"--primes must be comma-separated integers, got {args.primes!r}") from None
    check_primes(primes)
    p = presentation_from_dict(load_json(args.group))
    chain = parse_chain_spec(args.chain, p, max_cosets=args.budget)
    run = Run(
        "homology",
        argv,
        args.out,
        [args.group],
        {"chain": args.chain, "primes": primes, "budget": args.budget},
    )
    kinds: list[tuple[str, Optional[int]]] = [("betti_q", None)]
    kinds += [("betti_fp", q) for q in primes]
    kinds.append(("log_torsion", None))
    summaries = chain_homology(chain, primes)
    for kind, prime in kinds:
        series = gradient_series(chain, kind=kind, prime=prime, summaries=summaries)
        stem = series.kind.replace("[", "_").replace("]", "")
        run.write_text(f"{stem}.csv", series_to_csv(series))
        run.write_json(f"{stem}.json", series_to_json_dict(series))
    run.finish()
    return 0


def cmd_qnormal_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    data = load_json(args.certificate)
    run = Run("qnormal verify", argv, args.out, [args.certificate], {})
    if "steps" in data:
        cert = chain_from_dict(data)
        report = verify_chain(cert, exact_chain_contexts(cert))
        run.write_json("verify_report.json", {"kind": "chain", **chain_report_dict(report)})
        run.finish()
        status = report.status
    elif "witnesses" in data:
        ws = witness_set_from_dict(data)
        report = verify_qnormal(ws, context_for(ws.ambient))
        run.write_json("verify_report.json", {"kind": "witness-set", **qnormal_report_dict(report)})
        run.finish()
        status = report.status
    else:
        raise InputError("the certificate file has neither 'steps' nor 'witnesses'")
    if status is QNormalStatus.FAILED:
        print("certificate FAILED (see verify_report.json)", file=sys.stderr)
        return 4
    return 0


def _graph_from_job(job: dict, budget: int, radius: int) -> tuple[Presentation, CosetGraph]:
    job = job_object(job, "a graph job")
    if "group" not in job:
        raise InputError("missing field 'group'")
    p = presentation_from_dict(job_object(job["group"], "field 'group'"))
    graph = build_coset_graph(
        p,
        words_field(job, "subgroup"),
        words_field(job, "generating_set"),
        budget=integer_field(job, "budget", budget),
        radius=integer_field(job, "radius", radius),
        witnesses=words_field(job, "witnesses", required=False),
    )
    return p, graph


def cmd_qnormal_graph(args: argparse.Namespace, argv: Sequence[str]) -> int:
    job = load_json(args.job)
    run = Run(
        "qnormal graph",
        argv,
        args.out,
        [args.job],
        {"budget": args.budget, "radius": args.radius},
    )
    _, graph = _graph_from_job(job, args.budget, args.radius)
    payload = graph_to_dict(graph)
    payload["is_connected"] = graph.is_connected()
    if graph.witnesses is not None:
        payload["stabilizer_witnesses_verified"] = list(graph.check_stabilizer_witnesses())
    run.write_json("graph.json", payload)
    run.finish()
    return 0


def cmd_qnormal_blowup(args: argparse.Namespace, argv: Sequence[str]) -> int:
    job = load_json(args.job)
    run = Run(
        "qnormal blowup",
        argv,
        args.out,
        [args.job],
        {"budget": args.budget, "radius": args.radius},
    )
    if "outer" not in job or "inner" not in job:
        raise InputError("a blow-up job needs 'outer' and 'inner' graph jobs")
    p, outer = _graph_from_job(job["outer"], args.budget, args.radius)
    _, inner = _graph_from_job(job["inner"], args.budget, args.radius)
    subgroup_words = words_field(job, "subgroup_words")
    connectors = job.get("connectors", [])
    if not isinstance(connectors, list):
        raise InputError(f"field 'connectors' must be a list, got {connectors!r}")
    connectors = tuple(connector_from_dict(c) for c in connectors)
    # the rewriter decomposes ambient words into letters of the outer
    # subgroup, whose generators are the outer graph's subgroup words
    rewriter = infer_solver(p, outer.subgroup_words)
    if rewriter is None:
        raise InputError(
            "no subgroup rewriter for the outer subgroup: blow-ups need a graph-group "
            "ambient, and a parabolic outer subgroup unless the group is free abelian"
        )
    blown = blow_up(
        outer,
        inner,
        connectors,
        context_for(p),
        subgroup_words,
        rewriter,
        solver=infer_solver(p, subgroup_words),
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
        direct_job = {"group": job["outer"]["group"], **job_object(job["direct"], "field 'direct'")}
        _, direct = _graph_from_job(direct_job, args.budget, args.radius)
        comparison = compare_blowup_with_direct(blown, direct)
        payload["comparison"] = {
            "common_vertices": comparison.common_vertices,
            "matches": comparison.matches,
            "only_in_blowup": len(comparison.only_in_first),
            "only_in_direct": len(comparison.only_in_second),
        }
    run.write_json("blowup.json", payload)
    run.finish()
    return 0


def cmd_qnormal_trim(args: argparse.Namespace, argv: Sequence[str]) -> int:
    job = load_json(args.job)
    run = Run(
        "qnormal trim",
        argv,
        args.out,
        [args.job],
        {"budget": args.budget, "radius": args.radius, "bound": args.bound},
    )
    p, graph = _graph_from_job(job, args.budget, args.radius)
    generators = words_field(job, "generators")
    ctx = context_for(p)
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
    run.write_json("trim.json", payload)
    run.finish()
    return 0


def cmd_raag(args: argparse.Namespace, argv: Sequence[str]) -> int:
    g, names = raag_from_dict(load_json(args.graph))
    run = Run("raag analyze", argv, args.out, [args.graph], {})
    ia = is_inner_amenable_raag(g)
    cc = chain_commuting_report(g)
    cert_path = None
    if cc.certificate is not None:
        cert_path = "chain_certificate.json"
        run.write_json(cert_path, chain_to_dict(cc.certificate))
    payload = {
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
    run.write_json("raag_report.json", payload)
    run.finish()
    return 0


def cmd_farber(args: argparse.Namespace, argv: Sequence[str]) -> int:
    p = presentation_from_dict(load_json(args.group))
    chain = parse_chain_spec(args.chain, p, max_cosets=args.budget)
    gammas = [parse_element(tok, p.generator_names) for tok in args.gammas.split(",") if tok.strip()]
    if not gammas:
        raise InputError("no test elements given")
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse eps {args.eps!r}: {exc}") from None
    run = Run(
        "farber",
        argv,
        args.out,
        [args.group],
        {"chain": args.chain, "gammas": args.gammas, "eps": str(eps), "budget": args.budget},
    )
    report = farber_prefix_check(chain, gammas, eps, context_for(p))
    lines = ["gamma,level,index,fx"]
    for gi, gamma in enumerate(report.gammas):
        for li, label in enumerate(chain.labels):
            lines.append(
                f"{format_word(gamma, p.generator_names)},{label},"
                f"{report.indices[li]},{report.values[gi][li]}"
            )
    run.write_text("farber.csv", "\n".join(lines) + "\n")
    run.write_json(
        "farber.json",
        {
            "gammas": [format_word(g, p.generator_names) for g in report.gammas],
            "levels": list(chain.labels),
            "indices": list(report.indices),
            "values": [[str(v) for v in row] for row in report.values],
            "eps": str(report.eps),
            "passed": report.passed,
            "evidence": report.evidence,
        },
    )
    run.finish()
    return 0


def cmd_rebuild(args: argparse.Namespace, argv: Sequence[str]) -> int:
    data = rebuilding_from_dict(load_json(args.data))
    if args.T < 1:
        raise InputError("T must be at least 1")
    run = Run(
        "rebuild check",
        argv,
        args.out,
        [args.data],
        {"T": args.T, "kappa": args.kappa},
    )
    validation = validate_rebuilding(data)
    payload: dict = {
        "validation": {
            "all_pass": validation.all_pass,
            "checks": [{"name": c.name, "passed": c.passed} for c in validation.checks],
        }
    }
    if not validation.all_pass:
        run.write_json("rebuild_report.json", payload)
        run.finish()
        print(
            "rebuilding data failed exact validation: " + ", ".join(validation.failures()),
            file=sys.stderr,
        )
        return 4
    if args.kappa is not None:
        quality = quality_check(data, T=args.T, kappa=args.kappa)
        payload["quality"] = quality_report_to_dict(quality)
    else:
        payload["T"] = args.T
        payload["minimal_kappa"] = _jsonable(minimal_kappa(data, T=args.T))
    run.write_json("rebuild_report.json", payload)
    run.finish()
    return 0


# -------------------------------------------------------------------- parser


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="chainlab_out", help="output directory (default: chainlab_out)")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="coset cap: cosets one enumeration may define, or the index of a chain level")
    sp.add_argument("--radius", type=int, default=DEFAULT_RADIUS, help="ball radius for truncated graphs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlab",
        description="Exact experiments on subgroup chains: homology gradients, "
        "q-normality certificates, graph-group analyzers, fixed-point tables, "
        "and rebuilding audits.",
    )
    parser.add_argument("--version", action="version", version=f"chainlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("homology", help="gradient series along a subgroup chain")
    sp.add_argument("group", help="group presentation JSON file")
    sp.add_argument("--chain", required=True, help="chain spec, e.g. 'abelian:n=1..5' or 'cyclic:n=2..8'")
    sp.add_argument("--primes", default="", help="comma-separated primes for mod-p Betti numbers")
    _add_common(sp)
    sp.set_defaults(func=cmd_homology)

    qn = sub.add_parser("qnormal", help="q-normality certificates and coset graphs")
    qsub = qn.add_subparsers(dest="verb", required=True)
    sp = qsub.add_parser("verify", help="verify a chain certificate or witness set")
    sp.add_argument("certificate", help="certificate JSON file")
    _add_common(sp)
    sp.set_defaults(func=cmd_qnormal_verify)
    sp = qsub.add_parser("graph", help="build a coset graph from a job file")
    sp.add_argument("job", help="job JSON: group, subgroup, generating_set[, witnesses]")
    _add_common(sp)
    sp.set_defaults(func=cmd_qnormal_graph)
    sp = qsub.add_parser("blowup", help="compose an outer and an inner coset graph")
    sp.add_argument("job", help="job JSON: outer, inner, subgroup_words, connectors[, direct]")
    _add_common(sp)
    sp.set_defaults(func=cmd_qnormal_blowup)
    sp = qsub.add_parser("trim", help="keep only edge orbits needed for connectedness")
    sp.add_argument("job", help="job JSON: group, subgroup, generating_set, generators")
    sp.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND, help="factorization search bound")
    _add_common(sp)
    sp.set_defaults(func=cmd_qnormal_trim)

    rg = sub.add_parser("raag", help="graph-group analyzers")
    rsub = rg.add_subparsers(dest="verb", required=True)
    sp = rsub.add_parser("analyze", help="inner amenability and chain-commuting structure")
    sp.add_argument("graph", help="graph JSON: vertices, edges[, names]")
    _add_common(sp)
    sp.set_defaults(func=cmd_raag)

    sp = sub.add_parser("farber", help="fixed-point ratio tables along a chain")
    sp.add_argument("group", help="group presentation JSON file")
    sp.add_argument("--chain", required=True, help="chain spec, e.g. 'abelian:n=1..10'")
    sp.add_argument("--gammas", required=True, help="comma-separated elements, e.g. 'a,b,ab' or '1.2'")
    sp.add_argument("--eps", default="0", help="tolerance as an exact fraction (default 0)")
    _add_common(sp)
    sp.set_defaults(func=cmd_farber)

    rb = sub.add_parser("rebuild", help="validate and audit chain-complex rebuildings")
    bsub = rb.add_subparsers(dest="verb", required=True)
    sp = bsub.add_parser("check", help="exact validation plus (T, kappa) quality bounds")
    sp.add_argument("data", help="rebuilding data JSON file")
    sp.add_argument("--T", type=float, required=True, help="rebuilding scale T >= 1")
    sp.add_argument("--kappa", type=float, default=None, help="audit at this kappa; omit to report the minimum")
    _add_common(sp)
    sp.set_defaults(func=cmd_rebuild)

    return parser


# Built once, at import: parsing leaves it unchanged, and building it (argparse
# makes a help formatter and gettext lookups per argument) costs 2-4 ms, many
# times a parse, which every in-process call of main would otherwise repeat.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args, argv)
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
