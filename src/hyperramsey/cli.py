"""Command-line interface: construct, verify, ramsey, tau, dramsey, chain,
engine, table, check.

Output is deterministic given its inputs: anything timing-related goes to
stderr or to the optional run manifest, never into the payload on stdout.
Exit codes: 0 ok, 1 invalid input (a usage error included), 2 guard
exceeded, 3 certificate invalid.  The chain and engine layers are imported
only by the subcommands and certificate kinds that use them, so the other
subcommands start without them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import core
from .core import (
    BLUE,
    GuardExceeded,
    Hypergraph,
    RED,
    Tournament,
    TwoColoring,
    coloring_from_json,
    coloring_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    is_int,
    ramsey_profile,
)
from . import constructions
from .search import (
    Certificate,
    parse_pattern,
    pattern_hypergraph,
    verify_free,
    witness_fault,
)
from .exact import (
    directed_ramsey_exact,
    goodness_gap,
    ramsey_exact,
    tau_exact,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_GUARD = 2
EXIT_BAD_CERTIFICATE = 3


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _dump(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(path: str | None, args, argv: list[str], started: float) -> None:
    """Hashes of every file argument plus the parameter record: re-running
    the recorded command against matching inputs reproduces the outputs."""
    if not path:
        return
    input_keys = ("coloring", "blocks", "certificate", "blue_target", "blue")
    output_keys = ("out", "manifest_out", "json_out")
    inputs = {}
    outputs = {}
    for key in input_keys:
        value = getattr(args, key, None)
        if isinstance(value, str):
            try:
                inputs[key] = _sha256_file(value)
            except OSError:
                pass
    for key in output_keys:
        value = getattr(args, key, None)
        if isinstance(value, str):
            try:
                outputs[key] = _sha256_file(value)
            except OSError:
                pass
    manifest = {
        "command": argv,
        "input_sha256": inputs,
        "output_sha256": outputs,
        "wall_time_s": round(time.time() - started, 3),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _target_from_args(value: str) -> Hypergraph:
    """A blue target is a hypergraph JSON file when `value` names an existing
    file, else a pattern string; a value that cannot be a pattern (no ":" and
    not "fano") is read as a file, so a missing one is reported as missing."""
    if os.path.isfile(value) or (":" not in value and value != "fano"):
        return hypergraph_from_json(_load_json(value))
    return pattern_hypergraph(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    name = args.name
    params: dict[str, str] = {}
    for kv in args.param:
        key, eq, value = kv.partition("=")
        if not eq:
            raise ValueError(f"--param {kv!r} is not key=value")
        if key in params:
            raise ValueError(f"--param {key} is given twice")
        params[key] = value

    def text(key: str, default: str | None = None) -> str:
        # each key is consumed as it is read; what is left was never read
        if key not in params and default is None:
            raise ValueError(f"construct {name} needs --param {key}=<value>")
        return params.pop(key, default)

    def num(key: str) -> int:
        value = text(key)
        if not value.lstrip("-").isdigit():
            raise ValueError(f"--param {key}={value} is not an integer")
        return int(value)

    if name == "burr":
        inst = constructions.burr_coloring(num("k"), num("chi"), num("sigma"), num("vG"))
    elif name == "ell-path":
        inst = constructions.ell_path_lb(num("k"), num("ell"), num("n"), num("chi"))
    elif name == "loose-path":
        k, t = num("k"), num("t")
        aux = constructions.tau_lower_construction(k - 1, t)
        inst = constructions.loose_path_lb(k, num("chi"), num("n"), t, aux)
    elif name == "loose-cycle":
        k, t, variant = num("k"), num("t"), text("variant", "pencil")
        aux = constructions.tau_lower_construction(k - 1, t) if variant == "tau" else None
        inst = constructions.loose_cycle_lb(k, num("chi"), num("n"), t, variant,
                                            q=num("q") if "q" in params else None, aux=aux)
    elif name == "non-transitive":
        inst = constructions.non_transitive_lb(num("m"), num("t"))
    else:  # "transitive": argparse's choices refuse every other name
        path = text("tournament", "c3")
        t = Tournament.cyclic_triangle() if path == "c3" else tournament_from_file(path)
        inst = constructions.transitive_lb(t, num("n"))
    if params:
        raise ValueError(f"construct {name} does not read --param {', '.join(sorted(params))}")
    _dump(coloring_to_json(inst.coloring), args.out)
    if args.manifest_out:
        _dump(inst.manifest(), args.manifest_out)
    return EXIT_OK


def tournament_from_file(path: str) -> Tournament:
    return core.tournament_from_json(_load_json(path))


def cmd_verify(args) -> int:
    col = coloring_from_json(_load_json(args.coloring))
    target = _target_from_args(args.blue_target)
    cert = verify_free(col, args.red_pattern, target)
    _dump(cert.to_json(), args.out)
    return EXIT_OK


def cmd_ramsey(args) -> int:
    target = _target_from_args(args.blue)
    result = ramsey_exact(args.red, target, args.cap)
    rp = ramsey_profile(target)
    report = goodness_gap(args.red, target, result, rp)
    payload = {
        "red_pattern": args.red,
        "value": result.value,
        "lower_bound": result.lower_bound,
        "exact": result.exact,
        "burr_bound": report.burr,
        "verdict": report.verdict,
        "lower_witness": coloring_to_json(result.lower_witness) if result.lower_witness else None,
        "search_nodes": result.stats.get("nodes"),
    }
    _dump(payload, args.out)
    return EXIT_OK


def cmd_tau(args) -> int:
    result = tau_exact(args.k, args.alpha, n_cap=args.cap)
    payload = {
        "k": args.k,
        "alpha": args.alpha,
        "value": result.value,
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "flags": list(result.flags),
        "witness": hypergraph_to_json(result.witness) if result.witness else None,
    }
    _dump(payload, args.out)
    return EXIT_OK


def cmd_dramsey(args) -> int:
    result = directed_ramsey_exact(args.chi, n_cap=args.cap)
    payload = {
        "chi": args.chi,
        "value": result.value,
        "lower_bound": result.lower_bound,
        "exact": result.exact,
        "witness": core.tournament_to_json(result.witness) if result.witness else None,
    }
    _dump(payload, args.out)
    return EXIT_OK


def cmd_chain(args) -> int:
    from .chains import assemble_chains, build_path_system

    col = coloring_from_json(_load_json(args.coloring))
    blocks = _load_json(args.blocks)
    if not isinstance(blocks, list):
        raise ValueError("blocks must be a list of vertex lists")
    blocks = [tuple(_int_list(b, "blocks entry")) for b in blocks]
    flat = [v for b in blocks for v in b]
    if len(set(flat)) != len(flat) or any(not 0 <= v < col.n for v in flat):
        raise ValueError(f"blocks must be disjoint sets of vertices of 0..{col.n - 1}")
    system = build_path_system(col, blocks, ell=args.ell, alpha=args.alpha)
    if system.stalled:
        _dump({"stalled": True, "diagnostic": system.diagnostic}, args.out)
        return EXIT_OK
    report = assemble_chains(col, blocks, system)
    payload = {
        "stalled": False,
        "chains": [
            {"kind": c.kind, "k": c.k, "ell": c.ell,
             "vertices": list(c.vertices), "intervals": [list(i) for i in c.intervals]}
            for c in report.chains
        ],
        "leftover": list(report.leftover),
    }
    _dump(payload, args.out)
    return EXIT_OK


def cmd_engine(args) -> int:
    from .engines import EngineParams, loose_witness_engine, tight_witness_engine

    col = coloring_from_json(_load_json(args.coloring))
    params = EngineParams(n_target=args.target, block_size=args.block_size,
                          target_kind=args.target_kind)
    if args.mode == "loose":
        if args.blue_target is None:
            raise ValueError("engine loose needs --blue-target")
        report = loose_witness_engine(col, _target_from_args(args.blue_target), params)
    else:
        if args.tth is None:
            raise ValueError("engine tight needs --tth chi:m")
        _, tth = parse_pattern("tth:" + args.tth)
        report = tight_witness_engine(col, tth["chi"], tth["m"], params)
    payload = {
        "outcome": report.outcome,
        "certificate": report.certificate.to_json() if report.certificate else None,
        "stall": report.stall,
        "log": report.log,
    }
    _dump(payload, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    cert = Certificate.from_json(_load_json(args.certificate))
    col = coloring_from_json(_load_json(args.coloring)) if args.coloring else None
    ok, reason = check_certificate(cert, col)
    print(json.dumps({"valid": ok, "reason": reason}))
    return EXIT_OK if ok else EXIT_BAD_CERTIFICATE


_NEEDS_COLOURING = ("red_path", "blue_path", "red_cycle", "blue_cycle", "red_embedding",
                    "blue_embedding", "chain", "blue_crossing_attestation")


def _int_list(value, what: str) -> list[int]:
    """An input field that must be a list of integers."""
    if not isinstance(value, list) or not all(is_int(v) for v in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


def check_certificate(cert: Certificate, col: TwoColoring | None) -> tuple[bool, str]:
    """Re-validate a certificate in one pass against the host colouring.

    What cannot be re-validated from the certificate and the colouring is
    refused, except one attestation: an exact `free` search.  A field of the
    wrong type is malformed input: ValueError."""
    kind = cert.kind
    if col is None and kind in _NEEDS_COLOURING:
        return False, f"{kind} certificates need the colouring"
    colour, _, shape = kind.partition("_")
    if colour not in (RED, BLUE):
        shape = ""
    if shape in ("path", "cycle", "embedding"):  # each names its uniformity
        named = cert.detail.get("target") if shape == "embedding" else cert.detail
        if isinstance(named, dict) and named.get("k", col.k) != col.k:
            return False, f"the certificate is {named['k']!r}-uniform, the colouring {col.k}-uniform"
        if shape == "embedding":
            if named is None:
                return False, "embedding certificate lacks its target"
            if cert.witness is None:
                return False, "absence attestations cannot be re-validated in one pass"
        else:  # the vertices in path or cyclic order
            ell = cert.detail.get("ell")
            if cert.witness is None or ell is None or "k" not in cert.detail:
                return False, "missing witness, ell or k"
            if not is_int(ell) or not 1 <= ell < col.k:
                raise ValueError(f"certificate ell must be an integer in 1..{col.k - 1}")
        witness = _int_list(cert.witness, f"{shape} witness")
        target = (hypergraph_from_json(named) if shape == "embedding"
                  else f"{shape}:{col.k}:{ell}:{len(witness)}")  # the pattern of the witness's order
        fault = witness_fault(col, target, witness, colour)
        return fault is None, fault or "revalidated"
    if kind == "independent_set":
        return False, "independent-set certificates do not carry their hypergraph"
    if kind == "tt_embedding":
        return False, "tt_embedding certificates do not carry their tournament"
    if kind == "chain":
        from .chains import CliqueChain, validate_chain

        w = cert.witness
        if not isinstance(w, dict) or not is_int(w.get("k")) or w["k"] != col.k \
                or not is_int(w.get("ell")) or not 1 <= w["ell"] < col.k:
            raise ValueError(f"chain witness must be an object with k = {col.k} and ell in 1..{col.k - 1}")
        intervals = w.get("intervals")
        if not isinstance(intervals, list) or any(len(_int_list(i, "chain interval")) != 2 for i in intervals):
            raise ValueError("chain intervals must be [start, length] pairs")
        chain = CliqueChain(w["kind"], col.k, w["ell"], tuple(_int_list(w.get("vertices"), "chain vertices")),
                            tuple(tuple(i) for i in intervals))
        out = validate_chain(chain, col)
        return out.kind == "chain", "; ".join(out.detail["problems"]) or "revalidated"
    if kind == "blue_crossing_attestation":
        from .engines import independence_dichotomy

        blocks = cert.detail.get("blocks") or []
        if not isinstance(blocks, list):
            raise ValueError("crossing attestation blocks must be a list")
        flat = [v for b in blocks for v in _int_list(b, "crossing block")]
        if not flat or len(set(flat)) != len(flat) or any(not 0 <= v < col.n for v in flat):
            return False, "crossing attestation needs disjoint blocks of host vertices"
        outcome, edge = independence_dichotomy(col, [tuple(b) for b in blocks])
        if outcome == "red":
            return False, f"crossing edge {list(edge)} is red"
        return True, "revalidated"
    if kind == "free" and cert.detail.get("exact") is not True:
        return False, "inexact freeness attestation: the search behind it was cut short"
    if kind == "free":
        return True, "attestation accepted (carries search statistics, not a witness)"
    return False, f"unknown certificate kind {kind!r}"


def cmd_table(args) -> int:
    from .table import reproduction_table, render_text

    rows = reproduction_table()
    if args.json_out:
        _dump(rows, args.json_out)
    else:
        print(render_text(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, invalid input: argparse
    exits 2, which here means a spent guard.  `add_subparsers` makes every
    subcommand parser of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hyperramsey",
                 description="Desk-scale Ramsey goodness computations for uniform hypergraphs")
    ap.add_argument("--manifest", default=None, help="write a run manifest (hashes, wall time) here")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a lower-bound colouring and its manifest")
    p.add_argument("name", choices=["burr", "ell-path", "loose-path", "loose-cycle",
                                    "non-transitive", "transitive"])
    p.add_argument("--param", action="append", default=[], metavar="key=value")
    p.add_argument("--out", default=None)
    p.add_argument("--manifest-out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="freeness certificate for a colouring")
    p.add_argument("--coloring", required=True)
    p.add_argument("--red-pattern", required=True)
    p.add_argument("--blue-target", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ramsey", help="exact Ramsey number by exhaustive search")
    p.add_argument("--red", required=True)
    p.add_argument("--blue", required=True)
    p.add_argument("--cap", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ramsey)

    p = sub.add_parser("tau", help="largest order with independence < alpha and no two-edge loose path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("dramsey", help="directed Ramsey number of the transitive tournament")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--cap", type=int, default=9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dramsey)

    p = sub.add_parser("chain", help="build a path system over blocks and assemble clique chains")
    p.add_argument("--coloring", required=True)
    p.add_argument("--blocks", required=True, help="JSON list of vertex lists")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("engine", help="run the loose or tight witness engine")
    p.add_argument("mode", choices=["loose", "tight"])
    p.add_argument("--coloring", required=True)
    p.add_argument("--target", type=int, required=True, help="red path/cycle order")
    p.add_argument("--target-kind", choices=["path", "cycle"], default="path")
    p.add_argument("--blue-target", default=None, help="loose mode: pattern or hypergraph JSON file")
    p.add_argument("--tth", default=None, help="tight mode: chi:m")
    p.add_argument("--block-size", type=int, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_engine)

    p = sub.add_parser("table", help="the desk-scale reproduction table")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="re-validate a certificate; exit 3 when invalid")
    p.add_argument("--certificate", required=True)
    p.add_argument("--coloring", default=None)
    p.set_defaults(func=cmd_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    args = ap.parse_args(argv)
    started = time.time()
    try:
        rc = args.func(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.manifest:
        _write_manifest(args.manifest, args, argv, started)
    return rc


if __name__ == "__main__":
    sys.exit(main())
