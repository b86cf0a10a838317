"""Command line interface: classify orbits, verify one instance, sweep a grid.

Exit codes: 0 all identities hold, 1 at least one identity failed, 2 bad
usage or invalid parameters.  Output is deterministic TSV by default or
JSON-lines with --format json; sweep failure rows are replayable through
`verify` coordinates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import identities
from .csa import CsaParams
from .errors import TametoriError
from .finmod import u_dim
from .identities import GridSpec, Instance, Report, verify_instance
from .localfield import ExtensionModel, ExtensionParams, build_extension
from .roots import enumerate_orbits
from .tower import TowerShape, interval_subgroups, parse_selector, validate_shape

__all__ = ["main"]


def _emit(rows: list[dict], columns: list[str], fmt: str) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return
    print("\t".join(columns))
    for row in rows:
        print("\t".join("-" if row[c] is None else str(row[c]) for c in columns))


def _emit_counts(kind: str, counts: dict, fmt: str) -> None:
    """One count line: a JSON object tagged with kind, or a `# k=v ...` line."""
    if fmt == "json":
        print(json.dumps({"kind": kind, **counts}, sort_keys=True))
    else:
        print("# " + " ".join(f"{k}={v}" for k, v in counts.items()))


def _build_model(args) -> ExtensionModel:
    return build_extension(ExtensionParams(args.q, args.e, args.f, args.w))


def cmd_classify(args) -> int:
    X = _build_model(args)
    rows = [
        {
            "i": o.ij[0],
            "j": o.ij[1],
            "class": o.cls.value,
            "Q_alpha": o.Q_alpha,
            "q_pm": o.q_pm,
            "u_dim": u_dim(X, o),
        }
        for o in enumerate_orbits(X)
    ]
    _emit(rows, ["i", "j", "class", "Q_alpha", "q_pm", "u_dim"], args.format)
    return 0


def _parse_shape(X, tower_arg: str, levels_arg: str) -> TowerShape:
    full = interval_subgroups(X)[-1]
    tokens = [] if tower_arg in ("", "-") else tower_arg.split(",")
    levels = (
        ()
        if levels_arg in ("", "-")
        else tuple(int(s) for s in levels_arg.split(","))
    )
    subgroups = tuple(parse_selector(X, tok) for tok in tokens) + (full,)
    if len(levels) != len(tokens):
        raise ValueError(
            f"{len(tokens)} tower entries need {len(tokens)} levels, got {len(levels)}"
        )
    shape = TowerShape(subgroups=subgroups, levels=levels)
    validate_shape(X, shape)
    return shape


def _report_rows(report: Report) -> list[dict]:
    rows = [
        {
            "kind": "orbit",
            "i": v.ij[0],
            "j": v.ij[1],
            "partner_i": v.partner_ij[0],
            "partner_j": v.partner_ij[1],
            "class": v.cls.value,
            "depth": v.depth,
            "lhs_unit": v.lhs.on_unit_gen,
            "lhs_pi": v.lhs.on_uniformizer,
            "rhs_unit": v.rhs.on_unit_gen,
            "rhs_pi": v.rhs.on_uniformizer,
            "pass": int(v.passed),
        }
        for v in report.verdicts
    ]
    rows.append(
        {
            "kind": "aggregate",
            "i": None,
            "j": None,
            "partner_i": None,
            "partner_j": None,
            "class": None,
            "depth": None,
            "lhs_unit": report.aggregate_lhs.on_unit_gen,
            "lhs_pi": report.aggregate_lhs.on_uniformizer,
            "rhs_unit": report.aggregate_rhs.on_unit_gen,
            "rhs_pi": report.aggregate_rhs.on_uniformizer,
            "pass": int(report.passed),
        }
    )
    return rows


_REPORT_COLUMNS = [
    "kind",
    "i",
    "j",
    "partner_i",
    "partner_j",
    "class",
    "depth",
    "lhs_unit",
    "lhs_pi",
    "rhs_unit",
    "rhs_pi",
    "pass",
]


def cmd_verify(args) -> int:
    X = _build_model(args)
    A = CsaParams(args.m, args.d, args.h)
    shape = _parse_shape(X, args.tower, args.levels)
    report = verify_instance(Instance(X, A, shape))
    _emit(_report_rows(report), _REPORT_COLUMNS, args.format)
    return 0 if report.passed else 1


_CONFIG_KEYS = {
    "q_list",
    "n_max",
    "w_policy",
    "w_seed",
    "t_max",
    "a_max",
    "strict",
}


def load_config(path: str) -> GridSpec:
    """Flat `key = value` file; unknown or repeated keys, text that does not
    parse (strict other than 0/1/false/true, a w_policy other than zero or
    sample:N) and the values GridSpec rejects are usage errors."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in _CONFIG_KEYS or not val:
                raise ValueError(f"{path}:{lineno}: bad config line {raw.strip()!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = val
    try:
        policy = values.get("w_policy", "zero")
        if policy == "zero":
            w_extra = 0
        elif policy.startswith("sample:"):
            w_extra = int(policy.split(":", 1)[1])
        else:
            raise ValueError(f"bad w_policy {policy!r}")
        strict = values.get("strict", "0")
        if strict not in ("0", "1", "false", "true"):
            raise ValueError(f"strict = {strict!r} is not 0, 1, false or true")
        return GridSpec(
            q_list=tuple(int(s) for s in values["q_list"].split(",")),
            n_max=int(values["n_max"]),
            w_extra=w_extra,
            w_seed=int(values.get("w_seed", "0")),
            t_max=int(values.get("t_max", "0")),
            a_max=int(values.get("a_max", "0")),
            strict_admissible=strict in ("1", "true"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing config key {exc.args[0]}") from None


_FAILURE_COLUMNS = [
    "q",
    "e",
    "f",
    "w",
    "m",
    "d",
    "h",
    "tower",
    "levels",
    "orbits",
    "lhs",
    "rhs",
    "aggregate_lhs",
    "aggregate_rhs",
]


def cmd_sweep(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs {args.jobs} outside 1..{cpus} (the CPU count)")
    grid = load_config(args.config)
    if args.dry_run:
        plan = identities.plan(grid)
        counts = {
            "params": plan.params_count,
            "instances": plan.instances,
            "skipped_nonstrict": plan.skipped_nonstrict,
        }
        _emit_counts("dry-run", counts, args.format)
        return 0
    summary = identities.sweep(grid, jobs=args.jobs)
    stats = {
        "params": summary.params_count,
        "instances": summary.instances,
        "orbits_checked": summary.orbits_checked,
        "failures": len(summary.failures),
        "skipped_nonstrict": summary.skipped_nonstrict,
    }
    if args.format == "json":
        for row in summary.failures:
            print(json.dumps({"kind": "failure", **row}, sort_keys=True))
    else:
        _emit(list(summary.failures), _FAILURE_COLUMNS, "tsv")
    _emit_counts("summary", stats, args.format)
    return 1 if summary.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tametori",
        description="Exact verification of tame torus character identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(p):
        p.add_argument("--q", type=int, required=True, help="residue cardinality")
        p.add_argument("--e", type=int, required=True, help="ramification index")
        p.add_argument("--f", type=int, required=True, help="residue degree")
        p.add_argument("--w", type=int, default=0, help="uniformizer twist exponent")

    def add_format_arg(p):
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_cls = sub.add_parser("classify", help="list root orbits with their classes")
    add_field_args(p_cls)
    add_format_arg(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="check one (field, algebra, tower) instance")
    add_field_args(p_ver)
    p_ver.add_argument("--m", type=int, required=True, help="matrix size of A = M_m(D)")
    p_ver.add_argument("--d", type=int, required=True, help="degree of D")
    p_ver.add_argument("--h", type=int, default=0, help="Hasse numerator of D")
    p_ver.add_argument(
        "--tower",
        default="",
        help="comma list of bottom subfields E_0,..,E_{t-1}: E, F, or deg[.idx]",
    )
    p_ver.add_argument("--levels", default="", help="comma list of jump levels")
    add_format_arg(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="verify every instance of a config grid")
    p_sw.add_argument("--config", required=True, help="flat key=value grid file")
    p_sw.add_argument(
        "--jobs", type=int, default=1, help="worker processes, 1..CPU count"
    )
    p_sw.add_argument(
        "--dry-run",
        action="store_true",
        help="print the params, instances and skipped_nonstrict counts only",
    )
    add_format_arg(p_sw)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TametoriError, ValueError, KeyError, OSError) as exc:
        # OSError args[0] is the bare errno; its str() carries the filename
        detail = str(exc) if isinstance(exc, OSError) else (
            exc.args[0] if exc.args else exc
        )
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
