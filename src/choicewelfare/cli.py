"""Command-line interface: loads scenario documents, dispatches analyses,
and emits machine-readable reports and plot-data files.

Subcommands:

* ``evaluate``  - welfare/regret report for one choice set under one model.
* ``optimize``  - exhaustive best choice set under one model.
* ``sweep``     - welfare of every choice set across a rationality grid
                  (population or line-location scenario), CSV/JSON rows plus
                  a crossings summary file.
* ``treatment`` - binary-treatment report (mandate vs decentralization).
* ``hotelling`` - sweep of the bundled (or given) line-location scenario.

Reports (evaluate/optimize/treatment) are JSON and take no --format flag;
plot data (sweep/hotelling) is CSV with 12-significant-digit floats, or JSON
with --format json. Outputs are written atomically (temp file + rename).
The q grid flags override the scenario's sweep section, and --samples/--seed
its Monte Carlo models' settings; search.SweepConfig and models.MCConfig own
the defaults and rules of both.
Only ``treatment`` loads the treatment module: through the parse of a
treatment scenario and `build_report`, which imports it when first called.
Exit codes: 0 success, 1 usage error, 2 scenario validation error,
3 runtime error (out of memory included) or write error.
"""

import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import sys
from typing import Optional

# numpy's bundled OpenBLAS starts a worker thread per extra CPU when it
# loads, and the worker spins for about 0.1 s of CPU before it sleeps. No
# command makes a BLAS call that could run on threads (the only ones are
# np.dot over one type's actions), so the CLI asks for one BLAS thread before
# its first import loads numpy. A value the user set wins; the library
# modules leave the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .document import (
    PopulationSection,
    ScenarioDocument,
    ScenarioError,
    load_bundled_scenario,
    parse_scenario,
)
from .models import ChoiceModel, DefaultNudge, MCConfig, RandomUtilityMC
from .scenario import ActionSet, Population, _distinct, hotelling_population
from .search import (
    SweepConfig,
    SweepResult,
    UtilitySpreadError,
    optimize_choice_set,
    sweep_logit,
)
from .welfare import policy_welfare


def build_report(scenario):
    """treatment.build_report, imported when first called."""
    from . import treatment

    return treatment.build_report(scenario)


class _UsageError(Exception):
    """Bad flag combination or value, diagnosed after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the artifact contract
    # reserves 2 for scenario validation, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choicewelfare",
        description=(
            "Utilitarian welfare analysis of choice-restricting policies "
            "for boundedly rational populations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--scenario", required=True, help="path to a JSON scenario file"
        )
        p.add_argument("--out", help="output path (default: stdout)")

    evaluate = sub.add_parser(
        "evaluate", help="welfare/regret of one choice set under one model"
    )
    add_common(evaluate)
    evaluate.add_argument(
        "--model", required=True, help="name of a model from the scenario"
    )
    evaluate.add_argument(
        "--available",
        help="comma-separated action labels to allow (default: all)",
    )
    evaluate.add_argument(
        "--eta",
        type=float,
        default=0.0,
        help="normative share of a nudge's as-if cost (default 0)",
    )
    evaluate.add_argument("--samples", type=int, help="Monte Carlo sample override")
    evaluate.add_argument("--seed", type=int, help="Monte Carlo seed override")

    optimize = sub.add_parser(
        "optimize", help="exhaustive best choice set under one model"
    )
    add_common(optimize)
    optimize.add_argument(
        "--model", required=True, help="name of a model from the scenario"
    )
    optimize.add_argument("--samples", type=int, help="Monte Carlo sample override")
    optimize.add_argument("--seed", type=int, help="Monte Carlo seed override")

    def add_sweep_flags(p):
        p.add_argument("--q-min", type=float, help="lowest rationality scale")
        p.add_argument("--q-max", type=float, help="highest rationality scale")
        p.add_argument("--q-step", type=float, help="grid step")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser(
        "sweep", help="welfare of every choice set across a rationality grid"
    )
    sweep.add_argument(
        "--scenario", required=True, help="path to a JSON scenario file"
    )
    sweep.add_argument("--out", required=True, help="output path for the rows")
    add_sweep_flags(sweep)

    treatment = sub.add_parser(
        "treatment", help="mandate vs decentralization report"
    )
    add_common(treatment)

    hotelling = sub.add_parser(
        "hotelling", help="sweep the bundled (or given) line-location scenario"
    )
    hotelling.add_argument(
        "--scenario", help="line-location scenario file (default: bundled)"
    )
    hotelling.add_argument("--out", required=True, help="output path for the rows")
    add_sweep_flags(hotelling)

    return parser


# --- emission helpers ---


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_files_atomic(texts) -> None:
    """Write each text of the ``{path: text}`` mapping beside its path, then
    rename every one over its path, with the mode ``open(path, "w")`` gives
    a new file.

    No path is replaced until every text is written and no path is a
    directory, so such a failure leaves every path as it was. A failure
    removes every temp file, and its error names the path being written."""
    temps = {}
    path = None
    try:
        for path, text in texts.items():
            temps[path] = os.path.join(os.path.dirname(os.path.abspath(path)),
                                       f".choicewelfare-{os.urandom(6).hex()}.part")
            fd = os.open(temps[path], os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path in texts:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps.values():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_files_atomic({out: text})


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    sio = io.StringIO()
    writer = csv.writer(sio)
    writer.writerow(header)
    writer.writerows(rows)
    return sio.getvalue()


def _csv_lead(field: str) -> str:
    """``field`` as csv.writer writes the first field of a row of several,
    followed by the delimiter."""
    return _csv_text((field, ""), ()).removesuffix("\r\n")


# --- scenario plumbing ---


def _section(doc: ScenarioDocument, command: str, *kinds: str):
    """The document's section of whichever of `kinds` it holds."""
    for kind in kinds:
        section = getattr(doc, kind)
        if section is not None:
            return section
    expected = " or ".join(repr(kind) for kind in kinds)
    raise ScenarioError(
        f"scenario kind {doc.kind!r} does not match command {command!r} "
        f"(expected {expected})"
    )


def _population_and_model(args, command: str) -> tuple[Population, ChoiceModel]:
    """The population of the --scenario file and its --model, with the
    --samples/--seed overrides applied."""
    if args.samples is not None:
        try:
            MCConfig(samples=args.samples)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    section = _section(parse_scenario(args.scenario), command, "population")
    if args.model not in section.models:
        known = ", ".join(sorted(section.models)) or "none"
        raise ScenarioError(
            f"population.models: unknown model {args.model!r} (defined: {known})"
        )
    model = _override_mc(section.models[args.model], args.samples, args.seed)
    return section.population, model


def _override_mc(
    model: ChoiceModel, samples: Optional[int], seed: Optional[int]
) -> ChoiceModel:
    """Apply --samples/--seed to every Monte Carlo model inside `model`."""
    if isinstance(model, RandomUtilityMC):
        changes = {}
        if samples is not None:
            changes["samples"] = samples
        if seed is not None:
            changes["seed"] = seed
        return dataclasses.replace(model, **changes) if changes else model
    if isinstance(model, DefaultNudge):
        base = _override_mc(model.base, samples, seed)
        return dataclasses.replace(model, base=base) if base is not model.base else model
    return model


def _resolve_available(args, actions: ActionSet) -> Optional[list[int]]:
    if args.available is None:
        return None
    labels = [part.strip() for part in args.available.split(",")]
    try:
        indices = [actions.index_of(label) for label in labels]
        _distinct(labels, "action labels")
    except ValueError as exc:
        raise ScenarioError(f"--available: {exc}") from None
    return indices


def _sweep_config(doc: ScenarioDocument, args) -> SweepConfig:
    base = doc.sweep if doc.sweep is not None else SweepConfig()
    try:
        return SweepConfig(
            q_min=args.q_min if args.q_min is not None else base.q_min,
            q_max=args.q_max if args.q_max is not None else base.q_max,
            q_step=args.q_step if args.q_step is not None else base.q_step,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# --- subcommands ---


def _cmd_evaluate(args) -> int:
    pop, model = _population_and_model(args, "evaluate")
    available = _resolve_available(args, pop.actions)
    if not 0.0 <= args.eta <= 1.0:
        raise _UsageError("--eta must lie in [0, 1]")
    result = policy_welfare(pop, available, model, eta=args.eta)
    payload = {
        "available": [pop.actions.labels[i] for i in result.available],
        "welfare": result.welfare,
        "regret": result.regret,
        "per_type": [
            {
                "type_index": t.type_index,
                "value": t.value,
                "probs": {
                    pop.actions.labels[i]: float(p)
                    for i, p in zip(t.probs.available, t.probs.probs)
                },
            }
            for t in result.per_type
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_optimize(args) -> int:
    pop, model = _population_and_model(args, "optimize")
    result = optimize_choice_set(pop, model)
    payload = {
        "subset": [pop.actions.labels[i] for i in result.subset],
        "welfare": result.welfare,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _crossings_path(out: str, fmt: str) -> str:
    root, ext = os.path.splitext(out)
    if not ext:
        ext = f".{fmt}"
    return f"{root}.crossings{ext}"


def _subset_label(actions: ActionSet, subset) -> str:
    return "+".join(actions.labels[i] for i in subset)


def _emit_sweep_files(result: SweepResult, actions: ActionSet, args) -> int:
    labels = [_subset_label(actions, subset) for subset in result.subsets]
    label_of = dict(zip(result.subsets, labels))
    crossings = [
        (label_of[c.subset_a], label_of[c.subset_b], c.q_star)
        for c in result.crossings
    ]
    crossings_out = _crossings_path(args.out, args.format)

    # The row loops read Python lists: indexing a numpy array per element
    # costs more than formatting the value.
    q_list = result.grid.q_values.tolist()
    welfare = result.welfare.tolist()
    envelope = result.envelope.tolist()
    if args.format == "csv":
        # The rows are the bytes csv.writer writes (its default dialect ends
        # rows with CRLF) without a tuple per row through it: only a label can
        # need quoting, never a number or a flag, so each label is quoted
        # once. ``w:.12g`` is `_fmt` for the floats of ``tolist()``.
        q_text = [_fmt(q) for q in q_list]
        lines = [_csv_text(("subset_label", "q", "welfare", "is_envelope"), ())]
        for si, label in enumerate(labels):
            lead = _csv_lead(label)
            lines.extend(
                [
                    f"{lead}{q},{w:.12g},{'true' if best == si else 'false'}\r\n"
                    for q, w, best in zip(q_text, welfare[si], envelope)
                ]
            )
        main_text = "".join(lines)
        crossings_text = _csv_text(
            ("subset_a", "subset_b", "q"), [(a, b, _fmt(q)) for a, b, q in crossings]
        )
    else:
        main_text = _json_text(
            {
                "rows": [
                    {
                        "subset_label": label,
                        "q": q,
                        "welfare": w,
                        "is_envelope": best == si,
                    }
                    for si, label in enumerate(labels)
                    for q, w, best in zip(q_list, welfare[si], envelope)
                ]
            }
        )
        crossings_text = _json_text(
            {
                "crossings": [
                    {"subset_a": a, "subset_b": b, "q": q} for a, b, q in crossings
                ]
            }
        )

    _write_files_atomic({args.out: main_text, crossings_out: crossings_text})
    n_rows = len(labels) * len(q_list)
    print(f"wrote {n_rows} sweep rows to {args.out}")
    print(f"wrote {len(crossings)} crossings to {crossings_out}")
    return 0


def _run_sweep(doc: ScenarioDocument, section, args) -> int:
    if isinstance(section, PopulationSection):
        pop = section.population
    else:
        pop = hotelling_population(section)
    try:
        result = sweep_logit(pop, _sweep_config(doc, args).grid())
    except UtilitySpreadError as exc:
        raise ScenarioError(str(exc)) from None
    return _emit_sweep_files(result, pop.actions, args)


def _cmd_sweep(args) -> int:
    doc = parse_scenario(args.scenario)
    return _run_sweep(doc, _section(doc, "sweep", "population", "hotelling"), args)


def _cmd_hotelling(args) -> int:
    doc = parse_scenario(args.scenario) if args.scenario else load_bundled_scenario()
    return _run_sweep(doc, _section(doc, "hotelling", "hotelling"), args)


def _x_payload(x) -> dict:
    """An XReport's fields, as the treatment report names them."""
    fields = dict(vars(x))
    fields["value_of_information"] = vars(fields.pop("information_value"))
    fields["q_by_z"] = dict(x.q_by_z)
    return fields


def _cmd_treatment(args) -> int:
    doc = parse_scenario(args.scenario)
    scenario = _section(doc, "treatment", "treatment")
    for i, cell in enumerate(scenario.x_cells):
        for j, z in enumerate(cell.z_cells):
            if z.belief is None:
                raise ScenarioError(
                    f"treatment.x_cells[{i}].z_cells[{j}]: belief required "
                    "for the treatment command"
                )
    report = build_report(scenario)
    payload = {
        "aggregate_welfare": report.aggregate_welfare,
        "per_x": [_x_payload(x) for x in report.per_x],
    }
    _emit(_json_text(payload), args.out)
    return 0


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "treatment": _cmd_treatment,
    "hotelling": _cmd_hotelling,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's MemoryError names the allocation; a bare one has no text.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
