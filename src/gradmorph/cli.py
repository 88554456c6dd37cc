"""Command-line surface: transform, replay, simulate, adversary, oracle,
bench. Exit codes: 0 ok / guarantee holds, 1 usage, 2 data, 3 contract.

Start-up is most of a CLI run at small sizes, so this module loads at import
only what the parser, `replay` and an mcm `transform` need (graph, io,
script and the mcm planner). Each command imports the modules that only it
uses when it runs: `transform` the mwm planner, or the msf planner and the
index kind it builds, `simulate` and `adversary` the wrapper, sim and
adversary modules, `oracle` the exact solvers, `bench` the scaling harness,
and the commands that write a CSV file the csv module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

from .graph import (DEFAULT_TOLERANCE, BudgetError, ContractError, DataError,
                    Graph, solution_stats)
from .io import (RunManifest, emit_edge_set, parse_forest, parse_graph,
                 parse_matching, parse_updates, emit_updates)
from .mcm import plan_mcm
from .script import (PROBLEMS, TransformationScript, check_guarantee,
                     phase_budget, replay, report_to_csv_rows,
                     transform_granularity)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_CONTRACT = 0, 1, 2, 3
DEFAULT_SEED = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_csv(path: str, rows: list[list], manifest: RunManifest) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {json.dumps(json.loads(manifest.to_json()), sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerows(rows)


def _read(path: str, label: str, manifest: RunManifest) -> str:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {label} file {path}: {exc}") from None
    manifest.add_input(label, text)
    return text


def _read_pair(args, problem: str, g: Graph, manifest: RunManifest):
    """The --from and --to solutions, read and parsed in that order:
    matchings for mcm and mwm, spanning forests otherwise. A fault in
    either names its option and path."""
    parse = parse_matching if problem in ("mcm", "mwm") else parse_forest
    pair = []
    for label, path in (("from", args.source), ("to", args.target)):
        text = _read(path, label, manifest)
        try:
            pair.append(parse(text, g))
        except DataError as exc:
            raise DataError(f"--{label} {path}: {exc}") from None
    return pair


def _finish_manifest(manifest: RunManifest, args) -> None:
    if getattr(args, "manifest_out", None):
        Path(args.manifest_out).write_text(manifest.to_json() + "\n")


def _cmd_transform(args) -> int:
    manifest = RunManifest("transform", {
        "problem": args.problem, "epsilon": args.epsilon,
        "seed": args.seed, "tolerance": DEFAULT_TOLERANCE,
    })
    if args.problem == "msf":   # the one planner that builds an index
        from .dynforest import INDEX_KIND
        manifest.parameters["index"] = INDEX_KIND
    g = parse_graph(_read(args.graph, "graph", manifest))
    phase_budget(args.problem, args.epsilon)   # checks epsilon for mwm
    t0 = time.perf_counter()
    src, tgt = _read_pair(args, args.problem, g, manifest)
    if args.problem == "mcm":
        script = plan_mcm(g, src, tgt)
    elif args.problem == "mwm":
        from .mwm import plan_mwm_auto
        script = plan_mwm_auto(g, src, tgt, args.epsilon)
    else:
        from .msf import plan_msf
        script = plan_msf(g, src, tgt)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = replay(g, src.edge_ids(), script,
                    transform_granularity(args.problem))
    result = check_guarantee(report, solution_stats(g, src),
                             solution_stats(g, tgt), args.problem, args.epsilon)
    if not result.ok:
        raise ContractError(f"planned script {_violation(result)}")
    replay_wall = time.perf_counter() - t0
    Path(args.out).write_text(
        script.to_json(json.loads(manifest.to_json())) + "\n")
    _finish_manifest(manifest, args)
    # the worst boundary: the smallest or lightest matching, or the
    # heaviest forest, since lighter is better there
    worst = (f"min_quality={report.worst_size}" if args.problem == "mcm"
             else f"min_quality={report.worst_weight}" if args.problem == "mwm"
             else f"max_weight={max(b.weight for b in report.boundaries)}")
    print(f"phases={len(script.phases)} budget={script.budget} {worst} "
          f"wall_seconds={wall:.4f} replay_seconds={replay_wall:.4f}")
    return EXIT_OK


def _cmd_replay(args) -> int:
    """The check that `transform` ran, on the script's problem and epsilon."""
    manifest = RunManifest("replay", {"tolerance": DEFAULT_TOLERANCE})
    g = parse_graph(_read(args.graph, "graph", manifest))
    script = TransformationScript.from_json(
        _read(args.script, "script", manifest), g)
    granularity = transform_granularity(script.problem)
    manifest.parameters.update(problem=script.problem, epsilon=script.epsilon,
                               granularity=granularity)
    src, tgt = _read_pair(args, script.problem, g, manifest)
    report = replay(g, src.edge_ids(), script, granularity)
    result = check_guarantee(report, solution_stats(g, src),
                             solution_stats(g, tgt), script.problem,
                             script.epsilon)
    if args.csv:
        _write_csv(args.csv, report_to_csv_rows(report), manifest)
    _finish_manifest(manifest, args)
    if result.ok:
        print(f"guarantee holds: boundaries={len(report.boundaries)} "
              f"worst_size={report.worst_size} worst_weight={report.worst_weight}")
        return EXIT_OK
    print(_violation(result))
    return EXIT_DATA


def _violation(result) -> str:
    where = result.boundary   # of a failed check_guarantee, if any
    if where is None:
        return f"guarantee violated: {result.reason}"
    op = "" if where.op is None else f", op {where.op}"
    return (f"guarantee violated: {result.reason} at boundary {where.index} "
            f"(phase {where.phase}{op})")


def _cmd_simulate(args) -> int:
    import random
    from array import array
    from .gen import random_update_stream
    from .sim import make_inner, run_simulation, trace_csv_rows
    from .wrapper import (RECOURSE_FACTOR, SIM_FACTOR, SMALL_FACTOR,
                          WINDOW_RATIO_FACTOR, WrappedMatching)
    weighted = args.psi is not None   # --psi bounds a weighted run's weights
    psi = args.psi if weighted else 1.0
    manifest = RunManifest("simulate", {
        "inner": args.inner, "epsilon": args.epsilon, "wrap": not args.no_wrap,
        "weighted": weighted, "psi": psi, "seed": args.seed,
        "oracle_check": args.oracle_check, "n": args.n,
        "random_updates": args.random_updates, "tolerance": DEFAULT_TOLERANCE,
        "constants": {"recourse_factor": RECOURSE_FACTOR,
                      "sim_factor": SIM_FACTOR, "small_factor": SMALL_FACTOR,
                      "window_ratio_factor": WINDOW_RATIO_FACTOR},
    })
    if args.updates:
        events = parse_updates(_read(args.updates, "updates", manifest))
    elif args.random_updates:
        rng = random.Random(args.seed)
        events = random_update_stream(rng, args.n, args.random_updates,
                                      w_lo=1.0, w_hi=psi, vertex_ops=True)
        manifest.add_input("updates", emit_updates(events))
    else:
        raise DataError("need --updates FILE or --random-updates N")
    g = Graph()
    for v in range(args.n):
        g.ensure_vertex(v)
    inner = make_inner(args.inner, g)
    if args.no_wrap:
        algo = inner
    else:
        algo = WrappedMatching(g, inner, args.epsilon,
                               weighted=weighted, psi=psi)
    stamps = array("d")   # 8 bytes a step
    result = run_simulation(g, algo, _stamped(events, stamps),
                            oracle_check=args.oracle_check)
    if args.trace:
        _write_csv(args.trace, trace_csv_rows(result), manifest)
    # the margins to the recourse and step-work budgets and the window
    # lifecycle, after the trace, whose manifest line describes the run's
    # inputs only
    results = {"max_recourse": result.max_recourse}
    if isinstance(algo, WrappedMatching):
        results.update(recourse_budget=algo.recourse_budget,
                       windows=algo.windows, switches=algo.switches,
                       max_step_work=algo.max_step_work,
                       step_work_budget=algo.step_work_budget)
    manifest.results = results
    _finish_manifest(manifest, args)
    ratio = result.worst_ratio
    print(f"steps={result.steps} "
          + " ".join(f"{k}={v}" for k, v in results.items())
          + f" mean_recourse={result.mean_recourse:.4f}"
          + (f" worst_approx_ratio={ratio:.4f}" if ratio is not None else "")
          + " " + _latency(stamps))
    return EXIT_OK


def _stamped(events, stamps):
    """events, with a perf_counter stamp appended to stamps at each pull
    and after the last one: the gap between two stamps is one whole step,
    its trace columns included."""
    clock, stamp = time.perf_counter, stamps.append
    for ev in events:
        stamp(clock())
        yield ev
    stamp(clock())


def _latency(stamps) -> str:
    """Updates per second and the nearest-rank p50, p99 and max of the
    step times between stamps, in microseconds; zeros for no step."""
    gaps = sorted(b - a for a, b in zip(stamps, stamps[1:]))
    if not gaps:
        return "updates_per_s=0 step_us_p50=0.00 step_us_p99=0.00 step_us_max=0.00"
    n = len(gaps)
    p50, p99 = (gaps[max(0, math.ceil(q * n) - 1)] for q in (0.5, 0.99))
    return (f"updates_per_s={n / (stamps[-1] - stamps[0]):.0f} "
            f"step_us_p50={1e6 * p50:.2f} step_us_p99={1e6 * p99:.2f} "
            f"step_us_max={1e6 * gaps[-1]:.2f}")


def _subject_factory(name: str, eps: float):
    """The adversary's subject: "exact", "static", an inner algorithm's
    name, or "wrapped:" and one of those three."""
    from . import adversary as adv
    from .sim import make_inner
    from .wrapper import WrappedMatching
    if name == "exact":
        return adv.ExactPathMaintainer
    if name == "static":
        return adv.StaticSubject
    if name.startswith("wrapped:"):
        inner_name = name.split(":", 1)[1]
        if inner_name.startswith("wrapped:"):   # a wrapper is no inner algorithm
            raise DataError(f"unknown inner algorithm {inner_name!r}")
        inner = _subject_factory(inner_name, eps)
        return lambda g: WrappedMatching(g, inner(g), eps)
    return lambda g: make_inner(name, g)


def _cmd_adversary(args) -> int:
    from . import adversary as adv
    from .sim import run_simulation, trace_csv_rows
    manifest = RunManifest("adversary", {
        "mode": args.mode, "epsilon": args.epsilon, "n": args.n,
        "subject": args.subject, "rounds": args.rounds, "seed": args.seed,
        "constants": {"path_scale": adv.PATH_SCALE, "copy_scale": adv.COPY_SCALE,
                      "amortization": "per edge update"},
    })
    factory = _subject_factory(args.subject, args.epsilon)
    if args.mode == "full":
        events = adv.gen_fully_dynamic(args.epsilon, args.rounds, args.n)
        g = Graph()
        result = run_simulation(g, factory(g), events)
        tail = f"max_recourse={result.max_recourse}"
    else:
        if args.mode == "incr":
            run, _ = adv.run_incremental_adversary(factory, args.epsilon, args.n)
            tail = f"complete_fraction={run.complete_fraction():.3f} "
        else:
            run = adv.run_decremental_mirror(factory, args.epsilon, args.n)
            tail = ""
        result = run.result
        tail += f"copies={len(run.copies)} l={run.l}"
    if args.trace:
        _write_csv(args.trace, trace_csv_rows(result), manifest)
    _finish_manifest(manifest, args)
    print(f"mode={args.mode} updates={result.steps} "
          f"amortized_recourse={result.mean_recourse:.4f} {tail}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracles import (exhaustive_transform_search, max_matching_exact,
                          max_weight_matching_exact, msf_exact)
    manifest = RunManifest("oracle", {"task": args.task})
    g = parse_graph(_read(args.graph, "graph", manifest))
    if args.task == "mcm":
        ids = max_matching_exact(g)
        print(f"size={len(ids)}")
    elif args.task in ("mwm", "msf"):
        ids = (max_weight_matching_exact if args.task == "mwm" else msf_exact)(g)
        print(f"size={len(ids)} weight={sum(map(g.weight, ids), 0.0)!r}")
    else:
        src, tgt = (set(m.edges) for m in _read_pair(args, "mcm", g, manifest))
        res = exhaustive_transform_search(
            g, src, tgt, args.delta, args.floor,
            floor_kind=args.floor_kind, granularity=args.search_granularity)
        print(f"feasible={res.feasible} explored={res.explored}"
              + ("" if res.feasible else f" note={res.note}"))
        _finish_manifest(manifest, args)
        return EXIT_OK
    if args.out:
        Path(args.out).write_text(emit_edge_set(g, ids))
    _finish_manifest(manifest, args)
    return EXIT_OK


def _at_least(lo: int):
    """An argparse type: an integer of at least lo."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {lo}")
        return value
    return parse


def _sizes(text: str) -> list[int]:
    """The --sizes ladder: comma-separated integers, each at least 2."""
    return [_at_least(2)(s) for s in text.split(",")]


def _finite(text: str) -> float:
    """An argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _cmd_bench(args) -> int:
    from .bench import matching_planner_scaling, msf_planner_scaling
    if args.problem == "msf":
        res = msf_planner_scaling(args.sizes, seed=args.seed)
        model = "n*log(n)"
    else:
        res = matching_planner_scaling(args.problem, args.sizes, seed=args.seed)
        model = "n"
    for n, t, r, rt in zip(res.sizes, res.seconds, res.ratios,
                           res.replay_seconds):
        print(f"n={n:>8} seconds={t:.4f} seconds/{model}={r:.3e} "
              f"replay_seconds={rt:.4f} replay/plan={rt / t:.2f}")
    print(f"ratio_spread={res.spread:.3f} (factor-3 fit: "
          f"{'yes' if res.fits_within(3.0) else 'NO'})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gradmorph",
                description="gradual transformation planners, verifier, "
                            "recourse wrapper, and adversary harness")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--manifest-out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="plan a transformation script")
    t.add_argument("--problem", required=True, choices=PROBLEMS)
    t.add_argument("--graph", required=True)
    t.add_argument("--from", dest="source", required=True)
    t.add_argument("--to", dest="target", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epsilon", type=float, default=None)
    t.set_defaults(fn=_cmd_transform)

    r = sub.add_parser("replay", help="replay a script and check guarantees")
    r.add_argument("--graph", required=True)
    r.add_argument("--from", dest="source", required=True)
    r.add_argument("--to", dest="target", required=True)
    r.add_argument("--script", required=True)
    r.add_argument("--csv", default=None)
    r.set_defaults(fn=_cmd_replay)

    s = sub.add_parser("simulate", help="run a dynamic matching simulation")
    s.add_argument("--inner", required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--psi", type=float, default=None,
                   help="run weighted, with weights held to this ratio")
    s.add_argument("--no-wrap", action="store_true",
                   help="run the inner algorithm bare (control)")
    s.add_argument("--updates", default=None)
    s.add_argument("--random-updates", type=_at_least(0), default=None)
    s.add_argument("--n", type=_at_least(0), default=500)
    s.add_argument("--trace", default=None)
    s.add_argument("--oracle-check", action="store_true")
    s.set_defaults(fn=_cmd_simulate)

    a = sub.add_parser("adversary", help="run a lower-bound adversary")
    a.add_argument("--mode", required=True, choices=("full", "incr", "decr"))
    a.add_argument("--epsilon", type=float, required=True)
    a.add_argument("--n", type=_at_least(0), required=True)
    a.add_argument("--subject", default="exact")
    a.add_argument("--rounds", type=_at_least(1), default=10)
    a.add_argument("--trace", default=None)
    a.set_defaults(fn=_cmd_adversary)

    o = sub.add_parser("oracle", help="brute-force reference solvers")
    o.add_argument("--task", required=True, choices=("mcm", "mwm", "msf", "search"))
    o.add_argument("--graph", required=True)
    o.add_argument("--from", dest="source", default=None)
    o.add_argument("--to", dest="target", default=None)
    o.add_argument("--delta", type=_at_least(1), default=3)
    o.add_argument("--floor", type=_finite, default=0.0)
    o.add_argument("--floor-kind", default="size", choices=("size", "weight"))
    o.add_argument("--search-granularity", default="phase", choices=("phase", "op"))
    o.add_argument("--out", default=None)
    o.set_defaults(fn=_cmd_oracle)

    b = sub.add_parser("bench", help="planner scaling fits")
    b.add_argument("--problem", default="msf", choices=PROBLEMS)
    b.add_argument("--sizes", type=_sizes, default=[1000, 10_000, 100_000])
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "oracle" and args.task == "search" \
                and None in (args.source, args.target):
            parser.error("oracle --task search needs --from and --to")
        if args.command == "simulate" and args.random_updates and args.n < 2:
            parser.error("simulate --random-updates needs --n >= 2")
        if args.command == "transform" and args.problem != "mwm" \
                and args.epsilon is not None:
            parser.error(f"transform --epsilon applies to mwm only, "
                         f"not to {args.problem}")
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BudgetError as exc:
        print(f"gradmorph: budget: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"gradmorph: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ContractError as exc:
        print(f"gradmorph: contract: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    raise SystemExit(main())
