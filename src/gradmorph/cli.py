"""Command-line surface: transform, replay, simulate, adversary, oracle,
bench. Exit codes: 0 ok / guarantee holds, 1 usage, 2 data, 3 contract.

Start-up is most of a CLI run at small sizes, so this module loads at import
only what the parser, `replay` and an mcm `transform` need (gen for the
default seed, graph, io, script and the mcm planner). Each command imports
the modules that only it uses when it runs: `transform` the index kind and
the mwm or msf planner, `simulate` and `adversary` the wrapper, sim and
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

from .gen import DEFAULT_SEED
from .graph import (DEFAULT_TOLERANCE, BudgetError, ContractError, DataError,
                    Graph, solution_stats)
from .io import (RunManifest, emit_edge_set, parse_forest, parse_graph,
                 parse_matching, parse_updates, emit_updates)
from .mcm import plan_mcm
from .script import (PROBLEMS, TransformationScript, check_guarantee,
                     phase_budget, replay, report_to_csv_rows,
                     transform_granularity)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_CONTRACT = 0, 1, 2, 3


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
    matchings for mcm and mwm, spanning forests otherwise."""
    parse = parse_matching if problem in ("mcm", "mwm") else parse_forest
    return (parse(_read(args.source, "from", manifest), g),
            parse(_read(args.target, "to", manifest), g))


def _finish_manifest(manifest: RunManifest, args) -> None:
    if getattr(args, "manifest_out", None):
        Path(args.manifest_out).write_text(manifest.to_json() + "\n")


def _cmd_transform(args) -> int:
    from .dynforest import INDEX_KIND
    manifest = RunManifest("transform", {
        "problem": args.problem, "epsilon": args.epsilon,
        "index": INDEX_KIND, "prepass": not args.no_prepass,
        "seed": args.seed, "tolerance": DEFAULT_TOLERANCE,
    })
    g = parse_graph(_read(args.graph, "graph", manifest))
    phase_budget(args.problem, args.epsilon)   # checks epsilon for mwm
    t0 = time.perf_counter()
    src, tgt = _read_pair(args, args.problem, g, manifest)
    if args.problem == "mcm":
        script = plan_mcm(g, src, tgt)
    elif args.problem == "mwm":
        from .mwm import plan_mwm_auto
        script = plan_mwm_auto(g, src, tgt, args.epsilon,
                               good_edge_prepass=not args.no_prepass)
    else:
        from .msf import plan_msf
        script = plan_msf(g, src, tgt)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = replay(g, src.edge_ids(), script,
                    transform_granularity(args.problem))
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
    manifest = RunManifest("replay", {
        "problem": args.problem, "epsilon": args.epsilon,
        "granularity": args.granularity, "tolerance": DEFAULT_TOLERANCE,
    })
    g = parse_graph(_read(args.graph, "graph", manifest))
    script = TransformationScript.from_json(_read(args.script, "script", manifest))
    if args.problem and args.problem != script.problem:
        raise DataError(f"--problem {args.problem} != script problem {script.problem}")
    if args.epsilon is not None and script.problem != "mwm":
        raise DataError(f"--epsilon applies to mwm only, not to the "
                        f"script's {script.problem}")
    src, tgt = _read_pair(args, script.problem, g, manifest)
    granularity = args.granularity
    if granularity is None:
        granularity = transform_granularity(script.problem)
    report = replay(g, src.edge_ids(), script, granularity)
    eps = args.epsilon if args.epsilon is not None else script.epsilon
    result = check_guarantee(report, solution_stats(g, src),
                             solution_stats(g, tgt), script.problem, eps)
    if args.csv:
        _write_csv(args.csv, report_to_csv_rows(report), manifest)
    _finish_manifest(manifest, args)
    if result.ok:
        print(f"guarantee holds: boundaries={len(report.boundaries)} "
              f"worst_size={report.worst_size} worst_weight={report.worst_weight}")
        return EXIT_OK
    where = result.boundary
    print(f"guarantee violated: {result.reason}"
          + (f" at boundary {where.index} (phase {where.phase}, op {where.op})"
             if where else ""))
    return EXIT_DATA


def _cmd_simulate(args) -> int:
    import random
    from .gen import random_update_stream
    from .sim import make_inner, run_simulation, trace_csv_rows
    from .wrapper import (RECOURSE_FACTOR, SIM_FACTOR, SMALL_FACTOR,
                          WINDOW_RATIO_FACTOR, WrappedMatching)
    manifest = RunManifest("simulate", {
        "inner": args.inner, "epsilon": args.epsilon, "wrap": not args.no_wrap,
        "weighted": args.weighted, "psi": args.psi, "seed": args.seed,
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
        w_hi = args.psi if args.weighted else 1.0
        events = random_update_stream(rng, args.n, args.random_updates,
                                      w_lo=1.0, w_hi=w_hi, vertex_ops=True)
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
                               weighted=args.weighted, psi=args.psi)
    result = run_simulation(g, algo, events, oracle_check=args.oracle_check)
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
    print(f"steps={len(result.rows)} "
          + " ".join(f"{k}={v}" for k, v in results.items())
          + f" mean_recourse={result.mean_recourse:.4f}"
          + (f" worst_approx_ratio={ratio:.4f}" if ratio is not None else ""))
    return EXIT_OK


def _subject_factory(name: str, eps: float):
    from . import adversary as adv
    from .sim import make_inner
    from .wrapper import WrappedMatching
    if name == "exact":
        return adv.ExactPathMaintainer
    if name == "static":
        return adv.StaticSubject
    if name.startswith("wrapped:"):
        inner_name = name.split(":", 1)[1]
        return lambda g: WrappedMatching(g, make_inner(inner_name, g), eps)
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
    print(f"mode={args.mode} updates={len(result.rows)} "
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
    elif args.task == "mwm":
        ids = max_weight_matching_exact(g)
        print(f"size={len(ids)} weight={sum(g.weight(e) for e in ids)!r}")
    elif args.task == "msf":
        ids = msf_exact(g)
        print(f"size={len(ids)} weight={sum(g.weight(e) for e in ids)!r}")
    else:
        src = set(parse_matching(_read(args.source, "from", manifest), g).edge_ids())
        tgt = set(parse_matching(_read(args.target, "to", manifest), g).edge_ids())
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
    t.add_argument("--no-prepass", action="store_true")
    t.set_defaults(fn=_cmd_transform)

    r = sub.add_parser("replay", help="replay a script and check guarantees")
    r.add_argument("--problem", default=None, choices=PROBLEMS)
    r.add_argument("--graph", required=True)
    r.add_argument("--from", dest="source", required=True)
    r.add_argument("--to", dest="target", required=True)
    r.add_argument("--script", required=True)
    r.add_argument("--granularity", default=None, choices=("per-phase", "per-op"))
    r.add_argument("--epsilon", type=float, default=None)
    r.add_argument("--csv", default=None)
    r.set_defaults(fn=_cmd_replay)

    s = sub.add_parser("simulate", help="run a dynamic matching simulation")
    s.add_argument("--inner", required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--weighted", action="store_true")
    s.add_argument("--psi", type=float, default=1.0)
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
