"""Benchmark the train -> evaluate -> serve cycle of lpirec.

    python3 cyclebench/run.py --workload ratings-imputed --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
A run generates the workload's inputs from ``--seed`` (untimed) and then
times each phase from outside, through the package's public functions:

  load      training.load_dataset once, cold; setup_s also counts the
            imports from this file's first line
  behavior  training.fit_behavior_model (the ce fit of the logging policy)
  train     training.train_model (objective lpi, td_weight > 0)
  evaluate  training.evaluate_split on the test split, with the behavior fit
  serve     one closed-loop client: each request asks for the top-20 list of
            one test context, scored by SequenceModel.policy_logits

After the load, ROUNDS rounds each run behavior, train and evaluate (twice,
as it is short), with a serving block after train and after evaluate
(``--seconds`` are split evenly over the blocks). The host's speed switches
between two levels about 1.7x apart for stretches of milliseconds to tens of
seconds, so throughputs are total work over total time of all the rounds'
calls, the serving blocks are spread over the run, and the latency figures
are read per SLICE_S slice of serving time (see ``latency_figures``). Rounds
repeat the same seeded work, so their outputs must be identical. Operations
are the load, four calls per round, and one per serving request.

Every run checks the outputs (checks.py). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run plays one round twice on the same inputs, each
phase first untraced and then traced, and reports the difference of the two
wall times as the tracing overhead; it writes its spans to
``cyclebench/work/<workload>-<seed>/spans.json``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")

# One single-threaded client on a 2-core machine: BLAS gets one thread, so a
# run measures the client's own computation. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROUNDS = 4
TOP_K = 20
SERVE_BLOCKS = 2 * ROUNDS
MIN_REQUESTS = 500  # per block, so the p99 has at least 30 requests beyond it
SLICE_S = 0.05
MIN_SLICE_REQUESTS = 100
TRACED_REQUESTS = 3_000
SERVE_CHECK_SAMPLES = 200

LOAD, BEHAVIOR, TRAIN, EVALUATE, SERVE = 1, 2, 3, 4, 5
PHASES = {LOAD: "load", BEHAVIOR: "behavior", TRAIN: "train", EVALUATE: "evaluate", SERVE: "serve"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "behavior_fit_examples_per_s": "examples/s",
    "train_examples_per_s": "examples/s",
    "eval_examples_per_s": "examples/s",
    "score_p50_ms": "ms",
    "score_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "test_ndcg_at_20": "ratio",
}

LAYER_TIMES = (
    "data.load_interactions_csv",
    "data.preprocess",
    "data.split",
    "data.expand_examples",
    "synth.generate_sessions",
    "synth.fit_weighted_mf",
    "encoder.pad_contexts",
    "encoder.encode",
    "encoder.encode_backward",
    "encoder.adam_step",
    "policy.head",
    "policy.backward",
    "policy.copy",
    "objectives.prepare_step",
    "objectives.evaluate_prepared",
    "objectives.build_batch",
    "metrics.ranks_from_scores",
    "metrics.mean_divergence",
    "training.evaluate_examples",
    "training.batched_policy_scores",
)


def _parse_args():
    parser = argparse.ArgumentParser(description="lpirec train/evaluate/serve cycle benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _import_package():
    """Import lpirec from this checkout's src, never from anywhere else."""
    package_dir = os.path.join(SRC, "lpirec")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        sys.exit(f"cyclebench: no lpirec package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import lpirec

    if os.path.dirname(os.path.abspath(lpirec.__file__)) != package_dir:
        sys.exit(f"cyclebench: lpirec imported from {lpirec.__file__}, not from {package_dir}")


class ExampleProbe:
    """Counts the examples the gradient steps of one phase train on.

    The only hook in an untraced run: one Python call per gradient step
    around the name ``training`` calls.
    """

    def __init__(self, training):
        self._training = training
        self._original = training.evaluate_prepared
        self.examples = 0

        def counted(model, batch, *args, **kwargs):
            self.examples += len(batch)
            return self._original(model, batch, *args, **kwargs)

        training.evaluate_prepared = counted

    def remove(self):
        self._training.evaluate_prepared = self._original


def serve_block(model, contexts, rng, seconds, requests, tracer):
    """Closed loop: each request scores one context and selects its top-k.

    Runs ``requests`` requests when given, else for ``seconds`` seconds and at
    least MIN_REQUESTS. Returns (latencies in ns, the SLICE_S slice of the
    block each request started in, sampled responses).
    """
    import numpy as np

    latencies = []
    slices = []
    samples = []
    began = time.perf_counter_ns()
    deadline = time.perf_counter() + (seconds or 0.0)
    draws = rng.integers(0, len(contexts), size=max(requests or 0, 4096))
    i = 0
    while i < requests if requests is not None else i < MIN_REQUESTS or time.perf_counter() < deadline:
        if i == len(draws):
            draws = np.concatenate([draws, rng.integers(0, len(contexts), size=4096)])
        context = contexts[draws[i]]
        index = tracer.open("serve.request") if tracer is not None else None
        start = time.perf_counter_ns()
        scores = model.policy_logits([context])[0]
        top = np.argpartition(-scores, TOP_K)[:TOP_K]
        top = top[np.argsort(-scores[top], kind="stable")]
        latencies.append(time.perf_counter_ns() - start)
        slices.append(int((start - began) / (SLICE_S * 1e9)))
        if index is not None:
            tracer.close(index)
        if i % 29 == 0:
            samples.append((context, top, scores.copy()))
        i += 1
    return latencies, slices, samples


class Cycle:
    """The phases of one cycle, run through the package's public calls.

    Each phase method times one call and keeps its output; ``timings`` holds
    (phase, seconds, examples trained) in call order.
    """

    def __init__(self, cfg, seed, tracer=None):
        import numpy as np
        from lpirec import training

        self.cfg = cfg
        self.training = training
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 5])
        self.timings = []
        self.latencies = []
        self.slices = []
        self.samples = []
        self.attempted = 0
        self.trained_params = []

    def _timed(self, phase, call):
        probe = ExampleProbe(self.training)
        tracer = self.tracer
        if tracer is not None:
            tracer.phase = phase
            tracer.install()
            index = tracer.open(f"phase.{PHASES[phase]}")
        start = time.perf_counter()
        try:
            return call()
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close(index)
                tracer.uninstall()
            probe.remove()
            self.timings.append((phase, seconds, probe.examples))

    def load(self):
        self.attempted += 1
        self.dataset = self._timed(LOAD, lambda: self.training.load_dataset(self.cfg))
        self.contexts = []
        for seq in self.dataset.sequences_in("test"):
            items = seq.items()
            start = max(1, len(items) - self.cfg.loss_window)
            self.contexts.extend(tuple(items[:t]) for t in range(start, len(items)))

    def fit_behavior(self):
        self.attempted += 1
        self.behavior = self._timed(
            BEHAVIOR, lambda: self.training.fit_behavior_model(self.dataset, self.cfg)
        )

    def train(self):
        self.attempted += 1
        self.result = self._timed(
            TRAIN,
            lambda: self.training.train_model(self.dataset, self.cfg, behavior_model=self.behavior),
        )
        self.trained_params.append({k: v.copy() for k, v in self.result.model.params.items()})

    def evaluate(self):
        self.attempted += 1
        self.report = self._timed(
            EVALUATE,
            lambda: self.training.evaluate_split(
                self.result.model, self.dataset, "test", self.cfg, behavior_model=self.behavior
            ),
        )

    def serve(self, seconds=None, requests=None):
        try:
            latencies, slices, samples = self._timed(
                SERVE,
                lambda: serve_block(self.result.model, self.contexts, self.rng, seconds, requests, self.tracer),
            )
        except Exception:
            self.attempted += 1  # the request that failed
            raise
        block = len(self.seconds(SERVE)) - 1
        self.latencies.extend(latencies)
        self.slices.extend((block, s) for s in slices)
        self.samples = (self.samples + samples)[-SERVE_CHECK_SAMPLES:]
        self.attempted += len(latencies)

    def seconds(self, phase) -> list[float]:
        return [s for p, s, _ in self.timings if p == phase]

    def examples_trained(self) -> list[dict[str, int]]:
        """Per round: examples seen by the gradient steps of each fit."""
        behavior = [n for p, _, n in self.timings if p == BEHAVIOR]
        train = [n for p, _, n in self.timings if p == TRAIN]
        return [{"behavior": b, "train": t} for b, t in zip(behavior, train)]

    @property
    def wall_s(self) -> float:
        return sum(s for _, s, _ in self.timings)


def run_checks(cycle, cfg, seed, reference=None):
    """Every check of checks.py on the cycle's last outputs."""
    import checks

    errors = checks.check_preprocessing(cycle.dataset, cfg)
    for trained in cycle.examples_trained():
        errors += checks.check_examples_trained(trained, cycle.dataset, cfg)
    runs = cycle.trained_params + (reference.trained_params if reference is not None else [])
    errors += checks.check_same_params(runs)
    errors += checks.check_gradients(cycle.result.model, cycle.behavior, cycle.dataset, cfg)
    errors += checks.check_serving(cycle.result.model, cycle.samples, TOP_K)
    errors += checks.check_ranking(cycle.result.model, cycle.report, cycle.dataset, cfg, seed)
    if cfg.data_source == "synthetic":
        value_errors, values = checks.world_values(
            cycle.result.model, cycle.behavior, cycle.dataset, cfg, seed
        )
        errors += value_errors
        print(f"world value: lpi {values['lpi']:.5f}, behavior estimate {values['behavior']:.5f}")
    return errors


def latency_figures(latencies, slices):
    """(p50, p99) of the serving latencies, in the units given.

    p50 is the median latency of each SLICE_S slice of serving, averaged over
    the slices. The host switches the core between two speeds for seconds at
    a time, so one median over the whole run would read one speed or the
    other, whichever held longer; the average of slice medians moves
    smoothly with the share of time each speed held, as a throughput does.
    p99 pools every request, each weighted by 1 / (requests in its slice),
    so every slice counts the same, as it would for requests arriving evenly
    in time; a closed-loop client otherwise fits more requests into fast
    stretches than into slow ones.
    """
    import numpy as np

    lat = np.asarray(latencies, dtype=float)
    _, slice_of, per_slice = np.unique(np.asarray(slices), axis=0, return_inverse=True, return_counts=True)
    slice_of = slice_of.ravel()
    order = np.argsort(slice_of, kind="stable")
    groups = np.split(lat[order], np.cumsum(per_slice)[:-1])
    p50 = float(np.mean([np.median(g) for g in groups if len(g) >= MIN_SLICE_REQUESTS]))
    weights = 1.0 / per_slice[slice_of]
    by_latency = np.argsort(lat, kind="stable")
    cumulative = np.cumsum(weights[by_latency])
    p99 = float(lat[by_latency][np.searchsorted(cumulative, 0.99 * cumulative[-1])])
    return p50, p99


def end_to_end(cycle, cfg, import_s):
    import numpy as np
    from checks import window_count

    train_n = window_count(cycle.dataset.sequences_in("train"), cfg.loss_window)
    test_n = window_count(cycle.dataset.sequences_in("test"), cfg.loss_window)
    p50_ns, p99_ns = latency_figures(cycle.latencies, cycle.slices)

    def rate(phase, examples):
        seconds = cycle.seconds(phase)
        return examples * len(seconds) / sum(seconds)

    values = {
        "setup_s": import_s + cycle.seconds(LOAD)[0],
        "behavior_fit_examples_per_s": rate(BEHAVIOR, cfg.behavior_epochs * train_n),
        "train_examples_per_s": rate(TRAIN, cfg.epochs * train_n),
        "eval_examples_per_s": rate(EVALUATE, test_n),
        "score_p50_ms": p50_ns / 1e6,
        "score_p99_ms": p99_ns / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_ndcg_at_20": float(cycle.report.metrics["ndcg_at_20"].value),
    }
    print(
        f"dataset: catalog {cycle.dataset.catalog_size}, sequences {len(cycle.dataset.sequences)}, "
        f"train examples {train_n}, test examples {test_n}, requests {len(cycle.latencies)}"
    )
    for phase, name in PHASES.items():
        print(f"phase {name:<9} " + " ".join(f"{s:8.3f}" for s in cycle.seconds(phase)) + " s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, traced_s, untraced_s):
    table = tracer.layer_table()
    print(f"{'span':<34} {'calls':>8} {'total s':>10} {'self s':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<34} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    counts = tracer.counts
    metrics = {f"{name}_s": (table.get(name, {}).get("self_s", 0.0), "s") for name in LAYER_TIMES}
    steps = counts["training.gradient_steps"]
    train_steps = sum(1 for span in tracer.spans if span[0] == "encoder.adam_step" and span[4] == TRAIN)
    step_encodes = tracer.count_under(
        "encoder.encode", {"objectives.prepare_step", "objectives.evaluate_prepared"}, TRAIN
    )
    metrics.update(
        {
            "data.examples_expanded": (counts["data.examples_expanded"], "count"),
            "encoder.pad_fill": (counts["encoder.pad_filled"] / max(counts["encoder.pad_cells"], 1), "ratio"),
            "encoder.encode_rows": (counts["encoder.encode_rows"], "count"),
            "encoder.adam_params_per_step": (counts["encoder.adam_params"] / max(steps, 1), "count"),
            "policy.head_cells": (counts["policy.head_cells"], "count"),
            "objectives.encodes_per_step": (step_encodes / max(train_steps, 1), "count"),
            "metrics.ranked_cells": (counts["metrics.ranked_cells"], "count"),
            "metrics.divergence_contexts": (counts["metrics.divergence_contexts"], "count"),
            "training.gradient_steps": (steps, "count"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.spans": (len(tracer.spans), "count"),
        }
    )
    print(
        f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
        f"= {traced_s - untraced_s:+.3f} s over {len(tracer.spans)} spans"
    )
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    args = _parse_args()
    _import_package()
    import_s = time.perf_counter() - _STARTED

    import inputs
    from lpirec.config import load_config
    from spans import Tracer

    if args.workload not in inputs.WORKLOADS:
        sys.exit(f"cyclebench: unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}")
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    config_path, facts = inputs.generate(args.workload, args.seed, work)
    cfg = load_config(config_path)
    print(f"workload {args.workload} seed {args.seed}: {facts}")

    cycle = Cycle(cfg, args.seed, Tracer() if args.trace else None)
    plain = Cycle(cfg, args.seed) if args.trace else None
    error = None
    try:
        if args.trace:
            steps = (
                ("load", {}),
                ("fit_behavior", {}),
                ("train", {}),
                ("evaluate", {}),
                ("serve", {"requests": TRACED_REQUESTS}),
            )
            # an untraced warm-up pass takes the first-touch costs, then each
            # phase runs untraced and traced back to back on a warm process
            for step, kwargs in steps:
                getattr(plain, step)(**kwargs)
            plain.timings.clear()
            for step, kwargs in steps:
                getattr(plain, step)(**kwargs)
                getattr(cycle, step)(**kwargs)
        else:
            cycle.load()
            block = args.seconds / SERVE_BLOCKS
            for _ in range(ROUNDS):
                cycle.fit_behavior()
                cycle.train()
                cycle.serve(seconds=block)
                cycle.evaluate()
                cycle.evaluate()
                cycle.serve(seconds=block)
    except Exception:  # noqa: BLE001 - a failed operation is reported, not hidden
        error = traceback.format_exc()

    metrics = {}
    if error is not None:
        print(error, file=sys.stderr)
        correct = False
    else:
        errors = run_checks(cycle, cfg, args.seed, plain)
        for message in errors:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        correct = not errors
        if args.trace:
            metrics = per_layer(cycle.tracer, cycle.wall_s, plain.wall_s)
            cycle.tracer.write(os.path.join(work, "spans.json"), PHASES)
        else:
            metrics = end_to_end(cycle, cfg, import_s)
    if "data_path" in facts:  # regenerated from the seed on every run
        os.remove(facts["data_path"])
    attempted = cycle.attempted + (plain.attempted if plain is not None else 0)
    failed = 1 if error is not None else 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
