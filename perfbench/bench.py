"""Benchmark harness: set-up, the closed measurement loop, metrics, and the
record of the environment a result was measured in.

One caller, no threads: each operation starts when the previous one and
its correctness check have finished.  The loop runs until the timed
operations add up to the requested seconds (and at least `min_ops` ran).
In a traced run every other operation runs with the tracer installed; the
untraced ones give the baseline for the tracing overhead.

The speed of a shared host drifts by tens of percent within seconds and
over minutes, far more than the regressions the benchmark must catch.  So
timed work is sampled with a speed probe, a fixed numpy and Python kernel
like the program's own small-matrix work, and the gated times are scaled
to the reference speed: each stretch of work between two samples counts
seconds * REF_PROBE_S / probe time.  The report also prints the raw wall
times and the measured speed.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from spans import Tracer

SETUP_REPS = 3
PROBE_CHUNKS, PROBE_REPS = 5, 40
TICK_S, TICK_CHUNKS = 0.05, 1  # a one-chunk speed sample every 50 ms of work
# the probe time that defines speed 1.0: about the probe of the 2-vCPU
# Intel Xeon VM (OpenBLAS, numpy 2.4) the benchmark was tuned on, in its
# faster periods
REF_PROBE_S = 0.0036

# end-to-end metrics, measured with nothing wrapped: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics of a traced run; span times and counts are per operation
SPAN_MS = ("pruner.prune_candidates", "prompt.prompt_fusion",
           "sampler.frame_scores", "sampler.topk_infer",
           "aggregator.aggregate_video", "aggregator.cosine_similarity",
           "engine.index_corpus", "engine.save_index", "engine.load_index",
           "pruner.distill_forward", "nn.encoder_block", "nn.multi_head_block",
           "corpus.read_corpus", "corpus.write_corpus", "model.load_checkpoint",
           "trainer.train_retrieval_stage", "trainer.train_distill_stage",
           "trainer.batch_similarity_matrix", "trainer.contrastive_loss",
           "trainer.corpus_distill_mse", "autodiff.backward")
SPAN_CALLS = ("pruner.prune_candidates", "prompt.prompt_fusion",
              "sampler.frame_scores", "sampler.topk_infer",
              "aggregator.aggregate_video", "aggregator.cosine_similarity",
              "engine.stage2_score", "pruner.distill_forward")
SPAN_SELF = ("engine.stage2_score", "engine.retrieve")
DEPTHS = (3, 5)
DIGEST_LAYER = {  # from RankedList.timings and .counters of untraced queries
    "engine.stage1_ms": ("stage1_s", 1e3, "ms"),
    "engine.stage2_ms": ("stage2_s", 1e3, "ms"),
    "engine.stage2_videos": ("stage2_videos", 1.0, "count"),
    "engine.frames_aggregated": ("frames_aggregated", 1.0, "count"),
    "pruner.gt_kept_frac": ("gt_kept", 1.0, "frac"),
}


def per_layer_units() -> dict:
    units = {f"{n}.ms": "ms" for n in SPAN_MS}
    units.update({f"{n}.calls": "count" for n in SPAN_CALLS})
    units.update({f"{n}.self_ms": "ms" for n in SPAN_SELF})
    for d in DEPTHS:
        units[f"encoder.encode_video.depth{d}_ms"] = "ms"
        units[f"encoder.encode_video.depth{d}_calls"] = "count"
    units.update({k: unit for k, (_, _, unit) in DIGEST_LAYER.items()})
    units["autodiff.nodes_per_step"] = "count"
    units["trainer.pairs_per_step"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER = per_layer_units()


class SpeedProbe:
    """Times a fixed kernel of 12x32 matrix products, softmax rows and
    Python calls, and turns the time into the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((12, 32))
        self.b = rng.standard_normal((32, 32))

    def speed(self, chunks: int = PROBE_CHUNKS) -> float:
        """REF_PROBE_S over the kernel time, taken as the median chunk
        times PROBE_CHUNKS, so that one interrupted chunk does not skew it."""
        times = []
        for _ in range(chunks):
            t0 = perf_counter()
            for _ in range(PROBE_REPS):
                x = self.a @ self.b
                x = np.exp(x - x.max(axis=1, keepdims=True))
                x /= x.sum(axis=1, keepdims=True)
                float(x.sum())
            times.append(perf_counter() - t0)
        return REF_PROBE_S / (PROBE_CHUNKS * statistics.median(times))


class PhaseClock:
    """Times one operation, or one set-up, phase by phase.

    The speed is sampled at `start`, at every `split` the operation makes
    between its phases, at `stop`, and every TICK_S in between through an
    interval timer.  Each stretch of work between two samples counts at
    the mean of their speeds.  Sampling time is left out of the laps.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self, chunks: int) -> None:
        dt = perf_counter() - self._t0
        speed = self.probe.speed(chunks)
        self._lap += dt
        self.ref_seconds += dt * 0.5 * (self._speed + speed)
        self._speed = speed
        self._t0 = perf_counter()

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._active = False  # no tick inside a sample
            try:
                self._sample(TICK_CHUNKS)
            finally:
                self._active = True

    def start(self) -> None:
        self.laps, self.ref_seconds, self._lap = [], 0.0, 0.0
        self._speed = self.probe.speed()
        self._t0 = perf_counter()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def split(self) -> float:
        """End the current phase and return its wall seconds."""
        self._active = False
        self._sample(PROBE_CHUNKS)
        self.laps.append(self._lap)
        self._lap = 0.0
        self._active = True
        return self.laps[-1]

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.split()
        self._active = False


@dataclass
class OpRecord:
    index: int
    laps: list          # wall seconds of each phase
    ref_seconds: float  # the same work at the reference speed
    traced: bool
    info: dict | None
    problems: list

    @property
    def seconds(self) -> float:
        return sum(self.laps)

    @property
    def speed(self) -> float:
        """Machine speed during the op, 1.0 = reference."""
        return self.ref_seconds / self.seconds


def measure(workload, pkg, state, seconds: float, tracer: Tracer | None = None,
            clock: PhaseClock | None = None):
    clock = clock or PhaseClock(SpeedProbe())
    records, busy, i = [], 0.0, 0
    while busy < seconds or i < workload.min_ops:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.begin_op(i)
            tracer.install()
        out, error = None, None
        clock.start()
        try:
            out = workload.op(pkg, state, i, clock.split)
        except Exception as exc:  # a failed operation is counted; the run goes on
            error = exc
        clock.stop()
        if traced:
            tracer.uninstall()
        rec = OpRecord(i, clock.laps, clock.ref_seconds, traced, None, [])
        busy += rec.seconds
        if error is not None:
            rec.problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                rec.problems = workload.check(pkg, state, i, out)
                rec.info = workload.digest(state, i, out, rec.laps)
            except Exception as exc:  # a check that cannot run fails the op
                rec.problems = [f"check raised {type(exc).__name__}: {exc}"]
        del out
        records.append(rec)
        i += 1
    return records


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


def named_metrics(workload, records, setups) -> dict:
    """The metrics a user of each path reads, under their own names and in
    raw wall time, as (value, unit, note) for the report."""
    good = [r for r in records if not r.problems]
    out = {"setup_wall_s": (_median([s for s, _ in setups]), "s",
                            f"median of {len(setups)}")}
    if good:
        out.update(workload.named([r.seconds for r in good if not r.traced],
                                  [r.info for r in good]))
    out["machine_speed"] = (_median([r.speed for r in records]), "ratio",
                            "1.0 = reference speed")
    return out


def end_to_end(records, setups, peak_rss_mb) -> dict:
    timed = [r.ref_seconds for r in records if not r.problems and not r.traced]
    if not timed:
        raise RuntimeError("no untraced operation succeeded")
    return {
        "setup_s": _median([ref for _, ref in setups]),
        "op_p50_ms": 1e3 * _median(timed),
        "ops_per_s": len(timed) / sum(timed),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: Tracer, records) -> dict:
    traced = [r for r in records if r.traced and not r.problems]
    plain = [r for r in records if not r.traced and not r.problems]
    if not traced or not plain:
        raise RuntimeError("a traced run needs traced and untraced operations")
    n = len(traced)
    totals = tracer.layer_totals({r.index: r.speed for r in traced})

    def get(name, field):
        return totals.get(name, (0, 0, 0))[field]

    out = {f"{s}.ms": get(s, 1) / 1e6 / n for s in SPAN_MS}
    out.update({f"{s}.calls": get(s, 0) / n for s in SPAN_CALLS})
    out.update({f"{s}.self_ms": get(s, 2) / 1e6 / n for s in SPAN_SELF})
    for d in DEPTHS:
        out[f"encoder.encode_video.depth{d}_ms"] = get(f"encoder.encode_video.depth{d}", 1) / 1e6 / n
        out[f"encoder.encode_video.depth{d}_calls"] = get(f"encoder.encode_video.depth{d}", 0) / n
    for key, (field, scale, _) in DIGEST_LAYER.items():
        # times (fields in seconds) are scaled to the reference speed
        vals = [r.info[field] * (r.speed if field.endswith("_s") else 1.0)
                for r in plain if field in r.info]
        out[key] = scale * _mean(vals)
    steps = get("autodiff.backward", 0)
    out["autodiff.nodes_per_step"] = tracer.tensors / steps if steps else 0.0
    batches = get("trainer.batch_similarity_matrix", 0)
    pairs = tracer.count_nested("prompt.prompt_fusion", "trainer.batch_similarity_matrix",
                                [r.index for r in traced])
    out["trainer.pairs_per_step"] = pairs / batches if batches else 0.0
    out["trace.overhead_frac"] = (_median([r.ref_seconds for r in traced])
                                  / _median([r.ref_seconds for r in plain]) - 1.0)
    return out


def run_workload(workload, pkg, seed: int, seconds: float, trace: bool,
                 workdir: str):
    """Set up SETUP_REPS times (the last state is measured), then measure.
    Returns (result object, named metrics, tracer or None, problems)."""
    clock = PhaseClock(SpeedProbe())
    setups, state = [], None  # (wall seconds, reference seconds) per set-up
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        clock.start()
        state = workload.setup(pkg, seed, workdir, clock.split)
        clock.stop()
        setups.append((sum(clock.laps), clock.ref_seconds))
    tracer = Tracer(pkg) if trace else None
    try:
        records = measure(workload, pkg, state, seconds, tracer, clock)
    finally:
        workload.teardown(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for r in records if r.problems)
    if trace:
        values, units = per_layer(tracer, records), PER_LAYER
    else:
        values, units = end_to_end(records, setups, peak_rss_mb), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    named = named_metrics(workload, records, setups)
    named["peak_rss_mb"] = (peak_rss_mb, "MB", "")
    named["failed_ops_frac"] = (failed / len(records), "frac",
                                f"{failed}/{len(records)}")
    problems = sorted({p for r in records for p in r.problems})
    return result, named, tracer, problems


# -- environment -----------------------------------------------------------

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "machine": f"{platform.machine()} {_cpu_model()}",
        "platform": platform.platform(),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
