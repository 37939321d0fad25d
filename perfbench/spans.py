"""Outside-in tracing of proclip: wraps the package's public functions from
the benchmark's own code, records spans in memory, and folds them into
per-layer metrics.

A function is wrapped at every module attribute that refers to it, so a
name imported into another module (``encode_video`` in ``proclip.engine``
and ``proclip.trainer``) is traced where its callers resolve it.  Nothing
is wrapped until ``install`` runs, and ``uninstall`` restores the original
objects, so an untraced operation runs the program exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, function); a span is named module.function, and the encoder's
# gains its depth: encoder.encode_video.depth3 or .depth5
TARGETS = (
    ("corpus", "read_corpus"), ("corpus", "write_corpus"),
    ("model", "load_checkpoint"), ("model", "save_checkpoint"),
    ("encoder", "encode_video"), ("nn", "encoder_block"),
    ("nn", "multi_head_block"), ("pruner", "distill_forward"),
    ("pruner", "prune_candidates"), ("prompt", "prompt_fusion"),
    ("sampler", "frame_scores"), ("sampler", "topk_infer"),
    ("sampler", "hard_topk_train"), ("aggregator", "weight_frames"),
    ("aggregator", "aggregate_video"), ("aggregator", "cosine_similarity"),
    ("engine", "index_corpus"), ("engine", "retrieve"),
    ("engine", "stage2_score"), ("engine", "save_index"),
    ("engine", "load_index"), ("trainer", "train_retrieval_stage"),
    ("trainer", "train_distill_stage"), ("trainer", "batch_similarity_matrix"),
    ("trainer", "contrastive_loss"), ("trainer", "corpus_distill_mse"),
)


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int   # index of the enclosing span, -1 at the top of an operation
    op_id: int    # the query, cold query or training round that caused it
    step: int     # training step within the operation (backward calls so far)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.op_id = -1
        self.step = 0
        self.tensors = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _wrap(self, fn, name, namer=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(namer(args, kwargs) if namer else name, 0, 0,
                        tracer._stack[-1] if tracer._stack else -1,
                        tracer.op_id, tracer.step)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.step = 0

    # -- patching ---------------------------------------------------------
    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        modules = self._modules()
        depth_for = pkg.encoder.depth_for_duration

        def encoder_name(args, kwargs):
            duration = args[1] if len(args) > 1 else kwargs["duration_s"]
            return "encoder.encode_video.depth%d" % depth_for(duration)

        for mod_name, attr in TARGETS:
            original = getattr(getattr(pkg, mod_name), attr)
            namer = encoder_name if attr == "encode_video" else None
            wrapper = self._wrap(original, f"{mod_name}.{attr}", namer)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

        tensor = pkg.autodiff.Tensor
        backward, init = tensor.backward, tensor.__init__
        traced_backward = self._wrap(backward, "autodiff.backward")
        tracer = self

        @functools.wraps(backward)
        def stepping_backward(node, *args, **kwargs):
            try:
                return traced_backward(node, *args, **kwargs)
            finally:
                tracer.step += 1

        @functools.wraps(init)
        def counting_init(node, *args, **kwargs):
            tracer.tensors += 1
            init(node, *args, **kwargs)

        self._patches.append((tensor, "backward", backward))
        self._patches.append((tensor, "__init__", init))
        tensor.backward = stepping_backward
        tensor.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------
    def layer_totals(self, scales: dict) -> dict:
        """name -> [calls, inclusive ns, self ns] over the operations whose
        ids key `scales`; each operation's times are multiplied by its scale.
        Self time is a span's duration minus that of its direct children."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        totals: dict = {}
        for i, s in enumerate(self.spans):
            scale = scales.get(s.op_id)
            if scale is None:
                continue
            t = totals.setdefault(s.name, [0, 0.0, 0.0])
            dur = s.end_ns - s.start_ns
            t[0] += 1
            t[1] += dur * scale
            t[2] += (dur - child_ns[i]) * scale
        return totals

    def count_nested(self, name: str, ancestor: str, op_ids) -> int:
        """Spans called `name` with an enclosing span called `ancestor`."""
        ops = set(op_ids)
        n = 0
        for s in self.spans:
            if s.name != name or s.op_id not in ops:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            n += p >= 0
        return n

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op_id,step\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start_ns},{s.end_ns},{s.parent},"
                         f"{s.op_id},{s.step}\n")
