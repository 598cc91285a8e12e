"""In-memory span tracer that wraps the library's public calls from outside.

The library has no instrumentation of its own, so the traced run replaces
selected module attributes (functions and methods at the layer boundaries)
with timing wrappers for its duration and restores them afterwards.  Nothing
under ``src/`` is edited; an untraced run never installs a wrapper.

A span is ``(name, start, end, parent, ident, phase, self_s, info)``:
``parent`` is the index of the enclosing span (-1 for a root), ``ident`` the
batch or query id the span belongs to, ``phase`` the benchmark phase
(``setup`` or ``run``), ``self_s`` the span's duration minus the time its
child spans cover, and ``info`` per-call counts taken from the arguments or
the result (candidates scored, documents scored, sweeps, edge operations).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable

import numpy as np

import repro.core.backends.sparse as sparse_backend
import repro.core.search as search
import repro.gsp.filters as filters
import repro.gsp.normalization as normalization
import repro.serving.service as service
from repro.churn.scheduler import RefreshScheduler
from repro.core.forwarding import EmbeddingGuidedPolicy
from repro.retrieval.vector_store import DocumentStore
from repro.serving.breaker import PeerCircuitBreaker

Info = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Records nested spans in memory; :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.phase = "setup"

    # ------------------------------------------------------------------ spans

    def begin(self, name: str, ident: object = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, ident, self.phase, 0.0, None]
        )
        self._stack.append(index)
        self._child.append(0.0)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        duration = span[2] - span[1]
        span[6] = duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    # ---------------------------------------------------------------- patches

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        info: Info | None = None,
        before: Callable[[tuple], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``before(args)`` runs ahead of the call, ``info(args, kwargs,
        result)`` after it; both return counts stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            noted = before(args) if before is not None else None
            index = tracer.begin(name, kwargs.get("query_id"))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if info is not None:
                noted = {**(noted or {}), **info(args, kwargs, result)}
            tracer.spans[index][7] = noted
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        self.wrap(service, "run_queries", "walk.run_queries", _walk_info)
        self.wrap(service, "run_query", "walk.run_query", _walk_info)
        self.wrap(EmbeddingGuidedPolicy, "select", "forward.select", _candidates)
        self.wrap(
            EmbeddingGuidedPolicy, "select_batch", "forward.select_batch", _candidates
        )
        self.wrap(DocumentStore, "top_k", "retrieval.top_k", _docs_scored)
        self.wrap(PeerCircuitBreaker, "observe", "breaker.observe")
        self.wrap(RefreshScheduler, "decide", "churn.decide")
        net = search.DiffusionSearchNetwork
        self.wrap(net, "place_document", "facade.place_document")
        self.wrap(net, "remove_document", "facade.remove_document")
        self.wrap(net, "diffuse", "facade.diffuse", _diffuse_info, _dirty_nodes)
        self.wrap(net, "personalization_sparse", "diffusion.personalization")
        self.wrap(normalization, "transition_matrix", "diffusion.operator")
        self.wrap(sparse_backend, "transition_matrix", "diffusion.operator")
        self.wrap(
            filters.SparsePersonalizedPageRank, "apply_detailed", "diffusion.apply"
        )
        self.wrap(sparse_backend, "sparse_push_refresh", "diffusion.push_refresh")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- aggregates

    def spans_of(self, *names: str, phase: str | None = None) -> list[list]:
        """Spans named ``name`` or ``name.*`` for any of ``names``."""
        return [
            s for s in self.spans
            if any(s[0] == n or s[0].startswith(n + ".") for n in names)
            and (phase is None or s[5] == phase)
        ]

    def total(self, *names: str, phase: str | None = None) -> float:
        return sum(s[2] - s[1] for s in self.spans_of(*names, phase=phase))

    def self_time(self, *names: str, phase: str | None = None) -> float:
        return sum(s[6] for s in self.spans_of(*names, phase=phase))

    def count(self, *names: str, phase: str | None = None) -> int:
        return len(self.spans_of(*names, phase=phase))

    def info_sum(self, name: str, key: str, phase: str | None = None) -> float:
        return sum((s[7] or {}).get(key, 0) for s in self.spans_of(name, phase=phase))

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, ident, phase, self_s, info in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "id": ident,
                    "phase": phase,
                    "self": self_s,
                    "info": info,
                }) + "\n")


def _candidates(args: tuple, kwargs: dict, result: Any) -> dict:
    # select(query, candidates, ...) / select_batch(queries, candidates, ...)
    return {"candidates": int(np.asarray(args[2]).shape[0])}


def _docs_scored(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"docs": len(args[0])}


def _walk_info(args: tuple, kwargs: dict, result: Any) -> dict:
    results = result if isinstance(result, list) else [result]
    return {"hops": sum(len(r.visits) for r in results)}


def _dirty_nodes(args: tuple) -> dict:
    # Read before the call: a committed diffusion clears the dirty set.
    return {"dirty": len(args[0].dirty_nodes)}


def _diffuse_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {
        "incremental": bool(result.incremental),
        "converged": bool(result.converged),
        "sweeps": int(result.iterations),
        "edge_ops": int(result.operations),
    }
