"""The four benchmark workloads: inputs from a seed, set-up, timed loop, checks.

Every workload builds a ``community_cycle_adjacency`` overlay and places
unit-norm ``DIM``-dimensional documents through the
:class:`~repro.core.search.DiffusionSearchNetwork` facade.  The query
workloads (``serve``, ``serve-faults``, ``churn``) then run an open-loop
Poisson query stream, in simulated time, through
:meth:`QueryService.from_network` over the ``method="sparse"`` CSR cache;
``precompute`` repeats cold full diffusions and runs no walks.  See
``perfbench/README.md`` for why each workload exists.

Arrivals are generated one ``CHUNK`` of simulated time at a time; the last
event of each chunk feeds the next while the wall-clock budget lasts, then
the service drains.  The rate sits below the cost model's capacity knee, so
no backlog grows and the wall-clock drain is offline throughput at the
stated input size.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.gsp.normalization as normalization
from repro.churn import ChurnRates, ChurnStream, RefreshSLO, apply_churn_event
from repro.core import diffuse_embeddings
from repro.core.backends.sharded import ShardedDiffusionBackend
from repro.core.engine import ResilienceConfig, WalkConfig, run_query
from repro.core.search import DiffusionSearchNetwork
from repro.graphs.generators import community_cycle_adjacency
from repro.runtime.events import EventQueue
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.serving import (
    AdmissionConfig,
    BreakerConfig,
    MicroBatchConfig,
    PeerCircuitBreaker,
    QueryRequest,
    QueryService,
    ServingConfig,
)
from repro.serving.service import CostModel, StalenessConfig
from repro.simulation.workload import poisson_arrival_times

DIM = 32
DEGREE = 8
CROSS_FRACTION = 0.05
ALPHA = 0.5
K = 10  # recall@K and the walk's result tracker size
OVERLAP_K = 100
QUERY_NOISE = 0.25  # queries are noisy copies of documents
N_PROBES = 32  # fixed probe queries for the overlap metrics
GOLD_BLOCK = 256  # queries scored per block when computing recall gold
# Agreement floor between the churn-maintained cache and a forced full
# diffusion of the final documents: the quality floor the repository's churn
# benchmark holds (benchmarks/test_bench_churn_slo.py).
AGREEMENT_FLOOR = 0.95

# Simulated-time prices.  Refresh is priced low enough that a full refresh
# of the churn overlay costs about one batch, so refreshes never build a
# backlog that admission control would shed.
COST = CostModel(
    batch_overhead=0.25,
    per_query=0.01,
    hop_cost=0.02,
    refresh_overhead=0.05,
    refresh_per_dirty=0.005,
    refresh_per_node=1e-5,
)
# Batches of four with a long wait window: at half of modeled capacity four
# arrivals nearly always come before the window closes, so almost every
# micro-batch holds exactly four queries and batch wall times compare
# like with like.  Small batches also let the slow per-query fault path
# run well over a hundred batches per run, so batch p90 has at least ten
# samples beyond it.
MAX_BATCH = 4
MAX_WAIT = 8.0
RATE_FRACTION = 0.5
CHUNK = 10.0  # simulated time of arrivals generated per chunk
MAX_CHUNKS = 1000  # churn events are generated up front for this many chunks
ROUND_EVERY = 3.0  # seconds of wall time between side rounds of a stream
WRITE_MOVES = 4  # documents moved away and back between chunks of a stream

FAULTS = {"crash_fraction": 0.10, "drop_probability": 0.05}
RESILIENCE = ResilienceConfig(max_retries=2, redundancy=2)
BREAKER = BreakerConfig(failure_threshold=3, window=60.0, cooldown=20.0)

CHURN_RATES = ChurnRates(
    doc_add=0.05, doc_move=0.2, doc_delete=0.05, node_leave=0.0025
)
# One document event moves about 5-10 units of L1 personalization mass and
# a batch window sees under one event on average, so with this target most
# batches defer and a refresh follows every few events: both decisions
# occur on every seed, and refresh batches stay a minority (batch p50 is a
# plain batch, p90 a refreshing one).
SLO = RefreshSLO(staleness_target=15.0)

# Seed streams: every input derives from (--seed, stream[, index]).
GRAPH, DOCS, QUERIES, PLAN, CHURN, SERVICE, PROBES, CHURN_DOCS, WRITES = range(9)


def sub_seed(seed: int, stream: int, *index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, *index]).generate_state(1)[0])


@dataclass(frozen=True)
class Shape:
    n_nodes: int
    n_docs: int
    n_communities: int
    ttl: int = 50
    trace_chunks: int = 20  # fixed work of each traced-run phase
    check_sample: int = 16  # serve: queries re-run through run_query


SHAPES = {
    "full": {
        "serve": Shape(20_000, 2_000, 16),
        "serve-faults": Shape(20_000, 2_000, 16, trace_chunks=8),
        # Smaller overlay: nearly every refresh is full (see README), and a
        # run must still fit over a hundred batches into its budget.
        "churn": Shape(5_000, 500, 16),
        "precompute": Shape(100_000, 50_000, 32),
    },
    "toy": {
        "serve": Shape(600, 60, 4, ttl=20, trace_chunks=2, check_sample=4),
        "serve-faults": Shape(600, 60, 4, ttl=20, trace_chunks=2),
        "churn": Shape(400, 40, 4, ttl=20, trace_chunks=2),
        "precompute": Shape(2_000, 1_000, 4),
    },
}


def modeled_capacity(shape: Shape) -> float:
    """Queries per simulated time unit at full batches (the saturation knee)."""
    batch_time = (
        COST.batch_overhead + COST.per_query * MAX_BATCH
        + (shape.ttl - 1) * COST.hop_cost
    )
    return MAX_BATCH / batch_time


def unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.standard_normal((n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def noisy_copies(rng: np.random.Generator, docs: np.ndarray, n: int) -> np.ndarray:
    picks = rng.integers(0, docs.shape[0], size=n)
    queries = docs[picks] + QUERY_NOISE * rng.standard_normal((n, DIM))
    return queries / np.linalg.norm(queries, axis=1, keepdims=True)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# --------------------------------------------------------------------- set-up


@dataclass
class Corpus:
    network: DiffusionSearchNetwork
    docs: np.ndarray
    doc_ids: list[str]
    homes: np.ndarray


def build_corpus(
    shape: Shape,
    seed: int,
    *,
    warm_up: bool,
    churn: bool,
) -> Corpus:
    """Overlay, documents through the facade, operator build, warm-up diffusion."""
    adjacency = community_cycle_adjacency(
        shape.n_nodes,
        DEGREE,
        n_communities=shape.n_communities,
        cross_fraction=CROSS_FRACTION,
        seed=sub_seed(seed, GRAPH),
    )
    rng = np.random.default_rng(sub_seed(seed, DOCS))
    docs = unit_rows(rng, shape.n_docs)
    homes = rng.integers(0, shape.n_nodes, size=shape.n_docs)
    doc_ids = [f"doc-{i}" for i in range(shape.n_docs)]
    network = DiffusionSearchNetwork(adjacency, DIM, alpha=ALPHA)
    for doc_id, vector, node in zip(doc_ids, docs, homes.tolist()):
        network.place_document(doc_id, vector, node)
    # The operator is cached on the overlay: users pay for it once per
    # topology.  Incremental refresh reads the CSC form.
    normalization.transition_matrix(adjacency, "column")
    if churn:
        normalization.transition_matrix(adjacency, "column", fmt="csc")
    if warm_up and not network.diffuse(method="sparse").converged:
        raise RuntimeError("warm-up diffusion did not converge")
    return Corpus(network, docs, doc_ids, homes)


def build_service(workload: str, corpus: Corpus, shape: Shape, seed: int):
    """The production read path: QueryService over the network's CSR cache."""
    faults = breaker = resilience = plan = None
    staleness = StalenessConfig()
    if workload == "serve-faults":
        plan = FaultPlan.generate(
            shape.n_nodes, **FAULTS, seed=sub_seed(seed, PLAN)
        )
        faults = FaultInjector(plan)
        breaker = PeerCircuitBreaker(BREAKER)
        resilience = RESILIENCE
    elif workload == "churn":
        staleness = StalenessConfig(method="sparse", slo=SLO)
    config = ServingConfig(
        walk=WalkConfig(ttl=shape.ttl, k=K),
        batch=MicroBatchConfig(max_batch=MAX_BATCH, max_wait=MAX_WAIT),
        admission=AdmissionConfig(max_pending=4 * MAX_BATCH),
        cost=COST,
        resilience=resilience,
        staleness=staleness,
    )
    service = QueryService.from_network(
        corpus.network,
        config=config,
        queue=EventQueue(),
        faults=faults,
        breaker=breaker,
        seed=sub_seed(seed, SERVICE),
    )
    return service, plan


# ------------------------------------------------------------- query streams


@dataclass
class Submission:
    query_id: int
    embedding: np.ndarray
    start_node: int
    sim_time: float


@dataclass(frozen=True)
class Answer:
    """What the benchmark keeps of one response (doc ids ``None``: rejected)."""

    doc_ids: tuple | None
    retries: int
    rerouted: int
    walkers_lost: int


@dataclass
class QueryRun:
    """One query workload's set-up objects and everything its loop recorded."""

    workload: str
    shape: Shape
    seed: int
    corpus: Corpus
    service: QueryService
    plan: FaultPlan | None
    rate: float
    starts: np.ndarray
    churn_chunks: list[list] = field(default_factory=list)
    churn_vectors: dict[str, np.ndarray] = field(default_factory=dict)
    submissions: list[Submission] = field(default_factory=list)
    applied_events: list = field(default_factory=list)
    answers: dict[int, Answer] = field(default_factory=dict)
    duplicates: int = 0
    batch_ms: list[float] = field(default_factory=list)
    write_us: list[float] = field(default_factory=list)
    drain_s: float = 0.0
    chunks: int = 0
    # Untraced runs only: side work (see Rounds) done between chunks, and
    # the wall time it took, which is not the stream's.
    side: object = None
    side_s: float = 0.0
    # Traced runs only: the tracer marks batch steps and write calls.
    tracer: object = None

    def feed(self, more) -> None:
        """Schedule the next chunk of arrivals (and churn events) on the clock.

        The chunk's last action, at the end of its window, feeds the chunk
        after it while ``more()`` holds, so the stream is one continuous
        open-loop arrival process; once it stops, the service drains.
        """
        self.harvest()
        if self.side is not None:
            start = time.perf_counter()
            self.side()
            self.side_s += time.perf_counter() - start
        chunk = self.chunks
        queue = self.service.queue
        base = chunk * CHUNK
        rng = np.random.default_rng(sub_seed(self.seed, QUERIES, chunk))
        offsets = poisson_arrival_times(self.rate, horizon=CHUNK, seed=rng)
        embeddings = noisy_copies(rng, self.corpus.docs, offsets.shape[0])
        starts = self.starts[rng.integers(0, self.starts.shape[0], offsets.shape[0])]
        service = self.service
        for offset, embedding, start in zip(offsets.tolist(), embeddings, starts.tolist()):
            submission = Submission(
                len(self.submissions), embedding, start, base + offset
            )
            self.submissions.append(submission)
            request = QueryRequest(
                query_id=submission.query_id,
                embedding=embedding,
                start_node=start,
            )
            queue.schedule_at(submission.sim_time, lambda r=request: service.submit(r))
        if self.churn_chunks:
            for event in self.churn_chunks[chunk]:
                queue.schedule_at(event.time, lambda e=event: self.apply(e))
        self.chunks += 1
        if self.chunks < MAX_CHUNKS:
            queue.schedule_at(
                base + CHUNK, lambda: self.feed(more) if more() else None
            )

    def harvest(self) -> None:
        """Consume the service's resolved responses as a long-lived client would.

        The service appends every response to ``responses``; keeping them all
        would make peak memory grow with the number of queries a run gets
        through, that is, with the program's speed.
        """
        for response in self.service.responses:
            if response.query_id in self.answers:
                self.duplicates += 1
            result = response.result
            self.answers[response.query_id] = Answer(
                None if result is None else tuple(result.tracker.doc_ids()),
                0 if result is None else result.retries,
                0 if result is None else result.rerouted,
                0 if result is None else result.walkers_lost,
            )
        self.service.responses.clear()

    def apply(self, event) -> None:
        tracer = self.tracer
        index = tracer.begin("churn.apply") if tracer is not None else -1
        start = time.perf_counter()
        apply_churn_event(
            self.corpus.network, event, embedding_of=self.churn_vectors.__getitem__
        )
        self.write_us.append((time.perf_counter() - start) * 1e6)
        if tracer is not None:
            tracer.end(index)
        self.applied_events.append(event)

    def drain(self) -> None:
        """``QueryService.drain`` with each event step timed.

        Same public calls in the same order as the service's own ``drain``;
        a step during which ``metrics.batches`` advanced ran a micro-batch
        (and any refresh it triggered) and is recorded in ``batch_ms``.
        """
        service = self.service
        queue, batcher, metrics = service.queue, service.batcher, service.metrics
        tracer = self.tracer
        clock = time.perf_counter
        root = tracer.begin("serving.drain") if tracer is not None else -1
        began = clock()
        while len(queue) or len(batcher):
            step = queue.step if len(queue) else batcher.flush
            before = metrics.batches
            index = tracer.begin("serving.step") if tracer is not None else -1
            start = clock()
            step()
            elapsed = clock() - start
            if tracer is not None:
                tracer.end(index)
            if metrics.batches != before:
                self.batch_ms.append(elapsed * 1e3)
                if tracer is not None:
                    tracer.spans[index][0] = "serving.batch"
                    tracer.spans[index][4] = metrics.batches
        self.drain_s += clock() - began
        if tracer is not None:
            tracer.end(root)

    def run(self, *, seconds: float | None = None, chunks: int | None = None) -> None:
        """Stream chunks for ``seconds`` of wall time or exactly ``chunks`` chunks."""
        began = time.perf_counter()
        if chunks is not None:
            self.feed(lambda: self.chunks < chunks)
        else:
            self.feed(lambda: time.perf_counter() - began < seconds)
        self.drain()
        self.harvest()


def setup_query_run(workload: str, shape: Shape, seed: int) -> QueryRun:
    corpus = build_corpus(shape, seed, warm_up=True, churn=workload == "churn")
    service, plan = build_service(workload, corpus, shape, seed)
    if plan is not None:
        # A crashed user issues no queries.
        starts = np.asarray(plan.live_nodes(0.0), dtype=np.int64)
    else:
        starts = np.arange(shape.n_nodes, dtype=np.int64)
    return QueryRun(
        workload, shape, seed, corpus, service, plan,
        RATE_FRACTION * modeled_capacity(shape), starts,
    )


def churn_inputs(run: QueryRun) -> None:
    """Generate the churn event sequence and new-document vectors up front."""
    corpus = run.corpus
    stream = ChurnStream(
        run.shape.n_nodes,
        CHURN_RATES,
        initial_placement=dict(zip(corpus.doc_ids, corpus.homes.tolist())),
        seed=sub_seed(run.seed, CHURN),
    )
    events = stream.events(horizon=MAX_CHUNKS * CHUNK)
    chunks: list[list] = [[] for _ in range(MAX_CHUNKS)]
    for event in events:
        chunks[min(int(event.time // CHUNK), MAX_CHUNKS - 1)].append(event)
        if event.kind == "doc_add":
            number = int(event.doc_id.rsplit("-", 1)[1])
            rng = np.random.default_rng(sub_seed(run.seed, CHURN_DOCS, number))
            run.churn_vectors[event.doc_id] = unit_rows(rng, 1)[0]
    run.churn_chunks = chunks


# ------------------------------------------------------------ quality & checks


def top_sets(scores: np.ndarray, k: int) -> list[set[int]]:
    """Per-column index sets of the ``k`` largest entries."""
    k = min(k, scores.shape[0])
    top = np.argpartition(-scores, k - 1, axis=0)[:k]
    return [set(top[:, j].tolist()) for j in range(scores.shape[1])]


def cache_overlap(cache, reference: np.ndarray, probes: np.ndarray, k: int) -> float:
    """Mean top-``k`` node overlap of ``cache @ q`` and ``reference @ q``."""
    ours = top_sets(np.asarray(cache @ probes.T), k)
    theirs = top_sets(reference @ probes.T, k)
    return float(np.mean([len(a & b) / len(b) for a, b in zip(ours, theirs)]))


def probe_queries(corpus: Corpus, seed: int) -> np.ndarray:
    return noisy_copies(np.random.default_rng(sub_seed(seed, PROBES)), corpus.docs, N_PROBES)


def power_reference(network: DiffusionSearchNetwork) -> np.ndarray:
    """Dense ``power`` diffusion of the network's current documents."""
    return diffuse_embeddings(
        network.adjacency, network.personalization(), alpha=ALPHA, method="power"
    ).embeddings


def gold_sets(run: QueryRun) -> list[set[str]]:
    """Brute-force top-K document ids per submission, over the live documents.

    For ``churn`` the event sequence is replayed in simulated-time order, so
    each query is judged against the documents live when it was submitted.
    """
    corpus = run.corpus
    if run.workload != "churn":
        ids = np.asarray(corpus.doc_ids)
        gold = []
        # In blocks: a score matrix over every query at once would make peak
        # memory grow with the number of queries a run gets through.
        for start in range(0, len(run.submissions), GOLD_BLOCK):
            block = run.submissions[start:start + GOLD_BLOCK]
            scores = corpus.docs @ np.stack([s.embedding for s in block]).T
            gold.extend(set(ids[list(top)].tolist()) for top in top_sets(scores, K))
        return gold
    live = dict(zip(corpus.doc_ids, corpus.docs))
    homes = dict(zip(corpus.doc_ids, corpus.homes.tolist()))
    events = run.applied_events  # in clock order, as the queue dispatched them
    gold: list[set[str]] = []
    position = 0
    ids: list[str] = []
    matrix = None
    for submission in run.submissions:
        while position < len(events) and events[position].time <= submission.sim_time:
            event = events[position]
            position += 1
            matrix = None
            if event.kind == "doc_add":
                live[event.doc_id] = run.churn_vectors[event.doc_id]
                homes[event.doc_id] = event.node
            elif event.kind == "doc_move":
                homes[event.doc_id] = event.node
            elif event.kind == "doc_delete":
                del live[event.doc_id], homes[event.doc_id]
            elif event.kind == "node_leave":
                for doc_id in [d for d, v in homes.items() if v == event.node]:
                    del live[doc_id], homes[doc_id]
        if matrix is None:
            ids = list(live)
            matrix = np.stack([live[d] for d in ids])
        (top,) = top_sets(matrix @ submission.embedding[:, None], K)
        gold.append({ids[i] for i in top})
    return gold


@dataclass
class Result:
    """What one run reports: counts, checks, metrics and descriptors."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    descriptors: dict = field(default_factory=dict)


def check_query_run(run: QueryRun, result: Result) -> None:
    """Every submission resolves exactly once; ``serve`` re-runs a sample."""
    service = run.service
    answers = run.answers
    submitted = len(run.submissions)
    unresolved = submitted - len(answers)
    if run.duplicates or unresolved or service.metrics.submitted != submitted:
        result.problems.append(
            f"{unresolved} unresolved and {run.duplicates} duplicate responses "
            f"for {submitted} submissions"
        )
    rejected = sum(1 for a in answers.values() if a.doc_ids is None)
    result.attempted += submitted
    result.failed += rejected + unresolved
    if run.workload == "serve":
        network = run.corpus.network
        sample = [
            s for s in run.submissions
            if s.query_id in answers and answers[s.query_id].doc_ids is not None
        ][: run.shape.check_sample]
        mismatched = 0
        for submission in sample:
            again = run_query(
                network.adjacency,
                network.stores,
                service.policy,
                submission.embedding,
                submission.start_node,
                service.config.walk,
                query_id=submission.query_id,
            )
            if tuple(again.tracker.doc_ids()) != answers[submission.query_id].doc_ids:
                mismatched += 1
        if mismatched:
            result.problems.append(
                f"{mismatched} of {len(sample)} re-run queries returned other doc ids"
            )
            result.failed += mismatched


def finish_churn(run: QueryRun, probes: np.ndarray, result: Result):
    """Final refresh; the maintained cache must match a forced full diffusion.

    Returns the maintained CSR cache (after the final refresh).
    """
    network = run.corpus.network
    final = network.diffuse(method="sparse")
    maintained = network.csr_embeddings.copy()
    full = network.diffuse(method="sparse", incremental=False)
    agreement = cache_overlap(maintained, full.embeddings.toarray(), probes, OVERLAP_K)
    result.descriptors["final_refresh_incremental"] = bool(final.incremental)
    result.descriptors["agreement_at_100"] = agreement
    if not (final.converged and full.converged) or agreement < AGREEMENT_FLOOR:
        result.problems.append(
            f"maintained cache disagrees with a full diffusion: overlap@100 "
            f"{agreement:.4f} < {AGREEMENT_FLOOR}"
        )
        result.failed += 1
    result.attempted += 1
    return maintained


def recall(run: QueryRun) -> float:
    """Mean recall@K over submitted queries; rejected queries score 0."""
    gold = gold_sets(run)
    total = 0.0
    for submission, want in zip(run.submissions, gold):
        answer = run.answers.get(submission.query_id)
        if answer is None or answer.doc_ids is None:
            continue
        total += len(set(answer.doc_ids) & want) / K
    return total / max(len(run.submissions), 1)


def query_descriptors(run: QueryRun) -> dict:
    shape, corpus = run.shape, run.corpus
    network = corpus.network
    descriptors = {
        "n_nodes": shape.n_nodes,
        "n_docs": shape.n_docs,
        "occupancy": len(network.stores) / shape.n_nodes,
        "dim": DIM,
        "ttl": shape.ttl,
        "k": K,
        "arrival_rate": run.rate,
        "rate_fraction_of_capacity": RATE_FRACTION,
        "modeled_capacity": modeled_capacity(shape),
        "chunks": run.chunks,
        "queries": len(run.submissions),
        "batch_samples": len(run.batch_ms),
        "cost_model": vars(COST),
        "max_batch": MAX_BATCH,
        "max_wait": MAX_WAIT,
    }
    if run.plan is not None:
        descriptors["fault_plan"] = {
            **FAULTS,
            "crashed": len(run.plan.crashed_nodes(0.0)),
            "max_retries": RESILIENCE.max_retries,
            "redundancy": RESILIENCE.redundancy,
            "breaker": vars(BREAKER),
        }
    if run.churn_chunks:
        mix: dict[str, int] = {}
        for event in run.applied_events:
            mix[event.kind] = mix.get(event.kind, 0) + 1
        descriptors["churn"] = {
            "rates": vars(CHURN_RATES),
            "events": len(run.applied_events),
            "mix": mix,
            "staleness_target": SLO.staleness_target,
        }
    return descriptors


# ------------------------------------------------------------------- runners


@dataclass
class Rounds:
    """Set-up, cold-diffusion and document-write samples spread over a run.

    Host speed can swing by 1.7x within a second (a busy neighbour on a
    shared core), so a short measurement taken once reads whichever phase it
    lands in.  These samples are instead taken throughout the run: a round
    (fresh set-up, cold diffusion) every few seconds and a few document
    writes between chunks, so that they see the same mix of fast and slow
    phases as the stream's own figures.
    """

    seed: int
    setup_s: list[float] = field(default_factory=list)
    diffuse_s: list[float] = field(default_factory=list)
    sweeps: list[int] = field(default_factory=list)
    write_us: list[float] = field(default_factory=list)
    converged: int = 0
    occupancy: float = 0.0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(sub_seed(self.seed, WRITES))
        self.corpus: Corpus | None = None
        self.last_round = time.perf_counter()

    def diffuse(self, network: DiffusionSearchNetwork) -> None:
        """Time one cold full sparse diffusion."""
        start = time.perf_counter()
        outcome = network.diffuse(method="sparse", incremental=False)
        self.diffuse_s.append(time.perf_counter() - start)
        self.sweeps.append(int(outcome.iterations))
        self.converged += bool(outcome.converged)
        self.occupancy = len(network.stores) / network.n_nodes

    def write(self, corpus: Corpus, moves: int) -> None:
        """Time ``moves`` document moves there and back, one call at a time."""
        network = corpus.network
        n_nodes = network.n_nodes
        clock = time.perf_counter
        for index in self.rng.integers(0, len(corpus.doc_ids), moves).tolist():
            doc_id = corpus.doc_ids[index]
            home = network.location_of(doc_id)
            away = (home + 1 + int(self.rng.integers(n_nodes - 1))) % n_nodes
            vector = np.array(network.stores[home].embedding_of(doc_id), copy=True)
            for node in (away, home):
                start = clock()
                network.remove_document(doc_id)
                self.write_us.append((clock() - start) * 1e6)
                start = clock()
                network.place_document(doc_id, vector, node)
                self.write_us.append((clock() - start) * 1e6)

    def round(self, build) -> Corpus:
        """Time one fresh set-up from ``build()`` and a cold diffusion of it."""
        began = time.perf_counter()
        self.corpus = build()
        self.setup_s.append(time.perf_counter() - began)
        self.diffuse(self.corpus.network)
        self.last_round = time.perf_counter()
        return self.corpus

    def check(self, result: Result) -> None:
        """Every cold diffusion converged."""
        count = len(self.diffuse_s)
        result.attempted += count
        result.failed += count - self.converged
        if self.converged != count:
            result.problems.append(
                f"{count - self.converged} of {count} cold diffusions did not converge"
            )

    def metrics(self, writes: list[float]) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "write_us_p90": percentile(writes, 90),
            "diffuse_s": statistics.median(self.diffuse_s),
        }

    def descriptors(self) -> dict:
        return {
            "rounds": len(self.setup_s),
            "setup_s_samples": self.setup_s,
            "diffuse_s_samples": self.diffuse_s,
            "sweeps": self.sweeps,
        }


def build_precompute(shape: Shape, seed: int) -> Corpus:
    return build_corpus(shape, seed, warm_up=False, churn=False)


def run_query_workload(
    workload: str, shape: Shape, seed: int, seconds: float
) -> Result:
    """Untraced run: end-to-end metrics of a query workload."""
    result = Result()
    rounds = Rounds(seed)

    def build() -> Corpus:
        return setup_query_run(workload, shape, seed).corpus

    start = time.perf_counter()
    run = setup_query_run(workload, shape, seed)
    rounds.setup_s.append(time.perf_counter() - start)
    if workload == "churn":
        churn_inputs(run)
    rounds.round(build)

    def side() -> None:
        if time.perf_counter() - rounds.last_round >= ROUND_EVERY:
            rounds.round(build)
        if workload != "churn":  # churn's writes are its own events
            rounds.write(rounds.corpus, WRITE_MOVES)

    run.side = side
    run.run(seconds=seconds)
    rounds.round(build)
    rounds.check(result)

    check_query_run(run, result)
    probes = probe_queries(run.corpus, seed)
    network = run.corpus.network
    if workload == "churn":
        cache = finish_churn(run, probes, result)
        result.attempted += len(run.write_us)
    else:
        cache = network.csr_embeddings
    overlap = cache_overlap(cache, power_reference(network), probes, OVERLAP_K)
    metrics = run.service.metrics
    writes = run.write_us if workload == "churn" else rounds.write_us
    result.metrics = {
        **rounds.metrics(writes),
        "ops_per_s": len(run.answers) / (run.drain_s - run.side_s),
        "step_ms_p50": percentile(run.batch_ms, 50),
        "step_ms_p90": percentile(run.batch_ms, 90),
        "recall_at_10": recall(run),
        "fresh_frac": 1.0 - metrics.stale_served / max(metrics.submitted, 1),
        "overlap_at_100": overlap,
    }
    result.descriptors.update(query_descriptors(run))
    result.descriptors.update(rounds.descriptors())
    result.descriptors["write_samples"] = len(writes)
    result.descriptors["write_us_p50"] = percentile(writes, 50)
    return result


def run_precompute(shape: Shape, seed: int, seconds: float) -> Result:
    """Untraced run: rounds of set-up, cold full sparse diffusion and writes.

    The only gaps between diffusions are between rounds, so each round's
    writes come in one burst.
    """
    result = Result()
    rounds = Rounds(seed)
    corpus = None
    began = time.perf_counter()
    while not rounds.diffuse_s or time.perf_counter() - began < seconds:
        corpus = cache = None
        gc.collect()
        corpus = rounds.round(lambda: build_precompute(shape, seed))
        cache = corpus.network.csr_embeddings
        # Moves away and back leave every document where it was.
        rounds.write(corpus, WRITE_MOVES * 10)
    rounds.check(result)

    probes = probe_queries(corpus, seed)
    reference = power_reference(corpus.network)
    result.metrics = {
        **rounds.metrics(rounds.write_us),
        "ops_per_s": len(rounds.diffuse_s) / sum(rounds.diffuse_s),
        "step_ms_p50": percentile(rounds.diffuse_s, 50) * 1e3,
        "step_ms_p90": percentile(rounds.diffuse_s, 90) * 1e3,
        # Node recall@10 of the sparse cache's ranking against the power
        # reference: the share of the reference's ten best nodes it keeps.
        "recall_at_10": cache_overlap(cache, reference, probes, K),
        "fresh_frac": 1.0,
        "overlap_at_100": cache_overlap(cache, reference, probes, OVERLAP_K),
    }
    result.descriptors.update({
        "n_nodes": shape.n_nodes,
        "n_docs": shape.n_docs,
        "occupancy": rounds.occupancy,
        "dim": DIM,
        **rounds.descriptors(),
        "write_samples": len(rounds.write_us),
        "write_us_p50": percentile(rounds.write_us, 50),
    })
    return result


# ------------------------------------------------------------- traced runners
#
# A traced run does a fixed amount of work twice on identical inputs: once
# untraced (the overhead reference) and once with the tracer's wrappers
# installed.  Fixed work makes every count in the trace repeat exactly for
# a seed, so counts compare across commits.


def _cache_stats(cache, adjacency) -> dict[str, float]:
    operator = normalization.transition_matrix(adjacency, "column")
    cache_bytes = cache.data.nbytes + cache.indices.nbytes + cache.indptr.nbytes
    operator_bytes = (
        operator.data.nbytes + operator.indices.nbytes + operator.indptr.nbytes
    )
    return {
        "diffusion.cache_nnz": float(cache.nnz),
        "diffusion.cache_bytes": float(cache_bytes),
        # Computed, not measured: one pruned sweep reads the operator and
        # the iterate and writes the next iterate (at most the final size).
        "diffusion.bytes_per_sweep": float(operator_bytes + 2 * cache_bytes),
    }


def _diffusion_layers(tracer, phase: str) -> dict[str, float]:
    return {
        "diffusion.personalization_s": tracer.total("diffusion.personalization", phase=phase),
        "diffusion.operator_s": tracer.total("diffusion.operator", phase="setup"),
        "diffusion.apply_s": tracer.total("diffusion.apply", phase=phase),
        "diffusion.sweeps": tracer.info_sum("facade.diffuse", "sweeps", phase=phase),
    }


def trace_query_workload(workload: str, shape: Shape, seed: int, tracer) -> Result:
    """Traced run of a query workload: per-layer metrics of fixed work."""
    result = Result()
    churn = workload == "churn"
    plain = setup_query_run(workload, shape, seed)
    if churn:
        churn_inputs(plain)
    plain.run(chunks=shape.trace_chunks)
    untraced_s = plain.drain_s
    plain = None
    gc.collect()

    tracer.install()
    try:
        run = setup_query_run(workload, shape, seed)
        warm_cache = run.corpus.network.csr_embeddings
        if churn:
            churn_inputs(run)
        run.tracer = tracer
        tracer.phase = "run"
        run.run(chunks=shape.trace_chunks)
    finally:
        tracer.uninstall()
        tracer.phase = "setup"
    run.tracer = None
    cache = _cache_stats(warm_cache, run.corpus.network.adjacency)

    check_query_run(run, result)
    if churn:
        finish_churn(run, probe_queries(run.corpus, seed), result)
        result.attempted += len(run.write_us)
    service = run.service
    metrics = service.metrics
    answers = run.answers.values()
    candidates = tracer.info_sum("forward", "candidates", phase="run")
    refreshes = tracer.spans_of("facade.diffuse", phase="run")
    incremental = [s for s in refreshes if s[7]["incremental"]]
    full = [s for s in refreshes if not s[7]["incremental"]]
    scheduler = service.refresh_scheduler
    decisions = scheduler.decisions if scheduler is not None else {}
    writes = ("facade.place_document", "facade.remove_document")
    result.metrics = {
        "forward.select_s": tracer.total("forward", phase="run"),
        "forward.calls": tracer.count("forward", phase="run"),
        "forward.candidates": candidates,
        "forward.ns_per_candidate": (
            tracer.total("forward", phase="run") * 1e9 / candidates if candidates else 0.0
        ),
        "walk.batch_s": tracer.total("walk.run_queries", phase="run"),
        "walk.batch_calls": tracer.count("walk.run_queries", phase="run"),
        "walk.scalar_s": tracer.total("walk.run_query", phase="run"),
        "walk.scalar_calls": tracer.count("walk.run_query", phase="run"),
        "walk.hops": tracer.info_sum("walk", "hops", phase="run"),
        "walk.self_s": tracer.self_time("walk", phase="run"),
        "retrieval.top_k_s": tracer.total("retrieval", phase="run"),
        "retrieval.top_k_calls": tracer.count("retrieval", phase="run"),
        "retrieval.docs_scored": tracer.info_sum("retrieval", "docs", phase="run"),
        "serving.self_s": tracer.self_time("serving", phase="run"),
        "serving.batches": metrics.batches,
        "serving.batch_size_mean": metrics.mean_batch_size,
        "serving.rejected": metrics.rejected,
        "serving.degraded": metrics.degraded,
        "faults.retries": sum(a.retries for a in answers),
        "faults.reroutes": sum(a.rerouted for a in answers),
        "faults.walkers_lost": sum(a.walkers_lost for a in answers),
        "breaker.observe_s": tracer.total("breaker", phase="run"),
        "breaker.open_peers": (
            len(service.breaker.quarantined(service.queue.now))
            if service.breaker is not None else 0
        ),
        "facade.write_s": tracer.total(*writes, phase="run"),
        "facade.writes": tracer.count(*writes, phase="run"),
        "facade.dirty_nodes_per_refresh": (
            statistics.mean(s[7]["dirty"] for s in refreshes) if refreshes else 0.0
        ),
        "facade.diffuse_self_s": tracer.self_time("facade.diffuse", phase="run"),
        "refresh.incremental_count": len(incremental),
        "refresh.incremental_s": sum(s[2] - s[1] for s in incremental),
        "refresh.full_count": len(full),
        "refresh.full_s": sum(s[2] - s[1] for s in full),
        "refresh.deferred": metrics.deferred_refreshes,
        "refresh.edge_ops": sum(s[7]["edge_ops"] for s in refreshes),
        "refresh.sweeps": sum(s[7]["sweeps"] for s in refreshes),
        "churn.decisions.defer": decisions.get("defer", 0),
        "churn.decisions.incremental": decisions.get("incremental", 0),
        "churn.decisions.full": decisions.get("full", 0),
        "churn.decide_s": tracer.total("churn.decide", phase="run"),
        "churn.slo_violations": scheduler.slo_violations if scheduler is not None else 0,
        **_diffusion_layers(tracer, "setup"),
        **cache,
        "diffusion.alt.power_s": 0.0,
        "diffusion.alt.sharded_s": 0.0,
        "trace.overhead_frac": run.drain_s / untraced_s - 1.0,
        "trace.spans": len(tracer.spans),
    }
    result.descriptors.update(query_descriptors(run))
    result.descriptors["untraced_drain_s"] = untraced_s
    result.descriptors["traced_drain_s"] = run.drain_s
    return result


def trace_precompute(shape: Shape, seed: int, tracer) -> Result:
    """Traced run of one ``precompute`` round plus the best-alternative baselines."""
    result = Result()
    plain = Rounds(seed)
    plain.round(lambda: build_precompute(shape, seed))
    untraced_s = plain.diffuse_s[0]
    plain = None
    gc.collect()

    rounds = Rounds(seed)
    tracer.install()
    try:
        corpus = build_precompute(shape, seed)
        tracer.phase = "run"
        rounds.diffuse(corpus.network)
    finally:
        tracer.uninstall()
        tracer.phase = "setup"
    rounds.check(result)

    network = corpus.network
    cache = network.csr_embeddings
    layers = {**_diffusion_layers(tracer, "run"), **_cache_stats(cache, network.adjacency)}
    # Best alternatives on the same inputs, through the same facade call.
    start = time.perf_counter()
    network.diffuse(method="power", incremental=False)
    power_s = time.perf_counter() - start
    reference = network.embeddings
    start = time.perf_counter()
    network.diffuse(method=ShardedDiffusionBackend(workers=2), incremental=False)
    sharded_s = time.perf_counter() - start

    probes = probe_queries(corpus, seed)
    result.descriptors.update({
        "n_nodes": shape.n_nodes,
        "n_docs": shape.n_docs,
        "occupancy": rounds.occupancy,
        "dim": DIM,
        "sweeps": rounds.sweeps,
        "overlap_at_100": cache_overlap(cache, reference, probes, OVERLAP_K),
        "untraced_diffuse_s": untraced_s,
        "traced_diffuse_s": rounds.diffuse_s[0],
    })
    result.metrics = {
        **layers,
        "diffusion.alt.power_s": power_s,
        "diffusion.alt.sharded_s": sharded_s,
        "trace.overhead_frac": rounds.diffuse_s[0] / untraced_s - 1.0,
        "trace.spans": len(tracer.spans),
    }
    return result
