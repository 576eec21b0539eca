"""The five benchmark workloads: which configs run, in which jobs, why.

A workload is a list of *requests* a single closed-loop client issues one
after another: each request is one job (a list of ``RunConfig``), either
**fresh** (never seen by the store) or **cached** (an earlier fresh job
re-requested verbatim).  Every workload is measured on the same three
lanes (see ``child.py``): the fresh jobs through ``run_grid(workers=0)``
(``serial_wall_s``), the whole request list through the workload's live
2-worker engine (``wall_s`` and the two per-job p50s), and the fresh jobs
forced through that same live engine again (``resident_wall_s``).

The grid workloads use an in-process ``Scheduler(workers=2)`` as their
engine; ``serve_mixed`` uses a real ``python -m repro serve`` subprocess
with a journal, behind one ``ServiceClient`` connection.

``--seed S`` is added to every ``RunConfig.seed`` and shuffles the order
of the requests (never the configs inside a job: that order decides the
pool's makespan and must not vary between seeds).  The program only ever
sees the generated configs.

Sizes are fixed by the driver's time cap: one run is three repeats of
(serial child + engine child) and has to fit in about 22 s on two cores,
which allows about 2.8 s of serial work per workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import RunConfig

#: shared by every config of every workload
BASE = {"block_split": 32, "cost_model": "perlmutter", "backend": "simulated"}

#: the six drivers, each with the permutation strategy it is swept with
ALGORITHMS: Tuple[Tuple[str, str], ...] = (
    ("1d", "none"),
    ("2d", "random"),
    ("3d", "random"),
    ("outer-product", "none"),
    ("1d-improved-block-row", "none"),
    ("1d-naive-block-row", "none"),
)

#: workload name -> one-line reason (mirrored in BENCHMARK.json)
WHY: Dict[str, str] = {
    "scaling_p1024": (
        "P=1024 squaring (1d, 2d, 3d): fetch planning, windows, collectives "
        "and the ledger do ~80 % of the work, local kernels ~10 %"
    ),
    "kernel_lowp": (
        "P=16 squaring of large banded and shuffled operands: local_spgemm "
        "does > 70 %, planning and ledger are negligible"
    ),
    "apps_resident": (
        "mcl, bc, triangles, amg, chained squaring: resident prepare/execute, "
        "elementwise ops, masking and the apps layer's own host code"
    ),
    "sweep_pool": (
        "60 tiny configs: per-config fixed overhead (load, distribute, record, "
        "fsync'd append, IPC) dominates; the operand plane's only stage"
    ),
    "serve_mixed": (
        "fresh 6-config jobs interleaved with cached re-requests through "
        "repro serve: journal fsyncs beside store loads, socket protocol"
    ),
}


@dataclass(frozen=True)
class Request:
    """One job a client submits and waits for."""

    #: index of the fresh job this request carries (a cached request
    #: re-requests fresh job ``job`` verbatim)
    job: int
    configs: Tuple[RunConfig, ...]
    cached: bool


@dataclass(frozen=True)
class Workload:
    name: str
    #: "scheduler" (in-process ``Scheduler``) or "service" (``repro serve``)
    engine: str
    #: the closed-loop request order of the engine lane
    requests: Tuple[Request, ...]
    #: ``ExperimentGrid`` kwargs submitted as one job during set-up, so
    #: cached requests pay the load of a realistically long store
    populate: Optional[Dict[str, object]]

    @property
    def fresh_jobs(self) -> List[Tuple[RunConfig, ...]]:
        """The fresh jobs in the order the engine lane first issues them."""
        return [r.configs for r in self.requests if not r.cached]

    @property
    def datasets(self) -> List[Tuple[str, float]]:
        """Every (dataset, scale) the workload touches, population included."""
        seen = {(c.dataset, c.scale) for r in self.requests for c in r.configs}
        if self.populate:
            seen.update(
                (d, float(self.populate["scale"]))
                for d in self.populate["datasets"]
            )
        return sorted(seen)


def _cfg(seed: int, dataset: str, *, offset: int = 0, **fields) -> RunConfig:
    """``seed`` is the run's ``--seed``; ``offset`` tells configs apart that
    would otherwise be the same point."""
    return RunConfig(dataset=dataset, seed=seed + offset, **BASE, **fields)


def _squaring(seed, dataset, algorithm, strategy, nprocs, scale, offset=0):
    return _cfg(seed, dataset, offset=offset, algorithm=algorithm,
                strategy=strategy, nprocs=nprocs, scale=scale)


def _scaling_p1024(seed: int, smoke: bool) -> List[List[RunConfig]]:
    nprocs = 64 if smoke else 1024
    return [[
        _squaring(seed, "queen", "1d", "none", nprocs, 0.5),
        _squaring(seed, "hv15r", "2d", "random", nprocs, 0.5),
        _squaring(seed, "nlpkkt", "3d", "random", nprocs, 0.5),
    ]]


def _kernel_lowp(seed: int, smoke: bool) -> List[List[RunConfig]]:
    queen, eukarya = (0.25, 0.3) if smoke else (1.0, 1.25)
    job = [
        _squaring(seed, "queen", algorithm, "none", 16, queen)
        for algorithm in ("1d", "outer-product", "1d-improved-block-row")
    ]
    job += [
        _squaring(seed, "eukarya", "1d", "none", 16, eukarya),
        _squaring(seed, "eukarya", "2d", "random", 16, eukarya),
    ]
    return [job]


def _apps_resident(seed: int, smoke: bool) -> List[List[RunConfig]]:
    big, small = (16, 16) if smoke else (256, 64)
    bc = dict(workload="bc", nprocs=big, scale=0.5, bc_sources=16,
              bc_source_stride=7)
    tri = dict(workload="triangles", nprocs=big, scale=0.5)
    return [[
        _cfg(seed, "eukarya", workload="mcl", nprocs=16, scale=0.1,
             mcl_max_iters=4 if smoke else 40),
        _cfg(seed, "hv15r", resident=True, **bc),
        _cfg(seed, "hv15r", resident=False, **bc),
        _cfg(seed, "eukarya", mask_mode="early", **tri),
        _cfg(seed, "eukarya", mask_mode="late", **tri),
        _cfg(seed, "queen", workload="amg-restriction", nprocs=small,
             scale=0.5),
        _cfg(seed, "hv15r", workload="chained-squaring", nprocs=small,
             scale=0.25, square_k=3),
    ]]


def _sweep_pool(seed: int, smoke: bool) -> List[List[RunConfig]]:
    datasets = ("queen", "stokes", "hv15r", "nlpkkt", "eukarya")
    if smoke:
        datasets = datasets[:2]
    return [[
        _squaring(seed, dataset, algorithm, strategy, nprocs, 0.25)
        for dataset in datasets
        for algorithm, strategy in ALGORITHMS
        for nprocs in (4, 16)
    ]]


def _serve_mixed(seed: int, smoke: bool) -> List[List[RunConfig]]:
    njobs = 3 if smoke else 16
    return [
        [
            _squaring(seed, dataset, algorithm, strategy, 16, 0.25,
                      offset=1000 + job)
            for dataset in ("hv15r", "stokes")
            for algorithm, strategy in (ALGORITHMS[0], ALGORITHMS[1],
                                        ALGORITHMS[3])
        ]
        for job in range(njobs)
    ]


def _populate_grid(seed: int, smoke: bool) -> Dict[str, object]:
    """256 cheap rows (hv15r/stokes, P=4, s=0.1, distinct seeds)."""
    rows = 8 if smoke else 128
    return {
        "datasets": ["hv15r", "stokes"],
        "process_counts": [4],
        "block_splits": [BASE["block_split"]],
        "cost_model": BASE["cost_model"],
        "scale": 0.1,
        "seeds": [5000 + seed + i for i in range(rows)],
    }


_BUILDERS = {
    "scaling_p1024": _scaling_p1024,
    "kernel_lowp": _kernel_lowp,
    "apps_resident": _apps_resident,
    "sweep_pool": _sweep_pool,
    "serve_mixed": _serve_mixed,
}

NAMES: Sequence[str] = tuple(_BUILDERS)

#: a one-job workload re-requests its job this often (a many-job workload
#: re-requests each job once), so the cached p50 never rests on one sample
SINGLE_JOB_CACHED_REQUESTS = 10


def _interleave(jobs: List[List[RunConfig]], cached_per_job: int,
                rng: random.Random) -> Tuple[Request, ...]:
    """Seed-shuffled order in which every cached request follows its job."""
    order = [Request(i, tuple(job), cached=False) for i, job in enumerate(jobs)]
    rng.shuffle(order)
    for i, job in enumerate(jobs):
        first = next(k for k, r in enumerate(order) if r.job == i)
        for _ in range(cached_per_job):
            slot = rng.randint(first + 1, len(order))
            order.insert(slot, Request(i, tuple(job), cached=True))
    return tuple(order)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's inputs for ``seed`` (same seed, same inputs)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {list(NAMES)}")
    jobs = _BUILDERS[name](seed, smoke)
    service = name == "serve_mixed"
    rng = random.Random(f"{name}:{seed}")
    cached_per_job = 1 if len(jobs) > 1 else SINGLE_JOB_CACHED_REQUESTS
    return Workload(
        name=name,
        engine="service" if service else "scheduler",
        requests=_interleave(jobs, cached_per_job, rng),
        populate=_populate_grid(seed, smoke) if service else None,
    )
