"""The benchmark's whole-run workloads and their output checks.

Each workload drives the program only through its public entry points
(``mlless_config``/``make_workload``/``run_mlless`` and
``repro.platform.scenario.run_scenario``) and checks what comes back
against figures computed here, apart from the program: the bill from
the activation records and the Table 2 prices, ln 2 for the first LR
loss, the sim backend's per-step losses for the real backends.

An *operation* is a training step, or a platform job.  One call of
``run`` is a *round*: a whole training job or a whole platform day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Table 2 of the paper: VM hourly prices, and the function price per
#: GB-second (3.4e-5 $/s at 2 GB).  Kept here, not read from the program,
#: so the bill check is independent of ``repro.pricing``.
VM_PRICE_PER_HOUR = {"C1.4x4": 0.15, "M1.2x16": 0.17, "B1.4x8": 0.20}
FUNCTION_PRICE_PER_GB_S = 1.7e-5
BILLING_QUANTUM_S = 0.1
#: tolerance for the real backends' per-step losses against the sim backend
LOSS_PARITY = 1e-9
#: relative tolerance when a re-derived money figure must equal the program's
MONEY_RTOL = 1e-9


@dataclass
class Outcome:
    """What the benchmark keeps of one round."""

    ops: int
    problems: List[str]
    #: workload-specific end-to-end figures: name -> (value, unit)
    details: Dict[str, tuple] = field(default_factory=dict)
    #: the outputs a traced round must reproduce exactly
    signature: Any = None


def _losses(result) -> List[float]:
    return [float(v) for v in result.monitor.series("loss_by_step").as_arrays()[1]]


def _same(a: Outcome, b: Outcome) -> bool:
    return a.signature == b.signature


def _parity_problems(label: str, got: List[float], want: List[float]) -> List[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} step losses, reference has {len(want)}"]
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if not worst <= LOSS_PARITY:
        return [f"{label}: per-step loss differs from the sim backend by {worst:.3g}"]
    return []


def _bill_problems(result) -> List[str]:
    bill, rederived = result.total_cost, rederived_bill(result)
    if not math.isclose(bill, rederived, rel_tol=MONEY_RTOL, abs_tol=0.0):
        return [f"bill {bill!r} != re-derived {rederived!r}"]
    return []


def rederived_bill(result) -> float:
    """Functions at 100 ms round-up x GB x rate, plus VM leases at Table 2."""
    functions = 0.0
    for record in result.meter.faas.records:
        duration = record.end - record.start
        quanta = max(1, math.ceil(duration / BILLING_QUANTUM_S - 1e-9))
        functions += (
            quanta * BILLING_QUANTUM_S * (record.memory_mb / 1024.0)
            * FUNCTION_PRICE_PER_GB_S
        )
    leases = sum(
        (lease.end - lease.start) * VM_PRICE_PER_HOUR[lease.instance.name] / 3600.0
        for lease in result.meter.leases
    )
    return functions + leases


class PmfIspScaleInSim:
    name = "pmf-isp-scalein-sim"
    rate = ("steps_per_s", "steps/s")
    #: layers that run in forked role processes, out of the tracer's sight
    invisible: tuple = ()

    def setup(self, seed: int):
        from repro.experiments.common import mlless_config
        from repro.experiments.settings import make_workload

        workload = make_workload("pmf-ml20m")
        # The dataset is the workload's fixed stand-in (dataset seed 1);
        # the seed drives the job: model init, sampling and the simulated
        # cloud's latencies.  See the README for why.
        config = mlless_config(
            workload, 12, v=0.7, autotune=True,
            dataset=workload.dataset(seed=1), seed=seed,
        )
        return workload, config

    def reference(self, state):
        return None

    def run(self, state):
        from repro.experiments.common import run_mlless

        return run_mlless(state[1])

    same_outputs = staticmethod(_same)

    def compare(self, outcome: Outcome, reference) -> List[str]:
        return []

    def check(self, state, result) -> Outcome:
        workload, config = state
        problems = []
        losses = _losses(result)
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite loss")
        time_to_target = result.time_to_loss(workload.target_loss)
        if not result.converged or time_to_target is None:
            problems.append("target RMSE not reached")
        workers = [float(v) for v in result.monitor.series("workers").as_arrays()[1]]
        if not workers or workers[0] != config.n_workers:
            problems.append(f"worker series does not start at {config.n_workers}")
        if any(b > a for a, b in zip(workers, workers[1:])):
            problems.append("worker series rises")
        if not workers or not workers[-1] < config.n_workers:
            problems.append("worker pool never scaled in")
        problems += _bill_problems(result)
        bill = result.total_cost
        return Outcome(
            ops=result.total_steps,
            problems=problems,
            details={
                "sim_time_to_target_s": (time_to_target or 0.0, "sim_s"),
                "sim_cost_usd": (bill, "USD"),
                "final_loss": (float(result.final_loss), "rmse"),
            },
            signature=(result.total_steps, tuple(losses), tuple(workers), bill),
        )

    def layer_counts(self, result) -> Dict[str, float]:
        return {}


class _FixedStepRealBackend:
    """A fixed-step job on a real backend, checked against the sim backend."""

    steps = 300
    rate = ("steps_per_s", "steps/s")
    backend = ""
    loss_unit = ""

    def config(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int):
        return self.config(seed)

    def reference(self, config):
        from repro.experiments.common import run_mlless

        return _losses(run_mlless(config, backend="sim"))

    def run(self, config):
        from repro.experiments.common import run_mlless

        return run_mlless(config, backend=self.backend)

    def check(self, config, result) -> Outcome:
        losses = _losses(result)
        problems = []
        if result.total_steps != self.steps or len(losses) != self.steps:
            problems.append(
                f"ran {result.total_steps} steps ({len(losses)} losses), "
                f"expected {self.steps}"
            )
        problems += self.extra_problems(losses)
        return Outcome(
            ops=result.total_steps,
            problems=problems,
            details={"final_loss": (float(result.final_loss), self.loss_unit)},
            signature=(result.total_steps, tuple(losses)),
        )

    def compare(self, outcome: Outcome, reference) -> List[str]:
        return _parity_problems(self.backend, list(outcome.signature[1]), reference)

    def same_outputs(self, a: Outcome, b: Outcome) -> bool:
        # The real backends are held to the sim backend at LOSS_PARITY,
        # not bitwise, so repeated rounds are compared at that tolerance too.
        return a.signature[0] == b.signature[0] and not _parity_problems(
            self.backend, list(a.signature[1]), list(b.signature[1])
        )

    def extra_problems(self, losses: List[float]) -> List[str]:
        return []

    def layer_counts(self, result) -> Dict[str, float]:
        return {}


class LrCriteoProcs(_FixedStepRealBackend):
    name = "lr-criteo-procs"
    backend = "procs"
    loss_unit = "bce"
    invisible = ("core.", "ml.")

    def config(self, seed: int):
        from repro.experiments.common import mlless_config
        from repro.experiments.settings import make_workload

        workload = make_workload("lr-criteo")
        # target 0 never stops the job early: it runs its fixed steps
        return mlless_config(
            workload, 2, v=0.7, target_loss=0.0, max_steps=self.steps,
            dataset=workload.dataset(seed=seed), seed=seed,
        )

    def extra_problems(self, losses: List[float]) -> List[str]:
        # zero-initialized weights predict 0.5 for every sample
        if losses and not math.isclose(losses[0], math.log(2.0), rel_tol=0.0, abs_tol=1e-12):
            return [f"step-1 BCE {losses[0]!r} != ln 2"]
        return []


class MlpDataParallelLocal(_FixedStepRealBackend):
    """Dense MLP, data-parallel on threads (not gated, see the README)."""

    name = "mlp-dataparallel-local"
    backend = "local"
    loss_unit = "mse"
    invisible = ()

    def config(self, seed: int):
        return _mlp_config(seed, n_workers=2)

    def extra_problems(self, losses: List[float]) -> List[str]:
        if not all(math.isfinite(v) for v in losses):
            return ["non-finite loss"]
        return []


def _mlp_config(seed: int, n_workers: int, **kwargs):
    from repro.experiments.common import mlless_config
    from repro.experiments.settings import make_workload

    workload = make_workload("mlp-synth")
    return mlless_config(
        workload, n_workers, v=0.0, target_loss=0.0,
        max_steps=_FixedStepRealBackend.steps,
        dataset=workload.dataset(seed=seed), seed=seed, **kwargs,
    )


class MlpPipelineSim:
    """Dense MLP in 3 pipeline stages x 4 micro-batches on the sim backend.

    The same pipeline on the local backend fails now and then (its stage
    threads race on a shared monitor series, see the README), so the
    pipeline is measured where it runs single-threaded.
    """

    name = "mlp-pipeline-sim"
    rate = ("steps_per_s", "steps/s")
    invisible: tuple = ()
    same_outputs = staticmethod(_same)

    def setup(self, seed: int):
        return _mlp_config(seed, n_workers=3, pipeline_stages=3, micro_batches=4)

    def reference(self, config):
        return None

    def run(self, config):
        from repro.experiments.common import run_mlless

        return run_mlless(config)

    def compare(self, outcome: Outcome, reference) -> List[str]:
        return []

    def check(self, config, result) -> Outcome:
        losses = _losses(result)
        problems = []
        if result.total_steps != config.max_steps or len(losses) != config.max_steps:
            problems.append(f"ran {result.total_steps} steps, expected {config.max_steps}")
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite loss")
        problems += _bill_problems(result)
        bill = result.total_cost
        return Outcome(
            ops=result.total_steps,
            problems=problems,
            details={
                "sim_cost_usd": (bill, "USD"),
                "final_loss": (float(result.final_loss), "mse"),
            },
            signature=(result.total_steps, tuple(losses), bill),
        )

    def layer_counts(self, result) -> Dict[str, float]:
        return {}


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


class PlatformDaySim:
    name = "platform-day-sim"
    rate = ("jobs_per_s", "jobs/s")
    invisible: tuple = ()

    def setup(self, seed: int):
        from repro.platform.arrivals import generate_arrivals
        from repro.platform.scenario import ScenarioConfig
        from repro.platform.tenants import make_tenant_fleet
        from repro.sim import RandomStreams

        config = ScenarioConfig(seed=seed, horizon_s=86400.0)
        # The scenario build: the tenant fleet and the day's arrivals.
        # run_scenario repeats it internally; here it also gives the
        # number of jobs every round must complete.
        arrivals = generate_arrivals(
            make_tenant_fleet(config.n_tenants), config.traffic, config.sizes,
            RandomStreams(seed=config.seed), config.horizon_s,
        )
        return config, len(arrivals)

    def reference(self, state):
        return None

    def run(self, state):
        from repro.platform.scenario import run_scenario

        return run_scenario(state[0])

    same_outputs = staticmethod(_same)

    def compare(self, outcome: Outcome, reference) -> List[str]:
        return []

    def check(self, state, result) -> Outcome:
        _, arrived = state
        problems = []
        records = result.records
        done = [r for r in records if r.finished_at is not None and r.ok]
        if len(records) != arrived or len(done) != arrived:
            problems.append(f"{len(done)} of {arrived} arrived jobs completed")
        report = result.report
        invoiced = sum(inv.active_cost for inv in report.invoices.values())
        if not math.isclose(
            invoiced + report.unattributed_cost, report.billing_total_cost,
            rel_tol=MONEY_RTOL, abs_tol=0.0,
        ):
            problems.append(
                f"invoices {invoiced!r} + unattributed {report.unattributed_cost!r}"
                f" != bill {report.billing_total_cost!r}"
            )
        n_jobs = max(len(done), 1)
        cost_per_job = (report.billing_total_cost + report.idle_cost_total) / n_jobs
        reported = result.metrics["cost_per_job_shared_usd"]
        if not math.isclose(cost_per_job, reported, rel_tol=MONEY_RTOL, abs_tol=0.0):
            problems.append(f"cost per job {reported!r} != re-derived {cost_per_job!r}")
        waits = [r.queue_wait for r in done] or [0.0]
        p95 = nearest_rank(waits, 95.0)
        if p95 != result.metrics["queue_wait_p95_s"]:
            problems.append("p95 queue wait does not match the job records")
        return Outcome(
            ops=len(records),
            problems=problems,
            details={
                "cost_per_job_usd": (cost_per_job, "USD"),
                "queue_wait_p95_s": (p95, "sim_s"),
            },
            signature=(result.digest, len(records), report.billing_total_cost),
        )

    def layer_counts(self, result) -> Dict[str, float]:
        metrics = result.metrics
        return {
            "platform.dispatches": metrics["scheduler_dispatches"],
            "platform.cold_activations": metrics["cold_activations"],
            "platform.warm_activations": metrics["warm_activations"],
        }


WORKLOADS = {
    w.name: w
    for w in (
        PmfIspScaleInSim(), MlpPipelineSim(), PlatformDaySim(),
        LrCriteoProcs(), MlpDataParallelLocal(),
    )
}


def service_counts(recorder) -> Dict[str, float]:
    """Storage and FaaS counts from the service instances a traced round built."""
    from repro.storage import KVStore, MessageQueue, ObjectStore

    counts = {
        "storage.kv_requests": 0.0, "storage.kv_bytes": 0.0,
        "storage.kv_busy_sim_s": 0.0, "storage.cos_bytes": 0.0,
        "storage.mq_requests": 0.0, "faas.activations": 0.0,
        "faas.cold_starts": 0.0, "faas.gb_s": 0.0,
    }
    for service in recorder.storage_services:
        m = service.metrics
        if isinstance(service, KVStore):
            counts["storage.kv_requests"] += m.total_requests
            counts["storage.kv_bytes"] += m.bytes_in + m.bytes_out
            counts["storage.kv_busy_sim_s"] += m.busy_time
        elif isinstance(service, ObjectStore):
            counts["storage.cos_bytes"] += m.bytes_in + m.bytes_out
        elif isinstance(service, MessageQueue):
            counts["storage.mq_requests"] += m.total_requests
    for platform in recorder.faas_platforms:
        for record in platform.billing.records:
            counts["faas.activations"] += 1
            counts["faas.cold_starts"] += bool(record.cold)
            counts["faas.gb_s"] += record.gb_seconds
    return counts
