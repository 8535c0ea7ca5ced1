"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each ``repro`` layer, from
this file, in spans: name, start, end, parent and run id.  Spans and
counts stay in memory while the run lasts and are written once it ends
(:meth:`Recorder.write`).  A span's self time is its duration minus the
time of the wrapped calls made inside it, and a group's self time is the
sum over its spans, so nested calls are never counted twice.

Generator functions (the simulated services, the training machines) are
timed per resume: the wrapper hands back a :class:`TimedGenerator` proxy
whose ``send``/``throw`` each make one span.  Every DES process is
proxied the same way, with its group taken from the module that defined
the generator, so the kernel's own time (``sim.run``) is what remains of
``Environment.run`` once the processes it resumes are taken out.

Spans live per thread (the local backend runs roles on threads), so a
group's self time on that backend is summed over threads and can exceed
the wall time.  Roles that run in forked processes (the procs backend)
inherit the wrappers but record into their own copy of the recorder,
which the parent never sees: those layers are reported as missing.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from types import GeneratorType

__all__ = ["Recorder", "TimedGenerator", "LAYER_TARGETS", "PROCESS_GROUPS"]

#: (module, attribute path, span group) — the public entry points of each
#: layer.  A free function is replaced in every loaded ``repro`` module
#: that holds it, so ``from x import f`` call sites are covered too.
LAYER_TARGETS = [
    ("repro.sim.core", "Environment.run", "sim.run"),
    ("repro.exec.sim", "drive", "exec.job"),
    ("repro.exec.local", "drive", "exec.job"),
    ("repro.exec.local", "run_local_job", "exec.job"),
    ("repro.exec.procs", "run_procs_job", "exec.job"),
    ("repro.storage.sizing", "payload_size", "storage.sizing"),
    ("repro.storage.kv_store", "KVStore.set", "storage.service"),
    ("repro.storage.kv_store", "KVStore.get", "storage.service"),
    ("repro.storage.kv_store", "KVStore.get_or_none", "storage.service"),
    ("repro.storage.kv_store", "KVStore.delete", "storage.service"),
    ("repro.storage.kv_store", "KVStore.exists", "storage.service"),
    ("repro.storage.object_store", "ObjectStore.put", "storage.service"),
    ("repro.storage.object_store", "ObjectStore.get", "storage.service"),
    ("repro.storage.message_queue", "MessageQueue.publish", "storage.service"),
    ("repro.storage.message_queue", "MessageQueue.consume", "storage.service"),
    ("repro.storage.message_queue", "MessageQueue.consume_with_timeout",
     "storage.service"),
    ("repro.storage.message_queue", "MessageQueue.drain", "storage.service"),
    ("repro.storage.message_queue", "Exchange.publish", "storage.service"),
    ("repro.net.bandwidth", "Link.transfer", "storage.service"),
    ("repro.faas.platform", "FaaSPlatform.invoke", "faas.platform"),
    ("repro.faas.function", "InvocationContext.compute", "faas.platform"),
    ("repro.faas.function", "InvocationContext.sleep", "faas.platform"),
    ("repro.core.worker", "train_step", "core.train_step"),
    ("repro.core.significance", "SignificanceFilter.step", "core.significance"),
    ("repro.core.significance", "SignificanceFilter.add", "core.significance"),
    ("repro.core.significance", "SignificanceFilter.extract_significant",
     "core.significance"),
    ("repro.core.autotuner", "ScaleInScheduler.observe", "core.autotuner"),
    ("repro.core.autotuner", "ScaleInScheduler.should_evict", "core.autotuner"),
    ("repro.core.driver", "MLLessDriver.run", "core.machine"),
    ("repro.ml.models.pmf", "PMF.gradient", "ml.model_gradient"),
    ("repro.ml.models.logistic_regression", "LogisticRegression.gradient",
     "ml.model_gradient"),
    ("repro.ml.models.mlp", "LayeredMLP.gradient", "ml.model_gradient"),
    ("repro.ml.models.mlp", "LayeredMLP.stage_forward", "ml.mlp_stage"),
    ("repro.ml.models.mlp", "LayeredMLP.output_grad", "ml.mlp_stage"),
    ("repro.ml.models.mlp", "LayeredMLP.stage_backward", "ml.mlp_stage"),
    ("repro.ml.optim.base", "Optimizer.step", "ml.optimizer"),
    ("repro.ml.parameters", "ParameterSet.apply", "ml.apply"),
    ("repro.ml.parameters", "ParameterSet.apply_many", "ml.apply"),
    ("repro.ml.parameters", "ModelUpdate.merge", "ml.merge"),
    ("repro.ml.parameters", "ModelUpdate.merge_many", "ml.merge"),
    ("repro.ml.sparse", "SparseDelta.merge", "ml.merge"),
    ("repro.ml.sparse", "SparseDelta.merge_many", "ml.merge"),
    ("repro.platform.scheduler", "FairShareScheduler.submit",
     "platform.scheduler"),
    ("repro.platform.scheduler", "FairShareScheduler.kick", "platform.scheduler"),
    ("repro.platform.pool", "SharedPool.launch", "platform.other"),
    ("repro.platform.scenario", "run_scenario", "platform.other"),
]

#: DES process generators, and the machines the backends drive, are
#: grouped by the module that defined them; the first matching prefix wins.  Kernel-internal processes (none
#: today) and modules outside the layers stay unwrapped.
PROCESS_GROUPS = [
    ("repro.platform.scheduler", "platform.scheduler"),
    ("repro.platform.", "platform.other"),
    ("repro.faas.", "faas.platform"),
    ("repro.core.", "core.machine"),
    ("repro.exec.", "exec.job"),
    ("repro.storage.", "storage.service"),
    ("repro.net.", "storage.service"),
]

#: group of the benchmark's own counting work inside a traced run
BOOKKEEPING = "trace.bookkeeping"


class _ThreadBuffer:
    """One thread's span stack and span columns (no cross-thread appends)."""

    __slots__ = ("stack", "next_id", "ids", "parents", "names", "starts",
                 "ends", "self_s")

    def __init__(self, slot: int):
        self.stack = []
        #: span ids are unique across threads: the slot sits in the high bits
        self.next_id = (slot << 40) + 1
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s = defaultdict(float)


class Recorder:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.counts = defaultdict(float)
        self.storage_services = []
        self.faas_platforms = []
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self._names = {}
        self._patches = []

    # -- spans ------------------------------------------------------------
    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, group: str) -> int:
        code = self._names.get(group)
        if code is None:
            code = self._names.setdefault(group, len(self._names))
        return code

    def enter(self):
        buf = self._buffer()
        sid = buf.next_id
        buf.next_id = sid + 1
        parent = buf.stack[-1][0] if buf.stack else 0
        frame = [sid, 0.0, parent, time.perf_counter()]
        buf.stack.append(frame)
        return frame

    def exit(self, group: str, frame) -> None:
        end = time.perf_counter()
        buf = self._local.buf
        buf.stack.pop()
        duration = end - frame[3]
        buf.self_s[group] += duration - frame[1]
        if buf.stack:
            buf.stack[-1][1] += duration
        buf.ids.append(frame[0])
        buf.parents.append(frame[2])
        buf.names.append(self._name_id(group))
        buf.starts.append(frame[3])
        buf.ends.append(end)

    def span_count(self) -> int:
        return sum(len(buf.ids) for buf in self._buffers)

    def self_seconds(self) -> dict:
        """Self time per span group, summed over threads."""
        total = defaultdict(float)
        for buf in self._buffers:
            for group, seconds in buf.self_s.items():
                total[group] += seconds
        return dict(total)

    def write(self, path: str) -> None:
        """Write every span once, after the run: a compressed NumPy archive."""
        import numpy as np

        columns = {
            name: np.concatenate(
                [np.frombuffer(getattr(buf, name), dtype=dtype) for buf in self._buffers]
            ) if self._buffers else np.zeros(0, dtype=dtype)
            for name, dtype in (("ids", np.int64), ("parents", np.int64),
                                ("names", np.int32), ("starts", np.float64),
                                ("ends", np.float64))
        }
        names = sorted(self._names, key=self._names.get)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            run_id=np.int64(self.run_id),
            group_names=np.array(names),
            span_id=columns["ids"],
            parent_id=columns["parents"],
            group=columns["names"],
            start_s=columns["starts"],
            end_s=columns["ends"],
        )

    # -- wrapping ---------------------------------------------------------
    def wrap_function(self, fn, group: str):
        recorder = self
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                return TimedGenerator(fn(*args, **kwargs), group, recorder)

            generator_wrapper.__wrapped__ = fn
            return generator_wrapper

        def wrapper(*args, **kwargs):
            frame = recorder.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(group, frame)
            if type(result) is GeneratorType:
                return TimedGenerator(result, group, recorder)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_drive(self, fn, group: str):
        """Wrap a backend's machine trampoline, and time the machine it drives.

        Role tables built at import time hold the machines' original
        functions, so the machine generator is proxied here, grouped by the
        module that defined it, like a DES process.
        """
        recorder = self
        traced_drive = self.wrap_function(fn, group)

        def drive(machine):
            if not isinstance(machine, TimedGenerator):
                machine_group = _process_group(machine)
                if machine_group is not None:
                    machine = TimedGenerator(machine, machine_group, recorder)
            return traced_drive(machine)

        return drive

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in :data:`LAYER_TARGETS` and hook instance capture."""
        for module_name, path, group in LAYER_TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap_function(raw.__func__, group)))
                elif isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self.wrap_function(raw.__func__, group)))
                else:
                    self._set(cls, attr, self.wrap_function(raw, group))
            else:
                original = getattr(module, path)
                wrapped = (
                    self.wrap_drive(original, group) if path == "drive"
                    else self.wrap_function(original, group)
                )
                for name, mod in list(sys.modules.items()):
                    if not name.startswith("repro") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        self._hook_processes()
        self._hook_instances()
        self._hook_isp_counts()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hook_processes(self) -> None:
        from repro.sim.core import Environment

        recorder = self
        process = Environment.__dict__["process"]
        run = Environment.__dict__["run"]  # already wrapped by install()

        def traced_process(env, generator, name=""):
            if not isinstance(generator, TimedGenerator):
                group = _process_group(generator)
                if group is not None:
                    generator = TimedGenerator(generator, group, recorder)
            return process(env, generator, name)

        def counted_run(env, until=None):
            # Scheduled events, read from the kernel's sequence counter
            # around each run; every scheduled event gets a sequence number.
            before = getattr(env, "_seq", 0)
            try:
                return run(env, until)
            finally:
                recorder.counts["sim.events"] += getattr(env, "_seq", 0) - before

        self._set(Environment, "process", traced_process)
        self._set(Environment, "run", counted_run)

    def _hook_instances(self) -> None:
        from repro.faas.platform import FaaSPlatform
        from repro.storage.base import StorageService

        recorder = self
        service_init = StorageService.__dict__["__init__"]
        platform_init = FaaSPlatform.__dict__["__init__"]

        def capture_service(service, *args, **kwargs):
            service_init(service, *args, **kwargs)
            recorder.storage_services.append(service)

        def capture_platform(platform, *args, **kwargs):
            platform_init(platform, *args, **kwargs)
            recorder.faas_platforms.append(platform)

        self._set(StorageService, "__init__", capture_service)
        self._set(FaaSPlatform, "__init__", capture_platform)

    def _hook_isp_counts(self) -> None:
        """Count ISP candidates and sent entries around each filter step.

        The candidates of one step are the accumulator's nonzero entries
        before extraction: the ones still nonzero after it plus the ones
        sent.  Counting runs in its own span group so no layer pays for it.
        """
        import numpy as np
        from repro.core.significance import SignificanceFilter

        recorder = self
        step = SignificanceFilter.__dict__["step"]  # already wrapped
        lock = threading.Lock()

        def counted_step(filt, params, update, t):
            outgoing = step(filt, params, update, t)
            frame = recorder.enter()
            try:
                sent = outgoing.nnz
                residual = sum(
                    int(np.count_nonzero(acc)) for acc in filt.accumulated.values()
                )
                with lock:
                    recorder.counts["core.isp_sent_entries"] += sent
                    recorder.counts["core.isp_candidate_entries"] += sent + residual
            finally:
                recorder.exit(BOOKKEEPING, frame)
            return outgoing

        self._set(SignificanceFilter, "step", counted_step)


def _process_group(generator):
    frame = getattr(generator, "gi_frame", None)
    if frame is None:
        return None
    module = frame.f_globals.get("__name__", "")
    for prefix, group in PROCESS_GROUPS:
        if module.startswith(prefix):
            return group
    return None


class TimedGenerator:
    """Generator proxy: each resume (``send``/``throw``) is one span."""

    def __init__(self, generator, group: str, recorder: Recorder):
        self._generator = generator
        self._group = group
        self._recorder = recorder
        self.__name__ = getattr(generator, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        recorder = self._recorder
        frame = recorder.enter()
        try:
            return self._generator.send(value)
        finally:
            recorder.exit(self._group, frame)

    def throw(self, *args):
        recorder = self._recorder
        frame = recorder.enter()
        try:
            return self._generator.throw(*args)
        finally:
            recorder.exit(self._group, frame)

    def close(self):
        return self._generator.close()
