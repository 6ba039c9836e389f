"""The serve session: ``repro serve --width 2`` under two tenants.

It runs inside the traced ``spmv-standard`` run and reports per-layer
metrics only (its end-to-end figures spread too widely on a 2-vCPU host to
carry a bound; see ``METRICS.md``).  The server runs in its own process,
so the load generator never shares its interpreter lock.  The generator is
this process: two closed-loop client connections with no think time.

* ``bulk`` resubmits the ``spmv-standard`` grid.
* ``short`` resubmits a small BFS job over four datasets drawn from the
  seed.

After the warm-up jobs every worker cache hits, so what each job still
pays is the parent-side path: corpus expansion, staging and CRCs, shared
memory, IPC, wire framing and the round-robin dispatcher.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

from lib import (
    ROOT, SHORT_KERNELS, WORK, BenchError, child_env, digest, median,
    percentile, read_line, recorded_digests, run_child, wire_key,
)

WIDTH = 2
SHM_DIR = "/dev/shm"
#: Smoke datasets the short tenant draws from: random graphs with Poisson
#: or uniform degrees, whose BFS depth and per-unit cost are alike.  Every
#: bulk unit waits for one short unit in the round-robin dispatcher, so a
#: draw with a long-path graph (a band) would slow the bulk tenant and make
#: the seed, not the program, move its latency.
SHORT_POOL = ("poisson_4", "poisson_16", "poisson_64", "uniform_8",
              "uniform_32", "small_uniform_1k")


def jobs_for(seed: int, size: str) -> tuple[dict, dict]:
    from serial import jobs_for as sweeps

    bulk = sweeps("spmv-standard", seed, size)[0]
    short = {"app": "bfs", "kernels": list(SHORT_KERNELS), "scale": "smoke",
             "datasets": random.Random(seed).sample(SHORT_POOL, 4),
             "seed": seed}
    return bulk, short


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def process_tree(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, []))
    return tree


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak RSS (``VmHWM``) of the given processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` process, started and drained from outside."""

    def __init__(self, env_extra: dict | None = None):
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self._log = open(logs / f"serve-{os.getpid()}.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--width", str(WIDTH)],
            stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(env_extra), cwd=str(ROOT),
        )
        try:
            line = read_line(self.proc.stdout, 60.0)
            if "listening on" not in line:
                raise BenchError(f"server did not announce: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def client(self):
        from repro.service import SweepClient

        client = SweepClient("127.0.0.1", self.port, connect_timeout=30.0,
                             idle_timeout=120.0)
        client.connect()
        return client

    def stop(self) -> int:
        """Drain (SIGTERM), escalating to a kill if it will not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def run_job(client, tenant: str, job: dict) -> dict:
    """Submit one job and stream it to ``done``, timestamping each message."""
    from repro.service import JobRejected

    rec = {"tenant": tenant, "submit": time.perf_counter(), "rows": [],
           "arrivals": [], "errors": [], "status": None}
    try:
        accepted = client.submit(job)
    except JobRejected as exc:
        rec["status"] = f"rejected:{exc.reason}"
        return rec
    rec["accepted"] = time.perf_counter()
    rec["units"] = int(accepted["units"])
    for message in client.stream(accepted):
        now = time.perf_counter()
        kind = message.get("type")
        if kind == "row":
            rec["rows"].append(message["row"])
            rec["arrivals"].append(now)
        elif kind == "row_error":
            rec["errors"].append(message)
        else:
            rec["status"] = message.get("status")
            rec["done"] = now
    return rec


class Window:
    """The measured window, and the load that outlasts it.

    A job counts when it is submitted inside the window.  A tenant past the
    window keeps resubmitting until every tenant is past it, so the last
    counted bulk job never runs without the short tenant's competition.
    """

    def __init__(self, tenants, seconds: float):
        self.start = time.perf_counter()
        self.stop_at = self.start + seconds
        self._inside = set(tenants)
        self._lock = threading.Lock()

    def leave(self, tenant: str) -> None:
        with self._lock:
            self._inside.discard(tenant)

    def keep_going(self, tenant: str) -> bool:
        if time.perf_counter() < self.stop_at:
            return True
        self.leave(tenant)
        with self._lock:
            return bool(self._inside)

    def counted(self, records: list[dict]) -> list[dict]:
        return [r for r in records if r["submit"] < self.stop_at]


def tenant_loop(server: Server, tenant: str, job: dict, window: Window,
                records: list) -> None:
    """One closed-loop client: resubmit as soon as the last job is done."""
    from repro.service import ServiceError

    client = None
    try:
        client = server.client()
        while window.keep_going(tenant):
            records.append(run_job(client, tenant, job))
    except (ServiceError, OSError) as exc:
        window.leave(tenant)  # a broken tenant must not hold the others
        records.append({"tenant": tenant, "submit": time.perf_counter(),
                        "rows": [], "arrivals": [], "errors": [],
                        "status": f"error:{type(exc).__name__}: {exc}"})
    finally:
        if client is not None:
            client.close()


class Accounting:
    """Failed rows, row digests and validation across every served job."""

    def __init__(self, jobs: dict, size: str):
        self.jobs = jobs
        self.expected_rows: dict[str, int] = {}
        self.recorded = recorded_digests(size)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, rec: dict) -> None:
        tenant = rec["tenant"]
        kernels = len(self.jobs[tenant]["kernels"])
        if "units" in rec:
            self.expected_rows[tenant] = rec["units"] * kernels
        expected = self.expected_rows.get(tenant, kernels)
        good = [r for r in rec["rows"]
                if (r.get("meta") or {}).get("status") not in ("timeout",
                                                               "error")]
        failed = max(0, expected - len(good))
        if rec["status"] != "ok":
            failed = max(failed, 1)
        self.attempted += expected
        self.failed += failed
        for err in rec["errors"]:
            if "AssertionError" in str(err.get("error")):
                self.problems.append(f"{tenant}: {err.get('error')}")

    def verify(self, records: list[dict]) -> None:
        """Compare served rows with a serial ``run_suite`` of each job."""
        for tenant, job in self.jobs.items():
            _, serial = run_child({"mode": "sweep", **job,
                                   "names": job.get("datasets")})
            if "error" in serial:
                self.problems.append(f"serial {tenant}: {serial['error']}")
                continue
            pinned = self.recorded.get(
                "short@0" if tenant == "short" else job["app"])
            if pinned is not None and (tenant == "bulk" or job["seed"] == 0):
                if serial["digest"] != pinned:
                    self.problems.append(
                        f"serial {tenant}: digest {serial['digest'][:16]} != "
                        f"recorded {pinned[:16]}")
            allowed = {tuple(k) for k in serial["keys"]}
            for rec in records:
                if rec["tenant"] != tenant:
                    continue
                keys = [wire_key(r) for r in rec["rows"]]
                if any(tuple(k) not in allowed for k in keys):
                    self.problems.append(
                        f"{tenant}: served rows differ from run_suite")
                elif rec["status"] == "ok" and digest(keys) != serial["digest"]:
                    self.problems.append(f"{tenant}: served job digest differs")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def session(seed: int, seconds: float, size: str,
            server_env: dict | None = None) -> dict:
    """Serve both tenants for ``seconds``; per-layer metrics of the run.

    ``server_env`` adds environment variables to the server process only.
    """
    bulk, short = jobs_for(seed, size)
    jobs = {"bulk": bulk, "short": short}
    acct = Accounting(jobs, size)
    shm_before = shm_segments()
    server = None
    try:
        start = time.perf_counter()
        server = Server(server_env)
        warmups = []
        for tenant, job in jobs.items():
            client = server.client()
            try:
                warmups.append(run_job(client, tenant, job))
            finally:
                client.close()
        setup_s = time.perf_counter() - start

        probe = server.client()
        before = probe.info()["executor"]
        records: list[dict] = []
        window = Window(jobs, seconds)
        threads = [threading.Thread(target=tenant_loop, daemon=True,
                                    args=(server, tenant, job, window,
                                          records))
                   for tenant, job in jobs.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        if any(thread.is_alive() for thread in threads):
            raise BenchError("a tenant did not finish within 300 s")
        after = probe.info()["executor"]
        status = probe.status()
        probe.close()
        rss = peak_rss_mb(process_tree(server.proc.pid))
    finally:
        if server is not None:
            server.stop()

    for rec in warmups + records:
        acct.count(rec)
    acct.verify(warmups + records)
    _, extra = run_child({"mode": "probe", "app": "spmv",
                          "bulk": bulk, "short": short})
    if "error" in extra:
        raise BenchError(f"probe failed: {extra['error']}")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        acct.problems.append(f"{len(leaked)} leaked shm segments")

    counted = window.counted(records)
    done = {tenant: [r for r in counted
                     if r["tenant"] == tenant and r.get("done") is not None]
            for tenant in jobs}
    if not done["bulk"] or not done["short"]:
        raise BenchError("a tenant completed no job in the window")
    short_s = [r["done"] - r["submit"] for r in done["short"]]
    # Throughput: every row that arrived while counted jobs were running.
    window_end = max(r["done"] for r in counted if r.get("done"))
    streamed = sum(1 for r in records for t in r["arrivals"]
                   if t <= window_end)
    served = [row for r in counted for row in r["rows"]]
    gaps = []
    for rec in counted:
        firsts, seen = [], set()
        for row, when in zip(rec["rows"], rec["arrivals"]):
            if row["dataset"] not in seen:
                seen.add(row["dataset"])
                firsts.append(when)
        gaps.extend(b - a for a, b in zip(firsts, firsts[1:]))
    delta = Counter(after)
    delta.subtract(Counter({k: v for k, v in before.items()
                            if isinstance(v, (int, float))}))
    meta = [row.get("meta") or {} for row in served]
    retries = status.get("retries", {})
    metrics = {
        "serve.setup_s": setup_s,
        "bulk_job_p50_s": median([r["done"] - r["submit"]
                                  for r in done["bulk"]]),
        "bulk_first_row_p50_s": median([r["arrivals"][0] - r["submit"]
                                        for r in done["bulk"]
                                        if r["arrivals"]]),
        "short_job_p50_s": median(short_s),
        "short_job_p90_s": percentile(short_s, 90),
        "short_jobs": len(short_s),
        "serve.rows_per_s": streamed / (window_end - window.start),
        "serve.peak_rss_mb": rss,
        "serve.accept_s": median([r["accepted"] - r["submit"]
                                  for r in counted if "accepted" in r]),
        "serve.row_gap_p50_s": median(gaps),
        "serve.expand_s.bulk": extra["expand_s.bulk"],
        "serve.expand_s.short": extra["expand_s.short"],
        "pool.content_key_s": extra["content_key_s"],
        "shm.publish_s": extra["shm_publish_s"],
        "shm.attach_s": extra["shm_attach_s"],
        "oracle.publish_s": extra["oracle_publish_s"],
        "oracle.attach_s": extra["oracle_attach_s"],
        "pool.warm_sweep_s": extra["warm_sweep_s"],
        "pool.problem_cache_hit_ratio": _ratio(
            sum(m.get("problem_cache") == "hit" for m in meta), len(meta)),
        "pool.sticky_ratio": _ratio(
            sum((m.get("placement") or {}).get("mode") == "sticky"
                for m in meta), len(meta)),
        "pool.shm_reuse_ratio": _ratio(
            delta["shm_reused"], delta["shm_reused"] + delta["shm_published"]),
        "pool.oracle_reuse_ratio": _ratio(delta["oracle_reused"],
                                          delta["shards"]),
        "pool.batch_retries": retries.get("batch_retries", 0),
        "pool.transport_fallbacks": retries.get("transport_fallbacks", 0),
        "pool.degraded_shards": retries.get("degraded_shards", 0),
        "serve.jobs_rejected": status.get("jobs", {}).get("rejected", 0),
        "serve.jobs_timed_out": status.get("jobs", {}).get("timed_out", 0),
        "shm.leaked_segments": len(leaked),
    }
    metrics.update(wire_metrics(served))
    detail = {"short_job_p90_s": (metrics["short_job_p90_s"], "s",
                                  len(short_s)),
              "bulk_job_p50_s": (metrics["bulk_job_p50_s"], "s",
                                 len(done["bulk"]))}
    return {"correct": not acct.problems, "attempted": acct.attempted,
            "failed": acct.failed, "problems": acct.problems,
            "metrics": metrics, "detail": detail}


def wire_metrics(served: list[dict], repeats: int = 5) -> dict:
    """Per-row cost of the service's wire framing, on the streamed rows."""
    from repro.service.protocol import (
        decode_message, encode_message, row_from_wire, row_to_wire,
    )

    rows = [row_from_wire(w) for w in served[:2000]]
    encode, decode = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        lines = [encode_message({"type": "row", "job_id": "j", "seq": i,
                                 "row": row_to_wire(row)})
                 for i, row in enumerate(rows)]
        encode.append((time.perf_counter() - start) / len(rows))
        start = time.perf_counter()
        for line in lines:
            row_from_wire(decode_message(line)["row"])
        decode.append((time.perf_counter() - start) / len(rows))
    return {
        "wire.encode_us_per_row": median(encode) * 1e6,
        "wire.decode_us_per_row": median(decode) * 1e6,
        "wire.bytes_per_row": sum(map(len, lines)) / len(lines),
    }
