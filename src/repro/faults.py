"""Deterministic, seedable fault injection for chaos testing.

The executor, transport, journal and service layers call
:func:`inject` at named *sites* (e.g. ``"worker.batch"``,
``"shm.attach"``, ``"journal.write"``).  With no spec configured the
call is a cheap no-op; with a spec it compiles into per-site rules that
fire deterministically, so every failure path in the stack can be
exercised from a test or from the environment:

    REPRO_FAULTS="worker.batch:hang@0.1;shm.attach:crc@2;journal.write:torn@1"

Spec grammar — semicolon-separated rules, each ``site:kind@trigger``:

``site``
    Dotted checkpoint name.  The instrumented sites are listed in
    :data:`KNOWN_SITES`; unknown sites are accepted (they simply never
    fire) so specs survive refactors.
``kind``
    ``hang``   sleep for ``REPRO_FAULTS_HANG_SECONDS`` (default 300 s)
               — simulates a stalled worker/job;
    ``crash``  ``os._exit(13)`` — simulates a SIGKILL'd process;
    ``slow``   sleep ``REPRO_FAULTS_SLOW_SECONDS`` (default 0.25 s);
    ``err``    raise :class:`FaultInjected`;
    ``crc``    data corruption — *returned* to the call site, which
               applies it (e.g. fail the attach CRC check);
    ``torn``   partial write — returned to the call site;
    ``drop``   lose the artifact (vanished shm block, dropped
               connection) — returned to the call site.
``trigger`` (optional, default ``1``)
    ``*``      fire on every hit;
    integer N  fire exactly once, on the Nth hit of that site;
    float p    fire each hit with probability p, drawn from a
               per-rule ``random.Random`` seeded from
               ``REPRO_FAULTS_SEED`` and the rule text — the same
               seed always yields the same firing sequence.

Counters are per-process: a forked worker re-reads the environment and
starts its own hit counts, so ``@2`` means "second hit *in that
process*".  :func:`faults_active` reports every rule's hit/fire counts
for the current process (surfaced by the service ``status`` probe).
"""

from __future__ import annotations

import os
import random
import threading
import time
import zlib
from dataclasses import dataclass, field

from ._env import env_number

__all__ = [
    "FaultInjected",
    "FaultRule",
    "KNOWN_SITES",
    "clear_faults",
    "configure_faults",
    "faults_active",
    "inject",
    "parse_fault_spec",
]

FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
HANG_SECONDS_ENV = "REPRO_FAULTS_HANG_SECONDS"
SLOW_SECONDS_ENV = "REPRO_FAULTS_SLOW_SECONDS"

DEFAULT_HANG_SECONDS = 300.0
DEFAULT_SLOW_SECONDS = 0.25

#: Kinds inject() performs itself; the remaining kinds (crc/torn/drop)
#: are returned for the call site to apply in a site-specific way.
BEHAVIORAL_KINDS = frozenset({"hang", "crash", "slow", "err"})
DATA_KINDS = frozenset({"crc", "torn", "drop"})
KINDS = BEHAVIORAL_KINDS | DATA_KINDS

#: The checkpoints instrumented across the stack (documentation +
#: spec sanity checking; unknown sites still parse).
KNOWN_SITES = (
    "worker.start",      # worker warmup (initializer)
    "worker.batch",      # entry of a worker batch run
    "shm.publish",       # parent publishing a dataset bundle
    "shm.attach",        # worker attaching a dataset bundle
    "oracle.publish",    # worker publishing an oracle payload
    "oracle.attach",     # worker attaching a shared oracle payload
    "journal.write",     # RecordJournal.append (results journal)
    "serve.dispatch",    # service executing one job unit
    "serve.journal",     # service journaling a job event
    "serve.connection",  # service writing a reply to a client
)


class FaultInjected(RuntimeError):
    """Raised by an ``err`` fault (and usable by call sites for data
    kinds they choose to surface as exceptions)."""


@dataclass
class FaultRule:
    """One compiled ``site:kind@trigger`` clause."""

    site: str
    kind: str
    trigger: str            # the raw trigger text, for reporting
    nth: int | None = None  # fire once, on the Nth hit
    probability: float | None = None
    every: bool = False
    hits: int = 0
    fires: int = 0
    _rng: random.Random | None = field(default=None, repr=False)

    def should_fire(self) -> bool:
        self.hits += 1
        if self.every:
            fire = True
        elif self.nth is not None:
            fire = self.hits == self.nth
        else:
            assert self._rng is not None
            fire = self._rng.random() < (self.probability or 0.0)
        if fire:
            self.fires += 1
        return fire


def parse_fault_spec(spec: str, *, seed: int = 0) -> list[FaultRule]:
    """Compile a ``site:kind@trigger;...`` spec into rules.

    Raises ``ValueError`` on malformed clauses so a typo'd
    ``REPRO_FAULTS`` fails loudly rather than silently injecting
    nothing.
    """

    rules: list[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, _, trigger = clause.partition("@")
        site, sep, kind = head.rpartition(":")
        if not sep or not site or not kind:
            raise ValueError(
                f"malformed fault clause {clause!r}: expected site:kind[@trigger]"
            )
        kind = kind.strip().lower()
        if kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {clause!r} "
                f"(choose from {sorted(KINDS)})"
            )
        trigger = trigger.strip() or "1"
        rule = FaultRule(site=site.strip(), kind=kind, trigger=trigger)
        if trigger == "*":
            rule.every = True
        else:
            try:
                if "." in trigger or "e" in trigger.lower():
                    rule.probability = float(trigger)
                else:
                    rule.nth = int(trigger)
            except ValueError:
                raise ValueError(
                    f"bad fault trigger {trigger!r} in {clause!r}: "
                    "expected '*', an integer hit count, or a float probability"
                ) from None
            if rule.probability is not None:
                if not 0.0 <= rule.probability <= 1.0:
                    raise ValueError(
                        f"fault probability {rule.probability} in {clause!r} "
                        "outside [0, 1]"
                    )
                rule._rng = random.Random(
                    seed ^ zlib.crc32(f"{rule.site}:{rule.kind}".encode())
                )
            elif rule.nth is not None and rule.nth < 1:
                raise ValueError(f"fault hit count in {clause!r} must be >= 1")
        rules.append(rule)
    return rules


class FaultRegistry:
    """Per-process compiled spec with hit counters."""

    def __init__(
        self,
        rules: list[FaultRule],
        *,
        spec: str = "",
        seed: int = 0,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
        slow_seconds: float = DEFAULT_SLOW_SECONDS,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.hang_seconds = hang_seconds
        self.slow_seconds = slow_seconds
        self.pid = os.getpid()
        self.rules_by_site: dict[str, list[FaultRule]] = {}
        for rule in rules:
            self.rules_by_site.setdefault(rule.site, []).append(rule)
        self._lock = threading.Lock()

    def fire(self, site: str) -> str | None:
        rules = self.rules_by_site.get(site)
        if not rules:
            return None
        fired: FaultRule | None = None
        with self._lock:
            for rule in rules:
                if rule.should_fire() and fired is None:
                    fired = rule
        if fired is None:
            return None
        kind = fired.kind
        if kind == "hang":
            time.sleep(self.hang_seconds)
        elif kind == "crash":
            os._exit(13)
        elif kind == "slow":
            time.sleep(self.slow_seconds)
        elif kind == "err":
            raise FaultInjected(f"injected fault at {site!r}")
        return kind

    def report(self) -> dict:
        with self._lock:
            return {
                "enabled": bool(self.rules_by_site),
                "spec": self.spec,
                "seed": self.seed,
                "sites": {
                    site: [
                        {
                            "kind": r.kind,
                            "trigger": r.trigger,
                            "hits": r.hits,
                            "fires": r.fires,
                        }
                        for r in rules
                    ]
                    for site, rules in self.rules_by_site.items()
                },
            }


_LOCK = threading.Lock()
_REGISTRY: FaultRegistry | None = None
_EXPLICIT = False  # configure_faults() wins over the environment


def _build_from_env() -> FaultRegistry:
    spec = os.environ.get(FAULTS_ENV, "") or ""
    seed = int(env_number(FAULTS_SEED_ENV, 0, float))
    try:
        rules = parse_fault_spec(spec, seed=seed)
    except ValueError as exc:
        import warnings

        warnings.warn(
            f"ignoring malformed {FAULTS_ENV}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        rules = []
    return FaultRegistry(
        rules,
        spec=spec,
        seed=seed,
        hang_seconds=env_number(HANG_SECONDS_ENV, DEFAULT_HANG_SECONDS, float),
        slow_seconds=env_number(SLOW_SECONDS_ENV, DEFAULT_SLOW_SECONDS, float),
    )


def _registry() -> FaultRegistry:
    """The current process's registry, rebuilt lazily after a fork so
    worker processes get fresh counters from their inherited env."""

    global _REGISTRY, _EXPLICIT
    reg = _REGISTRY
    pid = os.getpid()
    if reg is not None and reg.pid == pid:
        return reg
    with _LOCK:
        reg = _REGISTRY
        if reg is not None and reg.pid == pid:
            return reg
        _EXPLICIT = False  # explicit config does not survive a fork
        _REGISTRY = _build_from_env()
        return _REGISTRY


def inject(site: str) -> str | None:
    """Fault checkpoint.

    Returns ``None`` when no fault fires.  Behavioral kinds (hang,
    crash, slow, err) are performed here; data kinds (``"crc"``,
    ``"torn"``, ``"drop"``) are returned for the call site to apply.
    """

    reg = _REGISTRY
    if reg is not None and reg.pid == os.getpid():
        if not reg.rules_by_site:
            return None
        return reg.fire(site)
    return _registry().fire(site)


def configure_faults(
    spec: str | None,
    *,
    seed: int = 0,
    hang_seconds: float | None = None,
    slow_seconds: float | None = None,
) -> FaultRegistry:
    """Programmatically install a fault spec for this process
    (overrides the environment until :func:`clear_faults`)."""

    global _REGISTRY, _EXPLICIT
    rules = parse_fault_spec(spec or "", seed=seed)
    reg = FaultRegistry(
        rules,
        spec=spec or "",
        seed=seed,
        hang_seconds=(
            env_number(HANG_SECONDS_ENV, DEFAULT_HANG_SECONDS, float)
            if hang_seconds is None
            else hang_seconds
        ),
        slow_seconds=(
            env_number(SLOW_SECONDS_ENV, DEFAULT_SLOW_SECONDS, float)
            if slow_seconds is None
            else slow_seconds
        ),
    )
    with _LOCK:
        _REGISTRY = reg
        _EXPLICIT = True
    return reg


def clear_faults() -> None:
    """Drop any configured registry; the next :func:`inject` re-reads
    the environment."""

    global _REGISTRY, _EXPLICIT
    with _LOCK:
        _REGISTRY = None
        _EXPLICIT = False


def faults_active() -> dict:
    """Report the current process's fault rules and counters."""

    return _registry().report()
